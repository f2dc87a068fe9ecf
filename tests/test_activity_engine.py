"""Tests for activity-driven scheduling: idle-skip clocks, wake-ups, the
tuple-based event heap, and the slotted hot-path objects."""

import pytest

from repro.design.generator import build_system
from repro.design.spec import ChannelSpec, NISpec, NoCSpec, PortSpec
from repro.network.packet import Flit, Packet, PacketHeader, packet_to_flits
from repro.sim.clock import (
    Clock,
    ClockedComponent,
    always_tick,
    run_cycles,
    set_default_idle_skip,
)
from repro.sim.engine import SimulationError, Simulator


class Worker(ClockedComponent):
    """Ticks while it has pending work; idle otherwise."""

    def __init__(self):
        self.work = 0
        self.ticks = []

    def tick(self, cycle):
        self.ticks.append(cycle)
        if self.work:
            self.work -= 1

    def is_idle(self):
        return self.work == 0

    def add_work(self, amount=1):
        self.work += amount
        self.notify_active()


class AlwaysBusy(ClockedComponent):
    def __init__(self):
        self.ticks = []

    def tick(self, cycle):
        self.ticks.append(cycle)


# ---------------------------------------------------------------------------
# Clock idle-skip and wake-up
# ---------------------------------------------------------------------------
class TestIdleSkip:
    def test_clock_sleeps_when_all_components_idle(self):
        sim = Simulator()
        clock = Clock(sim, 500.0)
        worker = Worker()
        clock.add_component(worker)
        clock.start()
        sim.run_for(20000)
        # Edge 0 fires, observes the idle worker, and the clock sleeps.
        assert worker.ticks == [0]
        assert clock.sleeping
        assert sim.pending_events() == 0
        # Time still advances through the requested window.
        assert sim.now == 20000

    def test_wake_fires_next_edge_strictly_after_stimulus(self):
        sim = Simulator()
        clock = Clock(sim, 500.0)  # 2000 ps period
        worker = Worker()
        clock.add_component(worker)
        clock.start()
        sim.run_for(10000)
        assert worker.ticks == [0] and clock.sleeping
        # Stimulus at t=10000 (an edge instant): the first edge that can
        # react is the next one, cycle 6 at t=12000 — matching always-tick,
        # where the edge at the stimulus instant ran before the stimulus.
        worker.add_work(1)
        assert not clock.sleeping
        sim.run_for(4000)
        assert worker.ticks == [0, 6]

    def test_cycle_index_is_time_derived_across_sleep(self):
        sim = Simulator()
        clock = Clock(sim, 500.0)
        worker = Worker()
        clock.add_component(worker)
        clock.start()
        sim.run_for(100000)
        worker.add_work(2)
        sim.run_for(100000)
        # Woken at t=100000 -> edges at cycles 51 and 52 drain the work, then
        # the clock sleeps again.  Slot alignment (cycle % S) is preserved.
        assert worker.ticks == [0, 51, 52]
        assert clock.cycle == 52

    def test_default_component_keeps_clock_awake(self):
        sim = Simulator()
        clock = Clock(sim, 500.0)
        busy = AlwaysBusy()
        clock.add_component(busy)
        clock.start()
        sim.run_for(10000)
        assert busy.ticks == [0, 1, 2, 3, 4, 5]
        assert not clock.sleeping

    def test_always_tick_mode_never_sleeps(self):
        sim = Simulator()
        with always_tick():
            clock = Clock(sim, 500.0)
        worker = Worker()
        clock.add_component(worker)
        clock.start()
        sim.run_for(10000)
        assert worker.ticks == [0, 1, 2, 3, 4, 5]
        assert not clock.sleeping

    def test_set_default_idle_skip_returns_previous(self):
        previous = set_default_idle_skip(False)
        try:
            assert previous is True
            assert Clock(Simulator(), 500.0).idle_skip is False
        finally:
            set_default_idle_skip(previous)

    def test_commit_event_skipped_without_post_tick_components(self):
        sim = Simulator()
        clock = Clock(sim, 500.0, idle_skip=False)
        clock.add_component(AlwaysBusy())   # no post_tick override
        clock.start()
        sim.run_for(10000)
        # 6 edges (0..5), no commit events: one event per cycle plus the
        # pending edge for cycle 6.
        assert sim.executed_events == 6

    def test_component_added_to_sleeping_clock_gets_ticked(self):
        sim = Simulator()
        clock = Clock(sim, 500.0)
        clock.add_component(Worker())
        clock.start()
        sim.run_for(10000)
        assert clock.sleeping
        late = AlwaysBusy()
        clock.add_component(late)
        assert not clock.sleeping
        sim.run_for(10000)
        assert late.ticks  # the late component ticks from the next edge on

    def test_coincident_edges_run_in_clock_creation_order(self):
        """Cross-clock stimulus at a coincident instant is observed one
        period late by an earlier-created clock — identically in both
        engine modes, even when the stimulating clock is slower."""

        class Receiver(ClockedComponent):
            def __init__(self):
                self.mailbox = 0
                self.seen_at = None

            def tick(self, cycle):
                if self.mailbox and self.seen_at is None:
                    self.seen_at = cycle

            def is_idle(self):
                return not self.mailbox

        class Sender(ClockedComponent):
            def __init__(self, receiver, at_cycle):
                self.receiver = receiver
                self.at_cycle = at_cycle

            def tick(self, cycle):
                if cycle == self.at_cycle:
                    self.receiver.mailbox += 1
                    self.receiver.notify_active()

            def is_idle(self):
                return False

        def run(idle_skip):
            sim = Simulator()
            fast = Clock(sim, 500.0, idle_skip=idle_skip)    # created first
            slow = Clock(sim, 250.0, idle_skip=idle_skip)    # 4000 ps
            receiver = Receiver()
            fast.add_component(receiver)
            slow.add_component(Sender(receiver, at_cycle=5))  # t = 20000 ps
            fast.start()
            slow.start()
            sim.run_for(60000)
            return receiver.seen_at

        # The stimulus lands at t=20000 ps, a coincident edge instant.  The
        # earlier-created fast clock's edge (cycle 10) runs first, so the
        # stimulus is observed at cycle 11 — in both modes.
        assert run(idle_skip=True) == run(idle_skip=False) == 11

    def test_idle_mesh_executes_at_least_10x_fewer_events(self):
        def run():
            nis = [NISpec(name=f"ni{r}_{c}", router=(r, c),
                          ports=[PortSpec(name="p", kind="master", shell=None,
                                          channels=[ChannelSpec(8, 8)])])
                   for r in range(4) for c in range(4)]
            spec = NoCSpec(name="idle", topology="mesh", rows=4, cols=4,
                           nis=nis)
            system = build_system(spec)
            system.run_flit_cycles(1000)
            return system.sim.executed_events

        active = run()
        with always_tick():
            seed = run()
        assert seed >= 10 * active


# ---------------------------------------------------------------------------
# run_cycles contract
# ---------------------------------------------------------------------------
class TestRunCycles:
    def test_exactly_n_edges_from_fresh_clock(self):
        sim = Simulator()
        clock = Clock(sim, 500.0)
        busy = AlwaysBusy()
        clock.add_component(busy)
        run_cycles(sim, clock, 3)
        assert busy.ticks == [0, 1, 2]
        assert clock.cycle == 2

    def test_consecutive_calls_compose(self):
        sim = Simulator()
        clock = Clock(sim, 500.0)
        busy = AlwaysBusy()
        clock.add_component(busy)
        run_cycles(sim, clock, 3)
        run_cycles(sim, clock, 2)
        assert busy.ticks == [0, 1, 2, 3, 4]

    def test_zero_cycles_is_a_no_op(self):
        sim = Simulator()
        clock = Clock(sim, 500.0)
        busy = AlwaysBusy()
        clock.add_component(busy)
        run_cycles(sim, clock, 0)
        assert busy.ticks == []

    def test_negative_cycles_raises(self):
        sim = Simulator()
        clock = Clock(sim, 500.0)
        with pytest.raises(SimulationError):
            run_cycles(sim, clock, -1)

    def test_time_advances_through_idle_windows(self):
        sim = Simulator()
        clock = Clock(sim, 500.0)
        worker = Worker()
        clock.add_component(worker)
        run_cycles(sim, clock, 5)
        # Only edge 0 executed (idle-skip), but the window covers 5 instants.
        assert worker.ticks == [0]
        assert sim.now == clock.edge_time(4)
        run_cycles(sim, clock, 5)
        assert sim.now == clock.edge_time(9)


# ---------------------------------------------------------------------------
# Event heap: cancellation accounting and compaction
# ---------------------------------------------------------------------------
class TestEventHeap:
    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        first = sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        assert sim.pending_events() == 2
        first.cancel()
        assert sim.pending_events() == 1
        first.cancel()  # double-cancel is a no-op
        assert sim.pending_events() == 1
        sim.run()
        assert sim.pending_events() == 0
        assert sim.executed_events == 1

    def test_cancel_after_execution_is_a_no_op(self):
        sim = Simulator()
        event = sim.schedule(10, lambda: None)
        sim.run()
        event.cancel()
        assert sim.pending_events() == 0

    def test_peek_does_not_lose_live_events(self):
        sim = Simulator()
        cancelled = sim.schedule(5, lambda: None)
        hits = []
        sim.schedule(10, lambda: hits.append(sim.now))
        cancelled.cancel()
        sim.run(until=3)   # peeks past the cancelled head without executing
        assert sim.pending_events() == 1
        sim.run()
        assert hits == [10]

    def test_mass_cancellation_compacts_the_heap(self):
        sim = Simulator()
        events = [sim.schedule(i + 1, lambda: None) for i in range(1000)]
        for event in events[:900]:
            event.cancel()
        assert sim.pending_events() == 100
        # The heap itself was compacted, not just the accounting.
        assert len(sim._queue) < 1000
        sim.run()
        assert sim.executed_events == 100

    def test_run_until_advances_time_on_empty_queue(self):
        sim = Simulator()
        sim.run(until=12345)
        assert sim.now == 12345


# ---------------------------------------------------------------------------
# Slotted hot-path objects
# ---------------------------------------------------------------------------
class TestSlots:
    def _flit(self):
        header = PacketHeader(path=(1,), remote_qid=0)
        packet = Packet(header, [1, 2, 3, 4])
        return packet_to_flits(packet)[0]

    def test_flit_has_no_dict(self):
        flit = self._flit()
        assert not hasattr(flit, "__dict__")
        with pytest.raises(AttributeError):
            flit.arbitrary_attribute = 1

    def test_packet_header_has_no_dict(self):
        header = PacketHeader(path=(1,), remote_qid=0)
        assert not hasattr(header, "__dict__")
        with pytest.raises(AttributeError):
            header.arbitrary_attribute = 1

    def test_packet_has_no_dict(self):
        packet = Packet(PacketHeader(path=(1,), remote_qid=0), [1])
        assert not hasattr(packet, "__dict__")

    def test_event_handle_has_no_dict(self):
        event = Simulator().schedule(10, lambda: None)
        assert not hasattr(event, "__dict__")


# ---------------------------------------------------------------------------
# Burst delivery vs the wake protocol (batched pipeline invariant): a link
# holding any part of a burst must report busy, so the consumer's clock
# keeps ticking until the last flit is consumed.  PR 1's wake protocol is
# the invariant batching most easily breaks — a link that reported idle
# while a burst sat staged would let the clock sleep and strand the flits.
# ---------------------------------------------------------------------------
class TestBurstWakeProtocol:
    def _gt_flits(self, count):
        from repro.network.packet import Packet, PacketHeader, packet_to_flits
        header = PacketHeader(path=(0,), remote_qid=0, is_gt=True)
        # FLIT_WORDS is 3: one header word + 2 payload words per flit.
        payload = list(range(3 * count - 1))
        flits = packet_to_flits(Packet(header, payload))
        assert len(flits) == count
        return flits

    def _build(self, burst_len):
        from repro.network.link import Link

        class Producer(ClockedComponent):
            """Sends one burst at cycle 1, then reports idle forever."""

            def __init__(self, link, flits):
                self.link = link
                self.flits = flits
                self.sent = False

            def tick(self, cycle):
                if not self.sent and cycle >= 1:
                    self.link.send_burst(list(self.flits), cycle)
                    self.sent = True

            def is_idle(self):
                return self.sent

        class Consumer(ClockedComponent):
            """Drains the link; deliberately always reports idle.

            Only the link's own busy state may hold the clock awake:
            if Link.is_idle() lied, the clock would sleep mid-burst and
            the received count would fall short.
            """

            def __init__(self, link):
                self.link = link
                self.received = []

            def tick(self, cycle):
                burst = self.link.take_staged_burst()
                if burst is not None:
                    self.received.extend(burst)
                    return
                flit = self.link.take()
                if flit is not None:
                    self.received.append(flit)

            def is_idle(self):
                return True

        sim = Simulator()
        clock = Clock(sim, 500.0, name="flit")
        link = Link("l")
        flits = self._gt_flits(burst_len)
        producer = Producer(link, flits)
        consumer = Consumer(link)
        # Tick order mirrors the real pipeline: producer (kernel) first,
        # then the consumer (router); the link commits on post_tick.
        clock.add_component(producer)
        clock.add_component(consumer)
        clock.add_component(link)
        return sim, clock, link, consumer, flits

    def test_staged_burst_holds_clock_awake_until_drained(self):
        sim, clock, link, consumer, flits = self._build(4)
        clock.start()
        sim.run(until=sim.now + 40 * clock.period_ps)
        assert consumer.received == flits
        assert link.is_idle()
        # With everything drained the clock must now be asleep (no events).
        assert sim.pending_events() == 0

    def test_trickled_be_burst_holds_clock_awake_until_drained(self):
        from repro.network.link import Link
        from repro.network.packet import Packet, PacketHeader, packet_to_flits
        sim, clock, link, consumer, _ = self._build(1)
        header = PacketHeader(path=(0,), remote_qid=0, is_gt=False)
        be_flits = packet_to_flits(Packet(header, list(range(8))))
        assert len(be_flits) > 2
        # Replace the producer's single-flit burst with a BE burst, which
        # the link delivers by trickling one flit per cycle.
        producer = clock._components[0]
        producer.flits = be_flits
        clock.start()
        sim.run(until=sim.now + 60 * clock.period_ps)
        assert consumer.received == be_flits
        assert link.is_idle()
        assert sim.pending_events() == 0

    def test_broken_idle_report_would_strand_the_burst(self):
        """Negative control: prove the test pins Link.is_idle, not luck."""
        sim, clock, link, consumer, flits = self._build(4)
        link.is_idle = lambda: True  # simulate the bug batching could add
        clock.start()
        sim.run(until=sim.now + 40 * clock.period_ps)
        # The clock slept mid-burst: flits stranded inside the link.
        assert len(consumer.received) < len(flits)
        assert link.occupancy > 0
