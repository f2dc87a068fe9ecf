"""The NI kernel (Figure 2 of the paper).

The kernel:

* holds one :class:`~repro.core.channel.Channel` (source queue + destination
  queue + flow-control counters) per configured point-to-point connection
  endpoint;
* runs the GT/BE scheduler every flit cycle: if the current TDM slot is
  reserved for a guaranteed-throughput channel that has sendable data (or
  credits / a pending flush), that channel transmits; otherwise a best-effort
  channel is selected by the configured arbiter;
* packetizes messages from the source queues (header word = source route,
  remote queue id, piggybacked credits) and depacketizes incoming flits into
  the destination queues, adding piggybacked credits to the ``space`` counter
  of the corresponding channel;
* exposes every control register through a memory-mapped register file so the
  NI can be configured over the NoC itself (Section 4.3).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.core.channel import Channel, FlowControlError
from repro.core.port import NIPort
from repro.core.registers import (
    CHANNEL_REG_STRIDE,
    CTRL_ENABLE,
    CTRL_GT,
    INFO_NUM_CHANNELS,
    INFO_NUM_PORTS,
    INFO_NUM_SLOTS,
    NI_INFO_BASE,
    REG_CREDIT_THRESHOLD,
    REG_CTRL,
    REG_DATA_THRESHOLD,
    REG_FLUSH,
    REG_PATH,
    REG_REMOTE_QID,
    REG_SPACE,
    REG_STATUS,
    SLOT_TABLE_BASE,
    RegisterError,
    decode_path,
    encode_ctrl,
    encode_path,
)
from repro.core.scheduler import Arbiter, make_arbiter
from repro.network.link import Link
from repro.network.noc import Attachment
from repro.network.packet import (
    DEFAULT_MAX_PACKET_WORDS,
    FLIT_WORDS,
    MAX_HEADER_CREDITS,
    Flit,
    Packet,
    PacketHeader,
    packet_to_flits,
)
from repro.network.slot_table import SlotTable
from repro.sim.batching import NO_BARRIER, batching_default, burst_cap
from repro.sim.clock import ClockedComponent
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry
from repro.sim.trace import NULL_TRACER, Tracer

#: Destination queues are protected by end-to-end flow control, so the NI can
#: always accept flits from its router (the credits guarantee space).
_UNLIMITED_BE_SPACE = 1 << 30

#: Default clock-domain-crossing penalty (cycles of the reading clock).
DEFAULT_CDC_CYCLES = 2


class NIKernel(ClockedComponent):
    """The NI kernel: queues, scheduler, packetization and flow control."""

    def __init__(self, name: str, sim: Simulator, num_slots: int = 8,
                 max_packet_words: int = DEFAULT_MAX_PACKET_WORDS,
                 be_arbiter: str = "round_robin",
                 flit_period_ps: int = 6000,
                 tracer: Tracer = NULL_TRACER) -> None:
        if num_slots <= 0:
            raise ValueError("the slot table needs at least one slot")
        if max_packet_words <= 0:
            raise ValueError("max packet payload must be positive")
        self.name = name
        self.sim = sim
        self.num_slots = num_slots
        self.max_packet_words = max_packet_words
        self.flit_period_ps = flit_period_ps
        self.tracer = tracer
        self.stats = StatsRegistry()
        self.channels: List[Channel] = []
        self.ports: Dict[str, NIPort] = {}
        self.slot_table = SlotTable(num_slots)
        self.be_arbiter: Arbiter = (make_arbiter(be_arbiter)
                                    if isinstance(be_arbiter, str) else be_arbiter)
        self.to_network: Optional[Link] = None
        self.from_network: Optional[Link] = None
        self._gt_flits: Deque[Flit] = deque()
        self._be_flits: Deque[Flit] = deque()
        self._cycle = 0
        # ------------------------------------------------------- batching
        #: Captured process-wide default (repro.sim.batching): when True the
        #: kernel moves whole packet bursts per event; when False it runs
        #: the per-flit reference pipeline.  Both produce identical results.
        self._batching = batching_default()
        #: Maximum burst length; longer packets split into burst + per-flit
        #: remainder (property tests sweep this boundary).
        self._burst_cap = burst_cap()
        #: Next scheduled fault-event cycle (shared, mutable); bursts must
        #: fully drain before it.  Installed by the system builder when a
        #: fault plan exists.
        self.burst_barrier = NO_BARRIER
        #: End cycle of the current bounded run (shared, mutable; installed
        #: by ``SystemModel``): no burst may straddle a run boundary, so
        #: counter totals at every observation point equal the per-flit
        #: pipeline's.
        self._stop_barrier = NO_BARRIER
        #: Next metrics-sample cycle (shared, mutable; installed by the
        #: system builder when observers are declared): no burst may be in
        #: flight when the sampler reads, so sampled series equal the
        #: per-flit pipeline's at every sample point.
        self.obs_barrier = NO_BARRIER
        #: First cycle a new transmit decision is due: while a burst's
        #: flits stream mechanically, the scheduler has nothing to decide
        #: (exactly the cycles the per-flit path spent in its continuation
        #: branches).
        self._tx_busy_until = 0
        # ------------------------------------------------------- hot path
        # (see PERFORMANCE.md "hot path": invariants a ClockedComponent
        # author must preserve when touching any of this state)
        #: Ready-channel overlay: a superset of the BE channels that are
        #: potentially schedulable.  Every stimulus that can raise a
        #: channel's eligibility adds its index here (via the per-channel
        #: tx-wake closure or ``write_register``); ``_transmit_be`` scans
        #: only this overlay and lazily drops channels that went quiescent.
        #: A dict-of-None, not a set: the scan feeds arbitration, so its
        #: order must be insertion-deterministic, not hash-dependent
        #: (reprolint det-unordered-iter).
        self._be_ready: Dict[int, None] = {}
        #: Scratch list reused every cycle for the eligible indices handed
        #: to the arbiter (arbiters do not retain it).
        self._eligible_scratch: List[int] = []
        #: Slot->owner / slot->consecutive-run cache, invalidated by the
        #: slot table's version counter (bumped on every reservation
        #: mutation, including direct ``slot_table.reserve`` calls).
        self._slot_owners: List[Optional[int]] = [None] * num_slots
        self._slot_runs: List[int] = [1] * num_slots
        self._slot_cache_version = -1
        # Hot counters cached as attributes: one string-keyed registry
        # lookup at construction instead of one per flit per cycle.  The
        # objects stay shared with ``self.stats``, so summaries and tests
        # observe the same values.
        stats = self.stats
        self._ctr_gt_flits_sent = stats.counter("gt_flits_sent")
        self._ctr_gt_packets_sent = stats.counter("gt_packets_sent")
        self._ctr_gt_slots_unused = stats.counter("gt_slots_unused")
        self._ctr_be_flits_sent = stats.counter("be_flits_sent")
        self._ctr_be_packets_sent = stats.counter("be_packets_sent")
        self._ctr_be_stalls = stats.counter("be_stalls")
        self._ctr_words_sent = stats.counter("words_sent")
        self._ctr_credits_sent = stats.counter("credits_sent")
        self._ctr_credit_only_packets = stats.counter("credit_only_packets")
        self._ctr_credits_received = stats.counter("credits_received")
        self._ctr_words_received = stats.counter("words_received")
        self._ctr_packets_received = stats.counter("packets_received")
        self._ctr_gt_flits_received = stats.counter("gt_flits_received")
        self._ctr_be_flits_received = stats.counter("be_flits_received")
        self._hist_payload_words = stats.histogram("packet_payload_words")
        self._lat_network = stats.latency("packet_network_latency")

    # ------------------------------------------------------------- channels
    # Design-time wiring: a freshly added channel starts disabled and empty,
    # so it cannot change the kernel's idleness — no wake hook needed.
    def add_channel(self, source_queue_words: int = 8, dest_queue_words: int = 8,  # reprolint: disable=wake-mutate-no-notify
                    port_clock_period_ps: Optional[int] = None,
                    cdc_cycles: int = DEFAULT_CDC_CYCLES) -> Channel:
        """Instantiate a channel (design time, Section 4.1).

        The source queue is read by the kernel at the flit clock; the
        destination queue is read by the IP-side port at its own clock, so the
        CDC delay of each queue is expressed in cycles of its reader.
        """
        index = len(self.channels)
        reader_period = (port_clock_period_ps if port_clock_period_ps
                         else self.flit_period_ps)
        channel = Channel(index=index, name=f"{self.name}.ch{index}",
                          source_queue_words=source_queue_words,
                          dest_queue_words=dest_queue_words,
                          sim=self.sim,
                          source_cdc_delay_ps=cdc_cycles * self.flit_period_ps,
                          dest_cdc_delay_ps=cdc_cycles * reader_period)
        channel.set_tx_wake(self._make_tx_wake(index))
        self.channels.append(channel)
        return channel

    def _make_tx_wake(self, index: int):
        """Transmit-side wake hook for channel ``index``.

        Marks the channel ready for the BE scheduler scan and revives the
        kernel's clock.  Installed as both ``Channel._tx_wake`` and the
        source queue's ``on_push``, so every eligibility-raising stimulus
        (words, credits, space, flush — including direct queue pokes in
        tests) maintains the ready set.
        """
        be_ready = self._be_ready
        notify = self.notify_active

        def wake() -> None:
            be_ready[index] = None
            notify()

        return wake

    def channel(self, index: int) -> Channel:
        try:
            return self.channels[index]
        except IndexError as exc:
            raise RegisterError(
                f"{self.name}: channel {index} does not exist "
                f"({len(self.channels)} instantiated)") from exc

    @property
    def num_channels(self) -> int:
        return len(self.channels)

    # ----------------------------------------------------------------- ports
    # Design-time wiring: port grouping is metadata over existing channels
    # and cannot raise eligibility — no wake hook needed.
    def add_port(self, name: str, channel_indices: List[int]) -> NIPort:  # reprolint: disable=wake-mutate-no-notify
        """Group channels into an NI port (Figure 1: "NI kernel ports")."""
        if name in self.ports:
            raise ValueError(f"{self.name}: duplicate port name {name!r}")
        for index in channel_indices:
            self.channel(index)  # bounds check
        port = NIPort(kernel=self, name=name, channel_indices=list(channel_indices))
        self.ports[name] = port
        return port

    def port(self, name: str) -> NIPort:
        try:
            return self.ports[name]
        except KeyError as exc:
            raise KeyError(f"{self.name}: unknown port {name!r}") from exc

    # -------------------------------------------------------------- network
    def attach(self, attachment: Attachment) -> None:
        """Connect the kernel to its router-side links."""
        self.to_network = attachment.to_network
        self.from_network = attachment.from_network
        self.from_network.sink = self
        self.from_network.sink_port = 0
        self.to_network.source = self
        self.to_network.source_port = 0

    def attach_links(self, to_network: Link, from_network: Link) -> None:
        """Directly attach raw links (used by back-to-back NI tests).

        Performs the same wiring as :meth:`attach`, including the
        ``sink_port``/``source_port`` assignment, so back-to-back kernels
        exercise exactly the link configuration of the NoC path.
        """
        self.to_network = to_network
        self.from_network = from_network
        self.from_network.sink = self
        self.from_network.sink_port = 0
        self.to_network.source = self
        self.to_network.source_port = 0

    def be_space(self, port: int) -> int:
        """Link-level BE space: destination queues are guaranteed by credits."""
        return _UNLIMITED_BE_SPACE

    # ----------------------------------------------------------------- clock
    def tick(self, cycle: int) -> None:
        self._cycle = cycle
        self._receive(cycle)
        self._transmit(cycle)

    def is_idle(self) -> bool:
        """Activity predicate for idle-skip (see PERFORMANCE.md).

        The kernel is busy while it has partially transmitted packets, flits
        arriving from the network, any channel that is (or can become without
        new stimulus) schedulable — or any reserved TDM slot: an unused
        reserved slot is *observed* every cycle (the ``gt_slots_unused``
        counter), so a kernel with reservations must keep ticking to match
        always-tick statistics exactly.
        """
        if self._gt_flits or self._be_flits:
            return False
        if self.slot_table.has_reservations:
            return False
        from_network = self.from_network
        if from_network is not None and from_network.occupancy:
            return False
        for channel in self.channels:
            if channel.potentially_active():
                return False
        return True

    def is_quiescent(self) -> bool:
        """True when ticking only *observes* state (no data in flight).

        Weaker than :meth:`is_idle`: a kernel holding GT slot reservations
        is never idle (the ``gt_slots_unused`` counter must be sampled every
        cycle to match always-tick statistics), but once no flit, word or
        credit is in flight anywhere near it, further ticks change nothing a
        workload can see.  ``SystemModel.run_until_idle`` uses this to stop
        GT systems, whose event queue never drains, without polling
        overshoot.
        """
        if self._gt_flits or self._be_flits:
            return False
        from_network = self.from_network
        if from_network is not None and from_network.occupancy:
            return False
        for channel in self.channels:
            if channel.potentially_active():
                return False
        return True

    # --------------------------------------------------------------- receive
    def _receive(self, cycle: int) -> None:
        link = self.from_network
        if link is None:
            return
        burst = link._staged_burst
        if burst is not None:
            link._staged_burst = None
            self._receive_burst(burst, cycle)
            return
        flit = link.take()
        if flit is None:
            return
        packet = flit.packet
        qid = packet.header.remote_qid
        if qid >= len(self.channels):
            raise RegisterError(
                f"{self.name}: packet addressed to unknown queue {qid}")
        channel = self.channels[qid]
        if flit.is_head:
            credits = packet.header.credits
            if credits:
                channel.add_space(credits)
                self._ctr_credits_received.value += credits
        words = self._flit_payload(flit)
        for word in words:
            if not channel.dest_queue.can_push():
                raise FlowControlError(
                    f"{self.name}: destination queue of channel {qid} overflowed "
                    f"(end-to-end flow control violated)")
            # dest_queue.on_push wakes the IP-side reader's clock domain.
            channel.dest_queue.push(word)
        if words:
            self._ctr_words_received.value += len(words)
            channel._ctr_words_received.value += len(words)
            if packet.poisoned:
                # A faulty link corrupted this packet: the words are
                # delivered (framing stays intact) but flagged so the
                # message layer CRC-discards whatever they touch.
                channel.note_poisoned_words(len(words))
        if flit.is_tail:
            packet.delivered_cycle = cycle
            self._ctr_packets_received.value += 1
            if packet.injected_cycle is not None:
                self._lat_network.record(packet.injected_cycle, cycle)
            if self.tracer.enabled:
                self.tracer.record(self.sim.now, self.name,
                                   "packet_delivered",
                                   packet=packet.packet_id,
                                   channel=qid, gt=flit.is_gt)
        if flit.is_gt:
            self._ctr_gt_flits_received.value += 1
        else:
            self._ctr_be_flits_received.value += 1

    def _receive_burst(self, burst: List[Flit], cycle: int) -> None:
        """Depacketize a whole GT burst in one event.

        Word visibility stays flit-exact: flit ``j`` of the burst arrives at
        ``cycle + j``, so its words enter the destination queue dated
        ``now + j*flit_period + cdc`` — readers observe the identical word
        stream the per-flit pipeline delivers, just with the kernel-side
        events collapsed.  Credits post at the head (their real cycle);
        tail bookkeeping uses the tail's real arrival cycle.
        """
        head = burst[0]
        packet = head.packet
        qid = packet.header.remote_qid
        if qid >= len(self.channels):
            raise RegisterError(
                f"{self.name}: packet addressed to unknown queue {qid}")
        channel = self.channels[qid]
        credits = packet.header.credits
        if credits:
            channel.add_space(credits)
            self._ctr_credits_received.value += credits
        count = len(burst)
        nwords = -1  # the head flit's first word is the header
        for flit in burst:
            nwords += flit.num_words
        if nwords:
            dest = channel.dest_queue
            if not dest.can_push(nwords):
                raise FlowControlError(
                    f"{self.name}: destination queue of channel {qid} "
                    f"overflowed (end-to-end flow control violated)")
            # Burst flits cover a contiguous payload prefix (only a
            # packet's last flit can be short, and a split burst is always
            # a head-aligned prefix of the packet).
            words = packet.payload[:nwords]
            now = self.sim.now
            period = self.flit_period_ps
            cdc = dest.cdc_delay_ps
            pairs = []
            append = pairs.append
            index = 0
            for j, flit in enumerate(burst):
                n = flit.num_words - 1 if j == 0 else flit.num_words
                visible = now + j * period + cdc
                for _ in range(n):
                    append((visible, words[index]))
                    index += 1
            dest.push_run(pairs)
            self._ctr_words_received.value += nwords
            channel._ctr_words_received.value += nwords
            if packet.poisoned:
                channel.note_poisoned_words(nwords)
        if burst[count - 1].is_tail:
            tail_cycle = cycle + count - 1
            packet.delivered_cycle = tail_cycle
            self._ctr_packets_received.value += 1
            if packet.injected_cycle is not None:
                self._lat_network.record(packet.injected_cycle, tail_cycle)
            if self.tracer.enabled:
                # Bursts only form while the tracer is disabled, but one
                # already in flight when a tracer arms still records its
                # delivery (at the tail's real arrival time).
                self.tracer.record(self.sim.now + (count - 1)
                                   * self.flit_period_ps,
                                   self.name, "packet_delivered",
                                   packet=packet.packet_id,
                                   channel=qid, gt=True)
        self._ctr_gt_flits_received.value += count

    @staticmethod
    def _flit_payload(flit: Flit) -> List[int]:
        payload = flit.packet.payload
        if flit.is_head:
            return payload[:flit.num_words - 1]
        base = (FLIT_WORDS - 1) + (flit.index - 1) * FLIT_WORDS
        return payload[base:base + flit.num_words]

    # -------------------------------------------------------------- transmit
    def _transmit(self, cycle: int) -> None:
        if self.to_network is None:
            return
        if cycle < self._tx_busy_until:
            # A previously sent burst's flits are streaming mechanically;
            # the per-flit pipeline would spend these cycles in its
            # continuation branches with no new decision (and no counter
            # the batched path has not already accounted).
            return
        slot = cycle % self.num_slots
        if self._transmit_gt(cycle, slot):
            return
        self._transmit_be(cycle)

    def _burst_length(self, cycle: int, nflits: int, path_len: int) -> int:
        """Flits of a freshly formed packet that may travel as one burst.

        Truncation invariants (PERFORMANCE.md "Burst-granularity
        simulation"): the burst cap splits the packet, an armed/enabled
        tracer forces per-flit fallback, and a scheduled fault event
        truncates so the burst fully drains every hop strictly before the
        event applies.
        """
        if not self._batching or self.tracer.enabled:
            return 1
        length = nflits
        if self._burst_cap < length:
            length = self._burst_cap
        barrier = self.burst_barrier.cycle
        stop = self._stop_barrier.cycle
        if stop < barrier:
            barrier = stop
        obs = self.obs_barrier.cycle
        if obs < barrier:
            barrier = obs
        allowance = barrier - cycle - path_len - 2
        if allowance < length:
            length = allowance
        return length

    def _transmit_gt(self, cycle: int, slot: int) -> bool:
        # Continue an in-flight GT packet: its length was bounded by the
        # consecutive slots reserved for the channel, so the slot is ours.
        if self._gt_flits:
            self.to_network.send(self._gt_flits.popleft())
            self._ctr_gt_flits_sent.value += 1
            return True
        if self._slot_cache_version != self.slot_table.version:
            self._refresh_slot_cache()
        owner = self._slot_owners[slot]
        if owner is None:
            return False
        channel = self.channels[owner]
        if not channel.regs.gt or not channel.eligible():
            # The reserved slot goes unused by GT; BE may claim it.
            self._ctr_gt_slots_unused.value += 1
            return False
        run = self._slot_runs[slot]
        packet = self._form_packet(channel, gt=True, cycle=cycle,
                                   max_payload=min(self.max_packet_words,
                                                   FLIT_WORDS * run - 1))
        flits = packet_to_flits(packet)
        nflits = len(flits)
        if nflits > 1:
            length = self._burst_length(cycle, nflits,
                                        len(packet.header.path))
            if length >= 2:
                self.to_network.send_burst(
                    flits if length == nflits else flits[:length], cycle)
                self._tx_busy_until = cycle + length
                if length < nflits:
                    self._gt_flits.extend(flits[length:])
                self._ctr_gt_flits_sent.value += length
                self._ctr_gt_packets_sent.value += 1
                return True
        self.to_network.send(flits[0])
        self._gt_flits.extend(flits[1:])
        self._ctr_gt_flits_sent.value += 1
        self._ctr_gt_packets_sent.value += 1
        return True

    def _transmit_be(self, cycle: int) -> None:
        if self._be_flits:
            if self.to_network.can_send_be():
                self.to_network.send(self._be_flits.popleft())
                self._ctr_be_flits_sent.value += 1
            else:
                self._ctr_be_stalls.value += 1
            return
        ready = self._be_ready
        if not ready:
            return
        channels = self.channels
        eligible = self._eligible_scratch
        del eligible[:]
        stale = None
        for index in ready:
            channel = channels[index]
            if channel.regs.gt:
                # GT channels drift in through the shared wake hooks; they
                # are never BE-schedulable, so drop them from the overlay.
                if stale is None:
                    stale = []
                stale.append(index)
                continue
            if channel.eligible():
                eligible.append(index)
            elif not channel.potentially_active():
                if stale is None:
                    stale = []
                stale.append(index)
        if stale:
            for index in stale:
                ready.pop(index, None)
        if not eligible:
            return
        if not self.to_network.can_send_be():
            self._ctr_be_stalls.value += 1
            return
        choice = self.be_arbiter.select(eligible, channels)
        if choice is None:
            return
        channel = channels[choice]
        packet = self._form_packet(channel, gt=False, cycle=cycle,
                                   max_payload=self.max_packet_words)
        flits = packet_to_flits(packet)
        nflits = len(flits)
        if nflits > 1:
            length = self._burst_length(cycle, nflits,
                                        len(packet.header.path))
            if length >= 2:
                # BE bursts additionally stop at link credit exhaustion
                # (space for the whole run must exist up front — it can
                # only grow while this single source streams) and at the
                # first reserved TDM slot in the window, where the per-flit
                # scheduler could have preempted (or counted an unused
                # slot).  The slot cache is fresh: _transmit_gt just ran.
                capacity = self.to_network.be_send_capacity()
                if capacity < length:
                    length = capacity
                owners = self._slot_owners
                num_slots = self.num_slots
                limit = 1
                while (limit < length
                       and owners[(cycle + limit) % num_slots] is None):
                    limit += 1
                length = limit
            if length >= 2:
                self.to_network.send_burst(
                    flits if length == nflits else flits[:length], cycle)
                self._tx_busy_until = cycle + length
                if length < nflits:
                    self._be_flits.extend(flits[length:])
                self._ctr_be_flits_sent.value += length
                self._ctr_be_packets_sent.value += 1
                return
        self.to_network.send(flits[0])
        self._be_flits.extend(flits[1:])
        self._ctr_be_flits_sent.value += 1
        self._ctr_be_packets_sent.value += 1

    def _refresh_slot_cache(self) -> None:
        """Rebuild the slot->owner and slot->run caches from the slot table.

        Runs only when ``SlotTable.version`` moved (a reservation changed),
        so the per-cycle GT path reads two flat lists instead of calling
        ``owner()`` and re-deriving the consecutive-slot run every packet.
        """
        owners, runs = self.slot_table.owner_runs()
        self._slot_owners = owners
        self._slot_runs[:] = runs
        self._slot_cache_version = self.slot_table.version

    def _consecutive_slots(self, owner: int, start_slot: int) -> int:
        """Number of consecutive slots (starting at ``start_slot``) owned by
        ``owner``; bounds the length of a GT packet."""
        run = 0
        for offset in range(self.num_slots):
            slot = (start_slot + offset) % self.num_slots
            if self.slot_table.owner(slot) == owner:
                run += 1
            else:
                break
        return max(run, 1)

    def _form_packet(self, channel: Channel, gt: bool, cycle: int,
                     max_payload: int) -> Packet:
        """Packetization (the Pck block of Figure 2).

        "Once a queue is selected, a packet containing the largest possible
        amount of credits and data will be produced." (Section 4.1)
        """
        payload_words = min(channel.sendable, max_payload)
        payload = channel.source_queue.pop_many(payload_words)
        channel.consume_space(len(payload))
        credits = channel.take_credits(MAX_HEADER_CREDITS)
        header = PacketHeader(path=channel.regs.path,
                              remote_qid=channel.regs.remote_qid,
                              credits=credits,
                              is_gt=gt,
                              flush=channel.flush_pending,
                              channel_key=(self.name, channel.index))
        packet = Packet(header, payload, injected_cycle=cycle)
        channel.note_words_sent(len(payload))
        channel._ctr_words_sent.value += len(payload)
        channel._ctr_packets_sent.value += 1
        channel._ctr_credits_sent.value += credits
        self._ctr_words_sent.value += len(payload)
        self._ctr_credits_sent.value += credits
        if not payload:
            self._ctr_credit_only_packets.value += 1
        self._hist_payload_words.add(len(payload))
        if self.tracer.enabled:
            self.tracer.record(self.sim.now, self.name, "packet_formed",
                               packet=packet.packet_id,
                               channel=channel.index, gt=gt,
                               words=len(payload), credits=credits)
        return packet

    # ------------------------------------------------------------ registers
    def write_register(self, address: int, value: int) -> None:
        """Memory-mapped register write (the CNIP view, Section 4.3)."""
        if address >= NI_INFO_BASE:
            raise RegisterError(
                f"{self.name}: address 0x{address:x} is read-only")
        if address >= SLOT_TABLE_BASE:
            slot = address - SLOT_TABLE_BASE
            if slot >= self.num_slots:
                raise RegisterError(
                    f"{self.name}: slot {slot} out of range")
            if value == 0:
                self.slot_table.release(slot)
            else:
                channel_index = value - 1
                self.channel(channel_index)  # bounds check
                self.slot_table.release(slot)
                self.slot_table.reserve(slot, channel_index)
            self.notify_active()
            return
        channel_index, register = divmod(address, CHANNEL_REG_STRIDE)
        channel = self.channel(channel_index)
        if register == REG_CTRL:
            channel.regs.enabled = bool(value & CTRL_ENABLE)
            channel.regs.gt = bool(value & CTRL_GT)
        elif register == REG_PATH:
            channel.regs.path = decode_path(value)
        elif register == REG_REMOTE_QID:
            channel.regs.remote_qid = int(value)
        elif register == REG_SPACE:
            channel.space = int(value)
        elif register == REG_DATA_THRESHOLD:
            channel.regs.data_threshold = int(value)
        elif register == REG_CREDIT_THRESHOLD:
            channel.regs.credit_threshold = int(value)
        elif register == REG_FLUSH:
            if value:
                channel.request_flush()
        elif register == REG_STATUS:
            raise RegisterError(f"{self.name}: REG_STATUS is read-only")
        else:  # pragma: no cover - unreachable with valid stride
            raise RegisterError(f"{self.name}: unknown register {register}")
        # Any channel register write may raise eligibility (enable, GT->BE
        # flip, threshold drop, space refill): mark the channel ready so the
        # BE scheduler re-examines it.
        self._be_ready[channel_index] = None
        self.notify_active()
        self.tracer.record(self.sim.now, self.name, "register_write",
                           address=address, value=value)

    def read_register(self, address: int) -> int:
        if address >= NI_INFO_BASE:
            info = address - NI_INFO_BASE
            if info == INFO_NUM_CHANNELS:
                return self.num_channels
            if info == INFO_NUM_SLOTS:
                return self.num_slots
            if info == INFO_NUM_PORTS:
                return len(self.ports)
            raise RegisterError(f"{self.name}: unknown info register {info}")
        if address >= SLOT_TABLE_BASE:
            slot = address - SLOT_TABLE_BASE
            if slot >= self.num_slots:
                raise RegisterError(f"{self.name}: slot {slot} out of range")
            owner = self.slot_table.owner(slot)
            return 0 if owner is None else int(owner) + 1
        channel_index, register = divmod(address, CHANNEL_REG_STRIDE)
        channel = self.channel(channel_index)
        if register == REG_CTRL:
            return encode_ctrl(channel.regs.enabled, channel.regs.gt)
        if register == REG_PATH:
            return encode_path(channel.regs.path)
        if register == REG_REMOTE_QID:
            return channel.regs.remote_qid
        if register == REG_SPACE:
            return channel.space
        if register == REG_DATA_THRESHOLD:
            return channel.regs.data_threshold
        if register == REG_CREDIT_THRESHOLD:
            return channel.regs.credit_threshold
        if register == REG_FLUSH:
            return 1 if channel.flush_pending else 0
        if register == REG_STATUS:
            return channel.status_word
        raise RegisterError(f"{self.name}: unknown register {register}")

    # ------------------------------------------------------------ reporting
    def queue_words_total(self) -> int:
        """Total queue capacity in words (area model input)."""
        return sum(ch.source_queue.capacity + ch.dest_queue.capacity
                   for ch in self.channels)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"NIKernel({self.name}, channels={self.num_channels}, "
                f"slots={self.num_slots})")
