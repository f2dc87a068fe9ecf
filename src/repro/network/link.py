"""Point-to-point links between routers and between NIs and routers.

A link carries at most one flit per flit cycle in one direction (a flit is
three words; the underlying 32-bit wires move one word per 500 MHz cycle).
Links are modeled as a single register stage: a flit sent during cycle *t*
becomes visible to the sink at cycle *t+1*, giving one cycle of link latency
per hop.

Best-effort traffic uses link-level backpressure: the sender calls
:meth:`Link.can_send_be` which queries the sink's free best-effort buffer
space (modeling the flow-control wires of the router of [21]).  Guaranteed
traffic is never blocked — the slot allocation makes it contention-free.

Fault model (``repro.faults``)
------------------------------

A link can be taken down at runtime (:meth:`Link.fail`) or made lossy for a
window (:meth:`Link.set_lossy`).  Faults *poison* packets rather than
deleting flits from the wire: the decision is taken per packet at its head
flit, the flits still traverse with normal timing (garbage propagates just
as fast as data), and the receiving NI kernel — which would CRC-check in
hardware — delivers the words but marks them corrupt, so the message layer
discards every message they touch (see
:meth:`~repro.core.channel.Channel.note_poisoned_words`).  This keeps the
destination word framing and the end-to-end flow-control accounting exactly
consistent: loss is observable only as missing responses, which the master
shell's retry/timeout layer absorbs.  A healthy link pays one boolean test
per flit for all of this; no-fault runs stay byte-identical.
"""

from __future__ import annotations

from typing import List, Optional

from repro.network.packet import Flit
from repro.sim.clock import ClockedComponent
from repro.sim.stats import StatsRegistry, WindowedRate
from repro.sim.trace import NULL_TRACER, Tracer


class LinkContentionError(RuntimeError):
    """Two flits were offered to the same link in the same cycle."""


class Link(ClockedComponent):
    """A unidirectional link with one register stage."""

    def __init__(self, name: str, tracer: Tracer = NULL_TRACER,
                 stats: Optional[StatsRegistry] = None) -> None:
        self.name = name
        self.tracer = tracer
        self.stats = stats if stats is not None else StatsRegistry()
        self._sink: Optional[object] = None
        #: Sink's bound ``be_space`` method, cached at wiring time so the
        #: per-flit backpressure check skips the hasattr probe (hot path).
        self._sink_be_space = None
        self.sink_port: int = 0
        self.source: Optional[object] = None
        self.source_port: int = 0
        self._stage: Optional[Flit] = None
        self._incoming: Optional[Flit] = None
        # Burst pipeline state (see send_burst).  A GT burst is staged whole
        # (``_incoming_burst`` -> ``_staged_burst``) and consumed in one
        # event; a BE burst trickles through ``_stage`` one flit per cycle
        # so the sink's per-flit arbitration path is unchanged.  While a
        # burst occupies the wire, ``_busy_until`` is the first cycle a new
        # send is legal — exactly the cycle the per-flit pipeline would
        # have freed the link.
        self._incoming_burst: Optional[List[Flit]] = None
        self._staged_burst: Optional[List[Flit]] = None
        self._trickle: Optional[List[Flit]] = None
        self._trickle_next = 0
        self._busy_until = 0
        #: Optional flits/cycle sliding-window meter (health_report).
        self.meter: Optional[WindowedRate] = None
        self.flits_carried = 0
        self.words_carried = 0
        self.gt_flits_carried = 0
        self.be_flits_carried = 0
        # Fault state.  ``_unreliable`` is the single flag the hot send()
        # path tests; it is True iff the link is failed or inside a lossy
        # window, so healthy links never enter the fault path.
        self._unreliable = False
        self._faulty = False
        self._drop_probability = 0.0
        self._drop_rng = None
        self.packets_poisoned = 0
        self.words_poisoned = 0

    @property
    def sink(self) -> Optional[object]:
        """Component consuming flits from this link; may expose
        ``be_space(port_index) -> int`` for best-effort backpressure."""
        return self._sink

    @sink.setter
    def sink(self, component: Optional[object]) -> None:
        self._sink = component
        self._sink_be_space = getattr(component, "be_space", None)

    # ---------------------------------------------------------------- wiring
    def connect(self, source: object, source_port: int,
                sink: object, sink_port: int) -> None:
        self.source = source
        self.source_port = source_port
        self.sink = sink
        self.sink_port = sink_port

    # --------------------------------------------------------------- sending
    def _busy(self) -> bool:
        """True while a previously sent burst still occupies the wire."""
        return (self._busy_until > 0 and self._clock is not None
                and self._clock._cycle < self._busy_until)

    def can_send(self) -> bool:
        """True when no flit has been offered this cycle."""
        if self._incoming is not None or self._trickle is not None:
            return False
        if self._incoming_burst is not None or self._staged_burst is not None:
            return False
        return not self._busy()

    def can_send_be(self) -> bool:
        """True when a best-effort flit may be sent without overflowing the sink."""
        if self._incoming is not None or self._trickle is not None:
            return False
        if self._incoming_burst is not None or self._busy():
            return False
        be_space = self._sink_be_space
        if be_space is None:
            return True
        in_flight = (1 if self._stage is not None else 0)
        return be_space(self.sink_port) - in_flight > 0

    def be_send_capacity(self) -> int:
        """Flits of best-effort sink space available to a burst right now.

        The burst length bound for the BE fast path: space can only grow
        while a single source streams (the sink input port is dedicated),
        so reserving the whole burst up front is exact.
        """
        if not self.can_send_be():
            return 0
        be_space = self._sink_be_space
        if be_space is None:
            return 1
        return be_space(self.sink_port) - (1 if self._stage is not None else 0)

    def send(self, flit: Flit) -> None:
        if self._unreliable and flit.is_head:
            self._fault_mark(flit)
        if self._incoming is not None:
            raise LinkContentionError(
                f"link {self.name}: two flits offered in the same cycle "
                f"({self._incoming!r} and {flit!r})")
        self._incoming = flit
        self.flits_carried += 1
        self.words_carried += flit.num_words
        if flit.packet.header.is_gt:
            self.gt_flits_carried += 1
        else:
            self.be_flits_carried += 1
        meter = self.meter
        if meter is not None and self._clock is not None:
            # Inlined WindowedRate.add — this runs once per flit on every
            # link, and the method-call pair was measurable.
            cycle = self._clock._cycle
            if cycle > meter._last_cycle:
                meter._advance(cycle)
            meter._buckets[cycle % meter.window] += 1
            meter.total += 1
        # A link is registered on the same clock as its sink (wake-up
        # protocol contract): keeping this clock awake until the flit is
        # staged and consumed is what delivers it to an otherwise-idle sink.
        self.notify_active()

    def send_burst(self, flits: List[Flit], cycle: int) -> None:
        """Offer a contiguous run of one packet's flits starting at ``cycle``.

        The wire is occupied through ``cycle + len(flits) - 1`` — exactly
        the cycles the per-flit pipeline would have used — and refuses new
        sends until then (:meth:`can_send` / :meth:`can_send_be`).

        GT bursts are staged whole at this cycle's commit and consumed by
        the sink in a single event at ``cycle + 1`` (contention-free by
        slot allocation).  BE bursts *trickle*: each flit enters the
        register pipeline on its own cycle, so the sink's per-flit BE
        arbitration and backpressure behave identically to unbatched
        operation; only the sender-side events are batched.

        Fault semantics match :meth:`send`: the head flit takes the
        poison decision at this cycle, on this link.
        """
        if (self._incoming is not None or self._trickle is not None
                or self._incoming_burst is not None):
            raise LinkContentionError(
                f"link {self.name}: burst offered while the wire is occupied")
        head = flits[0]
        if self._unreliable:
            self._fault_mark(head)
        count = len(flits)
        self.flits_carried += count
        words = 0
        for flit in flits:
            words += flit.num_words
        self.words_carried += words
        if head.is_gt:
            self.gt_flits_carried += count
            self._incoming_burst = flits
        else:
            self.be_flits_carried += count
            # First flit enters the register now; the rest follow one per
            # cycle from post_tick.
            self._incoming = head
            self._trickle = flits
            self._trickle_next = 1
        self._busy_until = cycle + count
        if self.meter is not None:
            self.meter.add_run(cycle, count)
        self.notify_active()

    # ---------------------------------------------------------------- faults
    @property
    def failed(self) -> bool:
        """True while the link is permanently down (until :meth:`repair`)."""
        return self._faulty

    @property
    def lossy(self) -> bool:
        """True while a transient drop window is active."""
        return self._drop_rng is not None

    def fail(self) -> None:
        """Take the link down.

        Packets already mid-wormhole on this link are poisoned (the wire
        goes bad under them); everything offered from now on is poisoned at
        its head flit.  Flits keep traversing with normal timing so the
        downstream framing and flow-control accounting stay consistent —
        the loss becomes visible as CRC-discarded messages at the
        destination shell.
        """
        if self._faulty:
            return
        self._faulty = True
        self._unreliable = True
        for flit in (self._incoming, self._stage):
            if flit is not None and not flit.packet.poisoned:
                self._poison(flit.packet)
        for burst in (self._incoming_burst, self._staged_burst,
                      self._trickle):
            if burst and not burst[0].packet.poisoned:
                self._poison(burst[0].packet)

    def repair(self) -> None:
        """Bring a failed link back up (poisoned packets stay poisoned)."""
        self._faulty = False
        self._unreliable = self._drop_rng is not None

    def set_lossy(self, probability: float, rng) -> None:
        """Start a transient drop window: each packet offered while the
        window is open is poisoned with ``probability`` (decided at the
        head flit by the seeded ``rng``)."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"drop probability {probability} outside [0, 1]")
        self._drop_probability = float(probability)
        self._drop_rng = rng
        self._unreliable = True

    def clear_lossy(self) -> None:
        """End the transient drop window."""
        self._drop_probability = 0.0
        self._drop_rng = None
        self._unreliable = self._faulty

    def _fault_mark(self, flit: Flit) -> None:
        packet = flit.packet
        if packet.poisoned:
            return
        if self._faulty or (self._drop_rng is not None
                            and self._drop_rng.random()
                            < self._drop_probability):
            self._poison(packet)

    def _poison(self, packet) -> None:
        packet.poisoned = True
        self.packets_poisoned += 1
        self.words_poisoned += len(packet.payload)
        now_ps = self._clock.sim.now if self._clock is not None else 0
        self.tracer.record(now_ps, self.name, "packet_poisoned",
                           packet=packet.packet_id,
                           channel=packet.header.channel_key)

    # ------------------------------------------------------------- receiving
    def peek(self) -> Optional[Flit]:
        """The flit available to the sink this cycle (without consuming it)."""
        return self._stage

    def take(self) -> Optional[Flit]:
        """Consume the flit available this cycle (None if the link is idle)."""
        flit = self._stage
        self._stage = None
        return flit

    def take_staged_burst(self) -> Optional[List[Flit]]:
        """Consume the GT burst staged this cycle (None if no burst)."""
        burst = self._staged_burst
        if burst is not None:
            self._staged_burst = None
        return burst

    def attach_meter(self, window_cycles: int = 64) -> WindowedRate:
        """Install (or return) the flits/cycle sliding-window meter."""
        if self.meter is None:
            self.meter = WindowedRate(window_cycles)
        return self.meter

    @property
    def busy(self) -> bool:
        """True while a previously sent burst still occupies the wire
        (probe hook; see :meth:`can_send`)."""
        return self._busy()

    @property
    def occupancy(self) -> int:
        """Flits currently inside the link register stages."""
        count = (1 if self._stage is not None else 0) + \
                (1 if self._incoming is not None else 0)
        if self._incoming_burst is not None:
            count += len(self._incoming_burst)
        if self._staged_burst is not None:
            count += len(self._staged_burst)
        if self._trickle is not None:
            # Flits not yet moved into the register pipeline (the one in
            # ``_incoming``/``_stage`` is already counted above).
            count += len(self._trickle) - self._trickle_next
        return count

    # ----------------------------------------------------------------- clock
    def is_idle(self) -> bool:
        """Idle when the register stages and burst pipeline are empty.

        Wake-protocol contract for batch delivery: a link holding any part
        of a burst reports busy, which keeps the sink's clock ticking until
        the last flit is consumed — a burst can never strand a sleeping
        consumer mid-delivery.
        """
        return (self._stage is None and self._incoming is None
                and self._staged_burst is None
                and self._incoming_burst is None
                and self._trickle is None)

    def post_tick(self, cycle: int) -> None:
        if self._incoming is not None:
            if self._stage is not None:
                # The sink failed to drain the previous flit.  GT flits are
                # always drained; BE senders check space first, so this is a
                # model bug rather than a legal network condition.
                raise LinkContentionError(
                    f"link {self.name}: sink did not drain flit {self._stage!r}")
            self._stage = self._incoming
            self._incoming = None
            trickle = self._trickle
            if trickle is not None:
                # Feed the next BE burst flit into the register, exactly as
                # the per-flit sender would have on this cycle.
                nxt = self._trickle_next
                if nxt < len(trickle):
                    self._incoming = trickle[nxt]
                    self._trickle_next = nxt + 1
                if self._trickle_next >= len(trickle):
                    self._trickle = None
        elif self._incoming_burst is not None:
            if self._staged_burst is not None or self._stage is not None:
                raise LinkContentionError(
                    f"link {self.name}: sink did not drain the previous burst")
            self._staged_burst = self._incoming_burst
            self._incoming_burst = None

    def utilization(self, window_cycles: int) -> float:
        """Fraction of flit cycles the link carried a flit over ``window_cycles``."""
        if window_cycles <= 0:
            raise ValueError("window must be positive")
        return self.flits_carried / window_cycles

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Link({self.name})"
