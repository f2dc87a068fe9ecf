"""The combined guaranteed-throughput / best-effort router.

This reproduces, at flit granularity, the router of Rijpkema et al. (DATE
2003) that the paper's NI attaches to:

* **GT traffic** travels on reserved TDM slots.  Because the slot allocation
  guarantees that at most one GT channel owns a given output in a given slot,
  GT forwarding is contention-free; the router simply forwards any GT flit at
  its input in the cycle it arrives.  Two GT flits competing for the same
  output indicates a broken slot allocation and raises
  :class:`SlotConflictError` (unless ``strict_gt=False``, used to study the
  conflicts that a distributed configuration must detect).
* **BE traffic** is wormhole-routed from small per-input buffers with
  round-robin arbitration per output and link-level backpressure.  GT flits
  always win a slot over BE flits.

Routers are source-routed: the packet header carries one output port per
router along the path, consumed hop by hop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional

from repro.network.link import Link
from repro.network.packet import Flit
from repro.network.slot_table import RouterSlotTable
from repro.sim.clock import ClockedComponent
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry
from repro.sim.trace import NULL_TRACER, Tracer


class SlotConflictError(RuntimeError):
    """Two guaranteed-throughput flits requested the same output in one slot."""


class BufferOverflowError(RuntimeError):
    """A best-effort flit arrived at a full input buffer (backpressure bug)."""


@dataclass
class _InputState:
    """Per-input-port buffering and wormhole state.

    ``gt_queue`` entries are either single :class:`Flit` objects or whole
    bursts (plain ``list`` of flits from one packet, head first) delivered
    by a batched link; bursts are forwarded in one decision since the slot
    allocation already guarantees the window.
    """

    gt_queue: Deque[object] = field(default_factory=deque)
    be_queue: Deque[Flit] = field(default_factory=deque)
    gt_active_output: Optional[int] = None
    be_active_output: Optional[int] = None


class Router(ClockedComponent):
    """A single GT/BE router."""

    def __init__(self, name: str, num_ports: int, be_buffer_flits: int = 8,
                 slot_table: Optional[RouterSlotTable] = None,
                 strict_gt: bool = True,
                 tracer: Tracer = NULL_TRACER,
                 stats: Optional[StatsRegistry] = None,
                 sim: Optional[Simulator] = None) -> None:
        if num_ports <= 0:
            raise ValueError("router needs at least one port")
        if be_buffer_flits <= 0:
            raise ValueError("best-effort buffers need at least one flit")
        self.name = name
        self.num_ports = num_ports
        self.be_buffer_flits = be_buffer_flits
        self.slot_table = slot_table
        self.strict_gt = strict_gt
        self.tracer = tracer
        #: Simulator reference so trace events carry real timestamps; when
        #: None (stand-alone unit-test harnesses), traces record time 0.
        self.sim = sim
        self.stats = stats if stats is not None else StatsRegistry()
        self.in_links: List[Optional[Link]] = [None] * num_ports
        self.out_links: List[Optional[Link]] = [None] * num_ports
        self._inputs = [_InputState() for _ in range(num_ports)]
        self._be_rr_pointer = [0] * num_ports
        self._be_output_locked_input: List[Optional[int]] = [None] * num_ports
        self._cycle = 0
        # ------------------------------------------------------- hot path
        #: (port, link) pairs for the connected inputs only, so the per-cycle
        #: accept loop skips unwired ports without a None test each.
        self._wired_in_links: List[tuple] = []
        # Flat per-output arrays for GT arbitration: stamped with a private
        # monotonic tick stamp instead of being cleared every cycle.
        self._gt_claim_stamp = [-1] * num_ports
        self._gt_first_port = [0] * num_ports
        self._gt_conflict_stamp = [-1] * num_ports
        self._tick_stamp = 0
        # Per-output burst claim windows: a forwarded GT burst owns its
        # output (and out-link) through cycle ``_gt_out_busy_until[o] - 1``;
        # BE arbitration skips the output for the window exactly as it
        # would have skipped the per-cycle GT claims.
        self._gt_out_busy_until = [0] * num_ports
        #: Scratch: desired output of each input's BE queue head this cycle.
        self._be_desired: List[Optional[int]] = [-1] * num_ports
        # Hot counters cached as attributes (one registry lookup at
        # construction, not one per flit); shared with ``self.stats``.
        stats_reg = self.stats
        self._ctr_gt_flits_in = stats_reg.counter("gt_flits_in")
        self._ctr_be_flits_in = stats_reg.counter("be_flits_in")
        self._ctr_gt_flits_out = stats_reg.counter("gt_flits_out")
        self._ctr_be_flits_out = stats_reg.counter("be_flits_out")
        self._ctr_gt_conflicts = stats_reg.counter("gt_conflicts")
        self._ctr_be_backpressure = stats_reg.counter("be_backpressure_stalls")
        self._ctr_slot_mismatches = stats_reg.counter(
            "slot_reservation_mismatches")
        self._rate_flits_out = stats_reg.rate("flits_out")

    # ---------------------------------------------------------------- wiring
    def connect_input(self, port: int, link: Link) -> None:
        self._check_port(port)
        link.sink = self
        link.sink_port = port
        self.in_links[port] = link
        self._wired_in_links = [(p, l) for p, l in enumerate(self.in_links)
                                if l is not None]

    def connect_output(self, port: int, link: Link) -> None:
        self._check_port(port)
        link.source = self
        link.source_port = port
        self.out_links[port] = link

    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.num_ports:
            raise ValueError(f"router {self.name}: port {port} out of range")

    # ---------------------------------------------------------- backpressure
    def be_space(self, port: int) -> int:
        """Free best-effort buffer slots at input ``port`` (link flow control)."""
        self._check_port(port)
        return self.be_buffer_flits - len(self._inputs[port].be_queue)

    # ----------------------------------------------------------------- clock
    def tick(self, cycle: int) -> None:
        self._cycle = cycle
        self._accept_incoming(cycle)
        # One stamp per cycle: claims from earlier cycles never leak into
        # this cycle's BE availability checks, even when the GT pass is
        # skipped outright.
        self._tick_stamp += 1
        any_gt = any_be = False
        for state in self._inputs:
            if state.gt_queue:
                any_gt = True
            if state.be_queue:
                any_be = True
        if any_gt:
            self._forward_gt(cycle)
        if any_be:
            self._forward_be(cycle)

    def is_idle(self) -> bool:
        """Idle when no flit is buffered at any input.

        Flits still inside an attached link keep that link's clock awake (a
        link shares its sink's clock), so the router will be ticked to accept
        them; it does not need to inspect the links here.
        """
        for state in self._inputs:
            if state.gt_queue or state.be_queue:
                return False
        return True

    # -------------------------------------------------------------- incoming
    def _accept_incoming(self, cycle: int) -> None:
        for port, link in self._wired_in_links:
            burst = link._staged_burst
            if burst is not None:
                link._staged_burst = None
                state = self._inputs[port]
                state.gt_queue.append(burst)
                self._ctr_gt_flits_in.value += len(burst)
                if self.slot_table is not None:
                    self._check_slot_reservation(port, burst[0], cycle)
                continue
            # Inlined link.take(): one attribute read on the (very common)
            # idle-link path instead of a method call per link per cycle.
            flit = link._stage
            if flit is None:
                continue
            link._stage = None
            state = self._inputs[port]
            if flit.packet.header.is_gt:
                state.gt_queue.append(flit)
                self._ctr_gt_flits_in.value += 1
                if self.slot_table is not None:
                    self._check_slot_reservation(port, flit, cycle)
            else:
                if len(state.be_queue) >= self.be_buffer_flits:
                    raise BufferOverflowError(
                        f"router {self.name}: BE buffer overflow at input {port}")
                state.be_queue.append(flit)
                self._ctr_be_flits_in.value += 1

    def _check_slot_reservation(self, port: int, flit: Flit, cycle: int) -> None:
        """In the distributed model, verify the arriving GT flit owns its slot."""
        if self.slot_table is None or not flit.is_head:
            return
        slot = cycle % self.slot_table.num_slots
        output = flit.packet.peek_route()
        owner = self.slot_table.owner(output, slot)
        if owner is not None and owner != flit.packet.header.channel_key:
            self._ctr_slot_mismatches.value += 1
            self.tracer.record(self._now_ps(), self.name, "slot_mismatch",
                               slot=slot, output=output,
                               owner=owner,
                               channel=flit.packet.header.channel_key)

    def _now_ps(self) -> int:
        """Current simulation time for trace events (0 when unclocked)."""
        return self.sim.now if self.sim is not None else 0

    # ------------------------------------------------------------ forwarding
    def _forward(self, cycle: int) -> None:
        self._tick_stamp += 1
        self._forward_gt(cycle)
        self._forward_be(cycle)

    def _forward_gt(self, cycle: int) -> None:
        """Forward one GT flit per requested output.

        The per-cycle request dict of the original implementation is
        replaced by flat per-output arrays stamped with a private monotonic
        tick stamp, so the common cycles (zero or one GT request) allocate
        nothing.  Conflicting requests (two inputs wanting one output) keep
        the original semantics: counted once per output per cycle, fatal
        under ``strict_gt``, first-requesting (lowest) input wins otherwise.
        """
        stamp = self._tick_stamp
        claim = self._gt_claim_stamp
        first = self._gt_first_port
        conflicted = self._gt_conflict_stamp
        busy = self._gt_out_busy_until
        any_request = False
        for port, state in enumerate(self._inputs):
            if not state.gt_queue:
                continue
            entry = state.gt_queue[0]
            if type(entry) is list:
                # A burst always starts at its packet's head flit.
                output = entry[0].packet.peek_route()
            elif entry.is_head:
                output = entry.packet.peek_route()
            else:
                if state.gt_active_output is None:
                    raise SlotConflictError(
                        f"router {self.name}: GT body flit with no active output")
                output = state.gt_active_output
            if busy[output] > cycle:
                # An earlier burst owns this output's window: with a sound
                # slot allocation this cannot happen (the window is exactly
                # the slots the packet owns), so it is the windowed
                # equivalent of a per-cycle slot conflict.
                if conflicted[output] != stamp:
                    conflicted[output] = stamp
                    self._ctr_gt_conflicts.value += 1
                    if self.strict_gt:
                        raise SlotConflictError(
                            f"router {self.name}: GT burst window conflict on "
                            f"output {output} in cycle {cycle}")
                continue
            if claim[output] != stamp:
                claim[output] = stamp
                first[output] = port
                any_request = True
            elif conflicted[output] != stamp:
                conflicted[output] = stamp
                self._ctr_gt_conflicts.value += 1
                if self.strict_gt:
                    keys = []
                    for p in (first[output], port):
                        head = self._inputs[p].gt_queue[0]
                        if type(head) is list:
                            head = head[0]
                        keys.append(head.packet.header.channel_key)
                    raise SlotConflictError(
                        f"router {self.name}: GT slot conflict on output "
                        f"{output} in cycle {cycle} between channels {keys}")
        if not any_request:
            return
        for output in range(self.num_ports):
            if claim[output] == stamp:
                self._send_flit(first[output], output, gt=True, cycle=cycle)

    def _forward_be(self, cycle: int) -> None:
        """Wormhole-forward BE flits to every output GT left unused.

        Rotating-index scan: instead of materializing a candidates list per
        output per cycle, walk the input ports from the round-robin pointer
        (or pin the scan to the locked input while a packet is in flight).
        The desired output of each input's queue head is computed once per
        cycle (``_be_desired``, refreshed after each send) rather than once
        per (output, input) scan pair — the route peeks were measurable.
        """
        inputs = self._inputs
        num_ports = self.num_ports
        claim = self._gt_claim_stamp
        stamp = self._tick_stamp
        busy = self._gt_out_busy_until
        locked_by_output = self._be_output_locked_input
        desired_by_port = self._be_desired
        any_be = False
        for port in range(num_ports):
            state = inputs[port]
            queue = state.be_queue
            if not queue:
                desired_by_port[port] = -1
                continue
            flit = queue[0]
            if flit.is_head:
                if state.be_active_output is not None:
                    desired_by_port[port] = -1
                    continue
                desired_by_port[port] = flit.packet.peek_route()
            else:
                desired_by_port[port] = state.be_active_output
            any_be = True
        if not any_be:
            return
        sent = 0
        for output in range(num_ports):
            if claim[output] == stamp:       # GT used this output this cycle
                continue
            if busy[output] > cycle:         # inside a GT burst's window
                continue
            link = self.out_links[output]
            if link is None:
                continue
            locked = locked_by_output[output]
            if locked is not None:
                start, count, rotate = locked, 1, False
            else:
                start, count, rotate = self._be_rr_pointer[output], num_ports, True
            for offset in range(count):
                port = start + offset
                if port >= num_ports:
                    port -= num_ports
                if desired_by_port[port] != output:
                    continue
                if not link.can_send_be():
                    self._ctr_be_backpressure.value += 1
                    break
                self._send_flit(port, output, gt=False, cycle=cycle)
                sent += 1
                # The pop may expose a flit for an output scanned later
                # this cycle (e.g. a fresh head after a tail): refresh.
                state = inputs[port]
                queue = state.be_queue
                if not queue:
                    desired_by_port[port] = -1
                else:
                    head = queue[0]
                    if head.is_head:
                        desired_by_port[port] = (
                            -1 if state.be_active_output is not None
                            else head.packet.peek_route())
                    else:
                        desired_by_port[port] = state.be_active_output
                if rotate:
                    pointer = port + 1
                    self._be_rr_pointer[output] = (
                        0 if pointer >= num_ports else pointer)
                break
        if sent:
            # One bump per BE arbitration pass keeps the per-flit inner
            # loop free of counter traffic; observers between events still
            # see exact ``be_flits_out`` totals.
            self._ctr_be_flits_out.value += sent

    def _send_flit(self, port: int, output: int, gt: bool, cycle: int) -> None:
        state = self._inputs[port]
        queue = state.gt_queue if gt else state.be_queue
        flit = queue.popleft()
        link = self.out_links[output]
        if link is None:
            raise SlotConflictError(
                f"router {self.name}: no link on output {output}")
        if gt and type(flit) is list:
            self._send_gt_burst(state, flit, output, link, cycle)
            return
        if flit.is_head:
            taken = flit.packet.advance_route()
            if taken != output:
                raise SlotConflictError(
                    f"router {self.name}: route mismatch "
                    f"(expected {taken}, forwarding to {output})")
            if gt:
                state.gt_active_output = output
            else:
                state.be_active_output = output
                self._be_output_locked_input[output] = port
        if flit.is_tail:
            if gt:
                state.gt_active_output = None
            else:
                state.be_active_output = None
                self._be_output_locked_input[output] = None
        link.send(flit)
        if gt:
            self._ctr_gt_flits_out.value += 1
        # BE sends are tallied once per pass by the caller (``_forward_be``)
        # rather than per flit here.
        self._rate_flits_out.add(cycle)
        if self.tracer.enabled:
            self.tracer.record(self._now_ps(), self.name, "forward",
                               input=port, output=output,
                               traffic="gt" if gt else "be",
                               packet=flit.packet.packet_id, flit=flit.index)

    def _send_gt_burst(self, state: _InputState, burst: List[Flit],
                       output: int, link: Link, cycle: int) -> None:
        """Forward a whole GT burst: one slot-table consultation, one
        route advance, one link event, counters bumped per burst."""
        head = burst[0]
        taken = head.packet.advance_route()
        if taken != output:
            raise SlotConflictError(
                f"router {self.name}: route mismatch "
                f"(expected {taken}, forwarding to {output})")
        count = len(burst)
        # A burst that does not carry the tail (a capped split) leaves the
        # wormhole open for the per-flit remainder arriving right behind it.
        state.gt_active_output = None if burst[count - 1].is_tail else output
        self._gt_out_busy_until[output] = cycle + count
        link.send_burst(burst, cycle)
        self._ctr_gt_flits_out.value += count
        self._rate_flits_out.add_run(cycle, count)
        if self.tracer.enabled:
            # Bursts already in flight when a tracer arms are recorded per
            # flit at the forwarding decision's timestamp.
            now_ps = self._now_ps()
            for flit in burst:
                self.tracer.record(now_ps, self.name, "forward",
                                   input=self._inputs.index(state),
                                   output=output, traffic="gt",
                                   packet=flit.packet.packet_id,
                                   flit=flit.index)

    # ------------------------------------------------------------- inspection
    def buffered_flits(self) -> int:
        """Total flits buffered in this router (cost metric of [21])."""
        total = 0
        for state in self._inputs:
            for entry in state.gt_queue:
                total += len(entry) if type(entry) is list else 1
            total += len(state.be_queue)
        return total

    def be_queue_depth(self, port: int) -> int:
        self._check_port(port)
        return len(self._inputs[port].be_queue)

    def input_fill(self, port: int, gt: bool = True) -> int:
        """Flits buffered at one input port (probe hook; burst entries in
        the GT queue count per flit, like :meth:`buffered_flits`)."""
        self._check_port(port)
        state = self._inputs[port]
        if not gt:
            return len(state.be_queue)
        total = 0
        for entry in state.gt_queue:
            total += len(entry) if type(entry) is list else 1
        return total

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Router({self.name}, ports={self.num_ports})"
