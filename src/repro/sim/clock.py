"""Clock domains for the cycle model — activity-driven.

Every NI port may run at its own frequency (Section 4.1 of the paper: the
hardware FIFOs implement the clock-domain crossing).  A :class:`Clock` fires a
rising edge every ``period_ps`` picoseconds and calls ``tick(cycle)`` on each
registered :class:`ClockedComponent`, then ``post_tick(cycle)`` on every
component that implements it.  The two-phase tick keeps same-edge evaluation
order-insensitive: components read state and compute in ``tick`` and commit
externally visible updates in ``post_tick``.

Activity-driven scheduling
--------------------------

A cycle-accurate model that ticks every component every period spends almost
all of its wall time doing nothing when the network is idle.  Clocks therefore
stop rescheduling themselves when every registered component reports
:meth:`ClockedComponent.is_idle`, and resume on an explicit
:meth:`Clock.wake` — delivered through :meth:`ClockedComponent.notify_active`
by whatever injects new stimulus (a port accepting a message, a link carrying
a flit, a configuration register write).

The wake-up contract (see ``PERFORMANCE.md`` for the full protocol):

* ``is_idle()`` may return True only when ``tick``/``post_tick`` would be
  observable no-ops (no state change, no statistics) *and* the component can
  only become active again through a stimulus that calls ``notify_active()``.
  The conservative default is False (always active), which reproduces the
  seed's always-tick behaviour for components that have not opted in.
* A woken clock fires its next edge at the first period boundary *strictly
  after* the wake time.  Coincident edges of different clocks execute in
  clock-creation order (each clock owns a distinct tick priority), so a
  clock created before its stimulators — as the flit clock is, and as any
  clock receiving immediately visible cross-domain stimulus must be — had
  already run its edge at the stimulus timestamp and observed the
  pre-stimulus state; the first edge that can react is the next one.
* Cycle indices are derived from simulation time (``(now - epoch) // period``)
  so TDMA slot alignment is preserved across skipped edges.
* A link must be registered on the same clock as its sink: the link's
  non-idleness is what keeps the sink ticking until the flit is consumed.

Setting ``idle_skip=False`` on a clock (or globally via
:func:`set_default_idle_skip` / the :func:`always_tick` context manager)
restores the seed's unconditional rescheduling; benchmarks and the
determinism tests use this to compare both modes.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List, Optional

from repro.sim.engine import SimulationError, Simulator

#: Each clock's tick callbacks run at a distinct priority allocated in clock
#: creation order (see ``Simulator.next_clock_priority``), so coincident edges
#: of different clocks always execute earliest-created first — in both engine
#: modes.  post_tick commits run above this base on the same timestamp so all
#: ticks of a timestamp complete before any commit.
_POST_TICK_PRIORITY_BASE = 1 << 20

#: Module-wide default for ``Clock.idle_skip`` (benchmarks flip it to measure
#: the always-tick baseline).
_DEFAULT_IDLE_SKIP = True


def set_default_idle_skip(enabled: bool) -> bool:
    """Set the default ``idle_skip`` for newly created clocks.

    Returns the previous default so callers can restore it.
    """
    global _DEFAULT_IDLE_SKIP
    previous = _DEFAULT_IDLE_SKIP
    _DEFAULT_IDLE_SKIP = bool(enabled)
    return previous


@contextlib.contextmanager
def always_tick() -> Iterator[None]:
    """Context manager: clocks built inside it use seed (always-tick) mode."""
    previous = set_default_idle_skip(False)
    try:
        yield
    finally:
        set_default_idle_skip(previous)


class ClockedComponent:
    """Base class for anything driven by a :class:`Clock`.

    Subclasses override :meth:`tick` (compute phase) and optionally
    :meth:`post_tick` (commit phase).  Components that can be quiescent
    additionally override :meth:`is_idle` and arrange for every stimulus
    that can end the quiescence to call :meth:`notify_active`.
    """

    #: Back-reference set by :meth:`Clock.add_component`; gives the component
    #: a wake handle without threading the clock through every constructor.
    _clock: Optional["Clock"] = None

    def tick(self, cycle: int) -> None:  # pragma: no cover - interface default
        """Compute phase of the clock edge."""

    def post_tick(self, cycle: int) -> None:  # pragma: no cover - default
        """Commit phase of the clock edge."""

    def is_idle(self) -> bool:
        """True when ticking this component is an observable no-op.

        The default is False: components that have not implemented the
        activity protocol keep their clock running every cycle, exactly as
        the seed engine did.
        """
        return False

    def notify_active(self) -> None:
        """Wake this component's clock (no-op when unclocked or awake)."""
        # Inline the sleeping check: stimulus arrives on hot paths (every
        # word pushed, every flit sent) and the clock is usually awake.
        clock = self._clock
        if clock is not None and clock._sleeping:
            clock.wake()


class Clock:
    """A periodic clock that drives registered components.

    Parameters
    ----------
    sim:
        The simulator providing the event queue.
    frequency_mhz:
        Clock frequency.  The period is rounded to an integer number of
        picoseconds (500 MHz -> 2000 ps, as used by the Aethereal router).
    name:
        Human-readable name used in traces and error messages.
    phase_ps:
        Offset of the first rising edge.
    idle_skip:
        When True (the default, see :func:`set_default_idle_skip`) the clock
        stops self-rescheduling while every component is idle and resumes on
        :meth:`wake`.  When False the clock reschedules unconditionally.
    """

    def __init__(self, sim: Simulator, frequency_mhz: float, name: str = "clk",
                 phase_ps: int = 0, idle_skip: Optional[bool] = None) -> None:
        if frequency_mhz <= 0:
            raise SimulationError(f"clock {name}: frequency must be positive")
        self.sim = sim
        self.name = name
        self.frequency_mhz = float(frequency_mhz)
        # Construction-time only: the float division is rounded to an exact
        # integer period once; all subsequent time math is integral.
        self.period_ps = int(round(1e6 / frequency_mhz))  # reprolint: disable=det-float-cycles
        if self.period_ps <= 0:
            raise SimulationError(f"clock {name}: period rounds to 0 ps")
        self.phase_ps = int(phase_ps)
        self.idle_skip = (_DEFAULT_IDLE_SKIP if idle_skip is None
                          else bool(idle_skip))
        #: Coincident edges of different clocks run earliest-created first;
        #: a clock receiving immediately visible cross-domain stimulus (the
        #: flit clock: credits, flushes, register writes) must therefore be
        #: created before the clocks that stimulate it — which the system
        #: builders do.  This makes the strictly-after wake-up exact.
        self._tick_priority = sim.next_clock_priority()
        self._commit_priority = _POST_TICK_PRIORITY_BASE + self._tick_priority
        self._cycle = -1
        self._components: List[ClockedComponent] = []
        self._post_tick_components: List[ClockedComponent] = []
        self._started = False
        self._epoch = 0
        self._sleeping = False
        #: Edges actually executed (telemetry for the perf harness).
        self.edges_executed = 0
        #: Number of times the clock went to sleep.
        self.sleep_count = 0
        #: Fused scheduling group (see :class:`ClockGroup`); None when this
        #: clock schedules its own edges.
        self._group: Optional["ClockGroup"] = None

    # ---------------------------------------------------------------- wiring
    def add_component(self, component: ClockedComponent) -> None:
        """Register a component; tick order follows registration order."""
        self._components.append(component)
        component._clock = self
        if type(component).post_tick is not ClockedComponent.post_tick:
            self._post_tick_components.append(component)
        # A component added to a sleeping clock must get a chance to tick;
        # the next edge re-evaluates idleness and re-sleeps if warranted.
        if self._sleeping:
            self.wake()

    def remove_component(self, component: ClockedComponent) -> None:
        self._components.remove(component)
        if component in self._post_tick_components:
            self._post_tick_components.remove(component)
        if component._clock is self:
            component._clock = None

    @property
    def cycle(self) -> int:
        """Index of the most recent executed rising edge (-1 before the
        first edge).  With idle-skip, skipped edge instants do not appear
        here; indices stay aligned to the time grid regardless."""
        return self._cycle

    @property
    def epoch_ps(self) -> int:
        """Time of edge 0 (valid once the clock has started)."""
        return self._epoch

    @property
    def sleeping(self) -> bool:
        """True while the clock has stopped self-rescheduling."""
        return self._sleeping

    @property
    def bandwidth_gbit_s(self) -> float:
        """Raw bandwidth of a 32-bit link clocked by this clock, in Gbit/s."""
        return 32.0 * self.frequency_mhz / 1000.0

    def cycles_to_ps(self, cycles: int) -> int:
        return cycles * self.period_ps

    def ps_to_cycles(self, ps: int) -> int:
        return ps // self.period_ps

    def edge_time(self, index: int) -> int:
        """Absolute time of edge ``index`` (the clock must have started)."""
        return self._epoch + index * self.period_ps

    # --------------------------------------------------------------- running
    def start(self) -> None:
        """Schedule the first rising edge.  Idempotent."""
        if self._started:
            return
        if self._group is not None:
            self._group.start()
            return
        self._started = True
        self._epoch = max(self.sim.now, self.phase_ps)
        self._sleeping = False
        self.sim.schedule_at(self._epoch, self._edge,
                             priority=self._tick_priority)

    def wake(self) -> None:
        """Resume an idle-skipped clock.

        The next edge fires at the first period boundary strictly after the
        current simulation time — the first edge that can observe the
        stimulus that triggered the wake.  Because coincident edges run in
        clock-creation order, a clock created before its stimulators would
        have ticked before the stimulus at the wake timestamp anyway, so
        this reproduces the always-tick schedule exactly.  No-op when the
        clock is not sleeping.
        """
        if not self._sleeping:
            return
        self._sleeping = False
        if self._group is not None:
            self._group._wake(self.sim.now)
            return
        index = (self.sim.now - self._epoch) // self.period_ps + 1
        self.sim._push(self.edge_time(index), self._tick_priority, self._edge)

    def _edge(self) -> None:
        # Derive the cycle index from time so TDMA slot alignment survives
        # skipped edges (an NI slot is `cycle % num_slots`).
        cycle = (self.sim.now - self._epoch) // self.period_ps
        self._cycle = cycle
        self.edges_executed += 1
        for component in self._components:
            component.tick(cycle)
        if self._post_tick_components:
            self.sim._push(self.sim.now, self._commit_priority,
                           self._commit_edge)
        else:
            # No component commits anything: skip the commit event entirely.
            self._after_edge()

    def _commit_edge(self) -> None:
        cycle = self._cycle
        for component in self._post_tick_components:
            component.post_tick(cycle)
        self._after_edge()

    def _after_edge(self) -> None:
        """Reschedule the next edge — or go to sleep if everything is idle.

        Runs after the commit phase so idleness reflects post_tick state
        (e.g. a link that just staged a flit is not idle).
        """
        if self.idle_skip:
            for component in self._components:
                if not component.is_idle():
                    break
            else:
                self._sleeping = True
                self.sleep_count += 1
                return
        self.sim._push(self.edge_time(self._cycle + 1), self._tick_priority,
                       self._edge)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "sleeping" if self._sleeping else "running"
        return f"Clock({self.name}, {self.frequency_mhz} MHz, {state})"


class ClockGroup:
    """Fused scheduling for clocks that share a period and phase.

    A system of N same-frequency port clocks pays N heap events (plus up to
    N commit events) per period even though every edge lands on the same
    timestamp.  A group fires **one** event per timestamp and ticks its
    members in sequence — in clock-creation order, which is why members must
    hold *contiguous* tick priorities: the group event runs at the first
    member's priority, so interleaving with any non-member clock on a shared
    timestamp is exactly the unfused order.  (:func:`fuse_clocks` enforces
    contiguity when forming groups.)

    Per-member semantics are preserved: each member keeps its own
    ``idle_skip`` flag, ``sleeping`` state, ``sleep_count`` and
    ``edges_executed`` telemetry; sleeping members are skipped inside the
    group event (their edges neither execute nor count, as when unfused).
    The group stops rescheduling only when *every* member sleeps, and any
    member's :meth:`Clock.wake` resumes it on the next period boundary —
    the same boundary an unfused wake would have used.

    The one observable difference is telemetry-only: executed-event counts
    shrink (one event per timestamp instead of one per awake member), which
    is the point.  Workload-visible state is untouched — ticks and commits
    run in identical order at identical times.
    """

    def __init__(self, members: List[Clock]) -> None:
        if len(members) < 2:
            raise SimulationError("a clock group needs at least two members")
        first = members[0]
        for prev, member in zip(members, members[1:]):
            if member.sim is not first.sim:
                raise SimulationError("clock group members share a simulator")
            if (member.period_ps != first.period_ps
                    or member.phase_ps != first.phase_ps):
                raise SimulationError(
                    f"clock group members must share period and phase "
                    f"({member.name} vs {first.name})")
            if member._tick_priority != prev._tick_priority + 1:
                raise SimulationError(
                    f"clock group members must hold contiguous tick "
                    f"priorities ({prev.name} -> {member.name})")
            if member._started or member._group is not None:
                raise SimulationError(
                    f"clock {member.name} cannot join a group after start")
        if first._started or first._group is not None:
            raise SimulationError(
                f"clock {first.name} cannot join a group after start")
        self.sim = first.sim
        self.period_ps = first.period_ps
        self.members = list(members)
        self._tick_priority = first._tick_priority
        self._commit_priority = first._commit_priority
        self._epoch = 0
        self._started = False
        #: Time of the pending (scheduled, not yet fired) group edge; wake
        #: deduplication checks it so at most one edge event is in flight.
        self._next_scheduled = -1
        for member in members:
            member._group = self

    def start(self) -> None:
        """Start every member and schedule the first group edge.  Idempotent."""
        if self._started:
            return
        self._started = True
        epoch = max(self.sim.now, self.members[0].phase_ps)
        self._epoch = epoch
        for member in self.members:
            member._started = True
            member._epoch = epoch
            member._sleeping = False
        self._next_scheduled = epoch
        self.sim._push(epoch, self._tick_priority, self._edge)

    def _schedule(self, time: int) -> None:
        if self._next_scheduled >= time:
            return
        self._next_scheduled = time
        self.sim._push(time, self._tick_priority, self._edge)

    def _wake(self, now: int) -> None:
        """Member wake: fire at the first boundary strictly after ``now``."""
        index = (now - self._epoch) // self.period_ps + 1
        self._schedule(self._epoch + index * self.period_ps)

    def _edge(self) -> None:
        cycle = (self.sim.now - self._epoch) // self.period_ps
        commit = False
        for member in self.members:
            if member._sleeping:
                continue
            member._cycle = cycle
            member.edges_executed += 1
            for component in member._components:
                component.tick(cycle)
            if member._post_tick_components:
                commit = True
        if commit:
            self.sim._push(self.sim.now, self._commit_priority,
                           self._commit_edge)
        else:
            self._after_edge(cycle)

    def _commit_edge(self) -> None:
        cycle = (self.sim.now - self._epoch) // self.period_ps
        for member in self.members:
            # ``_cycle == cycle`` marks the members that ticked this edge
            # (a member woken mid-timestamp by another's stimulus has not
            # ticked and must not commit).
            if member._cycle == cycle and member._post_tick_components:
                for component in member._post_tick_components:
                    component.post_tick(cycle)
        self._after_edge(cycle)

    def _after_edge(self, cycle: int) -> None:
        """Per-member idleness evaluation, then one reschedule for all."""
        awake = False
        for member in self.members:
            if member._sleeping:
                continue
            if member.idle_skip and member._cycle == cycle:
                for component in member._components:
                    if not component.is_idle():
                        break
                else:
                    member._sleeping = True
                    member.sleep_count += 1
                    continue
            # Awake — including members woken mid-timestamp, whose next
            # edge is unconditional exactly as an unfused wake schedules.
            awake = True
        if awake:
            self._schedule(self.sim.now + self.period_ps)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        names = ", ".join(m.name for m in self.members)
        return f"ClockGroup({self.period_ps} ps: {names})"


def fuse_clocks(clocks: List[Clock]) -> List[ClockGroup]:
    """Partition ``clocks`` into fused :class:`ClockGroup` runs.

    Groups are maximal runs of not-yet-started clocks with equal period and
    phase holding contiguous tick priorities (creation order with no other
    clock in between — a gap would let a non-member's edge interleave, so
    the run splits there).  Runs of one stay unfused.  Clocks already
    started or already grouped are left alone.  Always-tick clocks
    (``idle_skip=False``) never fuse: that mode reproduces the seed
    engine's event schedule, which benchmarks use as the event-count
    denominator.  Returns the groups formed.
    """
    groups: List[ClockGroup] = []
    run: List[Clock] = []

    def flush() -> None:
        if len(run) >= 2:
            groups.append(ClockGroup(list(run)))
        del run[:]

    for clock in sorted(clocks, key=lambda c: c._tick_priority):
        if clock._started or clock._group is not None or not clock.idle_skip:
            flush()
            continue
        if run and (clock.sim is not run[-1].sim
                    or clock.period_ps != run[-1].period_ps
                    or clock.phase_ps != run[-1].phase_ps
                    or clock._tick_priority != run[-1]._tick_priority + 1):
            flush()
        run.append(clock)
    flush()
    return groups


def run_cycles(sim: Simulator, clock: Clock, cycles: int) -> None:
    """Run the simulator through exactly ``cycles`` further edge instants of
    ``clock``.

    The contract is time-based: the simulator runs (inclusively) up to the
    time of the ``cycles``-th next edge instant on the clock's period grid.
    An always-active clock therefore executes exactly ``cycles`` edges — a
    fresh clock ticks cycles ``0 .. cycles-1`` — and consecutive calls
    compose: two calls with ``cycles=n`` cover the same window as one call
    with ``cycles=2n``.  An idle-skipping clock may execute fewer edges, but
    time (and thus the cycle/slot grid) advances identically.
    """
    if cycles < 0:
        raise SimulationError(f"cannot run {cycles} cycles")
    if cycles == 0:
        return
    clock.start()
    if clock.cycle < 0 and sim.now <= clock.epoch_ps:
        # First edge (index 0) is still pending: it counts as one of the
        # requested instants.
        target_index = cycles - 1
    else:
        # Last instant at or before now has passed (executed or skipped);
        # count instants strictly after it.
        target_index = (sim.now - clock.epoch_ps) // clock.period_ps + cycles
    sim.run(until=clock.edge_time(target_index))
