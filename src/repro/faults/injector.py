"""Runtime replay of a fault plan.

The :class:`FaultInjector` is a :class:`~repro.sim.clock.ClockedComponent`
registered on the flit clock *only when a system declares faults* — a
no-fault build instantiates neither the injector nor the fault manager, so
fault support costs exactly nothing (byte-identical runs, identical event
counts).

Wake-protocol note: pending fault events become due through the passage of
cycles alone — nothing will call ``notify_active()`` for them — so the
injector reports busy until its plan is exhausted, keeping the flit clock
ticking through every scheduled fault.  Once the last event has been
applied it goes idle and the clock may sleep again.
"""

from __future__ import annotations

from repro.faults.plan import FaultPlan
from repro.sim.batching import FAR_FUTURE, BurstBarrier
from repro.sim.clock import ClockedComponent


class FaultInjector(ClockedComponent):
    """Applies the events of a :class:`FaultPlan` at their scheduled cycles.

    Also owns the system's :class:`~repro.sim.batching.BurstBarrier`: the
    barrier always holds the next unapplied event's cycle, and the NI
    kernels truncate bursts so nothing is in flight anywhere on a path
    when an event applies (the burst-truncation invariant of
    PERFORMANCE.md "Burst-granularity simulation").
    """

    def __init__(self, manager, plan: FaultPlan) -> None:
        self.manager = manager
        self._events = plan.sorted_events()
        self._next = 0
        self.barrier = BurstBarrier(
            self._events[0].cycle if self._events else FAR_FUTURE)

    @property
    def exhausted(self) -> bool:
        return self._next >= len(self._events)

    @property
    def events_applied(self) -> int:
        return self._next

    def tick(self, cycle: int) -> None:
        events = self._events
        applied = False
        while self._next < len(events) and events[self._next].cycle <= cycle:
            self.manager.apply(events[self._next])
            self._next += 1
            applied = True
        if applied:
            self.barrier.cycle = (events[self._next].cycle
                                  if self._next < len(events) else FAR_FUTURE)

    def is_idle(self) -> bool:
        return self._next >= len(self._events)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"FaultInjector({self._next}/{len(self._events)} "
                f"events applied)")
