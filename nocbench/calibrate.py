"""Host-speed calibration: a fixed piece of pure-Python work.

On a shared host the speed per instruction drifts, by up to a factor of
two within seconds (other tenants on the same cores and caches, frequency
scaling; in a virtual machine, time taken from the virtual CPU can still
count as this process's CPU time).  A simulator run window timed alone
carries that drift in full.  The benchmark therefore times this fixed work right beside every
timed part of the window and reports host time in units of it: a drift that
slows both alike cancels out, and a faster simulator still reads faster.

The work is interpreter-bound like the simulator: method calls on small
objects, attribute reads and writes, dict lookups, deque traffic and small
integer arithmetic.  It is deterministic and never changes with the
program under test.
"""

from __future__ import annotations

import gc
import time
from collections import deque

#: Host CPU seconds one :func:`unit` takes on the reference host.  Host
#: times are reported as ``measured * REFERENCE_UNIT_S / unit time``, i.e.
#: as they would read on a host where one unit takes this long.
REFERENCE_UNIT_S = 0.022

#: Iterations of the inner loop in one unit.
_STEPS = 4000


class _Stage:
    __slots__ = ("queue", "credits", "seen")

    def __init__(self) -> None:
        self.queue: deque = deque()
        self.credits = 4
        self.seen = 0

    def tick(self, cycle: int, table: dict) -> int:
        if self.queue and self.credits:
            item = self.queue.popleft()
            self.credits -= 1
            self.seen += 1
            return table.get(item & 63, 0) + item
        self.credits = min(self.credits + 1, 4)
        self.queue.append(cycle * 7 & 1023)
        return 0


def unit() -> float:
    """Run one unit of the fixed work; its host CPU seconds.

    The garbage collector is off meanwhile, so the unit's time does not
    depend on how large the simulator's heap is.
    """
    enabled = gc.isenabled()
    gc.disable()
    begin = time.process_time()
    stages = [_Stage() for _ in range(16)]
    table = {key: key * 3 for key in range(64)}
    total = 0
    for cycle in range(_STEPS):
        for stage in stages:
            total += stage.tick(cycle, table)
    elapsed = time.process_time() - begin
    if enabled:
        gc.enable()
    if total <= 0:
        raise AssertionError("calibration work went wrong")
    return elapsed


class HostTimer:
    """Times calls in host CPU seconds scaled to the reference host.

    A call is timed between two units of the fixed work, and its CPU time is
    scaled by ``REFERENCE_UNIT_S`` over the mean of the two.  Back-to-back
    calls share the unit between them; after untimed work, call
    :meth:`interrupt` so the next call is calibrated afresh.
    """

    def __init__(self) -> None:
        self._unit = None

    def time(self, call, *args):
        """``(scaled seconds, result)`` of ``call(*args)``."""
        before = unit() if self._unit is None else self._unit
        begin = time.process_time()
        result = call(*args)
        elapsed = time.process_time() - begin
        self._unit = unit()
        return elapsed * 2 * REFERENCE_UNIT_S / (before + self._unit), result

    def interrupt(self) -> None:
        """Untimed work follows: the next call calibrates afresh."""
        self._unit = None
