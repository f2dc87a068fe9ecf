"""Burst-granularity simulation controls.

The paper's TDMA slot tables make guaranteed-throughput traffic *statically
schedulable*: once a packet's head flit wins its slot, every subsequent flit
crosses each link on a known future cycle with no arbitration decision left
to take.  The batched pipeline exploits this by moving whole flit runs per
event (see ``network/link.py`` and ``core/kernel.py``) instead of one event
per flit edge.

Batching never changes results — it is gated by the byte-identity golden
tests (`tests/test_batching_equivalence.py`).  This module holds the three
control knobs those tests and the perf suite use:

* :func:`set_default_batching` / :func:`unbatched` — process-wide default,
  captured by each NI kernel at construction time (mirroring the
  ``always_tick`` pattern of :mod:`repro.sim.clock`).  The unbatched
  pipeline is the per-flit reference implementation.
* :func:`set_burst_cap` / :func:`burst_cap` — an upper bound on burst
  length.  Bursts longer than the cap are split: the prefix travels as a
  burst, the remainder per flit.  The hypothesis property test sweeps this
  knob to prove burst-boundary placement never changes delivered streams.
* :class:`BurstBarrier` — a mutable "next arbitration-visible event" cycle
  shared between the fault injector and the NI kernels.  No burst may still
  be in flight anywhere on its path when a scheduled fault event applies,
  so burst formation at cycle ``t`` of ``k`` flits over ``h`` hops requires
  ``t + k + h + 1 <= barrier.cycle``; otherwise the kernel falls back to
  the per-flit path, which is exact by construction.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

#: Sentinel cycle meaning "no scheduled event will ever truncate a burst".
FAR_FUTURE = 1 << 60

_default_batching = True
_burst_cap = FAR_FUTURE


class BurstBarrier:
    """Mutable next-event cycle that truncates burst formation.

    The fault injector (``repro.faults.injector``) advances ``cycle`` to the
    next unapplied :class:`~repro.faults.plan.FaultEvent` as it ticks; NI
    kernels consult it when sizing a burst.  Systems without a fault plan
    share :data:`NO_BARRIER`.
    """

    __slots__ = ("cycle",)

    def __init__(self, cycle: int = FAR_FUTURE) -> None:
        self.cycle = cycle

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        if self.cycle >= FAR_FUTURE:
            return "BurstBarrier(<none>)"
        return f"BurstBarrier(cycle={self.cycle})"


#: Shared barrier for systems with no scheduled fault events.
NO_BARRIER = BurstBarrier()


def batching_default() -> bool:
    """Process-wide default captured by NI kernels at construction."""
    return _default_batching


def set_default_batching(enabled: bool) -> bool:
    """Set the default batching mode; returns the previous value."""
    global _default_batching
    previous = _default_batching
    _default_batching = bool(enabled)
    return previous


@contextmanager
def unbatched() -> Iterator[None]:
    """Build systems inside this context to get the per-flit reference
    pipeline (the batched-vs-unbatched golden tests use this)."""
    previous = set_default_batching(False)
    try:
        yield
    finally:
        set_default_batching(previous)


def burst_cap() -> int:
    """Current maximum burst length (flits)."""
    return _burst_cap


def set_burst_cap(cap: int) -> int:
    """Cap burst length at ``cap`` flits; returns the previous cap.

    A cap below 2 effectively disables bursting (a one-flit burst is just a
    flit).  Captured by kernels at construction time.
    """
    global _burst_cap
    if cap < 1:
        raise ValueError(f"burst cap must be >= 1, got {cap}")
    previous = _burst_cap
    _burst_cap = cap
    return previous


@contextmanager
def capped_bursts(cap: int) -> Iterator[None]:
    """Temporarily cap burst length (property tests sweep this)."""
    previous = set_burst_cap(cap)
    try:
        yield
    finally:
        set_burst_cap(previous)
