"""Statistics collection for the cycle model.

The NI and router models record throughput, latency and jitter through these
collectors; the analysis layer (:mod:`repro.analysis`) compares them against
the analytic bounds of Section 2 of the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional


class Counter:
    """A monotonically increasing event counter."""

    def __init__(self, name: str = "counter") -> None:
        self.name = name
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("Counter.increment requires a non-negative amount")
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counter({self.name}={self.value})"


class Histogram:
    """A simple histogram over integer samples (latencies, packet lengths)."""

    def __init__(self, name: str = "histogram") -> None:
        self.name = name
        self._bins: Dict[int, int] = {}
        self._count = 0
        self._total = 0
        self._min: Optional[int] = None
        self._max: Optional[int] = None

    def add(self, sample: int, weight: int = 1) -> None:
        self._bins[sample] = self._bins.get(sample, 0) + weight
        self._count += weight
        self._total += sample * weight
        if self._min is None or sample < self._min:
            self._min = sample
        if self._max is None or sample > self._max:
            self._max = sample

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else float("nan")

    @property
    def minimum(self) -> Optional[int]:
        return self._min

    @property
    def maximum(self) -> Optional[int]:
        return self._max

    def percentile(self, p: float) -> Optional[int]:
        """Return the smallest sample at or above the ``p``-th percentile."""
        if not self._count:
            return None
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be within [0, 100]")
        threshold = math.ceil(self._count * p / 100.0)
        running = 0
        for sample in sorted(self._bins):
            running += self._bins[sample]
            if running >= threshold:
                return sample
        return self._max

    def to_dict(self) -> Dict[int, int]:
        return dict(sorted(self._bins.items()))

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Histogram({self.name}, n={self._count}, "
                f"min={self._min}, mean={self.mean:.2f}, max={self._max})")


class LatencyRecorder:
    """Records (start, end) pairs and exposes latency statistics in cycles."""

    def __init__(self, name: str = "latency") -> None:
        self.name = name
        self.histogram = Histogram(name)
        self._samples: List[int] = []

    def record(self, start_cycle: int, end_cycle: int) -> None:
        if end_cycle < start_cycle:
            raise ValueError("latency sample ends before it starts")
        latency = end_cycle - start_cycle
        self.histogram.add(latency)
        self._samples.append(latency)

    @property
    def samples(self) -> List[int]:
        return list(self._samples)

    @property
    def count(self) -> int:
        return self.histogram.count

    @property
    def mean(self) -> float:
        return self.histogram.mean

    @property
    def maximum(self) -> Optional[int]:
        return self.histogram.maximum

    @property
    def minimum(self) -> Optional[int]:
        return self.histogram.minimum

    @property
    def jitter(self) -> Optional[int]:
        """Worst-case spread (max - min) of recorded latencies."""
        if not self._samples:
            return None
        return self.histogram.maximum - self.histogram.minimum


class RateMeter:
    """Measures throughput: items (words, flits, bytes) over a cycle window."""

    def __init__(self, name: str = "rate") -> None:
        self.name = name
        self.items = 0
        self._first_cycle: Optional[int] = None
        self._last_cycle: Optional[int] = None

    def add(self, cycle: int, amount: int = 1) -> None:
        if self._first_cycle is None:
            self._first_cycle = cycle
        self._last_cycle = cycle
        self.items += amount

    def add_run(self, first_cycle: int, count: int,
                per_cycle: int = 1) -> None:
        """Record ``count`` cycles of activity starting at ``first_cycle``.

        The batched pipeline's one-call-per-burst replacement for ``count``
        individual :meth:`add` calls: totals and the observation window end
        up identical.
        """
        if count <= 0:
            return
        if self._first_cycle is None:
            self._first_cycle = first_cycle
        self._last_cycle = first_cycle + count - 1
        self.items += count * per_cycle

    def rate_per_cycle(self, window_cycles: Optional[int] = None) -> float:
        """Items per cycle over the observation window (or a supplied window)."""
        if window_cycles is not None:
            if window_cycles <= 0:
                raise ValueError("window must be positive")
            return self.items / window_cycles
        if self._first_cycle is None or self._last_cycle is None:
            return 0.0
        span = self._last_cycle - self._first_cycle + 1
        return self.items / span if span > 0 else 0.0

    def throughput_gbit_s(self, window_cycles: int, frequency_mhz: float,
                          bits_per_item: int = 32) -> float:
        """Convert the measured rate into Gbit/s at the given clock."""
        per_cycle = self.rate_per_cycle(window_cycles)
        return per_cycle * bits_per_item * frequency_mhz / 1000.0


class WindowedRate:
    """A sliding-window rate meter (items per cycle over the last N cycles).

    Backed by a ring of per-cycle buckets.  A plain list deliberately — a
    NumPy ring would turn the dominant operation (one scalar indexed add
    per flit) into a boxed-scalar round trip, which benchmarks slower than
    the list by an order of magnitude.  Per-link bandwidth meters
    (``health_report()["links"]``) are instances of this; the batched link
    feeds them one :meth:`add_run` per burst.
    """

    __slots__ = ("window", "_buckets", "_last_cycle", "total")

    def __init__(self, window_cycles: int = 64) -> None:
        if window_cycles <= 0:
            raise ValueError("window must be positive")
        self.window = window_cycles
        self._buckets = [0] * window_cycles
        self._last_cycle = -1
        #: All items ever recorded (cumulative, like RateMeter.items).
        self.total = 0

    def _advance(self, cycle: int) -> None:
        """Zero the buckets for cycles between the last write and ``cycle``."""
        last = self._last_cycle
        if cycle <= last:
            return
        window = self.window
        buckets = self._buckets
        if cycle - last >= window:
            for i in range(window):
                buckets[i] = 0
        else:
            for c in range(last + 1, cycle + 1):
                buckets[c % window] = 0
        self._last_cycle = cycle

    def add(self, cycle: int, amount: int = 1) -> None:
        self._advance(cycle)
        self._buckets[cycle % self.window] += amount
        self.total += amount

    def add_run(self, first_cycle: int, count: int) -> None:
        """Record one item per cycle for ``count`` consecutive cycles."""
        if count <= 0:
            return
        self.total += count
        last = first_cycle + count - 1
        self._advance(last)
        buckets = self._buckets
        window = self.window
        if count >= window:
            # Only the window's worth of cycles is still observable.
            first_cycle = last - window + 1
        for c in range(first_cycle, last + 1):
            buckets[c % window] += 1

    def rate(self, now_cycle: Optional[int] = None) -> float:
        """Items per cycle over the window ending at ``now_cycle`` (or the
        last recorded cycle)."""
        if now_cycle is not None:
            self._advance(now_cycle)
        filled = sum(self._buckets)
        return float(filled) / self.window

    def snapshot(self, now_cycle: Optional[int] = None) -> Dict[str, float]:
        return {"window": float(self.window),
                "rate_per_cycle": self.rate(now_cycle),
                "total": float(self.total)}


@dataclass
class StatsRegistry:
    """A named collection of collectors, used per NI / router / system."""

    counters: Dict[str, Counter] = field(default_factory=dict)
    histograms: Dict[str, Histogram] = field(default_factory=dict)
    latencies: Dict[str, LatencyRecorder] = field(default_factory=dict)
    rates: Dict[str, RateMeter] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        return self.counters.setdefault(name, Counter(name))

    def histogram(self, name: str) -> Histogram:
        return self.histograms.setdefault(name, Histogram(name))

    def latency(self, name: str) -> LatencyRecorder:
        return self.latencies.setdefault(name, LatencyRecorder(name))

    def rate(self, name: str) -> RateMeter:
        return self.rates.setdefault(name, RateMeter(name))

    def summary(self) -> Dict[str, object]:
        """A flat, printable snapshot of every collector."""
        out: Dict[str, object] = {}
        for name, counter in self.counters.items():
            out[f"counter.{name}"] = counter.value
        for name, histogram in self.histograms.items():
            out[f"histogram.{name}.count"] = histogram.count
            out[f"histogram.{name}.mean"] = histogram.mean
            out[f"histogram.{name}.max"] = histogram.maximum
        for name, latency in self.latencies.items():
            out[f"latency.{name}.count"] = latency.count
            out[f"latency.{name}.mean"] = latency.mean
            out[f"latency.{name}.max"] = latency.maximum
        for name, rate in self.rates.items():
            out[f"rate.{name}.items"] = rate.items
        return out
