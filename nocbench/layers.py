"""Per-layer span accounting for the traced run.

The benchmark wraps the public entry points of each layer from its own
files; ``src/`` is not modified.  Spans fold into bounded per-layer totals
(call count, inclusive time, self time) instead of a per-call list.  A
span's self time is its duration minus the spans nested inside it, so the
layer self times of one root span add up to that root span exactly.

The tracer's own per-call cost falls outside the wrapped call, so it lands
in the caller's self time: for top-level component calls that is the root
span, ``sim``.  ``trace.overhead_ratio`` sizes it.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Callable, Dict, Iterator, List, Tuple

import repro.api.builder as builder_module
from repro.config.manager import FunctionalConfigurator
from repro.config.slot_allocation import CentralizedSlotAllocator
from repro.mem.controller import DRAMController
from repro.network.link import Link
from repro.sim.clock import ClockedComponent

# Imported so every ClockedComponent subclass the workloads build exists.
import repro.core.kernel  # noqa: F401
import repro.core.shells  # noqa: F401
import repro.ip.master  # noqa: F401
import repro.ip.slave  # noqa: F401
import repro.mem.slave  # noqa: F401
import repro.network.router  # noqa: F401

#: Module prefix of a clocked component class -> layer name.  repro.obs,
#: repro.faults and repro.baselines are out of scope: no workload
#: instantiates them.
COMPONENT_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.ip", "ip"),
    ("repro.core.shells", "shells"),
    ("repro.core.kernel", "kernel"),
    ("repro.network.router", "router"),
    ("repro.network.link", "link"),
    ("repro.mem", "mem"),
)

#: Span name of the set-up entry points (``SystemBuilder.build`` itself is
#: the ``setup`` root span).
SETUP_SPANS = ("build_system", "deadlock_check", "open_connections",
               "slot_allocate")

#: Layer -> (end-to-end metric, workload) its per-layer metrics should
#: move; the per-layer metrics in BENCHMARK.json are read against it.
SHOULD_MOVE: Dict[str, Tuple[str, str]] = {
    "setup": ("setup_s", "mesh_gt_be (little on dram_rw)"),
    "sim": ("flit_cycles_per_s", "sparse_gt (flat on mesh_gt_be)"),
    "ip": ("flit_cycles_per_s", "sparse_gt; *_latency_p99_cycles via "
                                "the backlog"),
    "shells": ("flit_cycles_per_s, be_latency_p99_cycles", "dram_rw"),
    "kernel": ("flit_cycles_per_s", "mesh_gt_be; gt_latency_* and "
                                    "delivered_words_per_kcycle everywhere"),
    "router": ("flit_cycles_per_s, be_latency_p99_cycles", "mesh_gt_be"),
    "link": ("flit_cycles_per_s", "mesh_gt_be"),
    "mem": ("be_latency_p99_cycles, flit_cycles_per_s",
            "dram_rw (absent elsewhere)"),
    "trace": ("none; it sizes the trace", "all"),
}


def component_layer(cls: type) -> str:
    """Layer of a clocked component class, or '' when out of scope."""
    module = cls.__module__
    for prefix, layer in COMPONENT_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return ""


def _subclasses(cls: type) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


class Totals:
    """Bounded totals of one layer's spans."""

    __slots__ = ("calls", "inclusive_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.inclusive_s = 0.0
        self.self_s = 0.0


class LayerTrace:
    """Accumulates per-layer span totals."""

    def __init__(self) -> None:
        self.layers: Dict[str, Totals] = {}
        #: ``tick`` calls only (``post_tick`` and other entry points count
        #: in their layer's ``calls`` but not here).
        self.ticks = 0
        #: Child time of each open span, innermost last.
        self._open: List[float] = []

    def totals(self, layer: str) -> Totals:
        return self.layers.setdefault(layer, Totals())

    def clear(self) -> None:
        """Zero the totals in place (installed wrappers keep working)."""
        for totals in self.layers.values():
            totals.__init__()
        self.ticks = 0

    def wrap(self, layer: str, function: Callable,
             is_tick: bool = False) -> Callable:
        opened = self._open
        totals = self.totals(layer)
        clock = time.perf_counter
        trace = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            opened.append(0.0)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                duration = clock() - start
                children = opened.pop()
                if opened:
                    opened[-1] += duration
                totals.calls += 1
                totals.inclusive_s += duration
                totals.self_s += duration - children
                if is_tick:
                    trace.ticks += 1

        return traced

    def run(self, layer: str, function: Callable, *args):
        """Call ``function(*args)`` inside a span of ``layer``."""
        return self.wrap(layer, function)(*args)


@contextlib.contextmanager
def installed(trace: LayerTrace) -> Iterator[LayerTrace]:
    """Wrap every layer entry point for the duration of the block.

    ``post_tick`` is wrapped only where a class defines it, so inherited
    no-op ``post_tick`` methods stay recognisable to the clock and the set
    of components it calls is unchanged.  Patch before building: the
    clock reads ``post_tick`` when a component is added.
    """
    patches: List[Tuple[object, str, object]] = []

    def patch(owner, attribute: str, layer: str, is_tick: bool = False):
        # None marks an attribute the owner only inherited: restored by
        # deleting the wrapper again.
        original = vars(owner).get(attribute)
        patches.append((owner, attribute, original))
        setattr(owner, attribute,
                trace.wrap(layer, getattr(owner, attribute), is_tick))

    for cls in dict.fromkeys(_subclasses(ClockedComponent)):
        layer = component_layer(cls)
        if not layer:
            continue
        # A class still on the base no-op tick (a link) gets its own
        # wrapper so every executed tick is counted; subclasses of a
        # wrapped class inherit its wrapper (parents are visited first).
        if "tick" in vars(cls) or cls.tick is ClockedComponent.tick:
            patch(cls, "tick", layer, is_tick=True)
        if "post_tick" in vars(cls):
            patch(cls, "post_tick", layer)
    patch(Link, "send", "link")
    patch(Link, "send_burst", "link")
    patch(DRAMController, "tick", "mem")
    patch(builder_module.SystemBuilder, "build", "setup")
    patch(builder_module, "build_system", "build_system")
    patch(builder_module, "analyze_noc_routes", "deadlock_check")
    patch(FunctionalConfigurator, "open_connection", "open_connections")
    patch(CentralizedSlotAllocator, "allocate", "slot_allocate")
    try:
        yield trace
    finally:
        for owner, attribute, original in reversed(patches):
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
