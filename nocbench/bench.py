"""One benchmark run: a workload, a seed, a time budget, traced or not.

Untraced (``trace=False``) runs report the end-to-end metrics.  The run
repeats build + fixed run window until the time budget is spent and reports
medians of the host-time figures (CPU seconds of this single-threaded
process, scaled to a reference host by ``calibrate.HostTimer``); the
simulated figures are identical in every repetition (checked).  Traced runs report the per-layer metrics: they
alternate untraced and traced repetitions, so ``trace.overhead_ratio``
compares like with like.

Every run, traced or not, also

* drains each repetition and runs the output check (``measure``);
* checks that the simulated metrics and the ``System.fingerprint()``
  digest repeat exactly across repetitions;
* checks that a shortened run equals the same run under
  ``repro.sim.clock.always_tick()``, the reference semantics.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from typing import Dict, List, Optional, Tuple

from repro.sim.clock import always_tick

from nocbench.calibrate import HostTimer
from nocbench.layers import SETUP_SPANS, LayerTrace, installed
from nocbench.measure import (
    MIN_SAMPLES,
    fingerprint_digest,
    output_check,
    simulated_metrics,
)
from nocbench.workloads import WORKLOADS, Built, Workload

#: (name, unit, better) of every end-to-end metric, in report order.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("flit_cycles_per_s", "cycles/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("gt_latency_p50_cycles", "cycles", "lower"),
    ("gt_latency_p99_cycles", "cycles", "lower"),
    ("be_latency_p50_cycles", "cycles", "lower"),
    ("be_latency_p99_cycles", "cycles", "lower"),
    ("delivered_words_per_kcycle", "words/kcycle", "higher"),
    ("op_success_rate", "ratio", "higher"),
)

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("setup.build_system_s", "s", "lower"),
    ("setup.deadlock_check_s", "s", "lower"),
    ("setup.open_connections_s", "s", "lower"),
    ("setup.slot_allocate_s", "s", "lower"),
    ("setup.self_s", "s", "lower"),
    ("sim.self_s", "s", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.clock_edges", "count", "lower"),
    ("sim.ticks", "count", "lower"),
    ("sim.tick_skip_ratio", "ratio", "higher"),
    ("ip.ticks", "count", "lower"),
    ("ip.self_s", "s", "lower"),
    ("ip.backlog_end", "count", "lower"),
    ("ip.gt_ops", "count", "higher"),
    ("ip.be_ops", "count", "higher"),
    ("shells.ticks", "count", "lower"),
    ("shells.self_s", "s", "lower"),
    ("shells.issue_stalls", "count", "lower"),
    ("kernel.ticks", "count", "lower"),
    ("kernel.self_s", "s", "lower"),
    ("kernel.gt_slot_use", "ratio", "higher"),
    ("kernel.be_stalls", "count", "lower"),
    ("kernel.credit_only_share", "ratio", "lower"),
    ("kernel.packet_network_latency_mean_cycles", "cycles", "lower"),
    ("router.ticks", "count", "lower"),
    ("router.self_s", "s", "lower"),
    ("router.flits_out", "count", "higher"),
    ("router.be_backpressure_stalls", "count", "lower"),
    ("link.calls", "count", "lower"),
    ("link.self_s", "s", "lower"),
    ("link.utilization_max", "ratio", "lower"),
    ("mem.calls", "count", "lower"),
    ("mem.self_s", "s", "lower"),
    ("mem.row_hit_ratio", "ratio", "higher"),
    ("mem.service_latency_mean_cycles", "cycles", "lower"),
    ("mem.refresh_stalls", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

#: Layers whose spans nest inside the traced run window (``sim`` is the
#: window's root span).
WINDOW_LAYERS = ("sim", "ip", "shells", "kernel", "router", "link", "mem")

#: Fewest repetitions a run makes, whatever its time budget.
MIN_REPS = 3
#: Timed parts of each run window.  ``flit_cycles_per_s`` sums, part by
#: part, the median over repetitions, so a slowdown of the host that hits
#: one repetition's part is voted out by the others.
SEGMENTS = 100
#: Extra builds per run, so ``setup_s`` is a median of many builds.
SETUP_BUILDS = 60


class Run:
    """Outcome of one benchmark run, and the checks shared by its
    repetitions: identical simulated results, and the output check of each
    drained repetition."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: Run windows simulated, drained and checked.
        self.reps = 0
        self.digest = ""
        self._first: Optional[Dict[str, float]] = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def after_window(self, built: Built) -> Dict[str, float]:
        """Simulated metrics of a finished window, checked against the
        first repetition's."""
        simulated = simulated_metrics(built, self.workload.window)
        digest = fingerprint_digest(built)
        if self._first is None:
            self._first = simulated
            self.digest = digest
            for prefix in ("gt", "be"):
                if simulated[f"{prefix}_samples"] < MIN_SAMPLES:
                    self.problems.append(
                        f"only {simulated[f'{prefix}_samples']} {prefix} "
                        f"latency samples (need {MIN_SAMPLES})")
        elif (simulated, digest) != (self._first, self.digest):
            self.problems.append(
                "simulated results differ between repetitions")
        return simulated

    def check(self, built: Built) -> None:
        """Drain ``built`` and run the output check on it."""
        result = output_check(built)
        self.reps += 1
        if self.reps == 1:
            self.attempted = result.attempted
            self.failed = result.failed
        self.problems.extend(result.problems)


def _ratio(numerator: float, denominator: float) -> float:
    """A ratio that is 0 when undefined (JSON has no NaN), e.g. the DRAM
    ratios of a workload without DRAM."""
    return numerator / denominator if denominator else 0.0


def _layer_counters(built: Built, window: int) -> Dict[str, float]:
    """Simulated per-layer counters of the run window just finished."""
    system = built.system
    model = system.model
    kernels = [kernel.stats for kernel in system.kernels.values()]

    def total(stats, name: str) -> int:
        return sum(s.counter(name).value for s in stats)

    network_latency = [s.latency("packet_network_latency") for s in kernels]
    latency_count = sum(rec.count for rec in network_latency)
    latency_sum = sum(rec.mean * rec.count for rec in network_latency
                      if rec.count)
    gt_sent = total(kernels, "gt_flits_sent")
    routers = [router.stats for router in system.noc.routers.values()]
    drams = [handle.dram.service_summary()
             for handle in system.memories.values()
             if handle.backend == "dram"]
    served = sum(d["row_hits"] + d["row_closed"] + d["row_conflicts"]
                 for d in drams)
    service_count = sum(d["service_latency"]["count"] for d in drams)
    service_sum = sum(d["service_latency"]["mean"]
                      * d["service_latency"]["count"]
                      for d in drams if d["service_latency"]["count"])
    clocks = [model.noc.flit_clock, *model.port_clocks.values()]
    return {
        "sim.events": system.sim.executed_events,
        "sim.clock_edges": sum(clock.edges_executed for clock in clocks),
        "ip.backlog_end": sum(handle.ip.backlog
                              for handle in system.masters.values()),
        "ip.gt_ops": sum(1 for record in built.log if record.gt),
        "ip.be_ops": sum(1 for record in built.log if not record.gt),
        "shells.issue_stalls": sum(
            handle.shell.stats.counter("issue_stalls").value
            for handle in system.masters.values()),
        "kernel.gt_slot_use": _ratio(
            gt_sent, gt_sent + total(kernels, "gt_slots_unused")),
        "kernel.be_stalls": total(kernels, "be_stalls"),
        "kernel.credit_only_share": _ratio(
            total(kernels, "credit_only_packets"),
            total(kernels, "gt_packets_sent")
            + total(kernels, "be_packets_sent")),
        "kernel.packet_network_latency_mean_cycles": _ratio(
            latency_sum, latency_count),
        "router.flits_out": total(routers, "gt_flits_out")
        + total(routers, "be_flits_out"),
        "router.be_backpressure_stalls": total(routers,
                                               "be_backpressure_stalls"),
        "link.utilization_max": max(link.flits_carried / window
                                    for link in system.noc.links.values()),
        "mem.row_hit_ratio": _ratio(sum(d["row_hits"] for d in drams),
                                    served),
        "mem.service_latency_mean_cycles": _ratio(service_sum,
                                                  service_count),
        "mem.refresh_stalls": sum(d["refresh_stalls"] for d in drams),
    }


def _reference_check(run: Run, trace: Optional[LayerTrace] = None
                     ) -> Tuple[int, int]:
    """Compare a shortened run with the same run under ``always_tick()``.

    Returns the executed tick counts (activity-driven, always-tick) when a
    trace is given, else ``(0, 0)``.
    """
    workload = run.workload
    window = workload.reference_window
    outcomes = []
    ticks = []
    for reference in (False, True):
        if trace is not None:
            trace.clear()
        if reference:
            with always_tick():
                built = workload.declare(run.seed, window).build()
        else:
            built = workload.declare(run.seed, window).build()
        built.system.run_flit_cycles(window)
        outcomes.append((simulated_metrics(built, window),
                         fingerprint_digest(built)))
        ticks.append(trace.ticks if trace is not None else 0)
    if outcomes[0] != outcomes[1]:
        run.problems.append("shortened run differs from always-tick "
                            "reference")
    return ticks[0], ticks[1]


def _timed_segments(timer: HostTimer, built: Built, window: int
                    ) -> List[float]:
    """Run the window in :data:`SEGMENTS` equal parts; scaled host CPU
    seconds of each part."""
    step, rest = divmod(window, SEGMENTS)
    if rest:
        raise ValueError(f"run window {window} is not a multiple of "
                         f"{SEGMENTS} segments")
    times = [timer.time(built.system.run_flit_cycles, step)[0]
             for _ in range(SEGMENTS)]
    timer.interrupt()
    return times


def _deadline_reached(start: float, seconds: float, reps: int,
                      min_reps: int) -> bool:
    return reps >= min_reps and time.perf_counter() - start >= seconds


def run_untraced(workload: Workload, seed: int, seconds: float,
                 min_reps: int = MIN_REPS) -> Run:
    """End-to-end metrics: medians over repetitions of the run window."""
    run = Run(workload, seed)
    start = time.perf_counter()
    window = workload.window
    timer = HostTimer()
    setup: List[float] = []
    for _ in range(SETUP_BUILDS):
        declaration = workload.declare(seed, window)
        gc.collect()
        setup.append(timer.time(declaration.build)[0])
    segment_times: List[List[float]] = []
    while not _deadline_reached(start, seconds, len(segment_times),
                                min_reps):
        declaration = workload.declare(seed, window)
        gc.collect()
        build_s, built = timer.time(declaration.build)
        setup.append(build_s)
        segment_times.append(_timed_segments(timer, built, window))
        simulated = run.after_window(built)
        run.check(built)
        # One system alive at a time keeps peak_rss_mb independent of how
        # many repetitions fit the time budget.
        del built
        gc.collect()
    _reference_check(run)
    run.metrics = {
        "flit_cycles_per_s": window / sum(
            statistics.median(times) for times in zip(*segment_times)),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        **{name: simulated[name] for name, _, _ in END_TO_END
           if name in simulated},
        "op_success_rate": 1 - _ratio(run.failed, run.attempted),
    }
    return run


def run_traced(workload: Workload, seed: int, seconds: float,
               min_reps: int = 1) -> Run:
    """Per-layer metrics: alternating untraced and traced repetitions."""
    run = Run(workload, seed)
    start = time.perf_counter()
    window = workload.window
    trace = LayerTrace()
    setup: Dict[str, List[float]] = {name: [] for name in
                                     ("setup",) + SETUP_SPANS}
    with installed(trace):
        for _ in range(SETUP_BUILDS):
            declaration = workload.declare(seed, window)
            trace.clear()
            declaration.build()
            for name, samples in setup.items():
                samples.append(trace.totals(name).self_s)
    untraced_wall: List[float] = []
    traced_wall: List[float] = []
    self_s: Dict[str, List[float]] = {name: [] for name in WINDOW_LAYERS}
    counts: Optional[Tuple[Dict[str, int], int]] = None
    while not _deadline_reached(start, seconds, len(traced_wall), min_reps):
        built = workload.declare(seed, window).build()
        begin = time.perf_counter()
        built.system.run_flit_cycles(window)
        untraced_wall.append(time.perf_counter() - begin)
        run.after_window(built)
        run.check(built)

        with installed(trace):
            built = workload.declare(seed, window).build()
            trace.clear()
            begin = time.perf_counter()
            trace.run("sim", built.system.run_flit_cycles, window)
            traced_wall.append(time.perf_counter() - begin)
        span = trace.totals("sim").inclusive_s
        accounted = sum(trace.totals(name).self_s for name in WINDOW_LAYERS)
        if abs(accounted - span) > 1e-6 * span:
            run.problems.append(
                f"layer self times sum to {accounted:.6f} s, traced run "
                f"span is {span:.6f} s")
        for name in WINDOW_LAYERS:
            self_s[name].append(trace.totals(name).self_s)
        rep_counts = ({name: trace.totals(name).calls
                       for name in WINDOW_LAYERS},
                      trace.ticks)
        if counts is None:
            counts = rep_counts
            counters = _layer_counters(built, window)
        elif rep_counts != counts:
            run.problems.append("traced call counts differ between "
                                "repetitions")
        run.after_window(built)
        run.check(built)
    with installed(trace):
        activity_ticks, always_ticks = _reference_check(run, trace)
    calls, ticks = counts
    metrics: Dict[str, float] = {
        f"setup.{name}_s": statistics.median(setup[name])
        for name in SETUP_SPANS}
    metrics["setup.self_s"] = statistics.median(setup["setup"])
    for name in WINDOW_LAYERS:
        metrics[f"{name}.self_s"] = statistics.median(self_s[name])
    for name in ("ip", "shells", "kernel", "router"):
        metrics[f"{name}.ticks"] = calls[name]
    metrics["link.calls"] = calls["link"]
    metrics["mem.calls"] = calls["mem"]
    metrics["sim.ticks"] = ticks
    metrics["sim.tick_skip_ratio"] = 1 - _ratio(activity_ticks, always_ticks)
    metrics.update(counters)
    metrics["trace.overhead_ratio"] = (statistics.median(traced_wall)
                                       / statistics.median(untraced_wall))
    run.metrics = metrics
    return run


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Run:
    """Run one workload; raises KeyError for an unknown name."""
    runner = run_traced if trace else run_untraced
    return runner(WORKLOADS[name], seed, seconds)
