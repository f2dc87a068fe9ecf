"""The benchmark's own tests, on shortened run windows."""

from __future__ import annotations

import dataclasses
import json
import os
import warnings

import pytest

from repro.analysis.deadlock import DeadlockWarning
from repro.core.registers import PATH_MAX_HOPS

from nocbench import bench
from nocbench.bench import END_TO_END, PER_LAYER, run_traced, run_untraced
from nocbench.layers import SHOULD_MOVE
from nocbench.measure import fingerprint_digest, output_check
from nocbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Shortened run windows (flit cycles) that keep each test to a second or so.
SHORT = {"mesh_gt_be": 300, "dram_rw": 1000, "sparse_gt": 1500}


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _short(name: str):
    window = SHORT[name]
    return dataclasses.replace(WORKLOADS[name], window=window,
                               reference_window=window // 2)


def test_benchmark_json_matches_the_code():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for entry in spec["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    for key, metrics in (("end_to_end", END_TO_END),
                         ("per_layer", PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] \
            == list(metrics)
    for name, _, _ in PER_LAYER:
        assert name.split(".")[0] in SHOULD_MOVE


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_builds_clean_and_passes_the_output_check(name):
    workload = WORKLOADS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeadlockWarning)
        built = workload.declare(1, SHORT[name]).build()
    for kernel in built.system.kernels.values():
        for channel in kernel.channels:
            if channel.regs.enabled:
                assert len(channel.regs.path) <= PATH_MAX_HOPS
    built.system.run_flit_cycles(SHORT[name])
    digest = fingerprint_digest(built)
    result = output_check(built)
    assert result.attempted > 0
    assert result.failed == 0
    assert result.ok, result.problems
    assert {record.gt for record in built.log} == {True, False}

    again = workload.declare(1, SHORT[name]).build()
    again.system.run_flit_cycles(SHORT[name])
    assert fingerprint_digest(again) == digest
    other = workload.declare(2, SHORT[name]).build()
    other.system.run_flit_cycles(SHORT[name])
    assert fingerprint_digest(other) != digest


def _only_sample_count_problems(run) -> None:
    # Shortened windows cannot reach the latency sample count a full run
    # window guarantees.
    assert all("latency samples" in p for p in run.problems), run.problems


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_runs_emit_exactly_the_declared_metrics(name, monkeypatch):
    monkeypatch.setattr(bench, "SETUP_BUILDS", 2)
    untraced = run_untraced(_short(name), seed=3, seconds=0, min_reps=2)
    assert set(untraced.metrics) == {m for m, _, _ in END_TO_END}
    assert untraced.failed == 0
    assert untraced.metrics["op_success_rate"] == 1.0
    _only_sample_count_problems(untraced)

    traced = run_traced(_short(name), seed=3, seconds=0)
    assert set(traced.metrics) == {m for m, _, _ in PER_LAYER}
    assert traced.failed == 0
    assert traced.digest == untraced.digest
    _only_sample_count_problems(traced)
    assert traced.metrics["trace.overhead_ratio"] > 0
    assert 0 <= traced.metrics["sim.tick_skip_ratio"] < 1
