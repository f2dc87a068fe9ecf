"""Engine golden equivalence suite.

The batched flit pipeline (burst delivery on links, per-burst GT forwarding
in routers, word-run receive in NI kernels — see PERFORMANCE.md,
"Burst-granularity simulation") and the activity-driven clocks (idle-skip
plus ClockGroup fusion) are only legal because they never change results.
This suite is the gate:

* a golden sweep over the **full scenario registry** — every registered
  scenario, including the fault scenarios (``link_failure_reroute``,
  ``transient_storm``: poison windows and fault events must truncate bursts)
  and the DRAM scenarios (``dram_scheduler_mix``: bank stalls back-pressure
  the BE path) — asserting byte-identical result fingerprints between the
  default engine and two references: the per-flit pipeline
  (:func:`repro.sim.batching.unbatched`) and the seed's always-tick clocks
  (:func:`repro.sim.clock.always_tick`);
* a hypothesis property test sweeping the burst cap
  (:func:`repro.sim.batching.capped_bursts`), which moves every burst
  boundary around at random: no placement may change the delivered word
  stream (actual memory contents) or any counter.

A scenario that is cheap to run twice sits in the fast tier; the rest carry
``slow`` and run in ``make test-all`` / the full tier.
"""

import contextlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.deadlock import DeadlockWarning
from repro.api import scenarios
from repro.sim.batching import batching_default, capped_bursts, unbatched
from repro.sim.clock import always_tick


def normalize(obj):
    """NaN-tolerant deep normalization so fingerprints compare with ==."""
    if isinstance(obj, float):
        return "NaN" if math.isnan(obj) else obj
    if isinstance(obj, dict):
        return {key: normalize(value) for key, value in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [normalize(value) for value in obj]
    return obj


def run_fingerprint(name: str, cycles: int) -> dict:
    """Build scenario ``name`` fresh, run it, and digest the results.

    The digest extends ``System.fingerprint()`` with the actual memory
    contents: byte identity must cover the delivered *words*, not just the
    counters that summarize them.  Scenarios tagged ``negative`` must
    warn about their channel-dependency cycle at build time.
    """
    expect_cycle = "negative" in scenarios.get(name).tags
    with (pytest.warns(DeadlockWarning, match="cycle") if expect_cycle
          else contextlib.nullcontext()):
        system = scenarios.build(name)
    system.run_flit_cycles(cycles)
    digest = system.fingerprint()
    digest["memory_words"] = {
        mem_name: dict(handle.memory._data)
        for mem_name, handle in system.memories.items()}
    return normalize(digest)


# Cheap enough to run against both references per test-tier run;
# everything else is slow.
# link_failure_reroute and dram_scheduler_mix stay in the fast tier on
# purpose: fault barriers and DRAM back-pressure are the burst-truncation
# paths most worth exercising on every `make check`.
_FAST = {
    "point_to_point",
    "gt_be_mix",
    "multicast",
    "link_failure_reroute",
    "transient_storm",
    "dram_scheduler_mix",
}

#: Flit cycles per scenario (default 300): long enough for steady state,
#: short enough to run the whole registry against both references in the
#: full tier.
_CYCLES = {"saturated_grid": 200, "random_system": 200}


def _params():
    for name in sorted(scenarios.names()):
        marks = () if name in _FAST else (pytest.mark.slow,)
        yield pytest.param(name, marks=marks)


@pytest.mark.parametrize("name", _params())
def test_batched_matches_per_flit_reference(name):
    assert batching_default(), "suite must run with batching on by default"
    cycles = _CYCLES.get(name, 300)
    batched = run_fingerprint(name, cycles)
    with unbatched():
        reference = run_fingerprint(name, cycles)
    assert batched == reference


@pytest.mark.parametrize("name", _params())
def test_activity_engine_matches_always_tick_reference(name):
    """Idle-skip and ClockGroup fusion change which edges execute, never
    what an executed edge does: the seed's always-tick clocks must agree."""
    cycles = _CYCLES.get(name, 300)
    activity = run_fingerprint(name, cycles)
    with always_tick():
        reference = run_fingerprint(name, cycles)
    assert activity == reference


# ---------------------------------------------------------------------------
# Property: burst-boundary placement is unobservable.  Capping the burst
# length at k splits every would-be burst at arbitrary points (k=1 disables
# bursting outright, large k merges maximally); no cap may change the
# delivered word stream.
# ---------------------------------------------------------------------------
_PROPERTY_SCENARIO = "gt_be_mix"
_PROPERTY_CYCLES = 220
_reference_cache = {}


def _property_reference():
    if "fp" not in _reference_cache:
        with unbatched():
            _reference_cache["fp"] = run_fingerprint(
                _PROPERTY_SCENARIO, _PROPERTY_CYCLES)
    return _reference_cache["fp"]


@settings(max_examples=12, deadline=None)
@given(cap=st.integers(min_value=1, max_value=24))
def test_random_burst_boundaries_preserve_word_streams(cap):
    with capped_bursts(cap):
        capped = run_fingerprint(_PROPERTY_SCENARIO, _PROPERTY_CYCLES)
    assert capped == _property_reference()


@pytest.mark.slow
@settings(max_examples=8, deadline=None)
@given(cap=st.integers(min_value=1, max_value=24))
def test_random_burst_boundaries_with_faults(cap):
    """Same property across a fault plan: barriers + caps still compose."""
    if "fault_fp" not in _reference_cache:
        with unbatched():
            _reference_cache["fault_fp"] = run_fingerprint(
                "link_failure_reroute", _PROPERTY_CYCLES)
    with capped_bursts(cap):
        capped = run_fingerprint("link_failure_reroute", _PROPERTY_CYCLES)
    assert capped == _reference_cache["fault_fp"]
