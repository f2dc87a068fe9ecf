"""Tests for the scenario registry (repro.api.scenarios)."""

import math

import pytest

from repro.analysis.deadlock import DeadlockWarning
from repro.api import SystemBuilder, scenarios
from repro.core.shells.multiconnection import MultiConnectionShell


def normalize(obj):
    if isinstance(obj, float):
        return "NaN" if math.isnan(obj) else obj
    if isinstance(obj, dict):
        return {key: normalize(value) for key, value in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [normalize(value) for value in obj]
    return obj


class TestRegistry:
    def test_classic_and_new_scenarios_registered(self):
        names = scenarios.names()
        for expected in ("point_to_point", "gt_be_mix", "narrowcast",
                         "config_system", "ring", "hotspot", "random_system",
                         "multicast", "dram_hotspot", "video_pipeline_dram",
                         "dram_scheduler_mix", "idle_mesh", "saturated_mix",
                         "saturated_grid", "saturated_dram"):
            assert expected in names

    def test_perf_tag_selects_perf_shapes(self):
        perf = scenarios.names(tag="perf")
        assert "idle_mesh" in perf
        assert "saturated_grid" in perf
        assert "saturated_mix" in perf
        assert "saturated_dram" in perf
        assert "point_to_point" not in perf

    def test_dram_tag_selects_dram_workloads(self):
        dram = scenarios.names(tag="dram")
        assert set(dram) >= {"dram_hotspot", "video_pipeline_dram",
                             "dram_scheduler_mix", "saturated_dram"}

    def test_unknown_scenario_is_actionable(self):
        with pytest.raises(scenarios.ScenarioError,
                           match="unknown scenario 'warp_drive'.*registered"):
            scenarios.build("warp_drive")

    def test_describe_lists_metadata(self):
        rows = {name: (description, tags)
                for name, description, tags in scenarios.describe()}
        assert "functional" in rows["ring"][1]
        assert rows["gt_be_mix"][0]

    def test_custom_registration_with_defaults(self):
        @scenarios.scenario("tmp_test_scenario", description="x",
                            tags=("test",), rows=1, cols=2)
        def _factory(rows, cols):
            return (SystemBuilder("tmp").mesh(rows, cols)
                    .add_master("m", router=(0, 0))
                    .add_memory("s", router=(0, 1))
                    .connect("m", "s")
                    .build())

        try:
            system = scenarios.build("tmp_test_scenario")
            assert system.spec.cols == 2
            system = scenarios.build("tmp_test_scenario", cols=3)
            assert system.spec.cols == 3
        finally:
            del scenarios._REGISTRY["tmp_test_scenario"]


class TestNewScenarios:
    def test_ring_traffic_completes_over_multiple_hops(self):
        with pytest.warns(DeadlockWarning, match="cycle"):
            system = scenarios.build("ring", num_pairs=3, hops=3, gt=False,
                                     max_transactions=6)
        assert system.spec.topology == "ring"
        assert system.noc.hop_count("m0", "mem0") == 4  # 3 hops + target
        cycles = system.run_until_idle(max_flit_cycles=60000)
        assert cycles < 60000
        for index in range(3):
            assert len(system.master(f"m{index}").completed) == 6

    def test_ring_gt_reserves_slots(self):
        system = scenarios.build("ring", num_pairs=2, gt=True, slots=2,
                                 max_transactions=2)
        assert system.connection("m0->mem0").slot_assignment[("m0", 0)]
        system.run_until_idle(max_flit_cycles=60000)
        assert system.master("m0").done()

    def test_hotspot_serializes_into_one_shared_memory(self):
        system = scenarios.build("hotspot", num_masters=4,
                                 max_transactions=5, burst_words=4)
        memory = system.memory("hot")
        assert isinstance(memory.conn_shell, MultiConnectionShell)
        system.run_until_idle(max_flit_cycles=60000)
        for index in range(4):
            assert len(system.master(f"m{index}").completed) == 5
        assert memory.memory.writes == 4 * 5 * 4
        # Every master wrote into its own window of the address space: the
        # bursts never overlap, so every written word is distinct.
        assert len(memory.memory) == 4 * 5 * 4

    def test_random_system_is_deterministic_per_seed(self):
        def run(seed):
            system = scenarios.build("random_system", seed=seed)
            system.run_until_idle(max_flit_cycles=120000)
            return normalize(system.fingerprint())

        assert run(3) == run(3)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_random_system_smoke_reaches_idle(self, seed):
        system = scenarios.build("random_system", seed=seed,
                                 transactions_per_master=6)
        cycles = system.run_until_idle(max_flit_cycles=120000)
        assert cycles < 120000, f"seed {seed} never went idle"
        for name, handle in system.masters.items():
            assert handle.done(), f"seed {seed}: {name} not done"
            assert len(handle.completed) == 6

    def test_random_seeds_produce_different_systems(self):
        shapes = {
            (scenarios.build("random_system", seed=seed).spec.rows,
             scenarios.build("random_system", seed=seed).spec.cols,
             len(scenarios.build("random_system", seed=seed).masters))
            for seed in range(1, 7)
        }
        assert len(shapes) > 1


class TestPerfShapes:
    def test_idle_mesh_has_no_traffic_sources(self):
        system = scenarios.build("idle_mesh", rows=2, cols=2)
        system.run_flit_cycles(200)
        assert system.noc.total_flits_forwarded() == 0
        assert not system.masters and not system.memories

    def test_saturated_grid_smoke(self):
        system = scenarios.build("saturated_grid")
        assert len(system.masters) == 12
        arbiters = {system.spec.ni(handle.ni).be_arbiter
                    for handle in system.masters.values()}
        assert arbiters == {"round_robin", "weighted_round_robin",
                            "queue_fill"}
        system.run_flit_cycles(120)
        assert system.noc.total_flits_forwarded() > 0
