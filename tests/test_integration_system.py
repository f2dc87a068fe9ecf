"""Integration tests for the GT/BE mix, narrowcast and configuration systems."""

import pytest

from repro.api import scenarios
from repro.config.connection import (
    ChannelEndpointRef,
    ChannelPairSpec,
    ConnectionSpec,
)
from repro.protocol.transactions import Transaction

#: Flit-cycle caps of a run to idle: the narrowcast system and the
#: configuration system.
NARROWCAST_RUN_CAP = 40000
CONFIG_RUN_CAP = 20000


def run_config_to_idle(system, max_flit_cycles=CONFIG_RUN_CAP):
    """Run until the configuration shell has drained its programs."""
    return system.run_until_idle(max_flit_cycles,
                                 predicate=system.config_shell.is_idle)


class TestGtBeMix:
    def test_gt_and_be_pairs_both_make_progress(self):
        mix = scenarios.build("gt_be_mix", num_gt=1, num_be=1, gt_slots=2)
        mix.run_flit_cycles(1500)
        for name, master in mix.masters.items():
            assert len(master.completed) > 10, name

    def test_gt_throughput_unaffected_by_be_load(self):
        """Compositionality: adding BE traffic must not slow the GT channel."""
        quiet = scenarios.build("gt_be_mix", num_gt=1, num_be=0, gt_slots=2,
                                gt_pattern_period=12)
        loaded = scenarios.build("gt_be_mix", num_gt=1, num_be=3, gt_slots=2,
                                 gt_pattern_period=12, be_pattern_period=4)
        quiet.run_flit_cycles(2000)
        loaded.run_flit_cycles(2000)
        # GT pairs come first: m0 is the guaranteed master in both systems.
        quiet_done = len(quiet.master("m0").completed)
        loaded_done = len(loaded.master("m0").completed)
        assert loaded_done >= quiet_done * 0.95

    def test_be_latency_degrades_under_gt_load(self):
        light = scenarios.build("gt_be_mix", num_gt=0, num_be=1,
                                be_pattern_period=12)
        heavy = scenarios.build("gt_be_mix", num_gt=3, num_be=1, gt_slots=2,
                                gt_pattern_period=4, be_pattern_period=12)
        light.run_flit_cycles(2000)
        heavy.run_flit_cycles(2000)
        # The best-effort master follows the GT ones: m0 alone, m3 behind 3.
        light_latency = light.master("m0").latency_summary()["mean"]
        heavy_latency = heavy.master("m3").latency_summary()["mean"]
        assert heavy_latency >= light_latency

    def test_shared_link_carries_both_traffic_classes(self):
        mix = scenarios.build("gt_be_mix", num_gt=1, num_be=1, gt_slots=2)
        mix.run_flit_cycles(1000)
        link = mix.noc.links[("router:(0, 0)", "router:(0, 1)")]
        assert link.gt_flits_carried > 0
        assert link.be_flits_carried > 0

    def test_slot_allocations_disjoint_across_gt_pairs(self):
        mix = scenarios.build("gt_be_mix", num_gt=3, num_be=0, gt_slots=2)
        assignment = mix.slot_assignment
        all_link_slots = set()
        for (ni, channel), slots in assignment.items():
            for slot in slots:
                key = ((ni, channel), slot)
                assert key not in all_link_slots
                all_link_slots.add(key)
        # Three request channels plus three response channels hold slots.
        assert len(assignment) == 6
        # Request channels of the three masters share the forward link, so
        # their injection-slot sets must be pairwise disjoint.
        request_slots = [set(assignment[(f"m{i}", 0)]) for i in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                assert not request_slots[i] & request_slots[j]


class TestNarrowcast:
    def test_shared_address_space_is_split_over_memories(self):
        system = scenarios.build("narrowcast", num_slaves=2, range_words=256)
        master = system.master("master")
        master.issue(Transaction.write(0x10, [1, 2]))
        master.issue(Transaction.write(256 * 4 + 0x10, [3, 4]))
        system.run_until_idle(NARROWCAST_RUN_CAP)
        assert system.memory("ni_s0").memory.read_burst(0x10, 2) == [1, 2]
        assert system.memory("ni_s1").memory.read_burst(0x10, 2) == [3, 4]

    def test_reads_come_back_from_the_right_memory(self):
        system = scenarios.build("narrowcast", num_slaves=3, range_words=128,
                                 cols=2)
        master = system.master("master")
        for slave in range(3):
            master.issue(Transaction.write(slave * 128 * 4, [100 + slave]))
        for slave in range(3):
            master.issue(Transaction.read(slave * 128 * 4, length=1))
        system.run_until_idle(NARROWCAST_RUN_CAP)
        reads = [t for t in master.completed if t.is_read]
        assert [t.response.read_data[0] for t in reads] == [100, 101, 102]

    def test_responses_delivered_in_transaction_order(self):
        system = scenarios.build("narrowcast", num_slaves=2, range_words=256)
        master = system.master("master")
        addresses = [0x0, 256 * 4, 0x20, 256 * 4 + 0x20]
        for address in addresses:
            master.issue(Transaction.write(address, [address]))
        system.run_until_idle(NARROWCAST_RUN_CAP)
        assert [t.address for t in master.completed] == addresses

    def test_out_of_range_address_is_rejected_by_the_shell(self):
        system = scenarios.build("narrowcast", num_slaves=2, range_words=64)
        system.master("master").issue(Transaction.write(10_000_000, [1]))
        with pytest.raises(Exception):
            system.run_flit_cycles(500)


class TestConfigurationOverTheNoc:
    def test_bootstrap_completes_and_acknowledges(self):
        system = scenarios.build("config_system", num_data_nis=2)
        run_config_to_idle(system)
        assert system.config_shell.is_idle()
        acks = system.config_shell.stats.counter("acknowledgements").value
        assert acks == 2      # one acknowledged write per bootstrapped NI

    def test_connection_opened_via_the_noc_matches_functional_result(self):
        system = scenarios.build("config_system", num_data_nis=2)
        run_config_to_idle(system)
        spec = ConnectionSpec(
            name="b_to_a", kind="p2p",
            pairs=[ChannelPairSpec(master=ChannelEndpointRef("ni1", 1),
                                   slave=ChannelEndpointRef("ni2", 1),
                                   request_gt=True, request_slots=2)])
        handle = system.config_manager.open_connection(spec)
        run_config_to_idle(system)
        assert handle.done
        kernel = system.kernel("ni1")
        assert kernel.channel(1).regs.enabled
        assert kernel.channel(1).regs.gt
        assert kernel.channel(1).regs.path == system.noc.route("ni1", "ni2")
        assert len(kernel.slot_table.slots_of(1)) == 2
        slave_kernel = system.kernel("ni2")
        assert slave_kernel.channel(1).regs.enabled

    def test_register_write_counts_match_figure_9_scale(self):
        """The paper: 5 writes at the master NI, 3 at the slave NI per pair."""
        system = scenarios.build("config_system", num_data_nis=2)
        run_config_to_idle(system)
        spec = ConnectionSpec(
            name="plain_be", kind="p2p",
            pairs=[ChannelPairSpec(master=ChannelEndpointRef("ni1", 1),
                                   slave=ChannelEndpointRef("ni2", 1))])
        handle = system.config_manager.open_connection(spec)
        run_config_to_idle(system)
        per_ni = handle.register_writes_per_ni
        assert 3 <= per_ni["ni1"] <= 6
        assert 3 <= per_ni["ni2"] <= 6

    def test_opened_connection_carries_data(self):
        """After configuring B->A over the NoC, B can issue requests to A."""
        from repro.core.shells.master import MasterShell
        from repro.core.shells.point_to_point import PointToPointShell
        from repro.core.shells.slave import SlaveShell
        from repro.ip.slave import MemorySlave

        system = scenarios.build("config_system", num_data_nis=2)
        run_config_to_idle(system)
        # Attach a master IP to ni1's data port (channel 1 = data conn 0) and
        # a memory slave to ni2's data port.
        master_conn = PointToPointShell("b_conn",
                                        system.kernel("ni1").port("data"),
                                        role="master", conn=0)
        master_shell = MasterShell("b_shell", master_conn)
        slave_conn = PointToPointShell("a_conn",
                                       system.kernel("ni2").port("data"),
                                       role="slave", conn=0)
        memory = MemorySlave("a_mem")
        slave_shell = SlaveShell("a_slave", slave_conn, memory)
        clock_m = system.port_clock("ni1", "data")
        clock_s = system.port_clock("ni2", "data")
        for component in (master_shell, master_conn):
            clock_m.add_component(component)
        for component in (slave_conn, slave_shell, memory):
            clock_s.add_component(component)

        spec = ConnectionSpec(
            name="b_to_a", kind="p2p",
            pairs=[ChannelPairSpec(master=ChannelEndpointRef("ni1", 1),
                                   slave=ChannelEndpointRef("ni2", 1))])
        system.config_manager.open_connection(spec)
        run_config_to_idle(system)

        master_shell.submit(Transaction.write(0x30, [5, 6, 7]))
        system.run_flit_cycles(600)
        assert memory.memory.read_burst(0x30, 3) == [5, 6, 7]

    def test_more_data_nis_bootstrap_on_a_larger_mesh(self):
        system = scenarios.build("config_system", num_data_nis=3, rows=2,
                                 cols=2)
        run_config_to_idle(system, max_flit_cycles=40000)
        assert system.config_shell.is_idle()
        assert system.config_shell.stats.counter(
            "acknowledgements").value == 3
