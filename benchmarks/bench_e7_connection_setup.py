"""E7 — Figure 9: opening a connection over the NoC itself.

Counts the register writes (the paper reports 5 at the master NI and 3 at the
slave NI per master-slave pair), the configuration messages and the cycles
needed to (a) bootstrap the configuration connections and (b) open a
guaranteed B-to-A connection from the centralized configuration module, all
through real DTL-MMIO transactions travelling over the simulated NoC.
"""

from benchmarks.helpers import print_table
from repro.api import scenarios
from repro.config.connection import (
    ChannelEndpointRef,
    ChannelPairSpec,
    ConnectionSpec,
)

#: Flit-cycle cap of each run until the configuration shell is idle.
CONFIG_RUN_CAP = 20000


def setup_rows():
    system = scenarios.build("config_system", num_data_nis=2)
    config_shell = system.config_shell
    bootstrap_cycles = system.run_until_idle(
        CONFIG_RUN_CAP, predicate=config_shell.is_idle)
    bootstrap_remote = config_shell.stats.counter("remote_operations").value
    bootstrap_local = config_shell.stats.counter("local_operations").value

    spec = ConnectionSpec(
        name="b_to_a", kind="p2p",
        pairs=[ChannelPairSpec(master=ChannelEndpointRef("ni1", 1),
                               slave=ChannelEndpointRef("ni2", 1),
                               request_gt=True, request_slots=2)])
    handle = system.config_manager.open_connection(spec)
    open_cycles = system.run_until_idle(CONFIG_RUN_CAP,
                                        predicate=config_shell.is_idle)
    per_ni = handle.register_writes_per_ni

    rows = [
        {"step": "bootstrap cfg connections (Fig. 9 steps 1-2, 2 NIs)",
         "register_writes": system.bootstrap_operations,
         "local_writes": bootstrap_local,
         "noc_messages": bootstrap_remote,
         "flit_cycles": bootstrap_cycles},
        {"step": "open B->A connection (Fig. 9 steps 3-4)",
         "register_writes": handle.register_writes,
         "local_writes": 0,
         "noc_messages": handle.register_writes,
         "flit_cycles": open_cycles},
    ]
    for ni, count in sorted(per_ni.items()):
        rows.append({"step": f"  writes at {ni} (paper: 5 master / 3 slave)",
                     "register_writes": count, "local_writes": "-",
                     "noc_messages": "-", "flit_cycles": "-"})
    return rows, handle


def test_e7_connection_setup_over_the_noc():
    rows, handle = setup_rows()
    print_table("E7: connection configuration via the NoC (Figure 9)", rows)
    assert handle.done
    per_ni = handle.register_writes_per_ni
    # Master side carries the extra slot-table writes; both stay in the same
    # small range the paper reports (5 and 3 registers).
    assert 3 <= per_ni["ni2"] <= 6          # slave side
    assert 4 <= per_ni["ni1"] <= 8          # master side (incl. 2 slots)
    assert per_ni["ni1"] >= per_ni["ni2"]
