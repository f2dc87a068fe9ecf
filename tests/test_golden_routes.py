"""Golden-route regression: the strategy refactor must not move a byte.

The routes below were captured from the string-dispatch implementation
(PR 4 era) for every classic scenario shape: if the pluggable strategy
layer resolves a single route differently, slot allocation, in-flight
ordering and ultimately every statistic shifts.  These pins hold the
refactor to its invariant — identical routes for existing mesh / ring /
single-router systems.
"""

import warnings

import pytest

from repro.api import scenarios
from repro.network.routing import (
    AutoRouting,
    ShortestPath,
    XYRouting,
    make_routing,
)
from repro.network.topology import Topology, build_port_map

#: Captured with the pre-refactor string dispatch ("auto" everywhere).
GOLDEN_ROUTES = {
    "point_to_point": {
        ("ni_m", "ni_s"): (0, 1),
        ("ni_s", "ni_m"): (0, 1),
    },
    "gt_be_mix": {
        ("m0", "s0"): (0, 1), ("m0", "s1"): (0, 2),
        ("m1", "s0"): (0, 1), ("m1", "s1"): (0, 2),
        ("s0", "m0"): (0, 1), ("s0", "m1"): (0, 2),
        ("s1", "m0"): (0, 1), ("s1", "m1"): (0, 2),
    },
    "ring": {
        ("m0", "mem0"): (0, 1, 1, 2),
        ("m1", "mem1"): (0, 0, 1, 2),
        ("m2", "mem2"): (0, 0, 0, 2),
        ("mem0", "m0"): (0, 0, 0, 2),
        ("mem1", "m1"): (1, 0, 0, 2),
        ("mem2", "m2"): (0, 1, 1, 2),
    },
    "hotspot": {
        ("m0", "hot"): (0, 1, 2), ("m1", "hot"): (1, 2),
        ("m2", "hot"): (1, 2), ("m3", "hot"): (2,),
        ("hot", "m0"): (1, 0, 2), ("hot", "m1"): (0, 2),
        ("hot", "m2"): (1, 2), ("hot", "m3"): (3,),
    },
    "narrowcast": {
        ("ni_m", "ni_s0"): (0, 1), ("ni_m", "ni_s1"): (2,),
        ("ni_s0", "ni_m"): (0, 1), ("ni_s1", "ni_m"): (1,),
    },
}


@pytest.mark.parametrize("scenario_name", sorted(GOLDEN_ROUTES))
def test_scenario_routes_byte_identical(scenario_name):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the ring scenario warns (real CDG cycle)
        system = scenarios.build(scenario_name)
    for (src, dst), expected in GOLDEN_ROUTES[scenario_name].items():
        assert system.noc.route(src, dst) == expected, \
            f"{scenario_name}: {src}->{dst}"


def test_strategy_objects_match_string_dispatch():
    """A strategy instance and its registry name produce the same routes."""
    topo = Topology.mesh(3, 3)
    port_map = build_port_map(topo)
    pairs = [(a, b) for a in topo.routers for b in topo.routers if a != b]
    for name, strategy in (("xy", XYRouting()),
                           ("shortest", ShortestPath()),
                           ("auto", AutoRouting())):
        for src, dst in pairs:
            local = port_map.local_port(dst, 0)
            assert (make_routing(name).route(topo, port_map, src, dst, local)
                    == strategy.route(topo, port_map, src, dst, local)), \
                (name, src, dst)


def test_ring_spec_fields_unchanged():
    """The explicit topology-size fix keeps the legacy spec encoding."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        system = scenarios.build("ring")
    spec = system.spec
    assert spec.topology == "ring"
    assert (spec.rows, spec.cols) == (1, 6)
    assert spec.topology_params == {"num_routers": 6}
    assert system.noc.topology.num_routers == 6
