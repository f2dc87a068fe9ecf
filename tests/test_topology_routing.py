"""Unit tests for topologies, port maps and source-route computation."""

import pytest

from repro.network.routing import (
    AutoRouting,
    RouteError,
    ShortestPath,
    XYRouting,
    make_routing,
    ports_from_router_sequence,
    router_sequence_shortest,
    router_sequence_xy,
)
from repro.network.topology import (
    Topology,
    TopologyError,
    attach_points,
    build_port_map,
    mesh_coordinates,
)


class TestTopology:
    def test_mesh_size_and_connectivity(self):
        topo = Topology.mesh(2, 3)
        assert topo.num_routers == 6
        assert topo.is_connected()
        assert topo.degree((0, 0)) == 2
        assert topo.degree((0, 1)) == 3

    def test_mesh_invalid_dimensions(self):
        with pytest.raises(TopologyError):
            Topology.mesh(0, 3)

    def test_ring(self):
        topo = Topology.ring(5)
        assert topo.num_routers == 5
        assert all(topo.degree(n) == 2 for n in topo.routers)

    def test_single_router(self):
        topo = Topology.single_router()
        assert topo.num_routers == 1
        assert topo.diameter() == 0

    def test_self_loop_rejected(self):
        topo = Topology()
        topo.add_router("a")
        with pytest.raises(TopologyError):
            topo.connect("a", "a")

    def test_shortest_path(self):
        topo = Topology.mesh(1, 4)
        path = topo.shortest_path((0, 0), (0, 3))
        assert path == [(0, 0), (0, 1), (0, 2), (0, 3)]

    def test_shortest_path_unknown_node(self):
        topo = Topology.mesh(1, 2)
        with pytest.raises(TopologyError):
            topo.shortest_path((0, 0), (5, 5))

    def test_no_path_raises(self):
        topo = Topology()
        topo.add_router("a")
        topo.add_router("b")
        with pytest.raises(TopologyError):
            topo.shortest_path("a", "b")

    def test_neighbors_unknown_node(self):
        with pytest.raises(TopologyError):
            Topology.mesh(1, 2).neighbors((9, 9))

    def test_diameter_of_mesh(self):
        assert Topology.mesh(2, 2).diameter() == 2
        assert Topology.mesh(3, 3).diameter() == 4

    def test_mesh_coordinates_helper(self):
        assert mesh_coordinates((1, 2)) == (1, 2)
        with pytest.raises(TopologyError):
            mesh_coordinates("router0")

    def test_attach_points_round_robin(self):
        topo = Topology.mesh(1, 2)
        mapping = attach_points(topo, ["a", "b", "c"])
        assert len(mapping) == 3
        assert mapping["a"] != mapping["b"]
        assert mapping["a"] == mapping["c"]


class TestPortMap:
    def test_neighbor_ports_then_locals(self):
        topo = Topology.mesh(1, 2)
        port_map = build_port_map(topo, {(0, 0): 2, (0, 1): 1})
        # (0,0) has one neighbour -> port 0, then locals 1 and 2.
        assert port_map.port_toward((0, 0), (0, 1)) == 0
        assert port_map.local_ports[(0, 0)] == [1, 2]
        assert port_map.num_ports[(0, 0)] == 3
        assert port_map.local_port((0, 1), 0) == 1

    def test_default_one_local_port(self):
        topo = Topology.mesh(1, 2)
        port_map = build_port_map(topo)
        assert port_map.num_ports[(0, 0)] == 2

    def test_missing_local_port_raises(self):
        topo = Topology.mesh(1, 2)
        port_map = build_port_map(topo, {(0, 0): 1})
        with pytest.raises(TopologyError):
            port_map.local_port((0, 0), 5)

    def test_unknown_neighbor_raises(self):
        topo = Topology.mesh(1, 2)
        port_map = build_port_map(topo)
        with pytest.raises(TopologyError):
            port_map.port_toward((0, 0), (5, 5))


class TestRouting:
    def setup_method(self):
        self.topo = Topology.mesh(2, 3)
        self.port_map = build_port_map(self.topo, {n: 1 for n in self.topo.routers})

    def test_xy_sequence_goes_x_first(self):
        sequence = router_sequence_xy(self.topo, (0, 0), (1, 2))
        assert sequence == [(0, 0), (0, 1), (0, 2), (1, 2)]

    def test_xy_sequence_same_router(self):
        assert router_sequence_xy(self.topo, (1, 1), (1, 1)) == [(1, 1)]

    def test_shortest_sequence_length(self):
        sequence = router_sequence_shortest(self.topo, (0, 0), (1, 2))
        assert len(sequence) == 4

    def test_ports_from_sequence_ends_with_local_port(self):
        sequence = [(0, 0), (0, 1)]
        local = self.port_map.local_port((0, 1), 0)
        route = ports_from_router_sequence(self.port_map, sequence, local)
        assert len(route) == 2
        assert route[-1] == local
        assert route[0] == self.port_map.port_toward((0, 0), (0, 1))

    def test_empty_sequence_rejected(self):
        with pytest.raises(RouteError):
            ports_from_router_sequence(self.port_map, [], 0)

    def test_xy_route_hop_count(self):
        local = self.port_map.local_port((1, 2), 0)
        route = XYRouting().route(self.topo, self.port_map, (0, 0), (1, 2),
                                  local)
        assert len(route) == 4  # one output port per traversed router

    def test_compute_route_auto_uses_xy_on_mesh(self):
        local = self.port_map.local_port((1, 2), 0)
        auto = AutoRouting().route(self.topo, self.port_map, (0, 0), (1, 2),
                                   local)
        xy = XYRouting().route(self.topo, self.port_map, (0, 0), (1, 2),
                               local)
        assert auto == xy

    def test_compute_route_shortest_on_non_mesh(self):
        ring = Topology.ring(4)
        port_map = build_port_map(ring, {n: 1 for n in ring.routers})
        local = port_map.local_port(2, 0)
        route = AutoRouting().route(ring, port_map, 0, 2, local)
        assert route == ShortestPath().route(ring, port_map, 0, 2, local)
        assert len(route) == 3

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(RouteError):
            make_routing("magic")

    def test_single_router_route_is_just_local_port(self):
        topo = Topology.single_router()
        port_map = build_port_map(topo, {0: 2})
        route = AutoRouting().route(topo, port_map, 0, 0,
                                    port_map.local_port(0, 1))
        assert route == (port_map.local_port(0, 1),)
