"""The Aethereal NoC substrate: packets, links, routers, topologies, routing.

The network interface (the paper's contribution, :mod:`repro.core`) sits on
top of this substrate.  The substrate reproduces the router of Rijpkema et
al. (DATE 2003, reference [21] of the paper): a combined guaranteed-throughput
(GT) / best-effort (BE) router where GT traffic is forwarded on reserved TDM
slots (contention-free by construction) and BE traffic is wormhole-routed with
round-robin arbitration and link-level backpressure.
"""

from repro.network.link import Link, LinkContentionError
from repro.network.noc import NoC, NoCBuilder
from repro.network.packet import (
    CYCLES_PER_FLIT,
    FLIT_WORDS,
    MAX_HEADER_CREDITS,
    NETWORK_FREQUENCY_MHZ,
    WORD_BITS,
    Flit,
    Packet,
    PacketHeader,
    packet_to_flits,
)
from repro.network.router import (
    BufferOverflowError,
    Router,
    SlotConflictError,
)
from repro.network.routing import (
    ROUTING_STRATEGIES,
    AutoRouting,
    RouteError,
    RoutingStrategy,
    ShortestPath,
    TableRouting,
    TorusDimensionOrdered,
    XYRouting,
    make_routing,
    register_routing,
    routing_names,
)
from repro.network.slot_table import RouterSlotTable, SlotTable, SlotTableError
from repro.network.topology import (
    TOPOLOGY_FACTORIES,
    PortMap,
    Topology,
    TopologyError,
    make_topology,
    register_topology,
    topology_names,
)

__all__ = [
    "AutoRouting",
    "BufferOverflowError",
    "CYCLES_PER_FLIT",
    "FLIT_WORDS",
    "Flit",
    "Link",
    "LinkContentionError",
    "MAX_HEADER_CREDITS",
    "NETWORK_FREQUENCY_MHZ",
    "NoC",
    "NoCBuilder",
    "Packet",
    "PacketHeader",
    "PortMap",
    "ROUTING_STRATEGIES",
    "RouteError",
    "Router",
    "RouterSlotTable",
    "RoutingStrategy",
    "ShortestPath",
    "SlotConflictError",
    "SlotTable",
    "SlotTableError",
    "TOPOLOGY_FACTORIES",
    "TableRouting",
    "Topology",
    "TopologyError",
    "TorusDimensionOrdered",
    "WORD_BITS",
    "XYRouting",
    "make_routing",
    "make_topology",
    "packet_to_flits",
    "register_routing",
    "register_topology",
    "routing_names",
    "topology_names",
]
