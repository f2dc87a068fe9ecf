"""Instance generation: build a runnable simulated system from a spec.

This mirrors the paper's XML-to-VHDL generation flow: :func:`build_system`
takes a :class:`~repro.design.spec.NoCSpec` and instantiates the simulator,
the topology, the routers and links, every NI kernel with its channels and
ports, and one clock domain per NI port.  Shells, IP modules and connections
are application-level decisions and are added on top by
:class:`~repro.api.builder.SystemBuilder`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.config.manager import FunctionalConfigurator
from repro.config.slot_allocation import CentralizedSlotAllocator
from repro.core.kernel import NIKernel
from repro.core.ni import NetworkInterface
from repro.design.spec import NISpec, NoCSpec, SpecError
from repro.network.noc import NoC, NoCBuilder
from repro.network.topology import Topology, make_topology
from repro.sim.batching import FAR_FUTURE, BurstBarrier
from repro.sim.clock import Clock, fuse_clocks
from repro.sim.engine import Simulator
from repro.sim.trace import NULL_TRACER, Tracer


@dataclass
class SystemModel:
    """A generated system: simulator, network and NI instances."""

    spec: NoCSpec
    sim: Simulator
    noc: NoC
    nis: Dict[str, NetworkInterface] = field(default_factory=dict)
    port_clocks: Dict[Tuple[str, str], Clock] = field(default_factory=dict)
    allocator: Optional[CentralizedSlotAllocator] = None
    #: Run-boundary burst barrier shared by every NI kernel: bounded runs
    #: (``run_flit_cycles`` / ``run_ns``) publish their stop cycle here so
    #: no burst is ever in flight when the run ends — observations at run
    #: boundaries see counter totals identical to the per-flit pipeline.
    stop_barrier: BurstBarrier = field(default_factory=BurstBarrier)
    #: True once same-rate clocks were fused into groups (first ``start``).
    _fused: bool = False

    # --------------------------------------------------------------- lookups
    @property
    def kernels(self) -> Dict[str, NIKernel]:
        return {name: ni.kernel for name, ni in self.nis.items()}

    def ni(self, name: str) -> NetworkInterface:
        return self.nis[name]

    def kernel(self, name: str) -> NIKernel:
        return self.nis[name].kernel

    def port_clock(self, ni_name: str, port_name: str) -> Clock:
        return self.port_clocks[(ni_name, port_name)]

    def functional_configurator(self) -> FunctionalConfigurator:
        return FunctionalConfigurator(self.kernels, allocator=self.allocator)

    # --------------------------------------------------------------- running
    def start(self) -> None:
        """Start every clock (idempotent).

        On first start, same-rate port clocks are fused into
        :class:`~repro.sim.clock.ClockGroup` runs — one heap event per
        timestamp instead of one per clock (identical tick order and
        results; only engine event counts shrink).
        """
        if not self._fused:
            self._fused = True
            fuse_clocks([self.noc.flit_clock, *self.port_clocks.values()])
        self.noc.flit_clock.start()
        for clock in self.port_clocks.values():
            clock.start()

    def run_flit_cycles(self, cycles: int) -> None:
        """Run the simulation for ``cycles`` network flit cycles."""
        self.start()
        self._run_bounded(cycles * self.noc.flit_clock.period_ps)

    def run_ns(self, nanoseconds: float) -> None:
        self.start()
        self._run_bounded(int(nanoseconds * 1000))

    def _run_bounded(self, duration_ps: int) -> None:
        """Run for a fixed duration with the stop cycle as a burst barrier.

        The last flit edge of the run is ``(until - epoch) // period`` (an
        edge landing exactly on ``until`` executes), so the first cycle the
        run will never see is one past that.  Publishing it through
        :attr:`stop_barrier` makes kernels truncate bursts that could not
        fully drain inside this run — the trailing cycles go per-flit, and
        every counter equals the per-flit pipeline's value at the boundary.
        """
        clock = self.noc.flit_clock
        until = self.sim.now + duration_ps
        self.stop_barrier.cycle = (until - clock._epoch) // clock.period_ps + 1
        try:
            self.sim.run_for(duration_ps)
        finally:
            self.stop_barrier.cycle = FAR_FUTURE

    def functionally_idle(self) -> bool:
        """True when no component can change workload-visible state.

        Every clock is either asleep or drives only components that are
        idle — except NI kernels holding GT slot reservations, which by
        contract tick forever to sample ``gt_slots_unused``; those count as
        done once quiescent (nothing in flight, see
        ``NIKernel.is_quiescent``).
        """
        clocks = [self.noc.flit_clock, *self.port_clocks.values()]
        for clock in clocks:
            if clock.sleeping:
                continue
            for component in clock._components:
                if component.is_idle():
                    continue
                quiescent = getattr(component, "is_quiescent", None)
                if quiescent is None or not quiescent():
                    return False
        return True

    def run_until_idle(self, max_flit_cycles: int = 200000,
                       predicate=None) -> int:
        """Run until the simulator is idle; returns elapsed flit cycles.

        "Idle" is engine-level: the event queue drained (every
        activity-driven clock went to sleep), the system became
        :meth:`functionally_idle` (GT systems keep a reservation-sampling
        tick alive forever, so their queue never drains), or the optional
        ``predicate`` returned True between event timestamps.  This replaces
        the seed-era pattern of polling a done-flag in 50-cycle chunks,
        which overshot completion by up to a chunk.  ``max_flit_cycles``
        bounds the run for systems that never quiesce (e.g. always-tick
        mode or infinite traffic patterns).
        """
        self.start()
        period = self.noc.flit_clock.period_ps
        start = self.sim.now
        if predicate is None:
            stop = self.functionally_idle
        else:
            def stop():
                return predicate() or self.functionally_idle()
        self.sim.run_until_idle(until=start + max_flit_cycles * period,
                                predicate=stop)
        return -(-(self.sim.now - start) // period)


def _build_topology(spec: NoCSpec) -> Topology:
    """Instantiate the spec's topology through the factory registry.

    ``topology_params`` carries the factory arguments; when absent the
    legacy ``rows`` / ``cols`` encoding of the three seed kinds applies
    (ring size was historically packed as ``(rows=1, cols=n)``).
    """
    if spec.topology_params:
        return make_topology(spec.topology, **spec.topology_params)
    if spec.topology == "mesh":
        return Topology.mesh(spec.rows, spec.cols)
    if spec.topology == "ring":
        return Topology.ring(max(spec.rows * spec.cols, spec.cols))
    if spec.topology in ("single", "single_router"):
        return Topology.single_router()
    return make_topology(spec.topology)


def build_system(spec: NoCSpec, sim: Optional[Simulator] = None,
                 router_slot_tables: bool = False,
                 strict_gt: bool = True,
                 tracer: Tracer = NULL_TRACER) -> SystemModel:
    """Instantiate a complete simulated system from a NoC specification."""
    sim = sim if sim is not None else Simulator()
    topology = _build_topology(spec)

    builder = NoCBuilder(topology, num_slots=spec.num_slots,
                         be_buffer_flits=spec.be_buffer_flits,
                         router_slot_tables=router_slot_tables,
                         strict_gt=strict_gt,
                         routing_algorithm=spec.routing,
                         tracer=tracer)
    for ni_spec in spec.nis:
        if ni_spec.router not in topology.graph:
            raise SpecError(
                f"NI {ni_spec.name}: router {ni_spec.router!r} is not part of "
                f"the {spec.topology} topology")
        builder.add_ni(ni_spec.name, ni_spec.router)
    noc = builder.build(sim)

    system = SystemModel(spec=spec, sim=sim, noc=noc,
                         allocator=CentralizedSlotAllocator(
                             spec.num_slots,
                             policy=getattr(spec, "slot_policy", "spread")))

    for ni_spec in spec.nis:
        ni = _build_ni(ni_spec, sim, noc, system, tracer)
        system.nis[ni_spec.name] = ni
    return system


def _build_ni(ni_spec: NISpec, sim: Simulator, noc: NoC,
              system: SystemModel,
              tracer: Tracer = NULL_TRACER) -> NetworkInterface:
    kernel = NIKernel(name=ni_spec.name, sim=sim,
                      num_slots=ni_spec.num_slots,
                      max_packet_words=ni_spec.max_packet_words,
                      be_arbiter=ni_spec.be_arbiter,
                      flit_period_ps=noc.flit_clock.period_ps,
                      tracer=tracer)
    kernel._stop_barrier = system.stop_barrier
    ni = NetworkInterface(name=ni_spec.name, kernel=kernel)
    for port_spec in ni_spec.ports:
        port_clock = Clock(sim, port_spec.clock_mhz,
                           name=f"{ni_spec.name}.{port_spec.name}.clk")
        system.port_clocks[(ni_spec.name, port_spec.name)] = port_clock
        ni.port_clocks[port_spec.name] = port_clock
        channel_indices = []
        for channel_spec in port_spec.channels:
            channel = kernel.add_channel(
                source_queue_words=channel_spec.source_queue_words,
                dest_queue_words=channel_spec.dest_queue_words,
                port_clock_period_ps=port_clock.period_ps)
            channel_indices.append(channel.index)
        kernel.add_port(port_spec.name, channel_indices)
    kernel.attach(noc.attachment(ni_spec.name))
    noc.flit_clock.add_component(kernel)
    return ni
