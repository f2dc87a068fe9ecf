"""Scenario registry: named, parameterized system descriptions.

One definition per scenario, shared by the functional tests, the examples
and the performance benchmark suite (``benchmarks/perf/run_perf.py``).  Each
scenario is a factory that declares a system through
:class:`~repro.api.builder.SystemBuilder` and returns the built
:class:`~repro.api.builder.System`::

    from repro.api import scenarios

    system = scenarios.build("gt_be_mix", num_gt=2, num_be=2)
    system.run_flit_cycles(1000)

The four classic set-ups of the paper's experiments are registered
(``point_to_point``, ``gt_be_mix``, ``narrowcast``, ``config_system``),
plus newer workloads: a ``ring`` topology pipeline, ``hotspot`` traffic
into one shared memory (multi-connection shell), a seeded ``random_system``
generator, the topology-gallery scenarios ``torus_neighbor``,
``tree_hotspot`` and ``irregular_soc`` (the paper's ~10-router arbitrary
floorplan through ``custom_topology``), the DRAM-backed workloads, and the
perf-suite shapes ``idle_mesh``, ``saturated_mix``, ``saturated_grid`` and
``saturated_torus``.

Register your own with the decorator::

    from repro.api.scenarios import scenario

    @scenario("my_setup", description="...", tags=("functional",))
    def _my_setup(**params):
        return SystemBuilder("my_setup")...build()
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.api.builder import (
    DEFAULT_PORT_CLOCK_MHZ,
    System,
    SystemBuilder,
)
from repro.ip.traffic import (
    BurstyTraffic,
    ConstantBitRateTraffic,
    RandomTraffic,
    TrafficPattern,
    VideoLineTraffic,
)
from repro.network.topology import Topology
from repro.sim.trace import Tracer


class ScenarioError(KeyError):
    """Raised for unknown scenario names."""


@dataclass
class Scenario:
    """A registered scenario: factory plus metadata."""

    name: str
    factory: Callable[..., System]
    description: str = ""
    tags: Tuple[str, ...] = ()
    defaults: Dict[str, object] = field(default_factory=dict)

    def build(self, **params) -> System:
        merged = dict(self.defaults)
        merged.update(params)
        return self.factory(**merged)


_REGISTRY: Dict[str, Scenario] = {}


def scenario(name: str, description: str = "",
             tags: Tuple[str, ...] = (),
             **defaults) -> Callable[[Callable[..., System]],
                                     Callable[..., System]]:
    """Decorator registering a scenario factory under ``name``."""

    def decorator(factory: Callable[..., System]) -> Callable[..., System]:
        register(name, factory, description=description, tags=tags,
                 **defaults)
        return factory

    return decorator


def register(name: str, factory: Callable[..., System],
             description: str = "", tags: Tuple[str, ...] = (),
             **defaults) -> Scenario:
    """Register (or replace) a scenario factory under ``name``."""
    entry = Scenario(name=name, factory=factory, description=description,
                     tags=tuple(tags), defaults=dict(defaults))
    _REGISTRY[name] = entry
    return entry


def get(name: str) -> Scenario:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ScenarioError(
            f"unknown scenario {name!r} (registered: {known})") from None


def names(tag: Optional[str] = None) -> List[str]:
    """Registered scenario names, optionally filtered by tag."""
    return sorted(name for name, entry in _REGISTRY.items()
                  if tag is None or tag in entry.tags)


def build(name: str, **params) -> System:
    """Build the named scenario with the given parameter overrides."""
    return get(name).build(**params)


def describe() -> List[Tuple[str, str, Tuple[str, ...]]]:
    """(name, description, tags) rows for every registered scenario."""
    return [(entry.name, entry.description, entry.tags)
            for _, entry in sorted(_REGISTRY.items())]


# ---------------------------------------------------------------------------
# The four classic set-ups of the paper's experiments
# ---------------------------------------------------------------------------
@scenario("point_to_point",
          description="One master talking to one memory over a small mesh "
                      "(GT or BE) — the E2/E4/E5 shape.",
          tags=("functional", "classic"))
def _point_to_point(gt: bool = False, request_slots: int = 2,
                    response_slots: int = 2, num_slots: int = 8,
                    rows: int = 1, cols: int = 2, queue_words: int = 8,
                    max_packet_words: int = 23, data_threshold: int = 1,
                    credit_threshold: int = 1,
                    be_arbiter: str = "round_robin",
                    port_clock_mhz: float = DEFAULT_PORT_CLOCK_MHZ,
                    slave_latency: int = 1,
                    pattern: Optional[TrafficPattern] = None,
                    max_transactions: Optional[int] = None,
                    memory_words: int = 0,
                    seq_latency_cycles: int = 2) -> System:
    if pattern is None:
        pattern = ConstantBitRateTraffic(period_cycles=16, burst_words=4,
                                         write=True)
    return (SystemBuilder("p2p_tb")
            .mesh(rows, cols, num_slots=num_slots)
            .add_master("master", router=(0, 0), ni="ni_m",
                        shell_name="m_shell", conn_name="m_conn",
                        pattern=pattern, max_transactions=max_transactions,
                        queue_words=queue_words, clock_mhz=port_clock_mhz,
                        seq_latency_cycles=seq_latency_cycles,
                        num_slots=num_slots, be_arbiter=be_arbiter,
                        max_packet_words=max_packet_words)
            .add_memory("memory", router=(0, cols - 1), ni="ni_s",
                        shell_name="s_shell", conn_name="s_conn",
                        words=memory_words, latency=slave_latency,
                        queue_words=queue_words, clock_mhz=port_clock_mhz,
                        num_slots=num_slots, be_arbiter=be_arbiter,
                        max_packet_words=max_packet_words)
            .connect("master", "memory", name="tb", gt=gt,
                     request_slots=request_slots if gt else None,
                     response_slots=response_slots if gt else None,
                     data_threshold=data_threshold,
                     credit_threshold=credit_threshold)
            .build())


@scenario("gt_be_mix",
          description="Guaranteed and best-effort master/slave pairs whose "
                      "traffic shares one inter-router link (experiment E10).",
          tags=("functional", "classic"))
def _gt_be_mix(num_gt: int = 1, num_be: int = 1, gt_slots: int = 2,
               num_slots: int = 8, queue_words: int = 8,
               gt_pattern_period: int = 12, be_pattern_period: int = 6,
               burst_words: int = 4,
               port_clock_mhz: float = DEFAULT_PORT_CLOCK_MHZ,
               posted_writes: bool = True,
               slot_policy: str = "spread") -> System:
    if num_gt < 0 or num_be < 0 or num_gt + num_be == 0:
        raise ValueError("need at least one traffic pair")
    builder = (SystemBuilder("mix_tb").mesh(1, 2, num_slots=num_slots)
               .slot_policy(slot_policy))
    for index in range(num_gt + num_be):
        gt = index < num_gt
        master_ni, slave_ni = f"m{index}", f"s{index}"
        period = gt_pattern_period if gt else be_pattern_period
        builder.add_master(master_ni, router=(0, 0),
                           ip_name=f"{master_ni}_ip",
                           pattern=ConstantBitRateTraffic(
                               period_cycles=period, burst_words=burst_words,
                               write=True, posted=posted_writes),
                           queue_words=queue_words,
                           clock_mhz=port_clock_mhz, num_slots=num_slots)
        builder.add_memory(slave_ni, router=(0, 1), ip_name=f"{slave_ni}_mem",
                           queue_words=queue_words,
                           clock_mhz=port_clock_mhz, num_slots=num_slots)
        # A guaranteed connection reserves slots for both directions so its
        # credits also return on reserved slots (otherwise best-effort
        # congestion on the reverse link would throttle the GT channel).
        builder.connect(master_ni, slave_ni, name=f"conn_{master_ni}",
                        gt=gt, slots=gt_slots)
    return builder.build()


@scenario("narrowcast",
          description="One master whose shared address space is split over "
                      "several memories (experiment E11, Figure 3).",
          tags=("functional", "classic"))
def _narrowcast(num_slaves: int = 2, range_words: int = 1024,
                rows: int = 1, cols: int = 2, num_slots: int = 8,
                queue_words: int = 8,
                port_clock_mhz: float = DEFAULT_PORT_CLOCK_MHZ,
                slave_latency: int = 1) -> System:
    if num_slaves < 1:
        raise ValueError("narrowcast needs at least one slave")
    mesh_nodes = [(r, c) for r in range(rows) for c in range(cols)]
    builder = (SystemBuilder("narrowcast_tb")
               .mesh(rows, cols, num_slots=num_slots)
               .add_master("master", router=(0, 0), ni="ni_m",
                           shell_name="m_shell", conn_name="narrowcast",
                           queue_words=queue_words,
                           clock_mhz=port_clock_mhz, num_slots=num_slots))
    slave_names = []
    for index in range(num_slaves):
        name = f"ni_s{index}"
        slave_names.append(name)
        builder.add_memory(name,
                           router=mesh_nodes[(index + 1) % len(mesh_nodes)],
                           ip_name=f"{name}_mem",
                           words=range_words * 4, latency=slave_latency,
                           queue_words=queue_words,
                           clock_mhz=port_clock_mhz, num_slots=num_slots)
    ranges = [(index * range_words * 4, range_words * 4)
              for index in range(num_slaves)]
    builder.connect("master", slave_names, name="narrowcast",
                    narrowcast_ranges=ranges)
    return builder.build()


@scenario("config_system",
          description="A centralized configuration module plus data NIs "
                      "with CNIPs, bootstrapped as in Figure 9 (E6/E7).",
          tags=("functional", "classic", "config"))
def _config_system(num_data_nis: int = 2, num_slots: int = 8,
                   queue_words: int = 8, data_channels_per_ni: int = 2,
                   port_clock_mhz: float = DEFAULT_PORT_CLOCK_MHZ,
                   rows: int = 1, cols: int = 2) -> System:
    mesh_nodes = [(r, c) for r in range(rows) for c in range(cols)]
    builder = (SystemBuilder("config_tb")
               .mesh(rows, cols, num_slots=num_slots)
               .configuration("centralized")
               .add_config_module("cfg", router=(0, 0), port="cfg",
                                  queue_words=queue_words,
                                  clock_mhz=port_clock_mhz,
                                  num_slots=num_slots))
    for index in range(num_data_nis):
        builder.add_node(f"ni{index + 1}",
                         router=mesh_nodes[(index + 1) % len(mesh_nodes)],
                         cnip=True, channels=data_channels_per_ni,
                         port="data", queue_words=queue_words,
                         clock_mhz=port_clock_mhz, num_slots=num_slots)
    return builder.build()


# ---------------------------------------------------------------------------
# New workloads
# ---------------------------------------------------------------------------
@scenario("ring",
          description="Master/memory pairs around a ring topology; each "
                      "request crosses several ring hops.  The registry's "
                      "negative example: its auto-routed best-effort paths "
                      "close a channel-dependency cycle, so the build warns "
                      "with a DeadlockWarning (the light posted load still "
                      "drains).",
          tags=("functional", "negative"))
def _ring(num_pairs: int = 3, hops: int = 3, gt: bool = False,
          slots: int = 2, num_slots: int = 8, period_cycles: int = 8,
          burst_words: int = 4,
          max_transactions: Optional[int] = 25) -> System:
    if num_pairs < 1:
        raise ValueError("ring needs at least one pair")
    num_routers = max(2 * num_pairs, 3)
    builder = SystemBuilder("ring").ring(num_routers, num_slots=num_slots)
    for index in range(num_pairs):
        source = (2 * index) % num_routers
        target = (source + hops) % num_routers
        builder.add_master(f"m{index}", router=source,
                           pattern=ConstantBitRateTraffic(
                               period_cycles=period_cycles,
                               burst_words=burst_words, write=True,
                               posted=True,
                               base_address=index << 16),
                           max_transactions=max_transactions)
        builder.add_memory(f"mem{index}", router=target)
        builder.connect(f"m{index}", f"mem{index}", gt=gt, slots=slots)
    return builder.build()


@scenario("hotspot",
          description="Several masters hammering one shared memory behind a "
                      "multi-connection shell (Figure 4).",
          tags=("functional",))
def _hotspot(num_masters: int = 4, rows: int = 2, cols: int = 2,
             period_cycles: int = 6, burst_words: int = 4,
             max_transactions: Optional[int] = 20,
             scheduling: str = "queue_fill",
             memory_latency: int = 1) -> System:
    if num_masters < 2:
        raise ValueError("a hotspot needs at least two masters")
    nodes = [(r, c) for r in range(rows) for c in range(cols)]
    builder = (SystemBuilder("hotspot")
               .mesh(rows, cols)
               .add_memory("hot", router=nodes[-1], scheduling=scheduling,
                           latency=memory_latency))
    for index in range(num_masters):
        builder.add_master(f"m{index}", router=nodes[index % len(nodes)],
                           pattern=ConstantBitRateTraffic(
                               period_cycles=period_cycles,
                               burst_words=burst_words, write=True,
                               base_address=index << 16),
                           max_transactions=max_transactions)
        builder.connect(f"m{index}", "hot")
    return builder.build()


@scenario("random_system",
          description="A seeded random mesh, pair count, traffic mix and "
                      "GT/BE split — deterministic per seed.",
          tags=("functional", "fuzz"))
def _random_system(seed: int = 1, max_pairs: int = 4,
                   transactions_per_master: Optional[int] = None) -> System:
    rng = random.Random(seed)
    rows = rng.randint(1, 3)
    cols = rng.randint(2, 3)
    nodes = [(r, c) for r in range(rows) for c in range(cols)]
    num_pairs = rng.randint(1, max(1, max_pairs))
    builder = SystemBuilder(f"random_{seed}").mesh(rows, cols)
    for index in range(num_pairs):
        gt = rng.random() < 0.5
        kind = rng.randrange(3)
        if kind == 0:
            pattern: TrafficPattern = ConstantBitRateTraffic(
                period_cycles=rng.choice([4, 6, 8, 12, 16]),
                burst_words=rng.choice([1, 2, 4, 8]),
                write=rng.random() < 0.8, posted=rng.random() < 0.5,
                base_address=index << 16)
        elif kind == 1:
            pattern = BurstyTraffic(on_cycles=rng.randint(2, 6),
                                    off_cycles=rng.randint(4, 16),
                                    burst_words=rng.choice([1, 2, 4]),
                                    write=True, posted=rng.random() < 0.5,
                                    base_address=index << 16)
        else:
            pattern = RandomTraffic(
                injection_probability=rng.uniform(0.05, 0.3),
                burst_words=rng.choice([1, 2, 4]),
                read_fraction=rng.uniform(0.0, 0.5),
                base_address=index << 16,
                seed=rng.randrange(1 << 16))
        builder.add_master(
            f"m{index}", router=rng.choice(nodes), pattern=pattern,
            max_transactions=(transactions_per_master
                              if transactions_per_master is not None
                              else rng.randint(5, 25)))
        builder.add_memory(f"mem{index}", router=rng.choice(nodes),
                           latency=rng.randint(0, 2))
        builder.connect(f"m{index}", f"mem{index}", gt=gt,
                        slots=rng.randint(1, 2) if gt else None)
    return builder.build()


@scenario("torus_neighbor",
          description="One master per torus router streaming to its +x "
                      "neighbour's memory; wraparound links carry the edge "
                      "columns, dimension-ordered routing keeps BE "
                      "deadlock-free (checked at build).",
          tags=("functional", "topology"))
def _torus_neighbor(rows: int = 3, cols: int = 3, period_cycles: int = 8,
                    burst_words: int = 4, gt_rows: int = 1,
                    max_transactions: Optional[int] = 10) -> System:
    if rows < 1 or cols < 3:
        raise ValueError("the neighbour torus needs at least 1x3 routers")
    builder = (SystemBuilder("torus_neighbor")
               .torus(rows, cols)
               .options(deadlock_check="error"))
    for r in range(rows):
        gt = r < gt_rows
        for c in range(cols):
            master, memory = f"m{r}_{c}", f"mem{r}_{c}"
            builder.add_master(master, router=(r, c),
                               pattern=ConstantBitRateTraffic(
                                   period_cycles=period_cycles,
                                   burst_words=burst_words, write=True,
                                   posted=True,
                                   base_address=(r * cols + c) << 16),
                               max_transactions=max_transactions)
            builder.add_memory(memory, router=(r, (c + 1) % cols))
            builder.connect(master, memory, gt=gt,
                            slots=2 if gt else None)
    return builder.build()


@scenario("tree_hotspot",
          description="Leaf masters of an arity-ary tree hammering one "
                      "memory at the root: tree routes are unique and "
                      "acyclic, so the deadlock gate can run in error mode.",
          tags=("functional", "topology"))
def _tree_hotspot(arity: int = 2, depth: int = 2, period_cycles: int = 6,
                  burst_words: int = 4,
                  max_transactions: Optional[int] = 10,
                  scheduling: str = "queue_fill") -> System:
    if arity < 1 or depth < 1:
        raise ValueError("the tree hotspot needs at least one leaf level")
    num_nodes = sum(arity ** level for level in range(depth + 1))
    first_leaf = num_nodes - arity ** depth
    builder = (SystemBuilder("tree_hotspot")
               .tree(arity, depth)
               .options(deadlock_check="error")
               .add_memory("root_mem", router=0, scheduling=scheduling))
    for index, leaf in enumerate(range(first_leaf, num_nodes)):
        builder.add_master(f"leaf{index}", router=leaf,
                           pattern=ConstantBitRateTraffic(
                               period_cycles=period_cycles,
                               burst_words=burst_words, write=True,
                               base_address=index << 16),
                           max_transactions=max_transactions)
        builder.connect(f"leaf{index}", "root_mem")
    return builder.build()


def _paper_floorplan() -> Topology:
    """The ~10-router irregular SoC graph used by ``irregular_soc``.

    Mirrors the paper's target: a small heterogeneous SoC (host CPU, DSP
    cluster, video path, peripherals) whose floorplan dictates an irregular
    link structure rather than a regular grid.
    """
    nodes = [
        ("cpu", {"block": "host"}),
        ("bridge", {"block": "interconnect"}),
        ("dsp_a", {"block": "dsp"}),
        ("dsp_b", {"block": "dsp"}),
        ("accel", {"block": "accelerator"}),
        ("video", {"block": "video"}),
        ("audio", {"block": "audio"}),
        ("io", {"block": "peripherals"}),
        ("mem_ctrl", {"block": "memory"}),
        ("sram_ctrl", {"block": "memory"}),
    ]
    edges = [
        ("cpu", "bridge"), ("cpu", "dsp_a"),
        ("bridge", "mem_ctrl"), ("bridge", "sram_ctrl"), ("bridge", "io"),
        ("dsp_a", "dsp_b"), ("dsp_a", "mem_ctrl"),
        ("dsp_b", "accel"),
        ("accel", "video"),
        ("video", "io"),
        ("audio", "io"),
        ("sram_ctrl", "dsp_b"),
    ]
    return Topology.custom(nodes, edges, name="paper_soc")


@scenario("irregular_soc",
          description="A ~10-router irregular SoC floorplan (host CPU, DSP "
                      "cluster, video path, two memories) built through "
                      "custom_topology - the paper's arbitrary-topology "
                      "claim end to end.",
          tags=("functional", "topology"))
def _irregular_soc(period_cycles: int = 8, burst_words: int = 4,
                   max_transactions: Optional[int] = 8,
                   gt_slots: int = 2) -> System:
    builder = (SystemBuilder("irregular_soc")
               .custom_topology(_paper_floorplan())
               .options(deadlock_check="error")
               .add_memory("sdram", router="mem_ctrl", words=8192,
                           scheduling="queue_fill")
               .add_memory("sram", router="sram_ctrl", words=4096,
                           scheduling="queue_fill")
               .add_memory("frame", router="io", words=4096))
    traffic = [
        ("host", "cpu", "sdram", True),       # control traffic, guaranteed
        ("dsp0", "dsp_a", "sdram", False),
        ("dsp1", "dsp_b", "sram", False),
        ("cam", "video", "frame", True),      # streaming video, guaranteed
        ("mix", "audio", "sram", False),
    ]
    for index, (name, router, target, gt) in enumerate(traffic):
        builder.add_master(name, router=router,
                           pattern=ConstantBitRateTraffic(
                               period_cycles=period_cycles,
                               burst_words=burst_words, write=True,
                               base_address=index << 16),
                           max_transactions=max_transactions)
        builder.connect(name, target, gt=gt, slots=gt_slots if gt else None)
    return builder.build()


@scenario("multicast",
          description="One master whose transactions are duplicated onto "
                      "several memories, all executing every write "
                      "(Section 2 multicast connection).",
          tags=("functional",))
def _multicast(num_slaves: int = 2, rows: int = 1, cols: int = 2,
               period_cycles: int = 8, burst_words: int = 4,
               max_transactions: Optional[int] = 12,
               memory_words: int = 4096) -> System:
    if num_slaves < 2:
        raise ValueError("a multicast needs at least two slaves")
    mesh_nodes = [(r, c) for r in range(rows) for c in range(cols)]
    builder = (SystemBuilder("multicast")
               .mesh(rows, cols)
               .add_master("master", router=(0, 0),
                           pattern=ConstantBitRateTraffic(
                               period_cycles=period_cycles,
                               burst_words=burst_words, write=True,
                               posted=True),
                           max_transactions=max_transactions))
    slave_names = []
    for index in range(num_slaves):
        name = f"copy{index}"
        slave_names.append(name)
        builder.add_memory(name,
                           router=mesh_nodes[(index + 1) % len(mesh_nodes)],
                           words=memory_words)
    builder.connect("master", slave_names, name="multicast", multicast=True)
    return builder.build()


# ---------------------------------------------------------------------------
# DRAM-backed workloads (repro.mem: banked device model behind the shell)
# ---------------------------------------------------------------------------
@scenario("dram_hotspot",
          description="Several masters hammering one DRAM-backed shared "
                      "memory: every master lands in a different row of the "
                      "same bank, so service latency is state-dependent.",
          tags=("functional", "dram"))
def _dram_hotspot(num_masters: int = 4, rows: int = 2, cols: int = 2,
                  period_cycles: int = 6, burst_words: int = 4,
                  max_transactions: Optional[int] = 20,
                  scheduler: str = "frfcfs",
                  timing: str = "default") -> System:
    if num_masters < 2:
        raise ValueError("a hotspot needs at least two masters")
    nodes = [(r, c) for r in range(rows) for c in range(cols)]
    builder = (SystemBuilder("dram_hotspot")
               .mesh(rows, cols)
               .add_memory("dram", router=nodes[-1], backend="dram",
                           timing=timing, scheduler=scheduler))
    for index in range(num_masters):
        # index << 16 is a multiple of row_words * num_banks (256 * 8): all
        # masters target bank 0 but distinct rows — the bank hotspot.
        builder.add_master(f"m{index}", router=nodes[index % len(nodes)],
                           pattern=ConstantBitRateTraffic(
                               period_cycles=period_cycles,
                               burst_words=burst_words, write=True,
                               base_address=index << 16),
                           max_transactions=max_transactions)
        builder.connect(f"m{index}", "dram")
    return builder.build()


@scenario("video_pipeline_dram",
          description="Video line producers streaming into a DRAM-backed "
                      "frame buffer over GT connections (the paper's video "
                      "use case on real memory timing).",
          tags=("functional", "dram"))
def _video_pipeline_dram(num_producers: int = 2, pixels_per_line: int = 32,
                         lines: int = 4, gt_slots: int = 2,
                         scheduler: str = "frfcfs",
                         timing: str = "default") -> System:
    if num_producers < 1:
        raise ValueError("the pipeline needs at least one producer")
    builder = (SystemBuilder("video_pipeline_dram")
               .mesh(1, 2)
               .add_memory("frame", router=(0, 1), backend="dram",
                           timing=timing, scheduler=scheduler))
    for index in range(num_producers):
        traffic = VideoLineTraffic(pixels_per_line=pixels_per_line,
                                   burst_words=8, cycles_per_burst=16,
                                   blanking_cycles=32,
                                   base_address=index << 16)
        bursts_per_line = -(-pixels_per_line // 8)
        builder.add_master(f"cam{index}", router=(0, 0), pattern=traffic,
                           max_transactions=lines * bursts_per_line)
        builder.connect(f"cam{index}", "frame", gt=True, slots=gt_slots)
    return builder.build()


@scenario("dram_scheduler_mix",
          description="A bursty read/write mix whose streams interleave "
                      "rows of one DRAM bank — separates in-order FCFS "
                      "from open-page FR-FCFS scheduling.",
          tags=("functional", "dram"))
def _dram_scheduler_mix(scheduler: str = "frfcfs", timing: str = "slow",
                        num_writers: int = 2, period_cycles: int = 4,
                        burst_words: int = 4,
                        max_transactions: Optional[int] = 24,
                        banks: int = 2, row_words: int = 128) -> System:
    """Writers stream into distinct rows of bank 0 while a reader walks a
    third row of the same bank; multi-connection arbitration interleaves
    their requests, so FCFS pays a row conflict on almost every access while
    FR-FCFS batches whatever row is open."""
    if num_writers < 1:
        raise ValueError("the mix needs at least one writer")
    builder = (SystemBuilder("dram_scheduler_mix")
               .mesh(1, 2)
               .add_memory("dram", router=(0, 1), backend="dram",
                           timing=timing, scheduler=scheduler,
                           banks=banks, row_words=row_words))
    row_stride = row_words * banks  # next row of the same bank
    for index in range(num_writers):
        builder.add_master(f"w{index}", router=(0, 0),
                           pattern=ConstantBitRateTraffic(
                               period_cycles=period_cycles,
                               burst_words=burst_words, write=True,
                               posted=True,
                               base_address=index * row_stride,
                               address_wrap=row_words // 2),
                           max_transactions=max_transactions)
        builder.connect(f"w{index}", "dram")
    builder.add_master("reader", router=(0, 0),
                       pattern=ConstantBitRateTraffic(
                           period_cycles=2 * period_cycles,
                           burst_words=burst_words, write=False,
                           base_address=num_writers * row_stride,
                           address_wrap=row_words // 2),
                       max_transactions=max_transactions)
    builder.connect("reader", "dram")
    return builder.build()


# ---------------------------------------------------------------------------
# Perf-suite shapes (benchmarks/perf/run_perf.py builds these by name)
# ---------------------------------------------------------------------------
@scenario("idle_mesh",
          description="A rows x cols mesh, one idle NI per router, zero "
                      "traffic — the idle-skip best case.",
          tags=("perf",))
def _idle_mesh(rows: int = 4, cols: int = 4,
               queue_words: int = 8) -> System:
    builder = SystemBuilder("idle_mesh").mesh(rows, cols)
    for r in range(rows):
        for c in range(cols):
            builder.add_node(f"ni{r}_{c}", router=(r, c), port="p",
                             channels=1, queue_words=queue_words)
    return builder.build()


#: ``saturated_mix`` is the E10 mix at saturating rates — one definition,
#: shared with the functional ``gt_be_mix`` scenario.
register("saturated_mix", _gt_be_mix,
         description="The E10 GT+BE mix at saturating injection rates "
                     "(perf-suite shape of gt_be_mix; contiguous slot "
                     "runs so GT traffic packetizes and travels as bursts).",
         tags=("perf",),
         num_gt=2, num_be=2, gt_slots=2,
         gt_pattern_period=8, be_pattern_period=4, burst_words=4,
         slot_policy="contiguous")


@scenario("saturated_dram",
          description="Masters saturating one DRAM-backed memory (bank "
                      "hotspot, FR-FCFS) plus an ideal-memory control pair "
                      "(perf-suite shape of the repro.mem hot path).",
          tags=("perf", "dram"))
def _saturated_dram(num_masters: int = 3, period_cycles: int = 4,
                    burst_words: int = 4, scheduler: str = "frfcfs",
                    timing: str = "default") -> System:
    builder = (SystemBuilder("saturated_dram")
               .mesh(2, 2)
               .add_memory("dram", router=(1, 1), backend="dram",
                           timing=timing, scheduler=scheduler))
    nodes = [(0, 0), (0, 1), (1, 0)]
    for index in range(num_masters):
        builder.add_master(f"m{index}", router=nodes[index % len(nodes)],
                           ip_name=f"m{index}_ip",
                           pattern=ConstantBitRateTraffic(
                               period_cycles=period_cycles,
                               burst_words=burst_words, write=True,
                               posted=True, base_address=index << 16))
        builder.connect(f"m{index}", "dram")
    # A control pair on an ideal memory keeps the classic slave hot path in
    # the same measurement.
    builder.add_master("ctl", router=(0, 0), ip_name="ctl_ip",
                       pattern=ConstantBitRateTraffic(
                           period_cycles=period_cycles,
                           burst_words=burst_words, write=True, posted=True))
    builder.add_memory("ideal", router=(0, 1))
    builder.connect("ctl", "ideal")
    return builder.build()


@scenario("saturated_torus",
          description="A 4x4 torus under saturating mixed GT/BE load whose "
                      "pairs cross rows, columns and wraparound links "
                      "(perf-suite shape of the torus routing hot path).",
          tags=("perf", "topology"))
def _saturated_torus(rows: int = 4, cols: int = 4) -> System:
    builder = (SystemBuilder("saturated_torus").torus(rows, cols)
               .slot_policy("contiguous"))
    for r in range(rows):
        gt = r % 2 == 0
        master, slave = f"m{r}", f"s{r}"
        # Source and sink move diagonally so the dimension-ordered routes
        # mix line hops with single-hop wraparounds in both dimensions.
        src = (r, r % cols)
        dst = ((r + 1) % rows, (r + cols - 1) % cols)
        pattern = ConstantBitRateTraffic(period_cycles=8 if gt else 4,
                                         burst_words=4, write=True,
                                         posted=True, base_address=r << 16)
        builder.add_master(master, router=src, ip_name=f"{master}_ip",
                           pattern=pattern)
        builder.add_memory(slave, router=dst, ip_name=f"{slave}_mem")
        builder.connect(master, slave, name=f"c_{master}", gt=gt, slots=2)
    return builder.build()


# ---------------------------------------------------------------------------
# Fault-injection scenarios (repro.faults)
# ---------------------------------------------------------------------------
@scenario("link_failure_reroute",
          description="A mesh link dies mid-run: best-effort traffic is "
                      "rerouted over the surviving graph and the retry "
                      "layer recovers every in-flight loss.",
          tags=("functional", "faults"))
def _link_failure_reroute(fail_cycle: int = 60,
                          max_transactions: int = 60,
                          period_cycles: int = 10, burst_words: int = 4,
                          timeout_cycles: int = 400, max_retries: int = 5
                          ) -> System:
    return (SystemBuilder("link_failure_reroute")
            .mesh(2, 2)
            .add_master("m0", router=(0, 0),
                        pattern=ConstantBitRateTraffic(
                            period_cycles=period_cycles,
                            burst_words=burst_words, write=True,
                            posted=False),
                        max_transactions=max_transactions,
                        timeout_cycles=timeout_cycles,
                        max_retries=max_retries)
            .add_memory("mem", router=(1, 1), words=4096)
            .connect("m0", "mem", name="m0_mem")
            .inject_fault(fail_cycle, (0, 0), (0, 1))
            .build())


@scenario("transient_storm",
          description="A seeded drop window corrupts packets on the only "
                      "link of a two-router system; end-to-end retry with "
                      "exponential backoff rides the storm out.",
          tags=("functional", "faults"))
def _transient_storm(window_start: int = 40, window_end: int = 400,
                     drop_probability: float = 0.4, seed: int = 7,
                     max_transactions: int = 40,
                     period_cycles: int = 12, burst_words: int = 4,
                     timeout_cycles: int = 150, max_retries: int = 6
                     ) -> System:
    return (SystemBuilder("transient_storm")
            .mesh(1, 2)
            .add_master("m0", router=(0, 0),
                        pattern=ConstantBitRateTraffic(
                            period_cycles=period_cycles,
                            burst_words=burst_words, write=True,
                            posted=False),
                        max_transactions=max_transactions,
                        timeout_cycles=timeout_cycles,
                        max_retries=max_retries)
            .add_memory("mem", router=(0, 1), words=4096)
            .connect("m0", "mem", name="m0_mem")
            .inject_fault(window_start, (0, 0), (0, 1), kind="transient",
                          until_cycle=window_end,
                          drop_probability=drop_probability, seed=seed)
            .build())


def _diamond_topology() -> Topology:
    """A diamond with a long southern detour: n0-n1-n2 (short) and
    n0-n3-n4-n2 (the only alternative once n0-n1 dies)."""
    return Topology.custom(
        ["n0", "n1", "n2", "n3", "n4"],
        [("n0", "n1"), ("n1", "n2"),
         ("n0", "n3"), ("n3", "n4"), ("n4", "n2")],
        name="diamond")


@scenario("gt_degraded",
          description="A GT connection loses its path; the detour has no "
                      "free slots (a second GT connection owns them), so "
                      "the channel is demoted to best-effort — degraded "
                      "and reported, never silently wrong.",
          tags=("functional", "faults"))
def _gt_degraded(fail_cycle: int = 80, max_transactions: int = 40,
                 period_cycles: int = 12, burst_words: int = 2,
                 num_slots: int = 4,
                 timeout_cycles: int = 400, max_retries: int = 5) -> System:
    return (SystemBuilder("gt_degraded")
            .custom_topology(_diamond_topology(), num_slots=num_slots)
            .add_master("m0", router="n0",
                        pattern=ConstantBitRateTraffic(
                            period_cycles=period_cycles,
                            burst_words=burst_words, write=True,
                            posted=False),
                        max_transactions=max_transactions,
                        timeout_cycles=timeout_cycles,
                        max_retries=max_retries)
            .add_memory("mem", router="n2", words=4096)
            # The victim: GT over the short n0-n1-n2 path.
            .connect("m0", "mem", name="victim", gt=True,
                     request_slots=2, response_slots=2)
            # The blocker: a GT connection whose slots saturate the only
            # detour (n3-n4-n2 and back), so the victim cannot be re-placed.
            .add_master("blocker", router="n3",
                        pattern=ConstantBitRateTraffic(
                            period_cycles=2 * period_cycles,
                            burst_words=burst_words, write=True,
                            posted=False),
                        max_transactions=max_transactions // 2,
                        timeout_cycles=timeout_cycles,
                        max_retries=max_retries)
            .add_memory("mem2", router="n2", words=4096)
            .connect("blocker", "mem2", name="blocker", gt=True,
                     request_slots=3, response_slots=3)
            .inject_fault(fail_cycle, "n0", "n1")
            .build())


@scenario("saturated_grid",
          description="A 6x6 mesh under saturating mixed GT/BE load with "
                      "all three BE arbiters (perf-suite hot-path shape).",
          tags=("perf",))
def _saturated_grid(rows: int = 6, cols: int = 6) -> System:
    arbiters = ("round_robin", "weighted_round_robin", "queue_fill")
    builder = (SystemBuilder("saturated_grid").mesh(rows, cols)
               .slot_policy("contiguous"))
    index = 0
    for row in range(rows):
        gt = row % 2 == 0
        for k in range(2):
            master_ni, slave_ni = f"m{row}_{k}", f"s{row}_{k}"
            pattern = ConstantBitRateTraffic(period_cycles=8 if gt else 4,
                                             burst_words=4, write=True,
                                             posted=True)
            builder.add_master(master_ni, router=(row, k),
                               ip_name=f"{master_ni}_ip", pattern=pattern,
                               be_arbiter=arbiters[index % len(arbiters)])
            index += 1
            builder.add_memory(slave_ni, router=(row, cols - 2 + k),
                               ip_name=f"{slave_ni}_mem",
                               be_arbiter=arbiters[index % len(arbiters)])
            index += 1
            builder.connect(master_ni, slave_ni, name=f"c_{master_ni}",
                            gt=gt, slots=2)
    return builder.build()


@scenario("obs_tour",
          description="A 2x2 mesh with GT and BE traffic, a DRAM-backed "
                      "memory and a transient drop window, built with the "
                      "full probe network attached — the observability "
                      "showcase behind examples/obs_tour.py.",
          tags=("functional", "obs", "faults"))
def _obs_tour(max_transactions: int = 40, period_cycles: int = 12,
              burst_words: int = 4, sample_period: int = 16,
              capture_depth: int = 64, series_cap: int = 512,
              window_start: int = 40, window_end: int = 400,
              drop_probability: float = 0.3, seed: int = 7,
              timeout_cycles: int = 200, max_retries: int = 6,
              traced: bool = False) -> System:
    # The GT stream (dsp -> DRAM) crosses the top row; the BE stream
    # (cpu -> SRAM) crosses the bottom row straight through the transient
    # drop window, so retries, link meters, DRAM bank state and fault
    # captures all have something to show.  traced=True additionally
    # records trace events for packet-lifetime (Perfetto) export.
    builder = (SystemBuilder("obs_tour")
               .mesh(2, 2)
               .add_master("dsp", router=(0, 0),
                           pattern=ConstantBitRateTraffic(
                               period_cycles=period_cycles,
                               burst_words=burst_words, write=True,
                               posted=False),
                           max_transactions=max_transactions,
                           timeout_cycles=timeout_cycles,
                           max_retries=max_retries)
               .add_master("cpu", router=(1, 0),
                           pattern=ConstantBitRateTraffic(
                               period_cycles=2 * period_cycles,
                               burst_words=max(burst_words // 2, 1),
                               write=True, posted=False),
                           max_transactions=max_transactions // 2,
                           timeout_cycles=timeout_cycles,
                           max_retries=max_retries)
               .add_memory("dram0", router=(0, 1), backend="dram")
               .add_memory("sram0", router=(1, 1), words=4096)
               .connect("dsp", "dram0", name="dsp_dram", gt=True, slots=2)
               .connect("cpu", "sram0", name="cpu_sram")
               .inject_fault(window_start, (1, 0), (1, 1), kind="transient",
                             until_cycle=window_end,
                             drop_probability=drop_probability, seed=seed)
               .observe(period=sample_period, capture_depth=capture_depth,
                        series_cap=series_cap))
    if traced:
        builder.trace(Tracer(max_events=200000))
    return builder.build()
