"""The benchmark's three workloads.

Every workload is an open loop: the IP traffic patterns generate
transactions per simulated cycle whatever the network does, so a slow
network shows up as latency (waiting in the IP backlog counts, because
latency is taken from the cycle the pattern generated a transaction).
Offered load sits below the rate at which that backlog grows with run
length, so latency percentiles do not depend on how long a run is: GT
streams just below it, BE traffic far enough below it that the BE p99
varies by only a few percent from seed to seed.

The seed drives every ``RandomTraffic`` seed and every stream phase offset;
the simulator receives only the generated patterns.  Every workload carries
both GT and BE traffic, every master owns an address region no other master
touches, and every transaction is non-posted, so each one completes with a
response the output check can verify.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.api import System, SystemBuilder
from repro.ip.traffic import (
    NO_TRAFFIC,
    ConstantBitRateTraffic,
    RandomTraffic,
    TrafficPattern,
    VideoLineTraffic,
)
from repro.protocol.transactions import Transaction

#: Master IP cycles per flit cycle: the builder's default port clock runs at
#: 500 MHz and the network moves one 3-word flit per 500/3 MHz flit cycle.
#: Patterns count IP cycles, run windows count flit cycles.
IP_CYCLES_PER_FLIT_CYCLE = 3

BE_ARBITERS = ("round_robin", "weighted_round_robin", "queue_fill")


@dataclass
class Record:
    """One generated transaction: who generated it, when, and its class."""

    master: str
    gt: bool
    cycle: int
    transaction: Transaction


class RecordingPattern(TrafficPattern):
    """Delays a pattern by ``phase`` IP cycles and logs what it generates.

    The log keeps generation order, which per master is also issue and
    execution order (one connection per master, delivered in order).
    """

    def __init__(self, inner: TrafficPattern, master: str, gt: bool,
                 log: List[Record], phase: int = 0) -> None:
        self.inner = inner
        self.master = master
        self.gt = gt
        self.log = log
        self.phase = phase

    def transactions_for_cycle(self, cycle: int) -> List[Transaction]:
        if cycle < self.phase:
            return NO_TRAFFIC
        generated = self.inner.transactions_for_cycle(cycle - self.phase)
        for transaction in generated:
            self.log.append(Record(self.master, self.gt, cycle, transaction))
        return generated

    def expected_words_per_cycle(self) -> float:
        return self.inner.expected_words_per_cycle()

    def next_active_cycle(self, cycle: int) -> int:
        if cycle < self.phase:
            return self.phase
        return self.inner.next_active_cycle(cycle - self.phase) + self.phase


@dataclass
class Built:
    """A built workload instance: the system, its generation log and the
    memory each master targets (for the write replay)."""

    system: System
    log: List[Record]
    targets: Dict[str, str]


class Declaration:
    """A declared, not yet built, workload instance.

    Every master stops generating at the end of the run window, so the
    untimed drain afterwards terminates.  :meth:`build` is what ``setup_s``
    times: ``SystemBuilder.build()`` and nothing else.
    """

    def __init__(self, builder: SystemBuilder, window: int) -> None:
        self.builder = builder
        self.stop_cycle = window * IP_CYCLES_PER_FLIT_CYCLE
        self.log: List[Record] = []
        self.targets: Dict[str, str] = {}

    def master(self, name: str, memory: str, router, pattern: TrafficPattern,
               *, gt: bool, phase: int = 0,
               be_arbiter: str = "round_robin") -> None:
        """Declare a master and its connection to ``memory`` (a GT one
        reserves the builder's default two slots per direction)."""
        self.builder.add_master(
            name, router=router, be_arbiter=be_arbiter,
            pattern=RecordingPattern(pattern, name, gt, self.log, phase),
            stop_cycle=self.stop_cycle)
        self.builder.connect(name, memory, gt=gt)
        self.targets[name] = memory

    def build(self) -> Built:
        return Built(self.builder.build(), self.log, self.targets)


def declare_mesh_gt_be(seed: int, window: int) -> Declaration:
    """6x6 mesh, 12 master/memory pairs crossing the middle columns.

    Even rows: GT connections, non-posted CBR writes every 48 IP cycles,
    the shortest period at which a GT connection's backlog stays flat.
    Odd rows: BE connections with a seeded 50/50 read/write mix, one
    transaction per IP cycle with probability 0.012.  The BE
    arbiters rotate through all three policies across the NIs.
    """
    rng = random.Random(seed)
    rows = cols = 6
    period = 48
    builder = SystemBuilder("mesh_gt_be").mesh(rows, cols) \
        .slot_policy("contiguous")
    decl = Declaration(builder, window)
    index = 0
    for row in range(rows):
        gt = row % 2 == 0
        for k in range(2):
            pair = 2 * row + k
            master, memory = f"m{row}_{k}", f"s{row}_{k}"
            base = pair << 16
            if gt:
                pattern = ConstantBitRateTraffic(
                    period_cycles=period, burst_words=4, write=True,
                    base_address=base, address_wrap=1 << 12)
                phase = rng.randrange(period)
            else:
                pattern = RandomTraffic(
                    0.012, burst_words=4, read_fraction=0.5,
                    base_address=base, address_space=1 << 10,
                    seed=rng.getrandbits(32))
                phase = 0
            builder.add_memory(memory, router=(row, cols - 2 + k),
                               be_arbiter=BE_ARBITERS[(index + 1) % 3])
            decl.master(master, memory, (row, k), pattern, gt=gt,
                        phase=phase, be_arbiter=BE_ARBITERS[index % 3])
            index += 2
    return decl


def declare_dram_rw(seed: int, window: int) -> Declaration:
    """2x2 mesh; one DRAM behind a multi-connection slave shell.

    A GT video-line writer (non-posted 4-word writes) and three BE CPUs
    (about 60% reads) share the DRAM; an ideal-memory control pair runs
    beside them.
    """
    rng = random.Random(seed)
    builder = (SystemBuilder("dram_rw").mesh(2, 2)
               .add_memory("dram", router=(1, 1), backend="dram",
                           scheduler="frfcfs")
               .add_memory("ideal", router=(0, 1)))
    decl = Declaration(builder, window)
    video = VideoLineTraffic(pixels_per_line=64, burst_words=4,
                             cycles_per_burst=40, blanking_cycles=96,
                             posted=False)
    decl.master("video", "dram", (0, 0), video, gt=True,
                phase=rng.randrange(video.line_cycles))
    for index, router in enumerate([(0, 0), (0, 1), (1, 0)]):
        cpu = RandomTraffic(0.009, burst_words=4, read_fraction=0.6,
                            base_address=(index + 1) << 20,
                            address_space=1 << 12, seed=rng.getrandbits(32))
        decl.master(f"cpu{index}", "dram", router, cpu, gt=False)
    control = RandomTraffic(0.009, burst_words=4, read_fraction=0.5,
                            address_space=1 << 12, seed=rng.getrandbits(32))
    decl.master("ctl", "ideal", (1, 0), control, gt=False)
    return decl


#: GT video streams of ``sparse_gt``: (source router, frame-buffer router).
#: Every route crosses at most 7 routers, the path-register limit.
SPARSE_STREAMS: Tuple[Tuple[Tuple[int, int], Tuple[int, int]], ...] = (
    ((0, 0), (0, 5)), ((5, 0), (5, 5)), ((1, 1), (4, 4)), ((2, 5), (3, 0)))


def declare_sparse_gt(seed: int, window: int) -> Declaration:
    """6x6 mesh, mostly idle: four GT video streams with long blanking and
    seeded phases, one BE CPU polling a register memory, and an idle NI on
    every other router."""
    rng = random.Random(seed)
    rows = cols = 6
    builder = SystemBuilder("sparse_gt").mesh(rows, cols)
    decl = Declaration(builder, window)
    used = set()
    for index, (source, sink) in enumerate(SPARSE_STREAMS):
        # Distinct line lengths make the streams' relative phases drift
        # through the run window, so how much their activity overlaps (and
        # with it the host speed) does not hinge on the seeded phases.
        video = VideoLineTraffic(pixels_per_line=64, burst_words=8,
                                 cycles_per_burst=64,
                                 blanking_cycles=1400 + 64 * index,
                                 base_address=index << 20, posted=False)
        builder.add_memory(f"fb{index}", router=sink)
        decl.master(f"cam{index}", f"fb{index}", source, video, gt=True,
                    phase=rng.randrange(video.line_cycles))
        used.update((source, sink))
    # Polling every 64 IP cycles (not every few hundred) gives one CPU the
    # 1000 BE latency samples a run needs within the window.
    poll_period = 64
    poll = ConstantBitRateTraffic(period_cycles=poll_period, burst_words=2,
                                  write=False, address_wrap=256)
    builder.add_memory("regs", router=(2, 3), words=256)
    decl.master("cpu", "regs", (3, 2), poll, gt=False,
                phase=rng.randrange(poll_period))
    used.update(((3, 2), (2, 3)))
    for row in range(rows):
        for col in range(cols):
            if (row, col) not in used:
                builder.add_node(f"idle{row}_{col}", router=(row, col))
    return decl


@dataclass(frozen=True)
class Workload:
    name: str
    #: One-sentence reason the workload exists (mirrored in BENCHMARK.json).
    why: str
    declare: Callable[[int, int], Declaration]
    #: Flit cycles of the timed run window.
    window: int
    #: Flit cycles of the shortened always-tick reference run.
    reference_window: int


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("mesh_gt_be",
             "all twelve pairs load every row, so the per-flit hot path "
             "(router, kernel, link) takes the largest share of component "
             "time; a per-flit speed-up must show here",
             declare_mesh_gt_be, window=10000, reference_window=300),
    Workload("dram_rw",
             "reads beside writes on one shared DRAM drive the response "
             "path, the shells (sequentialization, multi-connection "
             "arbitration) and mem (FR-FCFS, row state)",
             declare_dram_rw, window=36000, reference_window=2000),
    Workload("sparse_gt",
             "most components are idle most cycles, so sim (clock dispatch, "
             "idle-skip, fusion, tick gating, NI macro-stepping) takes the "
             "largest share; the only workload where those can pay",
             declare_sparse_gt, window=24000, reference_window=3000),
)}
