"""Simulated metrics, the result digest and the output check.

Everything here reads simulated state only, so for one seed it is identical
on every run and under every engine mode; host time is measured elsewhere.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, List

from repro.protocol.transactions import TransactionStatus

from nocbench.workloads import Built

#: Upper bound of the untimed drain after the run window, in flit cycles.
DRAIN_FLIT_CYCLES = 200000

#: Latency samples each traffic class needs per run, so that p99 has at
#: least ten samples beyond it.
MIN_SAMPLES = 1000


def percentile(sorted_values: List[int], fraction: float) -> int:
    """Nearest-rank percentile of an ascending list (0 when empty; the
    run then fails its sample-count check)."""
    if not sorted_values:
        return 0
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


def simulated_metrics(built: Built, window: int) -> Dict[str, float]:
    """End-to-end simulated metrics of the run window just finished.

    Latency runs from the IP cycle the pattern generated a transaction to
    its completion at the master, over transactions completed inside the
    window (the network starts empty).
    """
    latencies = {True: [], False: []}
    words = 0
    for record in built.log:
        transaction = record.transaction
        if transaction.status is TransactionStatus.COMPLETED:
            latencies[record.gt].append(
                transaction.complete_cycle - record.cycle)
            words += transaction.burst_length
    metrics: Dict[str, float] = {}
    for gt, prefix in ((True, "gt"), (False, "be")):
        samples = sorted(latencies[gt])
        metrics[f"{prefix}_samples"] = len(samples)
        metrics[f"{prefix}_latency_p50_cycles"] = percentile(samples, 0.50)
        metrics[f"{prefix}_latency_p99_cycles"] = percentile(samples, 0.99)
    metrics["delivered_words_per_kcycle"] = words * 1000 / window
    return metrics


def _normalize(obj):
    if isinstance(obj, float) and math.isnan(obj):
        return "NaN"
    if isinstance(obj, dict):
        return {str(key): _normalize(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(value) for value in obj]
    return obj


def fingerprint_digest(built: Built) -> str:
    """Short digest of ``System.fingerprint()`` (NaN-normalized)."""
    text = json.dumps(_normalize(built.system.fingerprint()), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class CheckResult:
    """Outcome of :func:`output_check`."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, problem: str) -> None:
        if len(self.problems) < 10:
            self.problems.append(problem)

    @property
    def ok(self) -> bool:
        return self.failed == 0 and not self.problems


def output_check(built: Built) -> CheckResult:
    """Drain the system (bounded, untimed) and verify every transaction.

    * every generated transaction completed with an ok response; a failed
      or undrained one counts as failed;
    * every read returned what replaying the same master's earlier writes
      predicts (address regions are disjoint per master, and delivery is in
      order per connection; unwritten words read as the memory fill, 0);
    * each memory's final image equals the replay of the masters using it;
    * no router saw a GT slot conflict or a slot-reservation mismatch.
    """
    system = built.system
    system.run_until_idle(max_flit_cycles=DRAIN_FLIT_CYCLES)
    result = CheckResult()
    images: Dict[str, Dict[int, int]] = {name: {}
                                         for name in system.memories}
    replays: Dict[str, Dict[int, int]] = {}
    for record in built.log:
        transaction = record.transaction
        replay = replays.setdefault(record.master, {})
        result.attempted += 1
        if (transaction.status is not TransactionStatus.COMPLETED
                or not transaction.response.ok):
            result.failed += 1
            result.fail(f"{record.master}: {transaction!r} did not complete")
            continue
        if transaction.is_write:
            for offset, word in enumerate(transaction.write_data):
                replay[transaction.address + offset] = word
        else:
            expected = [replay.get(transaction.address + offset, 0)
                        for offset in range(transaction.read_length)]
            if transaction.response.read_data != expected:
                result.failed += 1
                result.fail(f"{record.master}: read at "
                            f"0x{transaction.address:x} returned stale data")
    for master, replay in replays.items():
        images[built.targets[master]].update(replay)
    for name, image in images.items():
        memory = system.memory(name).memory
        if len(memory) != len(image) or any(
                memory.read(address) != word
                for address, word in image.items()):
            result.fail(f"memory {name}: final image differs from the "
                        "write replay")
    for node, router in system.noc.routers.items():
        for counter in ("gt_conflicts", "slot_reservation_mismatches"):
            if router.stats.counter(counter).value:
                result.fail(f"router {node}: {counter} nonzero")
    return result
