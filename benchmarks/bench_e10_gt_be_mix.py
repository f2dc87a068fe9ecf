"""E10 — guaranteed and best-effort traffic sharing the NoC.

The compositionality argument of Sections 1-2: GT connections keep their
throughput and latency regardless of other traffic, while BE traffic absorbs
whatever capacity is left.  Several master/slave pairs share one inter-router
link; the GT slot load is swept and the effect on the BE pair is measured.
"""

from benchmarks.helpers import print_table
from repro.api import scenarios

RUN_CYCLES = 1500


def measure(num_gt):
    mix = scenarios.build("gt_be_mix", num_gt=num_gt, num_be=1, gt_slots=2,
                          gt_pattern_period=8, be_pattern_period=10)
    mix.run_flit_cycles(RUN_CYCLES)
    # Masters m0..m{num_gt-1} are guaranteed; the best-effort one follows.
    be_master = mix.master(f"m{num_gt}")
    be_latency = be_master.latency_summary()
    gt_completed = [len(mix.master(f"m{index}").completed)
                    for index in range(num_gt)]
    # The router (0,0) -> router (0,1) link every request crosses.
    link = mix.noc.links[("router:(0, 0)", "router:(0, 1)")]
    return {
        "gt_pairs": num_gt,
        "gt_slots_reserved": 2 * num_gt,
        "gt_transactions_each": (min(gt_completed) if gt_completed else 0),
        "be_transactions": len(be_master.completed),
        "be_mean_latency": be_latency["mean"],
        "be_max_latency": be_latency["max"],
        "link_utilization": link.utilization(RUN_CYCLES),
    }


def mix_rows():
    return [measure(num_gt) for num_gt in (0, 1, 2, 3)]


def test_e10_gt_be_interaction():
    rows = mix_rows()
    print_table("E10: BE service vs GT slot load on a shared link", rows)
    # The BE pair keeps working but its latency does not improve as GT load
    # rises (it absorbs the slots GT leaves unused).
    be_latency = [row["be_mean_latency"] for row in rows]
    assert be_latency[-1] >= be_latency[0]
    # Every GT pair keeps (roughly) the same throughput independent of how
    # many other pairs are present: compositionality.
    gt_each = [row["gt_transactions_each"] for row in rows if row["gt_pairs"]]
    assert max(gt_each) - min(gt_each) <= 0.2 * max(gt_each)
    # The shared link is progressively better utilized.
    utilization = [row["link_utilization"] for row in rows]
    assert utilization[-1] > utilization[0]
