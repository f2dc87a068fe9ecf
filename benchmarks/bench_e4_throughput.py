"""E4 — Section 2 throughput guarantees: N reserved slots give N * B_i.

A single GT connection is driven at saturation for an increasing number of
reserved slots; the measured delivered payload must scale linearly with the
reservation and stay at or above the analytic guarantee.  The raw link
bandwidth (16 Gbit/s at 500 MHz, Section 5) is reported alongside.
"""

import pytest

from benchmarks.helpers import print_table
from repro.analysis.guarantees import throughput_bound_words_per_flit_cycle
from repro.analysis.verification import measured_throughput_gbit_s
from repro.api import scenarios
from repro.design.timing import TimingModel

WARMUP_CYCLES = 200
WINDOW_CYCLES = 600


def measure(slots):
    mix = scenarios.build("gt_be_mix", num_gt=1, num_be=0, gt_slots=slots,
                          gt_pattern_period=2, burst_words=4,
                          queue_words=16)
    slave_kernel = mix.kernel("s0")
    mix.run_flit_cycles(WARMUP_CYCLES)
    before = slave_kernel.stats.counter("words_received").value
    mix.run_flit_cycles(WINDOW_CYCLES)
    after = slave_kernel.stats.counter("words_received").value
    delivered = after - before
    return delivered


def throughput_rows():
    rows = []
    for slots in (1, 2, 4):
        delivered = measure(slots)
        measured = delivered / WINDOW_CYCLES
        bound = throughput_bound_words_per_flit_cycle(slots, 8)
        rows.append({
            "slots_reserved": slots,
            "bound_words_per_flit_cycle": bound,
            "measured_words_per_flit_cycle": measured,
            "measured_gbit_s": measured_throughput_gbit_s(delivered,
                                                          WINDOW_CYCLES),
            "bound_met": measured >= bound * 0.95,
        })
    rows.append({
        "slots_reserved": "raw link",
        "bound_words_per_flit_cycle": 3.0,
        "measured_words_per_flit_cycle": "-",
        "measured_gbit_s": TimingModel().raw_bandwidth_gbit_s,
        "bound_met": True,
    })
    return rows


def test_e4_gt_throughput_scales_with_slots():
    rows = throughput_rows()
    print_table("E4: GT throughput vs reserved slots (8-slot table)", rows)
    numeric = [row for row in rows if isinstance(row["slots_reserved"], int)]
    assert all(row["bound_met"] for row in numeric)
    measured = [row["measured_words_per_flit_cycle"] for row in numeric]
    # Linear scaling: 2 slots deliver ~2x of 1 slot, 4 slots ~2x of 2 slots.
    assert measured[1] == pytest.approx(2 * measured[0], rel=0.25)
    assert measured[2] == pytest.approx(2 * measured[1], rel=0.25)
