"""E5 — Section 2 latency and jitter guarantees.

"The latency bound is given by the waiting time until the reserved slot
arrives and the number of routers data passes"; "jitter is given by the
maximum distance between two slot reservations."  For several slot patterns
the worst-case measured packet latency and jitter are compared against the
analytic bounds.
"""

import math

from benchmarks.helpers import print_table
from repro.analysis.guarantees import GTGuarantees
from repro.api import scenarios
from repro.ip.traffic import ConstantBitRateTraffic


def measure(slots):
    system = scenarios.build(
        "point_to_point", gt=True, request_slots=slots, response_slots=slots,
        pattern=ConstantBitRateTraffic(period_cycles=40, burst_words=2,
                                       posted=True),
        max_transactions=30)
    system.run_until_idle(max_flit_cycles=8000)
    master_ni = system.master("master").ni
    slave_ni = system.memory("memory").ni
    recorder = system.kernel(slave_ni).stats.latencies[
        "packet_network_latency"]
    payload_hist = system.kernel(master_ni).stats.histogram(
        "packet_payload_words")
    packet_flits = max(1, math.ceil((payload_hist.maximum + 1) / 3))
    slot_pattern = system.slot_assignment[(master_ni, 0)]
    hops = system.noc.hop_count(master_ni, slave_ni)
    guarantees = GTGuarantees(slot_pattern=slot_pattern, num_slots=8,
                              hops=hops, packet_flits=packet_flits)
    samples = recorder.samples
    return {
        "slots": slots,
        "slot_pattern": tuple(slot_pattern),
        "latency_bound": guarantees.latency_bound,
        "worst_measured_latency": max(samples),
        "mean_measured_latency": sum(samples) / len(samples),
        "jitter_bound": guarantees.jitter_bound,
        "measured_jitter": max(samples) - min(samples),
        "within_bounds": (max(samples) <= guarantees.latency_bound
                          and max(samples) - min(samples)
                          <= guarantees.jitter_bound),
    }


def latency_rows():
    return [measure(slots) for slots in (1, 2, 4)]


def test_e5_latency_and_jitter_bounds_hold():
    rows = latency_rows()
    print_table("E5: GT latency/jitter, analytic bound vs measured "
                "(flit cycles)", rows)
    assert all(row["within_bounds"] for row in rows)
    # More reserved slots tighten the worst-case latency bound.
    bounds = [row["latency_bound"] for row in rows]
    assert bounds == sorted(bounds, reverse=True)
    measured = [row["worst_measured_latency"] for row in rows]
    assert measured[-1] <= measured[0]
