"""E9 — Section 4.1: credit piggybacking and the credit threshold.

Credits normally ride in the headers of reverse-direction packets; when there
is no reverse data they are sent as empty packets, consuming bandwidth.  The
credit threshold batches them.  This benchmark drives a unidirectional
(posted-write) stream, so every credit must return either in an empty packet
or not at all, and sweeps the credit threshold.
"""

from benchmarks.helpers import print_table
from repro.api import scenarios
from repro.ip.traffic import ConstantBitRateTraffic


def measure(credit_threshold):
    system = scenarios.build(
        "point_to_point",
        credit_threshold=credit_threshold,
        queue_words=16,
        pattern=ConstantBitRateTraffic(period_cycles=8, burst_words=4,
                                       posted=True),
        max_transactions=60)
    system.run_until_idle(max_flit_cycles=16000)
    slave_ni = system.memory("memory").ni
    slave_kernel = system.kernel(slave_ni).stats
    master_kernel = system.kernel(system.master("master").ni).stats
    credit_packets = slave_kernel.counter("credit_only_packets").value
    credits_sent = slave_kernel.counter("credits_sent").value
    data_words = master_kernel.counter("words_sent").value
    reverse_link_flits = system.noc.links[
        (f"ni:{slave_ni}", "router:(0, 1)")].flits_carried
    return {
        "credit_threshold": credit_threshold,
        "data_words_forward": data_words,
        "credits_returned": credits_sent,
        "credit_only_packets": credit_packets,
        "reverse_link_flits": reverse_link_flits,
        "credit_flits_per_data_word": reverse_link_flits / data_words,
    }


def credit_rows():
    return [measure(threshold) for threshold in (1, 4, 8, 16)]


def test_e9_credit_threshold_reduces_credit_bandwidth():
    rows = credit_rows()
    print_table("E9: credit-return overhead vs credit threshold "
                "(unidirectional posted writes)", rows)
    packets = [row["credit_only_packets"] for row in rows]
    overhead = [row["credit_flits_per_data_word"] for row in rows]
    # Batching credits cuts the number of empty credit packets and the
    # reverse-link bandwidth they consume.
    assert packets[0] > packets[-1]
    assert overhead[0] > overhead[-1]
    # Flow-control conservation: every delivered word eventually returns a
    # credit (up to the words still buffered at the end of the run).
    for row in rows:
        assert row["credits_returned"] <= row["data_words_forward"]
        assert row["credits_returned"] >= row["data_words_forward"] - 16
