"""E8 — Section 4.1: the data-threshold mechanism.

"To optimize the NoC utilization, it is preferable to send longer packets.
To achieve this, we implemented a configurable threshold mechanism, which
skips a channel as long as the sendable data is below the threshold."

Sweeping the data threshold for a best-effort stream of small writes shows
the trade-off the mechanism embodies: larger thresholds produce longer
packets (less header overhead on the link) at the price of added latency;
the flush signal bounds the worst case.
"""

from benchmarks.helpers import print_table
from repro.api import scenarios
from repro.ip.traffic import ConstantBitRateTraffic


def measure(threshold):
    system = scenarios.build(
        "point_to_point",
        data_threshold=threshold,
        queue_words=16,
        pattern=ConstantBitRateTraffic(period_cycles=12, burst_words=2,
                                       posted=True),
        max_transactions=40)
    system.run_until_idle(max_flit_cycles=12000)
    master = system.master("master")
    kernel = system.kernel(master.ni).stats
    payload_hist = kernel.histogram("packet_payload_words")
    packets = kernel.counter("be_packets_sent").value
    payload_words = kernel.counter("words_sent").value
    header_overhead = packets / (packets + payload_words)
    latency = master.latency_summary()
    return {
        "data_threshold": threshold,
        "packets": packets,
        "mean_packet_payload": payload_hist.mean,
        "header_overhead": header_overhead,
        "mean_latency": latency["mean"],
        "max_latency": latency["max"],
    }


def threshold_rows():
    return [measure(threshold) for threshold in (1, 4, 8)]


def test_e8_data_threshold_tradeoff():
    rows = threshold_rows()
    print_table("E8: packet length / header overhead vs data threshold", rows)
    payloads = [row["mean_packet_payload"] for row in rows]
    overheads = [row["header_overhead"] for row in rows]
    # Larger thresholds produce longer packets and lower header overhead.
    assert payloads == sorted(payloads)
    assert payloads[-1] > payloads[0]
    assert overheads == sorted(overheads, reverse=True)
    # All traffic is still delivered (the threshold only defers, never drops).
    assert all(row["packets"] > 0 for row in rows)


def flush_comparison():
    rows = []
    for use_flush in (False, True):
        system = scenarios.build("point_to_point", data_threshold=8,
                                 queue_words=16, max_transactions=0)
        from repro.protocol.transactions import Transaction
        master = system.master("master")
        master.issue(Transaction.write(0x0, [1, 2], posted=True))
        system.run_flit_cycles(100)
        if use_flush:
            master.conn_shell.request_flush(0)
        system.run_flit_cycles(150)
        rows.append({"flush": use_flush,
                     "words_delivered": system.memory("memory").memory.writes})
    return rows


def test_e8_flush_prevents_starvation():
    rows = flush_comparison()
    print_table("E8b: flush overriding the threshold (2 buffered words, "
                "threshold 8)", rows)
    without, with_flush = rows
    assert without["words_delivered"] == 0       # stuck below the threshold
    assert with_flush["words_delivered"] == 2    # flush pushed them out
