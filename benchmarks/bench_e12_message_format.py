"""E12 — Figure 7 message formats and sequentialization overhead.

Reports, for read and write transactions of increasing burst length, the
number of 32-bit words their request and response messages occupy after
sequentialization and the resulting efficiency (payload words over total
words moved), which is what the threshold mechanism of E8 tries to maximize
on the link side.
"""

import pytest

from benchmarks.helpers import print_table
from repro.protocol.messages import RequestMessage, ResponseMessage
from repro.protocol.transactions import Command


def format_rows():
    rows = []
    for burst in (1, 2, 4, 8, 16, 64):
        write_request = RequestMessage(command=Command.WRITE, address=0x1000,
                                       write_data=list(range(burst)))
        write_ack = ResponseMessage(command=Command.WRITE)
        read_request = RequestMessage(command=Command.READ, address=0x1000,
                                      read_length=burst)
        read_response = ResponseMessage(command=Command.READ,
                                        read_data=list(range(burst)))
        write_total = write_request.num_words + write_ack.num_words
        read_total = read_request.num_words + read_response.num_words
        rows.append({
            "burst_words": burst,
            "write_req_words": write_request.num_words,
            "write_total_words": write_total,
            "write_efficiency": burst / write_total,
            "read_req_words": read_request.num_words,
            "read_total_words": read_total,
            "read_efficiency": burst / read_total,
        })
    return rows


def test_e12_message_format_overhead():
    rows = format_rows()
    print_table("E12: sequentialized message sizes (Figure 7 formats)", rows)
    for row in rows:
        burst = row["burst_words"]
        # Write request: header + address + data; acknowledged write adds one
        # response word.  Read: 2-word request, header + data response.
        assert row["write_req_words"] == 2 + burst
        assert row["write_total_words"] == 3 + burst
        assert row["read_req_words"] == 2
        assert row["read_total_words"] == 3 + burst
    # Efficiency approaches 1 for long bursts and is poor for single words,
    # which is why the kernel aggregates messages into longer packets (E8).
    assert rows[0]["write_efficiency"] == pytest.approx(0.25)
    assert rows[-1]["write_efficiency"] > 0.9


def serialization_throughput(burst=16):
    message = RequestMessage(command=Command.WRITE, address=0x0,
                             write_data=list(range(burst)))

    def round_trip():
        from repro.protocol.messages import request_from_words
        return request_from_words(message.to_words())

    return round_trip


def test_e12_serialization_round_trip_speed():
    round_trip = serialization_throughput()
    result = round_trip()
    assert result.write_data == list(range(16))
