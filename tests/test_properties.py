"""Property-based tests on system invariants (hypothesis).

These exercise the core data structures and the end-to-end data path with
randomized inputs and assert the invariants the design relies on: FIFO
behaviour, flow-control conservation, path-encoding round trips and slot
table bookkeeping.
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import scenarios
from repro.core.queues import HardwareFifo, QueueError
from repro.core.registers import PATH_MAX_HOPS, PATH_MAX_PORT, decode_path, encode_path
from repro.network.packet import Packet, PacketHeader, packet_to_flits
from repro.network.slot_table import SlotTable, SlotTableError
from repro.protocol.transactions import Transaction


# ---------------------------------------------------------------------------
# HardwareFifo behaves exactly like a bounded deque (no CDC delay).
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(
    st.tuples(st.just("push"), st.integers(min_value=0, max_value=2**32 - 1)),
    st.tuples(st.just("pop"), st.just(0))), max_size=80),
    st.integers(min_value=1, max_value=16))
def test_fifo_matches_reference_model(operations, capacity):
    fifo = HardwareFifo(capacity)
    reference = deque()
    for op, value in operations:
        if op == "push":
            if len(reference) < capacity:
                fifo.push(value)
                reference.append(value)
            else:
                assert not fifo.can_push()
                with pytest.raises(QueueError):
                    fifo.push(value)
        else:
            if reference:
                assert fifo.pop() == reference.popleft()
            else:
                assert not fifo.can_pop()
        assert fifo.fill == len(reference)
        assert fifo.space == capacity - len(reference)


# ---------------------------------------------------------------------------
# Path register encoding round-trips for every legal path.
# ---------------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=PATH_MAX_PORT),
                max_size=PATH_MAX_HOPS))
def test_path_encoding_round_trip(path):
    assert decode_path(encode_path(path)) == tuple(path)


# ---------------------------------------------------------------------------
# Packet flit split conserves words for any payload length.
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=60))
def test_flit_split_conserves_words(payload_words):
    packet = Packet(PacketHeader(path=(0,), remote_qid=0),
                    list(range(payload_words)))
    flits = packet_to_flits(packet)
    assert sum(f.num_words for f in flits) == packet.total_words
    assert len(flits) == packet.num_flits


# ---------------------------------------------------------------------------
# Slot table: reservations and releases never corrupt other owners.
# ---------------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=7),   # slot
                          st.integers(min_value=0, max_value=3)),  # owner
                max_size=40))
def test_slot_table_reference_model(actions):
    table = SlotTable(8)
    reference = {}
    for slot, owner in actions:
        current = reference.get(slot)
        if current is None or current == owner:
            table.reserve(slot, owner)
            reference[slot] = owner
        else:
            with pytest.raises(SlotTableError):
                table.reserve(slot, owner)
    for slot in range(8):
        assert table.owner(slot) == reference.get(slot)


# ---------------------------------------------------------------------------
# End-to-end: random write bursts are delivered exactly once, in order,
# with correct contents (flow control conserves every word).
# ---------------------------------------------------------------------------
@settings(max_examples=5, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=0, max_value=2**32 - 1),
                         min_size=1, max_size=6),
                min_size=1, max_size=6),
       st.booleans())
def test_end_to_end_write_integrity(bursts, gt):
    system = scenarios.build("point_to_point", gt=gt, request_slots=2,
                             response_slots=2, max_transactions=0)
    master, memory = system.master("master"), system.memory("memory")
    address = 0
    expected = {}
    for burst in bursts:
        master.issue(Transaction.write(address, burst))
        expected[address] = burst
        address += len(burst)
    system.run_until_idle(max_flit_cycles=30000)
    assert len(master.completed) == len(bursts)
    for base, burst in expected.items():
        assert memory.memory.read_burst(base, len(burst)) == burst
    sent = system.kernel(master.ni).stats.counter("words_sent").value
    received = system.kernel(memory.ni).stats.counter("words_received").value
    assert sent == received
