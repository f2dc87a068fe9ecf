"""Banked DRAM memory controller: per-bank queues, pluggable scheduling.

The controller models the command layer the gram/LiteDRAM ``BankMachine`` +
``Multiplexer`` pair implements in hardware: each bank tracks its open row
and earliest-next-command time, a single shared data bus serializes the data
transfers, and periodic refresh windows block the whole device and close
every row.  Requests are queued per bank; a :class:`Scheduler` picks which
queued request is issued next:

* :class:`FCFSScheduler` — strictly oldest request first (arrival order);
* :class:`FRFCFSScheduler` — open-page first-ready/first-come-first-serve:
  the oldest request that *hits* a currently open row goes first, falling
  back to the oldest request overall; a starvation cap bounds how long
  row-miss requests can be bypassed.

Service may complete out of arrival order under FR-FCFS, but responses are
*released* in arrival order (:attr:`DRAMController.pop_completed`) because
the slave shell's response history requires it.  Requests to the same
address live in the same row, and within a row FR-FCFS serves queue order,
so read-after-write ordering per address is preserved under both policies.

All timing state is kept as absolute cycle timestamps and refresh windows
are a pure function of the cycle index (refresh ``k`` occupies cycles
``[k*tREFI, k*tREFI + tRFC)``), so a tick with no queued work is an
observable no-op — the property the activity-driven engine's idle-skip mode
relies on (see PERFORMANCE.md).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple, Union

from repro.mem.timing import DRAMGeometry, DRAMTiming
from repro.protocol.transactions import Transaction
from repro.sim.stats import StatsRegistry


class SchedulerError(ValueError):
    """Raised for unknown scheduler names."""


class _Request:
    """One queued memory access (a whole transaction burst)."""

    __slots__ = ("seq", "transaction", "bank", "row", "arrival", "words")

    def __init__(self, seq: int, transaction: Transaction, bank: int,
                 row: int, arrival: int, words: int) -> None:
        self.seq = seq
        self.transaction = transaction
        self.bank = bank
        self.row = row
        self.arrival = arrival
        self.words = words


class DRAMBank:
    """Open-row and readiness state of one bank (absolute cycle stamps)."""

    __slots__ = ("open_row", "ready_cycle", "activate_cycle")

    def __init__(self) -> None:
        self.open_row: Optional[int] = None
        #: Earliest cycle the bank can accept its next command.
        self.ready_cycle = 0
        #: Cycle the currently open row was activated (tRAS accounting).
        self.activate_cycle = 0

    def effective_row(self, cycle: int, tREFI: int) -> Optional[int]:
        """The open row as seen at ``cycle``: refreshes close every row.

        Refresh ``k`` starts at ``k * tREFI`` (k >= 1); a row activated
        before the latest refresh start at or before ``cycle`` is gone.
        """
        if self.open_row is None:
            return None
        latest_refresh = (cycle // tREFI) * tREFI
        if latest_refresh >= 1 * tREFI and latest_refresh > self.activate_cycle:
            return None
        return self.open_row


class Scheduler:
    """Interface: pick the next request to issue."""

    name = "scheduler"

    def select(self, queues: List[Deque[_Request]], banks: List[DRAMBank],
               timing: DRAMTiming, cycle: int) -> Optional[Tuple[int, int]]:
        """Return ``(bank, queue_index)`` of the request to issue, or None."""
        raise NotImplementedError


class FCFSScheduler(Scheduler):
    """In-order service: the globally oldest request goes first."""

    name = "fcfs"

    def select(self, queues: List[Deque[_Request]], banks: List[DRAMBank],
               timing: DRAMTiming, cycle: int) -> Optional[Tuple[int, int]]:
        best: Optional[Tuple[int, int]] = None
        best_seq = None
        for bank_index, queue in enumerate(queues):
            if not queue:
                continue
            head = queue[0]
            if best_seq is None or head.seq < best_seq:
                best_seq = head.seq
                best = (bank_index, 0)
        return best


class FRFCFSScheduler(Scheduler):
    """Open-page first-ready FCFS: oldest row hit first, then oldest.

    ``starvation_limit`` bounds reordering: after the globally oldest
    request has been bypassed by that many row hits, it is served regardless
    of row state (an age cap in cycles would degrade to FCFS under a
    saturating backlog, where every queued request is "old").
    """

    name = "frfcfs"

    def __init__(self, starvation_limit: int = 8) -> None:
        if starvation_limit <= 0:
            raise SchedulerError("starvation limit must be positive")
        self.starvation_limit = starvation_limit
        self._oldest_seq: Optional[int] = None
        self._bypasses = 0

    def select(self, queues: List[Deque[_Request]], banks: List[DRAMBank],
               timing: DRAMTiming, cycle: int) -> Optional[Tuple[int, int]]:
        oldest: Optional[Tuple[int, int]] = None
        oldest_seq = None
        hit: Optional[Tuple[int, int]] = None
        hit_seq = None
        for bank_index, queue in enumerate(queues):
            if not queue:
                continue
            head = queue[0]
            if oldest_seq is None or head.seq < oldest_seq:
                oldest_seq = head.seq
                oldest = (bank_index, 0)
            row = banks[bank_index].effective_row(cycle, timing.tREFI)
            if row is None:
                continue
            # First request in queue order hitting the open row; taking the
            # first match preserves per-row (and thus per-address) order.
            for index, request in enumerate(queue):
                if request.row == row:
                    if hit_seq is None or request.seq < hit_seq:
                        hit_seq = request.seq
                        hit = (bank_index, index)
                    break
        if oldest is None:
            return None
        if oldest_seq != self._oldest_seq:
            self._oldest_seq = oldest_seq
            self._bypasses = 0
        if hit is None or hit_seq == oldest_seq:
            return hit if hit is not None else oldest
        if self._bypasses >= self.starvation_limit:
            return oldest
        self._bypasses += 1
        return hit


SCHEDULERS: Dict[str, type] = {
    FCFSScheduler.name: FCFSScheduler,
    FRFCFSScheduler.name: FRFCFSScheduler,
}


def make_scheduler(scheduler: Union[str, Scheduler]) -> Scheduler:
    """Resolve a scheduler name (``fcfs`` / ``frfcfs``) or pass through."""
    if isinstance(scheduler, Scheduler):
        return scheduler
    try:
        return SCHEDULERS[scheduler]()
    except (KeyError, TypeError):
        known = ", ".join(sorted(SCHEDULERS))
        raise SchedulerError(
            f"unknown DRAM scheduler {scheduler!r} (known: {known}; or pass "
            "a Scheduler instance)") from None


class DRAMController:
    """Timing-accurate controller front-end driven by a clocked slave.

    The owner (:class:`repro.mem.slave.DRAMBackedSlave`) calls
    :meth:`admit` for every accepted transaction and :meth:`tick` once per
    controller clock cycle; completed transactions come back through
    :meth:`pop_completed` in arrival order.
    """

    def __init__(self, timing: DRAMTiming, geometry: DRAMGeometry,
                 scheduler: Union[str, Scheduler] = "fcfs",
                 stats: Optional[StatsRegistry] = None) -> None:
        self.timing = timing
        self.geometry = geometry
        self.scheduler = make_scheduler(scheduler)
        self.stats = stats if stats is not None else StatsRegistry()
        self.banks = [DRAMBank() for _ in range(geometry.num_banks)]
        self._queues: List[Deque[_Request]] = [deque()
                                               for _ in self.banks]
        self._pending = 0
        #: Issued requests in service: (done_cycle, request), issue order.
        self._in_flight: Deque[Tuple[int, _Request]] = deque()
        #: Finished out-of-order, awaiting in-order release:
        #: seq -> (request, done_cycle).
        self._finished: Dict[int, Tuple[_Request, int]] = {}
        self._released: Deque[Tuple[Transaction, int, int]] = deque()
        self._next_seq = 0
        self._next_release = 0
        self._bus_free = 0
        # Hot counters (see PERFORMANCE.md: resolved once, bumped directly).
        self._ctr_requests = self.stats.counter("dram_requests")
        self._ctr_hits = self.stats.counter("dram_row_hits")
        self._ctr_closed = self.stats.counter("dram_row_closed")
        self._ctr_conflicts = self.stats.counter("dram_row_conflicts")
        self._ctr_refresh = self.stats.counter("dram_refresh_stalls")

    # -------------------------------------------------------------- intake
    def admit(self, transaction: Transaction, cycle: int) -> None:
        """Queue a transaction for service, arriving at ``cycle``."""
        words = (transaction.read_length if transaction.is_read
                 else len(transaction.write_data))
        bank, row = self.geometry.locate(transaction.address)
        request = _Request(self._next_seq, transaction, bank, row, cycle,
                           max(words, 1))
        self._next_seq += 1
        self._queues[bank].append(request)
        self._pending += 1
        self._ctr_requests.increment()

    # --------------------------------------------------------------- clock
    def tick(self, cycle: int) -> None:
        """Advance one controller cycle: complete, release, issue."""
        while self._in_flight and self._in_flight[0][0] <= cycle:
            done, request = self._in_flight.popleft()
            self._finished[request.seq] = (request, done)
        while self._next_release in self._finished:
            request, done = self._finished.pop(self._next_release)
            self._released.append((request.transaction, request.arrival, done))
            self._next_release += 1
        if self._pending:
            self._issue(cycle)

    def _issue(self, cycle: int) -> None:
        # Issue only when the data bus is close enough that the command
        # pipeline (ACTIVATE + CAS) can run under the ongoing transfer:
        # issuing further ahead would commit the schedule before competing
        # requests arrive, leaving the scheduler nothing to reorder.
        if self._bus_free > cycle + self.timing.tRCD + self.timing.tCL:
            return
        selected = self.scheduler.select(self._queues, self.banks,
                                         self.timing, cycle)
        if selected is None:
            return
        bank_index, queue_index = selected
        queue = self._queues[bank_index]
        request = queue[queue_index]
        del queue[queue_index]
        self._pending -= 1
        done = self._schedule(request, cycle)
        self._in_flight.append((done, request))

    def _schedule(self, request: _Request, cycle: int) -> int:
        """Commit one request to the timing model; returns its done cycle.

        The candidate command/transfer sequence is computed without touching
        bank state first: if any of it would straddle a refresh window (the
        device cannot service during refresh), the whole access restarts
        after that window — where the row state is re-evaluated, since the
        refresh closed every row.
        """
        timing = self.timing
        tREFI = timing.tREFI
        bank = self.banks[request.bank]
        start = max(cycle, bank.ready_cycle)
        while True:
            deferred = self._defer_refresh(start)
            if deferred != start:
                self._ctr_refresh.increment()
                start = deferred
            row = bank.effective_row(start, tREFI)
            activate_at: Optional[int] = None
            if row == request.row:
                kind = self._ctr_hits
                cas_at = start
            elif row is None:
                kind = self._ctr_closed
                activate_at = start
                cas_at = activate_at + timing.tRCD
            else:
                kind = self._ctr_conflicts
                precharge_at = max(start, bank.activate_cycle + timing.tRAS)
                activate_at = precharge_at + timing.tRP
                cas_at = activate_at + timing.tRCD
            data_start = max(cas_at + timing.tCL, self._bus_free)
            done = data_start + timing.transfer_cycles(request.words)
            next_refresh = (start // tREFI + 1) * tREFI
            if done <= next_refresh:
                break
            self._ctr_refresh.increment()
            start = next_refresh + timing.tRFC
        kind.increment()
        if activate_at is not None:
            bank.activate_cycle = activate_at
        bank.open_row = request.row
        # The bank can take its next command once the CAS has issued; the
        # shared data bus serializes the transfers themselves.
        bank.ready_cycle = cas_at + 1
        self._bus_free = done
        return done

    def _defer_refresh(self, cycle: int) -> int:
        """Push a command start out of the refresh window covering it."""
        tREFI = self.timing.tREFI
        refresh_start = (cycle // tREFI) * tREFI
        if refresh_start >= tREFI and cycle < refresh_start + self.timing.tRFC:
            return refresh_start + self.timing.tRFC
        return cycle

    # ------------------------------------------------------------- results
    def pop_completed(self) -> Optional[Tuple[Transaction, int, int]]:
        """Next ``(transaction, arrival_cycle, done_cycle)``, arrival order."""
        if self._released:
            return self._released.popleft()
        return None

    @property
    def busy(self) -> bool:
        """True while any request is queued, in service or unreleased."""
        return bool(self._pending or self._in_flight or self._finished
                    or self._released)

    @property
    def queued(self) -> int:
        return self._pending

    def queue_depth(self, bank: int) -> int:
        """Requests waiting in one bank's queue (probe hook)."""
        return len(self._queues[bank])

    @property
    def row_hit_rate(self) -> float:
        served = (self._ctr_hits.value + self._ctr_closed.value
                  + self._ctr_conflicts.value)
        if not served:
            return float("nan")
        return self._ctr_hits.value / served

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"DRAMController({self.scheduler.name}, "
                f"banks={len(self.banks)}, queued={self._pending})")
