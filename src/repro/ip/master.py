"""Traffic-generating master IP module.

A :class:`TrafficGeneratorMaster` drives a master shell with the transaction
stream of a :class:`~repro.ip.traffic.TrafficPattern`, records per-transaction
latency, and counts delivered words — the measurements experiments E2, E4,
E5, E8 and E10 are built on.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.core.shells.master import MasterShell
from repro.ip.traffic import TrafficPattern
from repro.protocol.transactions import Transaction, TransactionStatus
from repro.sim.clock import ClockedComponent
from repro.sim.stats import StatsRegistry


class TrafficGeneratorMaster(ClockedComponent):
    """A master IP that replays a traffic pattern into a master shell."""

    def __init__(self, name: str, shell: MasterShell,
                 pattern: Optional[TrafficPattern] = None,
                 max_transactions: Optional[int] = None,
                 stop_cycle: Optional[int] = None) -> None:
        self.name = name
        self.shell = shell
        self.pattern = pattern
        self.max_transactions = max_transactions
        self.stop_cycle = stop_cycle
        self.stats = StatsRegistry()
        self.completed: List[Transaction] = []
        self._backlog: Deque[Transaction] = deque()
        self._generated = 0
        self._cycle = 0
        #: Pattern fast path: cycles strictly below this are guaranteed
        #: traffic-free (see ``TrafficPattern.next_active_cycle``), so
        #: ``_generate`` skips the pattern call entirely.
        self._next_active = 0
        # Hot-path counters cached as attributes (one registry lookup at
        # construction, not one per tick); still visible through ``stats``.
        self._ctr_generated = self.stats.counter("transactions_generated")
        self._ctr_issued = self.stats.counter("transactions_issued")
        self._ctr_completed = self.stats.counter("transactions_completed")
        self._ctr_errors = self.stats.counter("transaction_errors")
        self._ctr_words_completed = self.stats.counter("words_completed")
        self._lat = self.stats.latency("latency")

    # -------------------------------------------------------------- control
    def issue(self, transaction: Transaction) -> None:
        """Explicitly queue one transaction (in addition to the pattern)."""
        self._backlog.append(transaction)
        self.notify_active()

    def issue_many(self, transactions: List[Transaction]) -> None:
        for transaction in transactions:
            self.issue(transaction)

    def done(self) -> bool:
        """True when every generated transaction has completed *and* been
        collected into :attr:`completed` (the shell completes a posted write
        one tick before this IP polls it, so the uncollected count matters)."""
        return (not self._backlog and self.shell.outstanding == 0
                and self.shell.uncollected_completions == 0
                and self._pattern_exhausted())

    def _pattern_exhausted(self) -> bool:
        if self.pattern is None:
            return True
        if self.max_transactions is not None:
            return self._generated >= self.max_transactions
        if self.stop_cycle is not None:
            return self._cycle >= self.stop_cycle
        return False

    # ----------------------------------------------------------------- clock
    def tick(self, cycle: int) -> None:
        self._cycle = cycle
        if cycle >= self._next_active:
            self._generate(cycle)
        if self._backlog:
            self._submit(cycle)
        if self.shell.uncollected_completions:
            self._collect(cycle)

    def is_idle(self) -> bool:
        """Activity predicate for idle-skip.

        Busy while the traffic pattern can still generate transactions (the
        pattern is cycle-indexed, so the generator must observe every cycle
        until it is exhausted) or explicitly issued transactions await
        submission.  Completions are collected while the shells below keep
        the shared clock awake.
        """
        return not self._backlog and self._pattern_exhausted()

    def _generate(self, cycle: int) -> None:
        pattern = self.pattern
        if pattern is None:
            return
        if self.stop_cycle is not None and cycle >= self.stop_cycle:
            return
        if (self.max_transactions is not None
                and self._generated >= self.max_transactions):
            return
        for transaction in pattern.transactions_for_cycle(cycle):
            if (self.max_transactions is not None
                    and self._generated >= self.max_transactions):
                break
            self._backlog.append(transaction)
            self._generated += 1
            self._ctr_generated.increment()
        self._next_active = pattern.next_active_cycle(cycle + 1)

    def _submit(self, cycle: int) -> None:
        while self._backlog and self.shell.can_submit():
            transaction = self._backlog.popleft()
            if not self.shell.submit(transaction, cycle=cycle):
                self._backlog.appendleft(transaction)
                return
            self._ctr_issued.increment()

    def _collect(self, cycle: int) -> None:
        for transaction in self.shell.poll_completed():
            self.completed.append(transaction)
            self._ctr_completed.increment()
            if transaction.status == TransactionStatus.ERROR:
                self._ctr_errors.increment()
            if transaction.latency_cycles is not None:
                self._lat.record(transaction.issue_cycle,
                                 transaction.complete_cycle)
            self._ctr_words_completed.increment(transaction.burst_length)

    # ------------------------------------------------------------ reporting
    @property
    def backlog(self) -> int:
        return len(self._backlog)

    def latency_summary(self) -> dict:
        recorder = self.stats.latency("latency")
        return {
            "count": recorder.count,
            "min": recorder.minimum,
            "mean": recorder.mean,
            "max": recorder.maximum,
            "jitter": recorder.jitter,
        }
