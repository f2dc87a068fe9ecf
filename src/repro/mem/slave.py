"""DRAM-backed slave IP: a drop-in sibling of ``MemorySlave``.

:class:`DRAMBackedSlave` implements the same small
:class:`~repro.ip.slave.SlaveIP` interface (``enqueue`` / ``pop_response``)
and is backed by the same :class:`~repro.ip.memory.SharedMemory` store, but
executes transactions through a :class:`~repro.mem.controller.DRAMController`
— so service latency is variable and state-dependent (open rows, bank
conflicts, refresh) instead of one fixed ``latency_cycles``.

Wake-protocol compliance (PERFORMANCE.md): ``enqueue`` calls
``notify_active()`` (the existing ``SlaveIP.enqueue`` hook), every state
transition happens inside ``tick`` while the component is non-idle, the
controller's refresh/row bookkeeping is a pure function of absolute cycle
stamps, and ``is_idle()`` is True exactly when a tick would be an observable
no-op.  Idle-skip runs are therefore byte-identical to always-tick runs.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple, Union

from repro.ip.memory import SharedMemory
from repro.ip.slave import SlaveIP, execute_on_memory
from repro.mem.controller import DRAMController, Scheduler
from repro.mem.timing import (
    DRAMGeometry,
    DRAMTiming,
    make_geometry,
    resolve_timing,
)
from repro.protocol.transactions import Transaction, TransactionResponse
from repro.sim.stats import StatsRegistry


class DRAMBackedSlave(SlaveIP):
    """A banked-DRAM memory slave with timing-accurate, variable latency.

    Parameters
    ----------
    name:
        Instance name (statistics / debugging).
    memory:
        Backing word store; a fresh unbounded :class:`SharedMemory` when
        omitted.
    timing:
        A :class:`DRAMTiming` or a preset name from
        :data:`repro.mem.timing.TIMING_PRESETS`.
    geometry:
        Bank/row geometry; defaults to ``DRAMGeometry()`` (8 banks,
        256-word rows), overridable piecewise via ``banks``/``row_words``.
    scheduler:
        ``"fcfs"`` (in-order), ``"frfcfs"`` (open-page first-ready FCFS) or
        a :class:`~repro.mem.controller.Scheduler` instance.
    """

    def __init__(self, name: str, memory: Optional[SharedMemory] = None,
                 timing: Union[str, DRAMTiming] = "default",
                 geometry: Optional[DRAMGeometry] = None,
                 banks: Optional[int] = None,
                 row_words: Optional[int] = None,
                 scheduler: Union[str, Scheduler] = "fcfs") -> None:
        self.name = name
        self.memory = memory if memory is not None else SharedMemory()
        self.timing = resolve_timing(timing)
        if geometry is None:
            geometry = make_geometry(banks=banks, row_words=row_words)
        self.geometry = geometry
        self.stats = StatsRegistry()
        self.controller = DRAMController(self.timing, self.geometry,
                                         scheduler=scheduler,
                                         stats=self.stats)
        #: Accepted transactions awaiting admission at the next tick.
        self._inbox: Deque[Transaction] = deque()
        self._done: Deque[Tuple[Transaction, TransactionResponse]] = deque()
        self._service_latency = self.stats.latency("dram_service")

    # ------------------------------------------------------------ interface
    def enqueue(self, transaction: Transaction) -> None:
        self._inbox.append(transaction)
        self.notify_active()

    def pop_response(self) -> Optional[Tuple[Transaction, TransactionResponse]]:
        if self._done:
            return self._done.popleft()
        return None

    def idle(self) -> bool:
        return not self._inbox and not self.controller.busy and not self._done

    def is_idle(self) -> bool:
        """Activity predicate for idle-skip: no request anywhere in flight."""
        return not self._inbox and not self.controller.busy and not self._done

    # ----------------------------------------------------------------- clock
    def tick(self, cycle: int) -> None:
        while self._inbox:
            self.controller.admit(self._inbox.popleft(), cycle)
        self.controller.tick(cycle)
        while True:
            completed = self.controller.pop_completed()
            if completed is None:
                break
            transaction, arrival, done = completed
            self._service_latency.record(arrival, done)
            self._done.append((transaction, self._execute(transaction)))

    # --------------------------------------------------------------- execute
    def _execute(self, transaction: Transaction) -> TransactionResponse:
        return execute_on_memory(self.memory, self.stats, transaction)

    # ------------------------------------------------------------ reporting
    @property
    def row_hit_rate(self) -> float:
        return self.controller.row_hit_rate

    def service_summary(self) -> dict:
        """Service-latency and row-state digest for reports and tests."""
        return {
            "requests": self.stats.counter("dram_requests").value,
            "row_hits": self.stats.counter("dram_row_hits").value,
            "row_closed": self.stats.counter("dram_row_closed").value,
            "row_conflicts": self.stats.counter("dram_row_conflicts").value,
            "refresh_stalls": self.stats.counter("dram_refresh_stalls").value,
            "service_latency": {
                "count": self._service_latency.count,
                "min": self._service_latency.minimum,
                "mean": self._service_latency.mean,
                "max": self._service_latency.maximum,
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"DRAMBackedSlave({self.name}, "
                f"scheduler={self.controller.scheduler.name}, "
                f"banks={self.geometry.num_banks})")
