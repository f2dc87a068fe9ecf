"""Slave protocol-adapter shell (Figure 6 of the paper).

The slave shell desequentializes incoming request messages into commands,
addresses and write data for the slave IP module, and sequentializes the
slave's read data / write acknowledgements back into response messages.

The slave IP module is any object implementing the small interface of
:class:`repro.ip.slave.SlaveIP`: ``enqueue(transaction)`` and
``pop_response() -> (transaction, response) | None``.  Responses must be
produced in the order requests were enqueued (the connection shell's history
relies on this to route responses onto the right connection).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.core.shells.base import ConnectionShell, ShellError
from repro.protocol.messages import RequestMessage, ResponseMessage
from repro.protocol.transactions import Command, Transaction
from repro.sim.clock import ClockedComponent
from repro.sim.stats import StatsRegistry
from repro.sim.trace import NULL_TRACER, Tracer


class SlaveShell(ClockedComponent):
    """Message-to-transaction adapter for a slave IP module."""

    def __init__(self, name: str, shell: ConnectionShell, slave,
                 protocol: str = "dtl",
                 tracer: Tracer = NULL_TRACER) -> None:
        if shell.role != "slave":
            raise ShellError(f"slave shell {name} needs a slave-role connection shell")
        if protocol not in ("dtl", "axi"):
            raise ShellError(f"slave shell {name}: unknown protocol {protocol!r}")
        self.name = name
        self.shell = shell
        self.slave = slave
        self.protocol = protocol
        self.tracer = tracer
        self.stats = StatsRegistry()
        #: Requests handed to the slave IP that expect a response, in order.
        self._awaiting_response: Deque[RequestMessage] = deque()
        self._response_backlog: Deque[ResponseMessage] = deque()

    # ----------------------------------------------------------------- clock
    def tick(self, cycle: int) -> None:
        self._accept_requests(cycle)
        self._return_responses(cycle)

    def _accept_requests(self, cycle: int) -> None:
        while True:
            polled = self.shell.poll()
            if polled is None:
                return
            message, conn = polled
            if not isinstance(message, RequestMessage):
                raise ShellError(f"slave shell {self.name}: received a response")
            transaction = self._to_transaction(message)
            transaction.issue_cycle = cycle
            self.slave.enqueue(transaction)
            self.stats.counter("requests_accepted").increment()
            if message.expects_response:
                self._awaiting_response.append(message)
            del conn

    def _return_responses(self, cycle: int) -> None:
        # Drain the slave IP into the local backlog.
        while True:
            produced = self.slave.pop_response()
            if produced is None:
                break
            transaction, response = produced
            if not transaction.expects_response:
                # Posted commands produce no response message.
                continue
            if not self._awaiting_response:
                raise ShellError(
                    f"slave shell {self.name}: slave produced a response with "
                    f"no outstanding acknowledged request")
            request = self._awaiting_response.popleft()
            message = ResponseMessage(command=request.command,
                                      error=response.error,
                                      read_data=list(response.read_data),
                                      trans_id=request.trans_id)
            self._response_backlog.append(message)
            del transaction
        # Send as many backlogged responses as the shell accepts.
        while self._response_backlog:
            if not self.shell.can_submit():
                self.stats.counter("response_stalls").increment()
                return
            if not self.shell.submit(self._response_backlog[0]):
                self.stats.counter("response_stalls").increment()
                return
            self._response_backlog.popleft()
            self.stats.counter("responses_sent").increment()

    # -------------------------------------------------------------- helpers
    @staticmethod
    def _to_transaction(message: RequestMessage) -> Transaction:
        if message.command in (Command.READ, Command.READ_LINKED):
            return Transaction(command=message.command, address=message.address,
                               read_length=message.read_length,
                               trans_id=message.trans_id)
        return Transaction(command=message.command, address=message.address,
                           write_data=list(message.write_data),
                           trans_id=message.trans_id)

    def idle(self) -> bool:
        return (not self._awaiting_response and not self._response_backlog
                and self.shell.idle())

    def is_idle(self) -> bool:
        """Activity predicate for idle-skip.

        Conservatively busy while any accepted request still awaits its
        response from the slave IP — the slave may be an unclocked immediate
        executor (e.g. the CNIP register file), in which case nothing else
        would keep this clock running until the response is drained.
        """
        return not self._awaiting_response and not self._response_backlog

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"SlaveShell({self.name}, protocol={self.protocol})"
