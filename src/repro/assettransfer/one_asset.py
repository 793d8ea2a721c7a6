"""Consensus-free 1-asset transfer (each account has exactly one owner).

Guerraoui et al. [12] show that when every account has a single owner, asset
transfer has consensus number 1: since only the owner can withdraw, the owner
can locally check that its balance stays non-negative and then disseminate
the transfer with a reliable broadcast — no agreement on an order of
conflicting withdrawals is needed.  This is the exact blueprint the paper's
restricted pairwise weight reassignment follows (compare Algorithm 4), so the
implementation below intentionally mirrors :class:`repro.core.protocol.ReassignmentServer`:
local validity check, reliable broadcast, wait for ``n - f - 1`` acknowledgements.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Set

from repro.assettransfer.accounts import AccountBook, TransferOp
from repro.errors import ConfigurationError, SimulationError
from repro.net.broadcast import ReliableBroadcast
from repro.net.message import Message
from repro.net.network import Network
from repro.net.process import Process
from repro.net.simloop import SimFuture
from repro.types import ProcessId, VirtualTime

__all__ = ["OneAssetOutcome", "OneAssetServer"]

AT_RB = "AT_RB"
AT_ACK = "AT_ACK"


@dataclass(frozen=True)
class OneAssetOutcome:
    """Result of a transfer attempt: applied or locally rejected."""

    applied: bool
    op: TransferOp
    started_at: VirtualTime
    completed_at: VirtualTime

    @property
    def latency(self) -> VirtualTime:
        return self.completed_at - self.started_at


class OneAssetServer(Process):
    """A server owning exactly one account in the 1-asset-transfer system."""

    _drop_on_close = ("rb",)

    def __init__(
        self,
        pid: ProcessId,
        network: Network,
        servers: Sequence[ProcessId],
        f: int,
        initial_balances: Mapping[str, float],
    ) -> None:
        super().__init__(pid, network)
        self.servers = tuple(servers)
        self.f = f
        # Account names coincide with server ids: server s owns account s.
        self.book = AccountBook(
            balances=dict(initial_balances),
            owners={account: [account] for account in initial_balances},
        )
        if pid not in initial_balances:
            raise ConfigurationError(f"server {pid!r} has no account")
        self._counter = 1
        self._ack_received: Dict[int, Set[ProcessId]] = defaultdict(set)
        self._ack_waiters: Dict[int, SimFuture] = {}
        self._ack_sent: Set[tuple] = set()
        self._in_progress = False
        self.rb = ReliableBroadcast(self, self.servers, self._on_rb_deliver, kind=AT_RB)
        self.register_handler(AT_ACK, self._on_ack)

    # -- queries ------------------------------------------------------------------
    def balance(self) -> float:
        """This server's own account balance, from its local book."""
        return self.book.balance(self.pid)

    def balance_of(self, account: str) -> float:
        return self.book.balance(account)

    # -- the transfer operation ------------------------------------------------------
    async def transfer(self, target_account: str, amount: float) -> OneAssetOutcome:
        """Transfer ``amount`` from this server's account to ``target_account``."""
        self._ensure_alive()
        if self._in_progress:
            raise SimulationError(f"{self.pid} has a transfer in progress")
        if target_account not in self.servers:
            raise ConfigurationError(f"unknown account {target_account!r}")
        started_at = self.loop.now
        self._in_progress = True
        counter = self._counter
        self._counter += 1
        op = TransferOp(
            issuer=self.pid,
            counter=counter,
            source=self.pid,
            target=target_account,
            amount=amount,
        )
        try:
            if not self.book.can_apply(op):
                return OneAssetOutcome(
                    applied=False, op=op, started_at=started_at, completed_at=self.loop.now
                )
            self.book.apply(op)
            waiter = SimFuture(name=f"{self.pid}.at[{counter}]")
            self._ack_waiters[counter] = waiter
            needed = len(self.servers) - self.f - 1
            if len(self._ack_received[counter]) >= needed:
                waiter.set_result(None)
            self.rb.broadcast({"op": op})
            if needed > 0:
                await waiter
            return OneAssetOutcome(
                applied=True, op=op, started_at=started_at, completed_at=self.loop.now
            )
        finally:
            self._in_progress = False

    # -- dissemination ---------------------------------------------------------------
    def _on_rb_deliver(self, origin: ProcessId, payload: Dict) -> None:
        op: TransferOp = payload["op"]
        key = (op.issuer, op.counter)
        if op.issuer != self.pid:
            # Owners validated locally; replicas apply unconditionally (the
            # owner is the only process able to overdraw its own account, and
            # it never broadcasts an invalid op).
            self.book.apply(op)
            if key not in self._ack_sent:
                self._ack_sent.add(key)
                self.send(op.issuer, AT_ACK, {"counter": op.counter})

    def _on_ack(self, message: Message) -> None:
        counter = message.payload["counter"]
        self._ack_received[counter].add(message.sender)
        waiter = self._ack_waiters.get(counter)
        if waiter is not None and not waiter.done():
            if len(self._ack_received[counter]) >= len(self.servers) - self.f - 1:
                waiter.set_result(None)
