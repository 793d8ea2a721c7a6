"""k-owner asset transfer (consensus number k, per Guerraoui et al. [12]).

When an account has ``k > 1`` owners, two owners can concurrently issue
withdrawals that are individually valid but jointly overdraw the account, so
the owners must agree on an order — the problem's consensus number is ``k``.
This implementation therefore routes every transfer through the total-order
broadcast of :mod:`repro.consensus.sequencer`; replicas apply the ordered
stream against the same deterministic :class:`~repro.assettransfer.accounts.AccountBook`
validity rule, so they all accept and reject exactly the same operations.

The contrast with :mod:`repro.assettransfer.one_asset` (no ordering, no
sequencer) is what the ``asset-transfer`` scenario (E9) reports.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.assettransfer.accounts import AccountBook, TransferOp
from repro.consensus.sequencer import TotalOrderClient
from repro.errors import ConfigurationError
from repro.net.network import Network
from repro.net.process import Process
from repro.types import ProcessId, VirtualTime

__all__ = ["KAssetOutcome", "KAssetReplica"]


@dataclass(frozen=True)
class KAssetOutcome:
    """Result of one ordered transfer: applied or rejected by the shared rule."""

    applied: bool
    op: TransferOp
    started_at: VirtualTime
    completed_at: VirtualTime

    @property
    def latency(self) -> VirtualTime:
        return self.completed_at - self.started_at


class KAssetReplica(Process):
    """A replica of the k-owner asset-transfer state machine."""

    _drop_on_close = ("_order",)

    def __init__(
        self,
        pid: ProcessId,
        network: Network,
        sequencer: ProcessId,
        initial_balances: Mapping[str, float],
        owners: Mapping[str, Iterable[ProcessId]],
    ) -> None:
        super().__init__(pid, network)
        self.book = AccountBook(balances=initial_balances, owners=owners)
        self._counter = itertools.count(1)
        self._order = TotalOrderClient(self, sequencer, self._apply)

    def _apply(self, submitter: ProcessId, command: TransferOp) -> bool:
        return self.book.apply(command)

    async def transfer(self, source: str, target: str, amount: float) -> KAssetOutcome:
        """Issue a transfer from ``source`` (which this replica must co-own)."""
        self._ensure_alive()
        if source not in self.book.balances():
            raise ConfigurationError(f"unknown account {source!r}")
        if self.pid not in self.book.owners(source):
            raise ConfigurationError(f"{self.pid} does not own account {source!r}")
        started_at = self.loop.now
        op = TransferOp(
            issuer=self.pid,
            counter=next(self._counter),
            source=source,
            target=target,
            amount=amount,
        )
        applied = await self._order.submit(op)
        return KAssetOutcome(
            applied=bool(applied), op=op, started_at=started_at, completed_at=self.loop.now
        )

    def balance_of(self, account: str) -> float:
        return self.book.balance(account)
