"""Account bookkeeping shared by the asset-transfer implementations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping

from repro.errors import ConfigurationError
from repro.types import ProcessId

__all__ = ["TransferOp", "AccountBook"]


@dataclass(frozen=True)
class TransferOp:
    """A transfer of ``amount`` from ``source`` to ``target`` issued by ``issuer``."""

    issuer: ProcessId
    counter: int
    source: str
    target: str
    amount: float


class AccountBook:
    """Balances of a set of accounts, with owner metadata.

    The book itself is a plain deterministic state machine: both the
    consensus-free and the sequencer-based protocols apply :class:`TransferOp`
    operations to it, so the validity rule ("a transfer applies only if the
    source balance stays non-negative and the issuer owns the source account")
    lives in exactly one place.
    """

    def __init__(
        self,
        balances: Mapping[str, float],
        owners: Mapping[str, Iterable[ProcessId]],
    ) -> None:
        for account, balance in balances.items():
            if balance < 0:
                raise ConfigurationError(f"account {account!r} starts negative")
        if set(balances) != set(owners):
            raise ConfigurationError("owners must be declared for every account")
        self._balances: Dict[str, float] = dict(balances)
        self._owners: Dict[str, FrozenSet[ProcessId]] = {
            account: frozenset(owner_set) for account, owner_set in owners.items()
        }
        self.applied: List[TransferOp] = []
        self.rejected: List[TransferOp] = []

    # -- queries -----------------------------------------------------------------
    def balance(self, account: str) -> float:
        return self._balances[account]

    def balances(self) -> Dict[str, float]:
        return dict(self._balances)

    def owners(self, account: str) -> FrozenSet[ProcessId]:
        return self._owners[account]

    def total(self) -> float:
        return sum(self._balances.values())

    # -- the validity rule + state transition -------------------------------------
    def can_apply(self, op: TransferOp) -> bool:
        """[12]'s validity: issuer owns the source and the balance stays >= 0."""
        if op.source not in self._balances or op.target not in self._balances:
            return False
        if op.issuer not in self._owners[op.source]:
            return False
        if op.amount <= 0:
            return False
        return self._balances[op.source] - op.amount >= 0

    def apply(self, op: TransferOp) -> bool:
        """Apply ``op`` if valid; record the outcome; return whether it applied."""
        if not self.can_apply(op):
            self.rejected.append(op)
            return False
        self._balances[op.source] -= op.amount
        self._balances[op.target] += op.amount
        self.applied.append(op)
        return True
