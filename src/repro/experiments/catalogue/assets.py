"""Catalogue family: Section VIII's asset-transfer comparator (E9)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.assettransfer import KAssetReplica, OneAssetServer
from repro.consensus.sequencer import Sequencer
from repro.core.reductions import OraclePairwiseReassignment, algorithm_config
from repro.errors import ConfigurationError
from repro.experiments.registry import scenario
from repro.experiments.sections import SpecSection
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.net.simloop import SimLoop, gather

__all__ = ["AssetTransferSpec", "asset_transfer"]


@dataclass(frozen=True)
class AssetTransferSpec(SpecSection):
    """The Section VIII comparator as a custom Spec v2 section.

    Asset transfer does not fit the cluster-plus-workload mold, so instead of
    forcing it into :class:`ScenarioSpec` this section demonstrates the other
    way the uniform protocol composes: any frozen dataclass inheriting
    :class:`~repro.experiments.sections.SpecSection` gets serialization,
    dotted-path flattening and validation for free and only supplies its own
    ``build``.  Three sub-experiments share the section's parameters:

    * a ring of 1-owner transfers (consensus-free, reliable broadcast only);
    * two conflicting k-owner overdraws (sequencer-ordered, resolved
      identically everywhere);
    * two pairwise weight reassignments that both keep every "balance"
      non-negative, of which the second is still rejected — the
      P-Integrity *distribution* constraint asset transfer lacks.
    """

    n: int = 5
    initial_balance: float = 10.0
    ring_amount: float = 3.0
    shared_balance: float = 10.0
    overdraw: float = 7.0
    reassign_n: int = 7
    reassign_f: int = 2
    reassign_delta: float = 0.4

    def _validate(self) -> None:
        if self.n < 3:
            raise ConfigurationError(
                "asset-transfer rings three transfers around s1..s3 and "
                f"needs n >= 3, got {self.n}"
            )
        if self.initial_balance < 0 or self.shared_balance < 0:
            raise ConfigurationError("asset-transfer balances must be non-negative")
        for label, amount in (("ring_amount", self.ring_amount),
                              ("overdraw", self.overdraw),
                              ("reassign_delta", self.reassign_delta)):
            if amount <= 0:
                raise ConfigurationError(f"{label} must be positive, got {amount}")

    def _run_one_asset(self) -> Dict[str, Any]:
        loop = SimLoop()
        network = Network(loop, ConstantLatency(1.0))
        ids = [f"s{i}" for i in range(1, self.n + 1)]
        servers = {
            pid: OneAssetServer(
                pid, network, ids, 1, {p: self.initial_balance for p in ids}
            )
            for pid in ids
        }

        async def run() -> List[Any]:
            return await gather(loop, [
                servers["s1"].transfer("s2", self.ring_amount),
                servers["s2"].transfer("s3", self.ring_amount),
                servers["s3"].transfer("s1", self.ring_amount),
            ])

        outcomes = loop.run_until_complete(run())
        loop.run()
        total = self.initial_balance * self.n
        totals = {pid: server.book.total() for pid, server in servers.items()}
        return {
            "applied": sum(1 for outcome in outcomes if outcome.applied),
            "mean_latency": sum(o.latency for o in outcomes) / len(outcomes),
            "total_conserved": all(abs(t - total) < 1e-9 for t in totals.values()),
            "messages": network.messages_sent,
        }

    def _run_k_asset(self) -> Dict[str, Any]:
        loop = SimLoop()
        network = Network(loop, ConstantLatency(1.0))
        ids = [f"s{i}" for i in range(1, 5)]
        Sequencer("seq", network, ids)
        balances = {"shared": self.shared_balance, "sink": 0.0}
        owners = {"shared": ids[:2], "sink": ids}
        replicas = {
            pid: KAssetReplica(pid, network, "seq", balances, owners) for pid in ids
        }

        async def run() -> List[Any]:
            # Two owners race to overdraw the shared account; the sequencer
            # orders them, so exactly one applies when 2*overdraw exceeds it.
            return await gather(loop, [
                replicas["s1"].transfer("shared", "sink", self.overdraw),
                replicas["s2"].transfer("shared", "sink", self.overdraw),
            ])

        outcomes = loop.run_until_complete(run())
        loop.run()
        final = {pid: replica.balance_of("shared") for pid, replica in replicas.items()}
        return {
            "applied": sum(1 for outcome in outcomes if outcome.applied),
            "consistent": len(set(final.values())) == 1,
            "mean_latency": sum(o.latency for o in outcomes) / len(outcomes),
            "final_shared_balance": final["s1"],
        }

    def _run_pairwise(self) -> Dict[str, Any]:
        loop = SimLoop()
        config = algorithm_config(self.reassign_n, self.reassign_f)
        oracle = OraclePairwiseReassignment(loop, config)

        async def run() -> Tuple[Any, Any]:
            # Both transfers keep every "balance" non-negative, yet the second
            # is rejected: it would give the f heaviest servers half the
            # voting power.
            first = await oracle.transfer("s3", "s3", "s1", self.reassign_delta)
            second = await oracle.transfer("s4", "s4", "s1", self.reassign_delta)
            return first, second

        first, second = loop.run_until_complete(run())
        return {
            "first_effective": first[0].delta != 0,
            "second_effective": second[0].delta != 0,
            "balances_non_negative": all(
                weight >= 0 for weight in oracle.current_weights().values()
            ),
        }

    def build(self) -> Dict[str, Any]:
        """Run all three sub-experiments and return their result blocks."""
        return {
            "one_asset": self._run_one_asset(),
            "k_asset": self._run_k_asset(),
            "pairwise": self._run_pairwise(),
        }


@scenario(
    "asset-transfer",
    description="Section VIII (E9): the same transfer workload through "
    "consensus-free 1-owner asset transfer and sequencer-ordered k-owner "
    "accounts, vs pairwise weight reassignment's extra P-Integrity "
    "distribution constraint.",
    tags=("paper", "asset-transfer", "baseline"),
)
def asset_transfer(
    n: int = 5,
    initial_balance: float = 10.0,
    ring_amount: float = 3.0,
    shared_balance: float = 10.0,
    overdraw: float = 7.0,
    reassign_n: int = 7,
    reassign_f: int = 2,
    reassign_delta: float = 0.4,
) -> Dict[str, Any]:
    """Run the Section VIII comparator (built on the AssetTransferSpec section)."""
    return AssetTransferSpec(
        n=n,
        initial_balance=initial_balance,
        ring_amount=ring_amount,
        shared_balance=shared_balance,
        overdraw=overdraw,
        reassign_n=reassign_n,
        reassign_f=reassign_f,
        reassign_delta=reassign_delta,
    ).validate().build()
