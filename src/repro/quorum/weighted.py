"""The weighted majority quorum system (WMQS) of Definition 1.

Each server carries a weight; a subset is a quorum when its total weight
exceeds half of the total weight of all servers.  One instance holds one
weight map: the static-weighted baseline and the quorum scenarios build one
per map, while the dynamic-weighted storage of Section VII tests quorums
against the weights of the change set it knows.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from repro.errors import ConfigurationError
from repro.quorum.base import QuorumSystem
from repro.types import ProcessId, Weight, exact

__all__ = ["WeightedMajorityQuorumSystem", "smallest_quorum_size"]


class WeightedMajorityQuorumSystem(QuorumSystem):
    """Quorums are subsets whose total weight exceeds half the total weight
    (weights made exact on the way in)."""

    def __init__(self, weights: Mapping[ProcessId, Weight]) -> None:
        if not weights:
            raise ConfigurationError("WMQS needs at least one weighted server")
        for server, weight in weights.items():
            if weight < 0:
                raise ConfigurationError(
                    f"server {server!r} has negative weight {weight}"
                )
        super().__init__(tuple(weights))
        self.weights = {server: exact(weight) for server, weight in weights.items()}

    # -- construction helpers ---------------------------------------------------
    @classmethod
    def uniform(cls, servers: Sequence[ProcessId], weight: Weight = 1.0):
        """A WMQS where every server holds the same weight (equivalent to MQS)."""
        return cls({server: weight for server in servers})

    # -- weights ----------------------------------------------------------------
    def total_weight(self) -> Weight:
        return sum(self.weights.values())

    def weight_of(self, subset: Iterable[ProcessId]) -> Weight:
        members = self._validate_subset(subset)
        return sum(self.weights[server] for server in members)

    # -- quorum test -------------------------------------------------------------
    def is_quorum(self, subset: Iterable[ProcessId]) -> bool:
        return 2 * self.weight_of(subset) > self.total_weight()


def smallest_quorum_size(
    weights: Mapping[ProcessId, Weight], avoid: Iterable[ProcessId] = ()
) -> Optional[int]:
    """Cardinality of the smallest weighted quorum with no member in ``avoid``.

    Greedy by descending weight (ties by id): keep adding the heaviest
    remaining server until the subset's weight exceeds half the total — for
    weighted majority systems that yields a quorum of minimum cardinality.
    ``None`` when the servers outside ``avoid`` hold no majority (the
    avoided ones hold a blocking share, or the total weight is zero).
    """
    weights = {server: exact(weight) for server, weight in weights.items()}
    usable = set(weights) - set(avoid)
    ranked = sorted(usable, key=lambda server: (-weights[server], server))
    total = sum(weights.values())
    accumulated = 0
    for count, server in enumerate(ranked, start=1):
        accumulated += weights[server]
        if 2 * accumulated > total:
            return count
    return None
