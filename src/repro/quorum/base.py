"""Abstract quorum-system interface.

A quorum system over a server set ``S`` is a collection of subsets of ``S``
(quorums) such that every two quorums intersect.  Protocols only ever need
the membership test :meth:`QuorumSystem.is_quorum`, so that is the abstract
core; enumeration helpers are provided for analysis and testing and may be
expensive for large ``n``.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.errors import ConfigurationError
from repro.types import ProcessId

__all__ = ["QuorumSystem"]


class QuorumSystem:
    """Base class for quorum systems over a fixed server universe."""

    def __init__(self, servers: Sequence[ProcessId]) -> None:
        if not servers:
            raise ConfigurationError("a quorum system needs at least one server")
        if len(set(servers)) != len(servers):
            raise ConfigurationError("duplicate server ids in quorum system")
        self.servers: Tuple[ProcessId, ...] = tuple(servers)
        # Built once: every quorum test (one per reply) checks against it.
        self._universe: FrozenSet[ProcessId] = frozenset(self.servers)

    # -- the essential operation --------------------------------------------
    def is_quorum(self, subset: Iterable[ProcessId]) -> bool:
        """Return True if ``subset`` contains a quorum."""
        raise NotImplementedError

    # -- generic helpers ------------------------------------------------------
    def _validate_subset(self, subset: Iterable[ProcessId]) -> Set[ProcessId]:
        members = set(subset)
        unknown = members - self._universe
        if unknown:
            raise ConfigurationError(f"unknown servers in subset: {sorted(unknown)}")
        return members

    def minimal_quorums(self) -> List[FrozenSet[ProcessId]]:
        """Enumerate the inclusion-minimal quorums (exponential in ``n``)."""
        minimal: List[FrozenSet[ProcessId]] = []
        for size in range(1, len(self.servers) + 1):
            for combo in itertools.combinations(self.servers, size):
                candidate = frozenset(combo)
                if not self.is_quorum(candidate):
                    continue
                if any(existing <= candidate for existing in minimal):
                    continue
                minimal.append(candidate)
        return minimal

    def smallest_quorum_size(self) -> int:
        """Cardinality of the smallest quorum."""
        for size in range(1, len(self.servers) + 1):
            for combo in itertools.combinations(self.servers, size):
                if self.is_quorum(frozenset(combo)):
                    return size
        raise ConfigurationError("quorum system has no quorums")

    def check_intersection(self) -> bool:
        """Verify the defining property: every two minimal quorums intersect."""
        minimal = self.minimal_quorums()
        for first, second in itertools.combinations(minimal, 2):
            if not (first & second):
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} n={len(self.servers)}>"
