"""Abstract quorum-system interface.

A quorum system over a server set ``S`` is a collection of subsets of ``S``
(quorums) such that every two quorums intersect.  Protocols only ever need
the membership test :meth:`QuorumSystem.is_quorum`, so that is the whole
interface; ``tests/test_quorum_systems.py`` enumerates quorums through it to
check that any two intersect.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Sequence, Set, Tuple

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} n={len(self.servers)}>"
