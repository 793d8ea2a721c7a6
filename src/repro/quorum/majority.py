"""The regular majority quorum system (MQS).

Every quorum is a strict majority of the servers.  MQS is the baseline the
paper's introduction contrasts WMQS against: simple and optimally
fault-tolerant (``f < n/2``) but oblivious to server heterogeneity.
"""

from __future__ import annotations

from typing import Iterable

from repro.quorum.base import QuorumSystem
from repro.types import ProcessId

__all__ = ["MajorityQuorumSystem"]


class MajorityQuorumSystem(QuorumSystem):
    """Quorums are the subsets containing a strict majority of servers."""

    def is_quorum(self, subset: Iterable[ProcessId]) -> bool:
        members = self._validate_subset(subset)
        return len(members) > len(self.servers) / 2

    def quorum_size(self) -> int:
        """The (uniform) size of a minimal majority quorum: ``floor(n/2) + 1``."""
        return len(self.servers) // 2 + 1
