"""Seeded read/write workload generation.

:class:`Operation` supports two timing models: closed-loop (``issue_after``,
a think time relative to the previous operation's completion) and open-loop
(``issue_at``, an absolute virtual time that does not bend when the system
slows down).  ``key`` names the logical datum an operation touches; the
single-register stores treat it as workload metadata (popularity skew shapes
*when* operations contend, not *where* they land), while keyed backends can
route on it directly.  The generators (zipfian keys, Poisson arrivals,
phases, traces) live in :mod:`repro.workloads`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.types import ProcessId, VirtualTime

__all__ = ["Operation", "Workload"]


@dataclass(frozen=True, slots=True)
class Operation:
    """One client operation: a read, or a write of ``value``.

    Exactly one timing field is meaningful: with ``issue_at`` set the
    operation is open-loop (issue at that absolute virtual time, or
    immediately if the client is already past it); otherwise ``issue_after``
    is a closed-loop think time relative to the previous operation.

    ``batch_id`` / ``batch_index`` tag batch membership: a *logical* operation
    touching ``keys_per_op > 1`` keys expands into that many physical
    operations sharing one ``batch_id`` (unique per client), numbered by
    ``batch_index``.  Only the ``batch_index == 0`` operation carries the
    arrival timing; the remainder issue immediately after it.  Untagged
    operations (``batch_id is None``) are their own logical operation —
    statistics code must not treat their zero think time as an arrival
    measurement when they belong to a batch, which is exactly what
    :func:`repro.workloads.stats.workload_stats` uses these fields for.
    """

    client: ProcessId
    kind: str  # "read" | "write"
    value: Optional[str]
    issue_after: VirtualTime = 0.0  # think time relative to the previous op
    key: Optional[str] = None  # logical datum touched (workload metadata)
    issue_at: Optional[VirtualTime] = None  # absolute issue time (open-loop)
    batch_id: Optional[int] = None  # logical-operation id (per client)
    batch_index: int = 0  # position within the logical operation's batch


@dataclass
class Workload:
    """A per-client sequence of operations (clients run their sequences concurrently).

    Per-client access goes through a single-pass index built lazily on first
    use and refreshed when the operation count changes, so ``for_client`` /
    ``clients`` stay O(total operations) overall instead of re-scanning the
    whole list once per client.
    """

    operations: List[Operation] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._index: Optional[Dict[ProcessId, List[Operation]]] = None
        self._indexed_count = -1

    def _by_client(self) -> Dict[ProcessId, List[Operation]]:
        if self._index is None or self._indexed_count != len(self.operations):
            index: Dict[ProcessId, List[Operation]] = {}
            for op in self.operations:
                index.setdefault(op.client, []).append(op)
            self._index = index
            self._indexed_count = len(self.operations)
        return self._index

    def for_client(self, client: ProcessId) -> List[Operation]:
        return list(self._by_client().get(client, ()))

    def clients(self) -> Sequence[ProcessId]:
        # dict preserves insertion order, so clients come out in first-seen order.
        return tuple(self._by_client())

    def counts(self) -> dict:
        reads = sum(1 for op in self.operations if op.kind == "read")
        return {"reads": reads, "writes": len(self.operations) - reads,
                "total": len(self.operations)}
