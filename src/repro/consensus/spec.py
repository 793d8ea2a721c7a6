"""Consensus: definitions and execution-level checkers.

The paper (Section II) uses the standard single-value consensus definition:

* **Agreement** — all correct processes decide the same value.
* **Validity** — if all correct processes propose the same value ``v`` they
  decide ``v`` (our implementations satisfy the stronger "the decided value
  was proposed by some process").
* **Termination** — all correct processes eventually decide.

This module holds the small data structure and the checkers the reduction
scenarios (:mod:`repro.experiments.catalogue.reductions`) report through: one
:class:`ConsensusResult` per decider of Algorithms 1–2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.types import ProcessId, VirtualTime

__all__ = [
    "ConsensusResult",
    "check_agreement",
    "check_validity",
    "check_termination",
]


@dataclass(frozen=True)
class ConsensusResult:
    """The decision reached by one process in one consensus instance."""

    process: ProcessId
    proposed: Any
    decided: Any
    decided_at: VirtualTime


def check_agreement(results: Iterable[ConsensusResult]) -> bool:
    """All decided values are identical."""
    decided = [result.decided for result in results]
    return all(value == decided[0] for value in decided) if decided else True


def check_validity(results: Iterable[ConsensusResult]) -> bool:
    """Every decided value was proposed by some participant."""
    results = list(results)
    proposals = {repr(result.proposed) for result in results}
    return all(repr(result.decided) in proposals for result in results)


def check_termination(
    results: Sequence[ConsensusResult], correct: Iterable[ProcessId]
) -> bool:
    """Every correct participant produced a decision."""
    deciders = {result.process for result in results}
    return all(process in deciders for process in correct)
