"""Catalogue family: the paper's hardness results (E2, E3, E4).

Weight reassignment is *as hard as consensus*: Example 1 fixes what the
unrestricted problem must do, and Algorithms 1–2 solve consensus from any
solution of it (Theorems 1–2).  The three scenarios run against the
linearizable oracle services of :mod:`repro.core.reductions` — the
"consensus or similar primitive" the theorems say cannot be avoided — and
report Agreement, Validity and Termination through the checkers of
:mod:`repro.consensus.spec`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from repro.consensus.spec import (
    ConsensusResult,
    check_agreement,
    check_termination,
    check_validity,
)
from repro.core.reductions import (
    OraclePairwiseReassignment,
    OracleWeightReassignment,
    algorithm1_propose,
    algorithm2_propose,
    algorithm_config,
)
from repro.core.spec import SystemConfig, check_integrity
from repro.experiments.registry import scenario
from repro.net.registers import SWMRRegisterArray
from repro.net.simloop import SimLoop, gather
from repro.types import server_name

__all__ = ["example1_semantics", "reduction_alg1", "reduction_alg2"]


# ---------------------------------------------------------------------------
# E2 — Example 1 (Section III): unrestricted weight-reassignment semantics.
# ---------------------------------------------------------------------------

#: (issuer, server, delta, effective delta the paper states, W(server) the
#: following read_changes must report) — the example's two reassignments.
EXAMPLE1_REASSIGNMENTS = (
    ("s1", "s1", 1.5, 1.5, 2.5),
    ("s3", "s2", -0.5, 0.0, 1.0),
)


@scenario(
    "example1-semantics",
    description="Example 1 (Section III, E2): an effective +1.5 reassignment, "
    "the read that must contain it, and the -0.5 reassignment Integrity "
    "aborts to a zero-weight change (n=4, f=1).",
    tags=("paper", "reduction"),
)
def example1_semantics() -> Dict[str, Any]:
    """Replay Example 1 against the oracle weight-reassignment service."""
    config = SystemConfig.uniform(4, f=1)
    loop = SimLoop()
    oracle = OracleWeightReassignment(loop, config)

    async def run() -> List[Dict[str, Any]]:
        steps = []
        for issuer, server, delta, expected_delta, expected_weight in EXAMPLE1_REASSIGNMENTS:
            created = await oracle.reassign(issuer, server, delta)
            steps.append({
                "operation": f"reassign({server}, {delta:+}) by {issuer}",
                "paper": expected_delta,
                "measured": float(created.delta),
            })
            read = await oracle.read_changes(server)
            steps.append({
                "operation": f"read_changes({server}) -> W({server})",
                "paper": expected_weight,
                "measured": float(read.weight_of(server)),
                "changes": [
                    [change.author, change.counter, change.server, float(change.delta)]
                    for change in read.sorted()
                ],
            })
        return steps

    return {
        "n": config.n,
        "f": config.f,
        "steps": loop.run_until_complete(run()),
        "integrity": all(
            check_integrity(record.weights_after, config.f) for record in oracle.trace
        ),
    }


# ---------------------------------------------------------------------------
# E3 / E4 — Algorithms 1 and 2: consensus from weight reassignment.
# ---------------------------------------------------------------------------

ALG1_SWEEP = ((4, 1), (7, 2), (10, 3), (13, 4))
ALG2_SWEEP = ((7, 2), (10, 3), (13, 4))


def _effective(record: Any) -> bool:
    return any(change.delta != 0 for change in record.created)


def _run_reduction(
    oracle_type: Callable[..., Any], propose: Callable[..., Any], n: int, f: int
) -> Tuple[Dict[str, Any], SystemConfig, Any]:
    """Every server proposes a distinct value concurrently; one row, plus the
    config and oracle the caller reads its algorithm-specific columns from."""
    loop = SimLoop()
    config = algorithm_config(n, f)
    registers = SWMRRegisterArray(config.servers)
    oracle = oracle_type(loop, config)

    async def decide(index: int) -> ConsensusResult:
        proposal = f"value-{index}"
        decided = await propose(loop, config, registers, oracle, index, proposal)
        return ConsensusResult(server_name(index), proposal, decided, loop.now)

    results = loop.run_until_complete(
        gather(loop, [decide(index) for index in range(1, n + 1)])
    )
    row = {
        "n": n,
        "f": f,
        "deciders": len(results),
        "distinct_decisions": len({result.decided for result in results}),
        "decided": results[0].decided,
        "agreement": check_agreement(results),
        "validity": check_validity(results),
        "termination": check_termination(results, config.servers),
        "virtual_time": loop.now,
    }
    return row, config, oracle


@scenario(
    "reduction-alg1",
    description="Algorithm 1 / Theorem 1 (E3): consensus from unrestricted "
    "weight reassignment — exactly one reassignment completes effectively and "
    "every server decides its author's proposal.",
    tags=("paper", "reduction"),
)
def reduction_alg1() -> Dict[str, Any]:
    """Run Algorithm 1 with n concurrent proposers over the (n, f) sweep."""
    rows = []
    for n, f in ALG1_SWEEP:
        row, _, oracle = _run_reduction(OracleWeightReassignment, algorithm1_propose, n, f)
        row["effective_reassignments"] = sum(map(_effective, oracle.trace))
        rows.append(row)
    return {"rows": rows}


@scenario(
    "reduction-alg2",
    description="Algorithm 2 / Theorem 2 (E4): consensus from pairwise weight "
    "reassignment — exactly one 0.4-transfer by a member of S\\F completes "
    "effectively, everyone decides that member's proposal, and the total "
    "weight never changes.",
    tags=("paper", "reduction"),
)
def reduction_alg2() -> Dict[str, Any]:
    """Run Algorithm 2 with n concurrent proposers over the (n, f) sweep."""
    rows = []
    for n, f in ALG2_SWEEP:
        row, config, oracle = _run_reduction(
            OraclePairwiseReassignment, algorithm2_propose, n, f
        )
        # Only the 0.4-transfers of S \ F count: the intra-F 0.1 shuffles may
        # also target s1 and are always effective.
        row["effective_transfers"] = sum(
            1 for record in oracle.trace
            if record.requested[2] == 0.4 and _effective(record)
        )
        row["decided_outside_f"] = int(row["decided"].split("-")[1]) > f
        row["total_drift"] = float(max(
            abs(sum(record.weights_after.values()) - config.total_initial_weight)
            for record in oracle.trace
        ))
        rows.append(row)
    return {"rows": rows}
