"""E4 — Algorithm 2 / Theorem 2: consensus from pairwise weight reassignment.

Same sweep as E3, using the pairwise transfer pattern of Algorithm 2
(intra-F 0.1 shuffles, 0.4 transfers towards s1).  Additionally checks the
pairwise-specific invariants: the total weight never changes, and the decided
value always originates outside F.
"""

from __future__ import annotations

from repro.core.reductions import (
    OraclePairwiseReassignment,
    algorithm2_propose,
    algorithm_config,
)
from repro.net.registers import SWMRRegisterArray
from repro.net.simloop import SimLoop, gather

from benchmarks.conftest import print_table

SWEEP = [(7, 2), (10, 3), (13, 4)]


def run_sweep():
    rows = []
    for n, f in SWEEP:
        loop = SimLoop()
        config = algorithm_config(n, f)
        registers = SWMRRegisterArray(config.servers)
        oracle = OraclePairwiseReassignment(loop, config)
        decisions = loop.run_until_complete(
            gather(
                loop,
                [
                    algorithm2_propose(loop, config, registers, oracle, i, f"value-{i}")
                    for i in range(1, n + 1)
                ],
            )
        )
        # Count only the 0.4-transfers issued by members of S \ F (the intra-F
        # 0.1 shuffles may also target s1 and are always effective).
        effective_into_s1 = sum(
            1
            for record in oracle.trace
            if record.requested[2] == 0.4 and any(c.delta != 0 for c in record.created)
        )
        total_drift = max(
            abs(sum(record.weights_after.values()) - config.total_initial_weight)
            for record in oracle.trace
        )
        decided_index = int(decisions[0].split("-")[1])
        rows.append(
            {
                "n": n,
                "f": f,
                "distinct_decisions": len(set(decisions)),
                "effective_into_s1": effective_into_s1,
                "decided_outside_f": decided_index > f,
                "total_drift": total_drift,
            }
        )
    return rows


def test_algorithm2_reduction():
    rows = run_sweep()

    print_table(
        "E4 / Algorithm 2: consensus from pairwise weight reassignment",
        ["n", "f", "distinct decisions", "effective 0.4-transfers", "decided outside F", "total-weight drift"],
        [
            (
                row["n"],
                row["f"],
                row["distinct_decisions"],
                row["effective_into_s1"],
                row["decided_outside_f"],
                f"{row['total_drift']:.1e}",
            )
            for row in rows
        ],
    )
    print("paper: exactly one transfer by a member of S\\F completes effectively; all "
          "servers decide that member's proposal; the total weight never changes")

    for row in rows:
        assert row["distinct_decisions"] == 1
        assert row["effective_into_s1"] == 1
        assert row["decided_outside_f"]
        assert row["total_drift"] < 1e-9
