"""E3 — Algorithm 1 / Theorem 1: consensus from (unrestricted) weight reassignment.

Sweeps (n, f) and, for each setting, runs all n servers' ``propose`` calls
concurrently against the oracle weight-reassignment service with distinct
proposals.  Reports the consensus properties and the number of effective
reassignments (which must be exactly one — the crux of the reduction).
"""

from __future__ import annotations

from repro.core.reductions import (
    OracleWeightReassignment,
    algorithm1_propose,
    algorithm_config,
)
from repro.net.registers import SWMRRegisterArray
from repro.net.simloop import SimLoop, gather

from benchmarks.conftest import print_table

SWEEP = [(4, 1), (7, 2), (10, 3), (13, 4)]


def run_sweep():
    rows = []
    for n, f in SWEEP:
        loop = SimLoop()
        config = algorithm_config(n, f)
        registers = SWMRRegisterArray(config.servers)
        oracle = OracleWeightReassignment(loop, config)
        decisions = loop.run_until_complete(
            gather(
                loop,
                [
                    algorithm1_propose(loop, config, registers, oracle, i, f"value-{i}")
                    for i in range(1, n + 1)
                ],
            )
        )
        effective = sum(
            1
            for record in oracle.trace
            if any(change.delta != 0 for change in record.created)
        )
        rows.append(
            {
                "n": n,
                "f": f,
                "deciders": len(decisions),
                "distinct_decisions": len(set(decisions)),
                "effective_reassignments": effective,
                "decided": decisions[0],
                "virtual_time": loop.now,
            }
        )
    return rows


def test_algorithm1_reduction():
    rows = run_sweep()

    print_table(
        "E3 / Algorithm 1: consensus from weight reassignment",
        ["n", "f", "deciders", "distinct decisions", "effective reassigns", "virtual time"],
        [
            (
                row["n"],
                row["f"],
                row["deciders"],
                row["distinct_decisions"],
                row["effective_reassignments"],
                f"{row['virtual_time']:.1f}",
            )
            for row in rows
        ],
    )
    print("paper: exactly one reassignment completes effectively and every correct "
          "server decides that server's proposal (Agreement, Validity, Termination)")

    for row in rows:
        assert row["deciders"] == row["n"]            # Termination
        assert row["distinct_decisions"] == 1         # Agreement
        assert row["effective_reassignments"] == 1    # the reduction's pivot
        assert row["decided"].startswith("value-")    # Validity
