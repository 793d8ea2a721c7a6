"""E1 — Fig. 1 / Example 2: the restricted pairwise reassignment walkthrough.

Thin wrapper over the registered ``fig1-walkthrough`` scenario
(:mod:`repro.experiments.catalogue`): executes it through the experiment
subsystem and asserts the paper's shape — the accepted/rejected transfer
split and the minority weighted quorum on {s1, s2, s3}.
"""

from __future__ import annotations

from repro.experiments import get_scenario

from benchmarks.conftest import print_table


def run_fig1_scenario():
    return get_scenario("fig1-walkthrough").execute()


def test_fig1_example2():
    result = run_fig1_scenario()

    print_table(
        "E1 / Fig. 1: transfer outcomes (n=7, f=2, bound=0.70)",
        ["transfer", "delta", "outcome (paper)", "outcome (measured)"],
        [
            (
                f"{row['source']}->{row['target']}",
                row["delta"],
                "effective" if row["expected_effective"] else "rejected",
                "effective" if row["effective"] else "rejected",
            )
            for row in result["transfers"]
        ],
    )
    print_table(
        "E1 / Fig. 1: weights at t1",
        ["server", "weight"],
        [(server, f"{weight:.2f}") for server, weight in sorted(result["weights"].items())],
    )

    # Shape assertions: the paper's accepted/rejected split and the minority quorum.
    assert [row["effective"] for row in result["transfers"]] == [True, True, True, False, False]
    assert all(
        row["effective"] == row["expected_effective"] for row in result["transfers"]
    )
    assert result["minority_is_quorum"]
    assert result["smallest_quorum_size"] == 3
    assert result["rp_integrity"]
    print(f"\n{{s1,s2,s3}} forms a weighted quorum of cardinality 3 (< majority of 4); "
          f"{result['messages']} messages exchanged")
