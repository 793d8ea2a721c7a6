"""E5 — Motivation claim: WMQS beats MQS on heterogeneous wide-area latencies.

Thin wrapper over the registered ``wmqs-vs-mqs`` scenario
(:mod:`repro.experiments.catalogue`).  The shape to reproduce: WMQS never
loses, and wins whenever the latency distribution is skewed; with
homogeneous latencies the two coincide.
"""

from __future__ import annotations

from repro.experiments import get_scenario

from benchmarks.conftest import print_table


def run_comparison():
    return get_scenario("wmqs-vs-mqs").execute()["rows"]


def test_wmqs_vs_mqs():
    rows = run_comparison()

    print_table(
        "E5: expected quorum latency, MQS vs WMQS (inverse-latency weights)",
        ["scenario", "n", "f", "MQS lat", "WMQS lat", "speedup", "MQS |Q|", "WMQS |Q|"],
        [
            (
                row["scenario"],
                row["n"],
                row["f"],
                f"{row['mqs_latency']:.1f}",
                f"{row['wmqs_latency']:.1f}",
                f"{row['speedup']:.2f}x",
                row["mqs_quorum"],
                row["wmqs_quorum"],
            )
            for row in rows
        ],
    )
    print("paper claim (Sec. I / WHEAT): weighted quorums allow proportionally smaller, "
          "faster quorums on heterogeneous deployments; no benefit on homogeneous ones")

    for row in rows:
        # WMQS never does worse than MQS.
        assert row["wmqs_latency"] <= row["mqs_latency"] + 1e-9
        assert row["wmqs_quorum"] <= row["mqs_quorum"]
    # Homogeneous case: no advantage (crossover point).
    assert rows[0]["speedup"] == 1.0
    # Every skewed case: strict advantage.
    assert all(row["speedup"] > 1.0 for row in rows[1:])
