"""E6 — Case study (Section VII): dynamic-weighted storage vs. static baselines.

Thin wrapper over the registered ``dynamic-storage-adaptation`` scenario
(:mod:`repro.experiments.catalogue`): a read/write workload runs against
three deployments of the same 5-server cluster while the two initially-fast
servers degrade by 8x halfway through.

Shape to reproduce: before the degradation the two weighted variants are
comparable and beat MQS; after it, only the dynamic variant recovers, because
it is the only one that can re-point quorums without reconfiguration.
"""

from __future__ import annotations

from repro.experiments import get_scenario

from benchmarks.conftest import print_table


def run_comparison():
    return get_scenario("dynamic-storage-adaptation").execute(
        {"slow_at": 150.0, "slow_factor": 8.0, "operations": 60, "seed": 11}
    )["rows"]


def test_dynamic_storage_adapts():
    rows = run_comparison()

    print_table(
        "E6: client op latency before/after the fast servers degrade (median)",
        ["storage", "before degradation", "after degradation", "after p95"],
        [
            (row["flavour"], f"{row['before']:.1f}", f"{row['after']:.1f}", f"{row['after_p95']:.1f}")
            for row in rows
        ],
    )
    print("paper claim (Sec. I/VII): static weights help only while the weight "
          "distribution matches reality; the dynamic-weighted storage re-points "
          "quorums at run time and recovers after the change")

    majority, static_weighted, dynamic = rows
    # Before the slowdown, weighted quorums (static or dynamic) beat plain majority.
    assert static_weighted["before"] <= majority["before"] + 1e-6
    assert dynamic["before"] <= majority["before"] + 1e-6
    # After the slowdown the dynamic variant recovers: it beats the static
    # weighted deployment, whose weights still sit on the degraded servers.
    assert dynamic["after"] < static_weighted["after"]
