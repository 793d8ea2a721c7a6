"""E7 — Epochless RPWR vs. the epoch-based protocol of related work [11].

Thin wrapper over the registered ``epoch-vs-epochless`` scenario
(:mod:`repro.experiments.catalogue`).  Shapes to reproduce (Section VIII):
the epochless protocol completes in a few message delays regardless of any
epoch knob, while the epoch-based protocol's latency scales with the epoch
length and it can leak weight when issuers crash mid-protocol.
"""

from __future__ import annotations

from repro.experiments import get_scenario

from benchmarks.conftest import print_table

N = 7
EPOCH_LENGTHS = [5.0, 20.0, 80.0]


def run_comparison():
    return get_scenario("epoch-vs-epochless").execute(
        {"n": N, "f": 2, "epoch_lengths": EPOCH_LENGTHS, "crash_epoch_length": 20.0}
    )["rows"]


def test_epoch_vs_epochless():
    rows = run_comparison()

    print_table(
        "E7: reassignment completion latency and weight preservation (n=7, f=2)",
        ["protocol", "epoch len", "mean completion latency", "total weight after", "leaked"],
        [
            (
                row["protocol"],
                row["epoch"],
                f"{row['mean_latency']:.2f}",
                f"{row['total_weight']:.2f}",
                f"{row['leaked']:.2f}",
            )
            for row in rows
        ],
    )
    print("paper claim (Sec. VIII): the epochless protocol is insensitive to any epoch "
          "knob and never loses voting power; the epoch-based protocol's latency tracks "
          "the epoch length and its total weight can shrink below W_S,0")

    epochless = rows[0]
    epoch_rows = rows[1:4]
    crash_row = rows[4]
    # Epochless latency is a few message delays and beats every epoch setting.
    assert epochless["mean_latency"] <= min(row["mean_latency"] for row in epoch_rows)
    # Epoch-based latency grows with the epoch length (monotone in the sweep).
    latencies = [row["mean_latency"] for row in epoch_rows]
    assert latencies == sorted(latencies)
    # Weight preservation: the paper's protocol keeps the total constant ...
    assert abs(epochless["total_weight"] - N) < 1e-9
    # ... while a crashed issuer leaks weight in the epoch-based baseline.
    assert crash_row["total_weight"] < N - 1e-9
    assert crash_row["leaked"] > 0
