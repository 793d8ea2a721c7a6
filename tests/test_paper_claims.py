"""The paper's claims, one per experiment of the E1–E11 index.

Each row executes a registered scenario through the registry — the only way
an experiment runs — and asserts the *shape* the paper states: who wins, by
what factor, where the crossover falls.  ``benchmarks/baselines/<name>.json``
gates the bytes of the same results; this module says what they mean.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.experiments.registry import BUILTIN_FAMILIES, get_scenario

BASELINES = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"


def e1_fig1(result):
    """Fig. 1 / Example 2: the accepted/rejected split and the minority quorum."""
    effective = [row["effective"] for row in result["transfers"]]
    assert effective == [True, True, True, False, False]
    assert effective == [row["expected_effective"] for row in result["transfers"]]
    assert result["minority_is_quorum"]
    assert result["smallest_quorum_size"] == 3  # < the majority of 4
    assert result["rp_integrity"]


def e2_example1(result):
    """Example 1: +1.5 is effective and read back; -0.5 aborts to a null change."""
    assert [step["measured"] for step in result["steps"]] == [1.5, 2.5, 0.0, 1.0]
    assert all(step["measured"] == step["paper"] for step in result["steps"])
    assert ["s1", 2, "s1", 1.5] in result["steps"][1]["changes"]
    assert ["s3", 2, "s2", 0.0] in result["steps"][3]["changes"]
    assert result["integrity"]


def _consensus_solved(row):
    assert row["deciders"] == row["n"] and row["termination"]
    assert row["distinct_decisions"] == 1 and row["agreement"]
    assert row["decided"].startswith("value-") and row["validity"]
    assert row["virtual_time"] == 2.0


def e3_algorithm1(result):
    """Theorem 1: exactly one reassignment is effective; its author's value wins."""
    assert [(row["n"], row["f"]) for row in result["rows"]] == [
        (4, 1), (7, 2), (10, 3), (13, 4),
    ]
    for row in result["rows"]:
        _consensus_solved(row)
        assert row["effective_reassignments"] == 1  # the reduction's pivot


def e4_algorithm2(result):
    """Theorem 2: one effective 0.4-transfer, by a member of S\\F; W_S constant."""
    assert [(row["n"], row["f"]) for row in result["rows"]] == [(7, 2), (10, 3), (13, 4)]
    for row in result["rows"]:
        _consensus_solved(row)
        assert row["effective_transfers"] == 1
        assert row["decided_outside_f"]
        assert row["total_drift"] == 0.0


def e5_wmqs_vs_mqs(result):
    """WMQS never loses, ties on homogeneous latencies, wins on skewed ones."""
    rows = result["rows"]
    for row in rows:
        assert row["wmqs_latency"] <= row["mqs_latency"] + 1e-9
        assert row["wmqs_quorum"] <= row["mqs_quorum"]
    assert rows[0]["speedup"] == 1.0  # the crossover point
    assert all(row["speedup"] > 1.0 for row in rows[1:])


def e6_dynamic_storage(result):
    """Weights help while they match reality; only the dynamic store recovers."""
    majority, static_weighted, dynamic = result["rows"]
    assert static_weighted["before"] <= majority["before"] + 1e-6
    assert dynamic["before"] <= majority["before"] + 1e-6
    assert dynamic["after"] < static_weighted["after"]


def e7_epoch_vs_epochless(result):
    """Epochless: no epoch knob, no leak.  Epoch-based: latency tracks the
    epoch length and a crashed issuer shrinks the total weight."""
    epochless, *epoch_rows, crash_row = result["rows"]
    latencies = [row["mean_latency"] for row in epoch_rows]
    assert len(latencies) == 3 and latencies == sorted(latencies)
    assert epochless["mean_latency"] <= min(latencies)
    assert abs(epochless["total_weight"] - 7) < 1e-9
    assert crash_row["total_weight"] < 7 - 1e-9
    assert crash_row["leaked"] > 0


def e8_storage_vs_reconfig(result):
    """A static fault threshold vs a majority of every pending configuration."""
    none, outside_pending, inside_pending = result["rows"]
    assert none["dynamic"] and none["reconfigurable"]
    assert outside_pending["dynamic"] and outside_pending["reconfigurable"]
    assert inside_pending["dynamic"] and not inside_pending["reconfigurable"]


def e9_asset_transfer(result):
    """Asset transfer lacks the distribution constraint P-Integrity adds."""
    one, k, pairwise = result["one_asset"], result["k_asset"], result["pairwise"]
    assert one["applied"] == 3 and one["total_conserved"]
    assert k["applied"] == 1 and k["consistent"]
    assert pairwise["first_effective"] and not pairwise["second_effective"]
    assert pairwise["balances_non_negative"]


def e10_limitation_vc(result):
    """Section V-C: RP-legal moves cannot shrink the quorum avoiding the slow
    heavy servers; a total order can."""
    restricted, consensus_based = result["rows"]
    # s4 at 0.85 - 0.2 = 0.65 would fall under the 0.7 RP-Integrity floor.
    assert [a["effective"] for a in restricted["attempts"]] == [True, True, False]
    assert (restricted["quorum_before"], restricted["quorum_after"]) == (5, 5)
    assert {restricted["weights_after"][s] for s in result["slow"]} == {1.6, 1.4}
    assert all(a["effective"] for a in consensus_based["attempts"])
    assert (consensus_based["quorum_before"], consensus_based["quorum_after"]) == (5, 3)
    assert result["quorum_using_slow"] == 3


def e11_protocol_costs(result):
    """A constant number of message delays; n^2 - 1 (echo broadcast) and 4n messages."""
    rows = result["rows"]
    assert [row["n"] for row in rows] == [4, 7, 10, 16, 25]
    assert {row["transfer_latency"] for row in rows} == {2.0}
    assert {row["read_latency"] for row in rows} == {4.0}
    assert all(row["transfer_messages"] == row["n"] ** 2 - 1 for row in rows)
    assert all(row["read_messages"] == 4 * row["n"] for row in rows)


CLAIMS = {
    "fig1-walkthrough": e1_fig1,
    "example1-semantics": e2_example1,
    "reduction-alg1": e3_algorithm1,
    "reduction-alg2": e4_algorithm2,
    "wmqs-vs-mqs": e5_wmqs_vs_mqs,
    "dynamic-storage-adaptation": e6_dynamic_storage,
    "epoch-vs-epochless": e7_epoch_vs_epochless,
    "storage-vs-reconfig": e8_storage_vs_reconfig,
    "asset-transfer": e9_asset_transfer,
    "limitation-vc": e10_limitation_vc,
    "protocol-costs": e11_protocol_costs,
}


@pytest.mark.parametrize(
    "name, claim",
    [pytest.param(name, claim, id=f"{claim.__name__.split('_')[0].upper()}-{name}")
     for name, claim in CLAIMS.items()],
)
def test_paper_claim(name, claim):
    claim(get_scenario(name).execute())


@pytest.mark.parametrize("name", [
    "example1-semantics", "reduction-alg1", "reduction-alg2", "limitation-vc",
    "protocol-costs",
])
def test_a_fixed_experiment_has_no_parameters(name):
    # Their sweeps are module constants (as FIG1_ACCEPTED, WAN_RTT_VECTORS).
    entry = get_scenario(name)
    assert entry.defaults == {}
    with pytest.raises(ConfigurationError, match="has no parameters"):
        entry.execute({"n": 5})


def test_every_builtin_scenario_has_a_baseline_and_every_baseline_a_scenario():
    assert {path.stem for path in BASELINES.glob("*.json")} == set(BUILTIN_FAMILIES)
