"""E9/E10 — Section VIII: the relationship with asset transfer.

A thin wrapper over the registered ``asset-transfer`` scenario (see
:mod:`repro.experiments.catalogue`), which runs the same transfer workload
through (a) consensus-free 1-owner asset transfer and (b) sequencer-ordered
k-owner asset transfer, and contrasts both with the paper's pairwise weight
reassignment on the dimension the paper highlights: what must hold besides
"balances stay non-negative".

Shapes to reproduce:
* 1-asset transfer completes in a couple of message delays with no ordering
  service (consensus number 1), exactly like the paper's restricted protocol;
* k-owner accounts need the ordering service, and conflicting overdraws are
  resolved identically everywhere;
* weight reassignment additionally enforces a *distribution* constraint
  (P-Integrity): a transfer that keeps every balance non-negative can still be
  rejected because it concentrates too much voting power.
"""

from __future__ import annotations

from repro.experiments.catalogue import asset_transfer

from benchmarks.conftest import print_table


def test_asset_transfer_relationship():
    result = asset_transfer()
    one, k, pairwise = result["one_asset"], result["k_asset"], result["pairwise"]

    print_table(
        "E9/E10: asset transfer vs. pairwise weight reassignment",
        ["system", "ordering service", "observation"],
        [
            ("1-asset transfer (1 owner)", "none",
             f"{one['applied']}/3 transfers applied, mean latency "
             f"{one['mean_latency']:.1f}, totals conserved={one['total_conserved']}"),
            ("k-asset transfer (2 owners)", "sequencer",
             f"conflicting overdraws -> {k['applied']}/2 applied, "
             f"replicas consistent={k['consistent']}"),
            ("pairwise weight reassignment", "n/a (oracle)",
             "2nd transfer rejected by P-Integrity although no balance went negative"),
        ],
    )
    print("paper claim (Sec. VIII): pairwise reassignment resembles asset transfer, but "
          "adds a weight-distribution condition (P-Integrity) that asset transfer lacks")

    assert one["applied"] == 3 and one["total_conserved"]
    assert k["applied"] == 1 and k["consistent"]
    assert pairwise["first_effective"] and not pairwise["second_effective"]
    assert pairwise["balances_non_negative"]
