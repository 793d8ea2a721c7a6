"""E8 — Section VIII: dynamic-weighted vs. reconfigurable storage availability.

Thin wrapper over the registered ``storage-vs-reconfig`` scenario
(:mod:`repro.experiments.catalogue`).  Shape to reproduce: the
dynamic-weighted storage stays live whenever at most ``f`` servers crash,
independent of pending transfers; the reconfigurable storage blocks as soon
as any *pending configuration* loses its majority, even though no more than
``f`` of the original servers crashed.
"""

from __future__ import annotations

from repro.experiments import get_scenario

from benchmarks.conftest import print_table


def run_comparison():
    return get_scenario("storage-vs-reconfig").execute()["rows"]


def test_storage_vs_reconfigurable():
    rows = run_comparison()

    print_table(
        "E8: does the store stay live under the crash schedule?",
        ["crash schedule", "dynamic-weighted (static f=2)", "reconfigurable (pending config)"],
        [
            (row["schedule"], "live" if row["dynamic"] else "BLOCKED",
             "live" if row["reconfigurable"] else "BLOCKED")
            for row in rows
        ],
    )
    print("paper claim (Sec. VIII): the dynamic-weighted store's fault threshold is "
          "static and independent of reassignment requests; the reconfigurable store "
          "is only live while every pending configuration keeps a correct majority")

    assert rows[0]["dynamic"] and rows[0]["reconfigurable"]
    # f crashes: the dynamic-weighted store always survives ...
    assert rows[1]["dynamic"] and rows[2]["dynamic"]
    # ... and so does the reconfigurable store while its pending configuration
    # keeps a majority, but the same number of crashes placed inside the
    # pending configuration's membership blocks it.
    assert rows[1]["reconfigurable"]
    assert not rows[2]["reconfigurable"]
