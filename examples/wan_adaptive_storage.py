#!/usr/bin/env python3
"""Adaptive geo-replicated storage: monitoring-driven weight reassignment.

The scenario the paper's introduction motivates, spelled as a spec file
(``examples/specs/wan-adaptive.json``): a storage system replicated across
heterogeneous wide-area sites, a latency monitor probing the servers, an
inverse-latency policy and per-server controllers moving voting power with
the paper's consensus-free ``transfer`` while the client keeps reading and
writing.  At t=300 the two Frankfurt servers slow down by 10x.  The run
does not adapt yet: in the other servers' views the slowed servers end
with more weight than the healthy ones, and the latency after the slowdown
stays high, because a server never learns of its own weight gain (ROADMAP
item 1).

Run with:  python examples/wan_adaptive_storage.py
"""

from pathlib import Path

from repro.experiments.spec import load_spec_file, run_spec
from repro.sim.metrics import summarize

SPEC = Path(__file__).resolve().parent / "specs" / "wan-adaptive.json"
PHASES = (("healthy (t<300)", 300.0), ("degraded (300-700)", 700.0),
          ("degraded (t>700)", float("inf")))


def latency_by_phase(cluster, workload):
    samples = {name: [] for name, _ in PHASES}
    for record in cluster.client("c1").history:
        name = next(name for name, end in PHASES if record.started_at < end)
        samples[name].append(record.latency)
    return {"phases": {name: summarize(found).as_row()
                       for name, found in samples.items() if found}}


def main() -> None:
    result = run_spec(load_spec_file(str(SPEC)), latency_by_phase)
    print("=== adaptive geo-replicated storage ===")
    print("final weights (server view of s1):")
    for server, weight in result["weights"].items():
        marker = "  <- slowed at t=300" if server in ("s1", "s2") else ""
        print(f"    {server}: {weight:.3f}{marker}")
    for phase, row in result["phases"].items():
        print(f"client latency, {phase:<30}: {row}")
    print(f"controller transfers attempted: "
          f"{result['monitoring']['transfers_attempted']}")


if __name__ == "__main__":
    main()
