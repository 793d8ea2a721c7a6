"""Catalogue family: monitoring-driven reassignment on one register."""

from __future__ import annotations

from typing import Any, Dict, List

from repro.experiments.registry import scenario
from repro.experiments.spec import ScenarioSpec, run_spec
from repro.sim.metrics import summarize

__all__ = ["hotspot_shift_monitoring", "hotspot_shift_monitoring_spec"]


def hotspot_shift_monitoring_spec(
    shift_at: float, slow_factor: float, operations: int,
    probe_interval: float, control_rounds: int, seed: int,
) -> ScenarioSpec:
    """The spec ``hotspot-shift-monitoring`` runs (at its defaults, the one
    in ``examples/specs/``).  The workload mirrors the infrastructure event:
    the hot set rotates at ``shift_at``, the moment s1/s2 degrade."""
    return ScenarioSpec.from_dict({
        "name": "hotspot-shift-monitoring",
        "cluster": {"flavour": "dynamic-weighted", "n": 5, "f": 1, "client_count": 2},
        "workload": {
            "operations_per_client": operations,
            "keys": {"kind": "hotspot", "space": 16, "hot_fraction": 0.25,
                     "hot_weight": 0.9},
            "arrivals": {"kind": "closed", "mean_think_time": 2.0},
            "mix": {"read_ratio": 0.6},
            "phases": [{"at": shift_at, "overrides": [["keys.offset", 8]]}],
        },
        "latency": {
            "kind": "uniform", "low": 0.5, "high": 1.5,
            "slow": ["s1", "s2"], "slow_factor": slow_factor, "slow_start": shift_at,
        },
        "monitoring": {
            "enabled": True, "interval": probe_interval, "rounds": control_rounds,
            "policy": {"kind": "inverse-latency", "threshold": 0.05}, "gain": 0.3,
        },
        "seed": seed,
        "max_time": 10000.0,
    })


@scenario(
    "hotspot-shift-monitoring",
    description="Monitoring-driven reassignment under a workload shift: when "
    "the hot set flips and s1/s2 degrade, latency probes feed the "
    "inverse-latency policy and per-server controllers push weight to the "
    "healthy servers.",
    tags=("workload", "monitoring", "storage"),
)
def hotspot_shift_monitoring(
    shift_at: float = 30.0,
    slow_factor: float = 6.0,
    operations: int = 18,
    probe_interval: float = 6.0,
    control_rounds: int = 8,
    seed: int = 3,
) -> Dict[str, Any]:
    """Close the monitoring loop on a single-register hotspot shift."""

    def latency_by_shift(cluster, workload) -> Dict[str, Any]:
        before: List[float] = []
        after: List[float] = []
        for client in cluster.clients.values():
            for record in client.history:
                bucket = before if record.completed_at < shift_at else after
                bucket.append(record.latency)
        return {
            "latency_before_shift": summarize(before).median if before else None,
            "latency_after_shift": summarize(after).median if after else None,
        }

    result = run_spec(
        hotspot_shift_monitoring_spec(
            shift_at, slow_factor, operations, probe_interval, control_rounds, seed
        ),
        latency_by_shift,
    )
    row = {key: result[key] for key in (
        "operations", "duration", "messages", "weights", "workload",
        "latency_before_shift", "latency_after_shift",
    )}
    # The weights are s1's local view, the one run_spec reports.
    row["shifted_weight"] = sum(row["weights"][pid] for pid in ("s3", "s4", "s5"))
    row["transfers_attempted"] = result["monitoring"]["transfers_attempted"]
    return row
