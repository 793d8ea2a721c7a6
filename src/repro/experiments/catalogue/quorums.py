"""Catalogue family: analytic quorum-system comparisons (E5)."""

from __future__ import annotations

from typing import Any, Dict

from repro.analysis import expected_quorum_latency
from repro.core.spec import check_integrity
from repro.errors import ConfigurationError
from repro.experiments.registry import scenario
from repro.monitoring.policy import inverse_latency_weights
from repro.quorum.majority import MajorityQuorumSystem
from repro.quorum.weighted import WeightedMajorityQuorumSystem, smallest_quorum_size

__all__ = ["wmqs_vs_mqs"]


# ---------------------------------------------------------------------------
# E5 — WMQS vs MQS expected quorum latency on WAN-like RTT vectors.
# ---------------------------------------------------------------------------

WAN_RTT_VECTORS: Dict[str, Dict[str, float]] = {
    "homogeneous LAN (5 sites)": {"s1": 1.0, "s2": 1.0, "s3": 1.0, "s4": 1.0, "s5": 1.0},
    "EU client, 2 near / 3 far (5 sites)": {"s1": 10.0, "s2": 12.0, "s3": 45.0, "s4": 80.0, "s5": 95.0},
    "WHEAT-like geo deployment (5 sites)": {"s1": 5.0, "s2": 8.0, "s3": 35.0, "s4": 70.0, "s5": 150.0},
    "7 sites, one fast continent": {
        "s1": 5.0, "s2": 6.0, "s3": 8.0, "s4": 60.0, "s5": 70.0, "s6": 90.0, "s7": 120.0,
    },
    "13 sites planet-scale": {
        f"s{i}": float(latency)
        for i, latency in enumerate(
            [5, 6, 8, 10, 12, 40, 55, 70, 80, 95, 110, 140, 180], start=1
        )
    },
}


@scenario(
    "wmqs-vs-mqs",
    description="Expected quorum latency and cardinality: plain majority vs "
    "inverse-latency weighted majority across WAN RTT vectors.",
    tags=("paper", "quorum", "analytic"),
)
def wmqs_vs_mqs(total_weight_per_server: float = 1.0) -> Dict[str, Any]:
    """Expected quorum latency, majority vs weighted, on WAN RTT vectors."""
    if (
        isinstance(total_weight_per_server, bool)
        or not isinstance(total_weight_per_server, (int, float))
        or total_weight_per_server <= 0
    ):
        raise ConfigurationError(
            "total_weight_per_server must be a positive number, got "
            f"{total_weight_per_server!r}"
        )
    rows = []
    for name, rtt in WAN_RTT_VECTORS.items():
        servers = tuple(sorted(rtt, key=lambda s: int(s[1:])))
        n = len(servers)
        f = (n - 1) // 3 if n > 5 else 1
        mqs = MajorityQuorumSystem(servers)
        # Raise the per-server floor (a fraction of the uniform weight) until
        # the assignment tolerates f failures: very skewed latency vectors
        # need a higher floor to satisfy Property 1.
        total = total_weight_per_server * n
        for floor_fraction in (0.5, 0.6, 0.7, 0.8, 0.9):
            weights = inverse_latency_weights(rtt, total, floor_fraction * total / n)
            if check_integrity(weights, f):
                break
        else:
            raise ConfigurationError(f"no feasible weight assignment for {name}")
        wmqs = WeightedMajorityQuorumSystem(weights)
        mqs_latency = expected_quorum_latency(mqs, rtt)
        wmqs_latency = expected_quorum_latency(wmqs, rtt)
        rows.append(
            {
                "scenario": name,
                "n": n,
                "f": f,
                "mqs_latency": mqs_latency,
                "wmqs_latency": wmqs_latency,
                "speedup": mqs_latency / wmqs_latency if wmqs_latency else 1.0,
                "mqs_quorum": mqs.quorum_size(),
                "wmqs_quorum": smallest_quorum_size(weights),
            }
        )
    return {"rows": rows}
