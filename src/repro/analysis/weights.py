"""Weight planning helpers used by the analytic scenarios (``wmqs-vs-mqs``)."""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.quorum.availability import (
    minimum_quorum_cardinality,
    wmqs_is_available,
)
from repro.types import ProcessId, VirtualTime, Weight

__all__ = ["inverse_latency_weights", "quorum_size_after_reassignment"]


def inverse_latency_weights(
    rtt: Mapping[ProcessId, VirtualTime],
    total_weight: Weight,
    f: int,
    floor_fraction: float = 0.5,
) -> Dict[ProcessId, Weight]:
    """Weights proportional to ``1/rtt``, floored so Property 1 keeps holding.

    ``floor_fraction`` expresses the per-server floor as a fraction of the
    uniform weight ``total_weight / n``; the floor guarantees no server's
    weight collapses to (near) zero, which would make the assignment fragile
    to ``f`` failures among the heavy servers.
    """
    if not rtt:
        raise ConfigurationError("need at least one server latency")
    n = len(rtt)
    floor = floor_fraction * total_weight / n
    inverse = {server: 1.0 / max(latency, 1e-6) for server, latency in rtt.items()}
    scale = total_weight / sum(inverse.values())
    weights = {server: value * scale for server, value in inverse.items()}
    # Apply the floor, removing the excess proportionally from the rest.
    clipped = {server: max(weight, floor) for server, weight in weights.items()}
    excess = sum(clipped.values()) - total_weight
    if excess > 0:
        headroom = {server: clipped[server] - floor for server in clipped}
        total_headroom = sum(headroom.values()) or 1.0
        clipped = {
            server: clipped[server] - excess * headroom[server] / total_headroom
            for server in clipped
        }
    if not wmqs_is_available(clipped, f):
        raise ConfigurationError(
            "inverse-latency weights violate Property 1 for the requested f; "
            "increase floor_fraction"
        )
    return clipped


def quorum_size_after_reassignment(
    weights: Mapping[ProcessId, Weight],
) -> int:
    """Cardinality of the smallest quorum under ``weights`` (convenience alias)."""
    return minimum_quorum_cardinality(weights)
