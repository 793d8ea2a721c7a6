"""Weight-assignment policies.

Policies translate a latency summary into *target weights* whose total equals
the system's initial total weight (pairwise reassignment cannot change the
total).  Two schemes are provided:

* :func:`proportional_inverse_latency_weights` — weight proportional to
  ``1 / latency``, the natural "faster servers get more voting power" rule
  (:func:`inverse_latency_weights` with the RP-Integrity floor);
* :func:`wheat_style_weights` — the binary scheme of WHEAT [20]: the ``u``
  fastest servers get ``wmax`` and the rest ``wmin``.

Both clip their targets to a floor of ``(1 + margin) * W_{S,0} / (2(n-f))``
— otherwise the controller could never reach them with
RP-Integrity-preserving transfers.  Experiment E5 (``wmqs-vs-mqs``) calls
:func:`inverse_latency_weights` with a floor of its own.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.core.spec import SystemConfig
from repro.errors import ConfigurationError
from repro.types import ProcessId, VirtualTime, Weight

__all__ = [
    "inverse_latency_weights",
    "proportional_inverse_latency_weights",
    "wheat_style_weights",
]


def _clip(
    targets: Mapping[ProcessId, Weight], total: Weight, floor: Weight
) -> Dict[ProcessId, Weight]:
    """Raise every target to at least ``floor``, keeping the sum at ``total``.

    The weight added by clipping is removed from the servers above the
    floor, in proportion to their headroom over it.
    """
    if floor * len(targets) >= total:
        raise ConfigurationError(
            f"floor {floor} too high: the floors exceed the total weight {total}"
        )
    clipped = {server: max(weight, floor) for server, weight in targets.items()}
    excess = sum(clipped.values()) - total
    if excess <= 0:
        # Numerically the total can only grow through clipping; if it did not,
        # the targets were already feasible.
        return clipped
    headroom = {server: clipped[server] - floor for server in clipped}
    total_headroom = sum(headroom.values())
    result = {}
    for server in clipped:
        share = headroom[server] / total_headroom if total_headroom else 0.0
        result[server] = clipped[server] - excess * share
    return result


def _floor(config: SystemConfig, margin: float) -> Weight:
    """The policies' floor: ``margin`` above the RP-Integrity bound."""
    return config.rp_min_weight * (1.0 + margin)


def inverse_latency_weights(
    latencies: Mapping[ProcessId, VirtualTime], total: Weight, floor: Weight
) -> Dict[ProcessId, Weight]:
    """Weights proportional to ``1 / latency``, summing to ``total``, none
    below ``floor``."""
    if not latencies:
        raise ConfigurationError("need at least one server latency")
    inverse = {
        server: 1.0 / max(latency, 1e-6) for server, latency in latencies.items()
    }
    scale = total / sum(inverse.values())
    return _clip(
        {server: value * scale for server, value in inverse.items()}, total, floor
    )


def proportional_inverse_latency_weights(
    latencies: Mapping[ProcessId, VirtualTime],
    config: SystemConfig,
    margin: float = 0.05,
) -> Dict[ProcessId, Weight]:
    """Targets proportional to ``1 / latency``, normalised to the initial total."""
    if set(latencies) != set(config.servers):
        raise ConfigurationError("latencies must cover exactly the server set")
    return inverse_latency_weights(
        latencies, config.total_initial_weight, _floor(config, margin)
    )


def wheat_style_weights(
    latencies: Mapping[ProcessId, VirtualTime],
    config: SystemConfig,
    margin: float = 0.05,
) -> Dict[ProcessId, Weight]:
    """WHEAT-style binary weights: the fastest servers get ``wmax``, others ``wmin``.

    WHEAT deploys extra replicas and gives ``wmax`` to ``n - 2f`` of them;
    here we keep the server set fixed and simply give the ``n - 2f`` fastest
    servers the large weight, scaled so the total matches the initial total
    weight.
    """
    if set(latencies) != set(config.servers):
        raise ConfigurationError("latencies must cover exactly the server set")
    n, f = config.n, config.f
    fast_count = max(1, n - 2 * f)
    ranked = sorted(config.servers, key=lambda server: latencies[server])
    fast = set(ranked[:fast_count])
    # WHEAT's wmax/wmin ratio: wmax = 1 + delta, wmin = 1, with delta chosen so
    # that f wmax-servers can be replaced by 2f wmin-servers; delta = f / (n - 2f)
    # keeps Property 1 tight.  Scale to the initial total weight afterwards.
    delta = f / fast_count if fast_count else 0.0
    raw = {
        server: (1.0 + delta) if server in fast else 1.0 for server in config.servers
    }
    scale = config.total_initial_weight / sum(raw.values())
    scaled = {server: weight * scale for server, weight in raw.items()}
    return _clip(scaled, config.total_initial_weight, _floor(config, margin))
