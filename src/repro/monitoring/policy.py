"""Weight-assignment policies.

Policies translate a latency summary into *target weights* whose total equals
the system's initial total weight ``W`` exactly (pairwise reassignment cannot
change the total).  Two schemes are provided:

* :func:`proportional_inverse_latency_weights` — weight proportional to
  ``1 / latency``, the natural "faster servers get more voting power" rule
  (:func:`inverse_latency_weights` with the RP-Integrity floor);
* :func:`wheat_style_weights` — the binary scheme of WHEAT [20]: the ``u``
  fastest servers get ``wmax`` and the rest ``wmin``.

Both hand out whole shares of ``GRID`` in their proportions, each at least a
floor of ``(1 + margin) * W_{S,0} / (2(n-f))`` — otherwise the controller
could never reach them with RP-Integrity-preserving transfers — and return
``W * share / GRID``, so the weights' denominators (which the quorum test
sums on every reply) stay small.  Experiment E5 (``wmqs-vs-mqs``) calls
:func:`inverse_latency_weights` with a floor of its own.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping

from repro.core.spec import SystemConfig
from repro.errors import ConfigurationError
from repro.types import ProcessId, VirtualTime, Weight, exact

__all__ = [
    "inverse_latency_weights",
    "proportional_inverse_latency_weights",
    "wheat_style_weights",
]

#: Targets are whole multiples of ``W / GRID``.
GRID = 10**9


def _apportion(amount: int, parts: Mapping[ProcessId, int]) -> Dict[ProcessId, int]:
    """``amount`` whole units in proportion to ``parts``: quotas rounded down,
    the rest to the largest remainders (ties to the earlier server)."""
    whole = sum(parts.values())
    split = {server: divmod(amount * part, whole) for server, part in parts.items()}
    units = {server: quotient for server, (quotient, _) in split.items()}
    leftover = amount - sum(units.values())
    for server in sorted(split, key=lambda server: -split[server][1])[:leftover]:
        units[server] += 1
    return units


def _clip(
    proportions: Mapping[ProcessId, int], total: Weight, floor: Weight
) -> Dict[ProcessId, Weight]:
    """``total`` split in proportion to ``proportions`` on the grid, no target
    below ``floor``: the shares raised to it are paid for by the servers above
    it, in proportion to their headroom over it (none gives up more)."""
    total = exact(total)
    least = math.ceil(exact(floor) * GRID / total)
    if least * len(proportions) >= GRID:
        raise ConfigurationError(
            f"floor {float(floor)} too high: the floors exceed the total weight "
            f"{float(total)}"
        )
    shares = _apportion(GRID, proportions)
    shares = {server: max(share, least) for server, share in shares.items()}
    headroom = {server: share - least for server, share in shares.items()}
    cuts = _apportion(sum(shares.values()) - GRID, headroom)
    unit = total / GRID
    return {server: unit * (shares[server] - cuts[server]) for server in shares}


def _floor(config: SystemConfig, margin: float) -> Weight:
    """The policies' floor: ``margin`` above the RP-Integrity bound."""
    return config.rp_min_weight * (1 + exact(margin))


def inverse_latency_weights(
    latencies: Mapping[ProcessId, VirtualTime], total: Weight, floor: Weight
) -> Dict[ProcessId, Weight]:
    """Weights proportional to ``1 / latency``, summing to ``total``, none
    below ``floor``."""
    if not latencies:
        raise ConfigurationError("need at least one server latency")
    # 1 / latency times the lcm of the latencies' numerators: whole numbers.
    ratios = [max(latency, 1e-6).as_integer_ratio() for latency in latencies.values()]
    common = math.lcm(*(num for num, _ in ratios))
    inverse = [common // num * den for num, den in ratios]
    return _clip(dict(zip(latencies, inverse)), total, floor)


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
    servers the large weight, in proportion to ``wmin`` so the total matches
    the initial total weight.
    """
    if set(latencies) != set(config.servers):
        raise ConfigurationError("latencies must cover exactly the server set")
    n, f = config.n, config.f
    fast_count = max(1, n - 2 * f)
    ranked = sorted(config.servers, key=lambda server: latencies[server])
    fast = set(ranked[:fast_count])
    # WHEAT's wmax/wmin ratio: wmax = 1 + delta, wmin = 1, with delta chosen so
    # that f wmax-servers can be replaced by 2f wmin-servers; delta = f / (n - 2f)
    # keeps Property 1 tight.  Times n - 2f, that is n - f against n - 2f.
    raw = {s: fast_count + (f if s in fast else 0) for s in config.servers}
    return _clip(raw, config.total_initial_weight, _floor(config, margin))
