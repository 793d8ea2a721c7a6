"""Executable problem specifications (Definitions 3, 4 and 5).

This module turns the paper's safety properties into checkable predicates,
each defined once:

* :func:`check_integrity` — Integrity of Definition 3 / P-Integrity of
  Definition 4: for every ``F ⊂ S`` with ``|F| = f``, ``W_F < W_S / 2``
  (equivalently, Property 1 holds for the current weights).
* :func:`check_rp_integrity` — RP-Integrity of Definition 5: every server's
  weight stays strictly above ``W_{S,0} / (2 (n - f))``.
* :func:`c2_holds` — condition C2 of Algorithm 4: a server keeps more than
  that floor after giving ``delta`` away.

They are pure functions over weight maps and change sets, so the protocols
(for their local checks), the scenarios and the test-suite (for whole-trace
validation) share the same definitions.  Weights are exact, so each strict
inequality of the paper is a plain ``<`` or ``>``.

:class:`SystemConfig` bundles the static parameters of a deployment: the
server set ``S``, the fault threshold ``f`` and the initial weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.core.change import ChangeSet, initial_changes
from repro.errors import ConfigurationError, IntegrityViolation
from repro.types import ProcessId, Weight, exact, float_weights

__all__ = [
    "SystemConfig",
    "check_integrity",
    "check_rp_integrity",
    "c2_holds",
    "rp_minimum_weight",
]


def check_integrity(weights: Mapping[ProcessId, Weight], f: int) -> bool:
    """Integrity (Def. 3) / P-Integrity (Def. 4) — Property 1.

    For every subset ``F`` of ``f`` servers, ``W_F < W_S / 2``.  Checking all
    subsets is equivalent to checking the ``f`` heaviest servers, i.e. to
    Property 1: the ``f`` greatest weights sum to less than half the total.
    P-Integrity is textually identical; the two problems differ in how
    weights may change, not in the predicate.
    """
    if f < 0:
        raise ValueError(f"fault threshold must be non-negative, got f={f}")
    if f == 0:
        return True
    if f >= len(weights):
        return False
    heaviest = sum(sorted(weights.values(), reverse=True)[:f])
    return 2 * heaviest < sum(weights.values())


def rp_minimum_weight(total_initial_weight: Weight, n: int, f: int) -> Weight:
    """The RP-Integrity lower bound ``W_{S,0} / (2 (n - f))``."""
    if n <= f:
        raise ConfigurationError(f"need n > f, got n={n}, f={f}")
    return exact(total_initial_weight) / (2 * (n - f))


def c2_holds(weight: Weight, delta: Weight, minimum: Weight) -> bool:
    """Condition C2: giving ``delta`` away leaves ``weight`` above ``minimum``."""
    return weight > delta + minimum


def check_rp_integrity(
    weights: Mapping[ProcessId, Weight],
    total_initial_weight: Weight,
    f: int,
) -> bool:
    """RP-Integrity (Def. 5): every weight stays above ``W_{S,0}/(2(n-f))``."""
    n = len(weights)
    minimum = rp_minimum_weight(total_initial_weight, n, f)
    return all(c2_holds(weight, 0, minimum) for weight in weights.values())


@dataclass(frozen=True)
class SystemConfig:
    """Static parameters of a deployment (Section II).

    Attributes:
        servers: the server set ``S`` (order fixes the canonical indexing).
        f: the static crash-fault threshold.
        initial_weights: ``W_{s,0}`` for every server, made exact
            (:func:`repro.types.exact`); defaults to 1 each.
        total_initial_weight: ``W_{S,0}``, computed once.
    """

    servers: Tuple[ProcessId, ...]
    f: int
    initial_weights: Dict[ProcessId, Weight] = field(default_factory=dict)
    total_initial_weight: Weight = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(set(self.servers)) != len(self.servers):
            raise ConfigurationError("duplicate server ids")
        if not self.servers:
            raise ConfigurationError("server set must not be empty")
        if self.f < 0:
            raise ConfigurationError(f"fault threshold must be >= 0, got {self.f}")
        if self.f >= len(self.servers):
            raise ConfigurationError(
                f"fault threshold f={self.f} must be < n={len(self.servers)}"
            )
        weights = {server: exact(w) for server, w in self.initial_weights.items()}
        if not weights:
            weights = {server: exact(1) for server in self.servers}
        if set(weights) != set(self.servers):
            raise ConfigurationError(
                "initial_weights must cover exactly the server set"
            )
        object.__setattr__(self, "initial_weights", weights)
        object.__setattr__(self, "total_initial_weight", sum(weights.values()))
        if not check_integrity(weights, self.f):
            raise IntegrityViolation(
                "initial weights violate Property 1 (Integrity at t=0): "
                f"weights={float_weights(weights)}, f={self.f}"
            )

    # -- derived quantities ----------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.servers)

    @property
    def rp_min_weight(self) -> Weight:
        """The RP-Integrity bound ``W_{S,0} / (2 (n - f))``."""
        return rp_minimum_weight(self.total_initial_weight, self.n, self.f)

    def initial_change_set(self) -> ChangeSet:
        """The conventional initial changes ``<s, 1, s, W_{s,0}>``."""
        return initial_changes(self.initial_weights)

    # -- convenience constructors ------------------------------------------------
    @classmethod
    def uniform(
        cls, n: int, f: Optional[int] = None, weight: Weight = 1.0
    ) -> "SystemConfig":
        """``n`` servers named ``s1..sn`` with equal weights and maximal ``f``.

        When ``f`` is omitted the maximal threshold tolerated by uniform
        weights, ``ceil(n/2) - 1``, is used.
        """
        from repro.types import server_set

        servers = server_set(n)
        if f is None:
            f = (n - 1) // 2
        return cls(
            servers=servers,
            f=f,
            initial_weights={server: weight for server in servers},
        )
