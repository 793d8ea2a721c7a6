"""Tolerant comparisons for weight arithmetic.

The paper's safety properties are *strict* inequalities (``W_F < W_S / 2``,
``W_s > W_{S,0} / (2(n-f))``), and several of its examples sit exactly on the
boundary (e.g. the rejected transfers of Fig. 1 leave a server at precisely
the RP-Integrity bound).  With binary floating point, sums such as
``1.0 - 0.1 - 0.2`` drift by a few ULPs around the exact value, which could
flip a boundary case the wrong way.

The helpers below implement strict comparisons with a small symmetric
tolerance: values within :data:`EPSILON` of the boundary are treated as *on*
the boundary, i.e. the strict inequality is considered **not** satisfied.
This errs on the conservative side — a transfer that lands exactly on the
bound is rejected, and a weight map exactly at the Integrity boundary is
reported as violating — which matches the intent of the paper's strict
inequalities.
"""

from __future__ import annotations

__all__ = ["EPSILON", "strictly_greater", "strictly_less"]

#: Absolute tolerance for weight comparisons.  Weights in this library are
#: human-scale numbers (fractions of a few units), so an absolute tolerance is
#: appropriate and simpler to reason about than a relative one.
EPSILON = 1e-9


def strictly_greater(left: float, right: float, epsilon: float = EPSILON) -> bool:
    """True iff ``left > right`` by more than ``epsilon``."""
    return left > right + epsilon


def strictly_less(left: float, right: float, epsilon: float = EPSILON) -> bool:
    """True iff ``left < right`` by more than ``epsilon``."""
    return left < right - epsilon
