"""Key-popularity distributions.

A :class:`KeyDistribution` decides *which* key an operation touches.  The
distributions are independent of arrival timing and operation mix, so they
compose freely with the other workload axes:

* :class:`UniformKeys` — every key equally likely;
* :class:`ZipfianKeys` — rank-``i`` key drawn with probability proportional
  to ``i^-s`` (the classical skewed-popularity model: a handful of hot keys
  absorb most of the traffic);
* :class:`HotspotKeys` — a contiguous hot set receives a fixed fraction of
  the traffic; its ``offset`` rotates the hot set, which is how phase
  schedules express mid-run skew flips (``keys.offset`` in a spec phase).

Keys are plain strings ``k1 .. kN`` where the *index is the popularity rank*
for :class:`ZipfianKeys` — ``k1`` is always the hottest key — making achieved
frequencies directly testable.  Sampling consumes exactly one ``rng.random()``
per key, so streams stay deterministic under composition.
"""

from __future__ import annotations

import bisect
import random
from typing import Any, Dict, List, Tuple

from repro.errors import ConfigurationError

__all__ = ["KeyDistribution", "UniformKeys", "ZipfianKeys", "HotspotKeys", "key_name"]


def key_name(index: int) -> str:
    """Canonical name of the ``index``-th key (1-based), e.g. ``k1``."""
    if index < 1:
        raise ConfigurationError(f"key indices are 1-based, got {index}")
    return f"k{index}"


class KeyDistribution:
    """Base class: a seeded-stream sampler over a finite key space."""

    #: Number of distinct keys (``k1 .. k<space>``).
    space: int

    def sample(self, rng: random.Random) -> str:
        """Draw one key, consuming exactly one ``rng.random()``."""
        raise NotImplementedError

    def describe(self) -> Dict[str, Any]:
        """The distribution's kind and parameters, JSON-serialisable."""
        raise NotImplementedError

    @staticmethod
    def _check_space(space: int) -> None:
        if space < 1:
            raise ConfigurationError(f"key space must be at least 1, got {space}")


class UniformKeys(KeyDistribution):
    """Every key in ``k1 .. k<space>`` is equally likely."""

    def __init__(self, space: int = 16) -> None:
        self._check_space(space)
        self.space = space

    def sample(self, rng: random.Random) -> str:
        return key_name(int(rng.random() * self.space) + 1)

    def describe(self) -> Dict[str, Any]:
        return {"kind": "uniform", "space": self.space}


class ZipfianKeys(KeyDistribution):
    """Rank-``i`` key with probability proportional to ``i^-s`` (``k1`` hottest)."""

    def __init__(self, space: int = 16, s: float = 1.1) -> None:
        self._check_space(space)
        if s <= 0:
            raise ConfigurationError(f"zipf exponent s must be positive, got {s}")
        self.space = space
        self.s = s
        cumulative: List[float] = []
        total = 0.0
        for rank in range(1, space + 1):
            total += rank ** -s
            cumulative.append(total)
        self._cumulative = [value / total for value in cumulative]

    def sample(self, rng: random.Random) -> str:
        rank = bisect.bisect_right(self._cumulative, rng.random())
        return key_name(min(rank, self.space - 1) + 1)

    def describe(self) -> Dict[str, Any]:
        return {"kind": "zipfian", "space": self.space, "s": self.s}


class HotspotKeys(KeyDistribution):
    """A contiguous hot set absorbs ``hot_weight`` of the traffic.

    The hot set is the ``hot_count`` keys starting at ``offset`` (wrapping
    around the key space); the remaining keys share the cold traffic
    uniformly.  Rotating ``offset`` moves the hotspot without changing any
    other statistic, which is exactly the mid-run skew flip the phase
    schedules need.
    """

    def __init__(
        self,
        space: int = 16,
        hot_fraction: float = 0.125,
        hot_weight: float = 0.9,
        offset: int = 0,
    ) -> None:
        self._check_space(space)
        if not 0.0 < hot_fraction <= 1.0:
            raise ConfigurationError(f"hot_fraction must be in (0, 1], got {hot_fraction}")
        if not 0.0 <= hot_weight <= 1.0:
            raise ConfigurationError(f"hot_weight must be in [0, 1], got {hot_weight}")
        self.space = space
        self.hot_fraction = hot_fraction
        self.hot_weight = hot_weight
        self.offset = offset % space
        self.hot_count = max(1, min(space, round(space * hot_fraction)))

    def sample(self, rng: random.Random) -> str:
        # One uniform draw selects both hot-vs-cold and the position within
        # the chosen set, keeping the one-draw-per-key contract.
        draw = rng.random()
        cold_count = self.space - self.hot_count
        if cold_count == 0:
            # The hot set is the whole space: uniform, hot_weight irrelevant.
            position = min(int(draw * self.hot_count), self.hot_count - 1)
            return key_name((self.offset + position) % self.space + 1)
        if draw < self.hot_weight:
            fraction = draw / self.hot_weight if self.hot_weight > 0 else draw
            position = min(int(fraction * self.hot_count), self.hot_count - 1)
            return key_name((self.offset + position) % self.space + 1)
        fraction = (draw - self.hot_weight) / (1.0 - self.hot_weight)
        position = min(int(fraction * cold_count), cold_count - 1)
        return key_name((self.offset + self.hot_count + position) % self.space + 1)

    def hot_keys(self) -> Tuple[str, ...]:
        """The current hot set, in rotation order."""
        return tuple(
            key_name((self.offset + position) % self.space + 1)
            for position in range(self.hot_count)
        )

    def describe(self) -> Dict[str, Any]:
        return {
            "kind": "hotspot",
            "space": self.space,
            "hot_fraction": self.hot_fraction,
            "hot_weight": self.hot_weight,
            "offset": self.offset,
        }
