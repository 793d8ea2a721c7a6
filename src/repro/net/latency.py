"""Message-delay models.

The paper assumes an *asynchronous* system: message delays are unbounded but
finite.  In the simulator, a :class:`LatencyModel` decides how long each
message takes to travel from its sender to its receiver.  Different models
serve different purposes:

* :class:`ConstantLatency` / :class:`UniformLatency` / :class:`LogNormalLatency`
  — simple homogeneous clusters, used by most unit tests.
* :class:`PerLinkLatency` and :class:`WanMatrixLatency` — heterogeneous
  wide-area deployments, the setting that motivates weighted quorums in the
  first place (Section I).
* :class:`SlowdownLatency` — a wrapper that slows selected processes down from
  a given virtual time, used to emulate the run-time performance variation the
  monitoring/reassignment machinery reacts to.
* :class:`GrayFailureLatency` — a wrapper modelling *gray failures*: nodes
  that stay alive (they answer probes, they vote in quorums) but serve every
  message slowly.  Unlike a crash the failure detector never fires, which is
  exactly the regime where weighted quorums out- or under-perform — and what
  the chaos campaigns in :mod:`repro.chaos` search over.

Every stochastic model takes an explicit ``seed``; the simulation kernel
itself never introduces randomness.

A draw is one call per message, so the models write out the stdlib's
``Random.uniform`` / ``Random.lognormvariate`` formulas over
``Random.random()`` instead of calling them: the same floats, draw for draw
(``tests/test_network.py`` holds them to the stdlib), and no stdlib frame
below ``Network.send`` — under a wrapper model that frame sat as deep as the
pinned send chain (``docs/ARCHITECTURE.md``, "Performance").
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.types import ProcessId, VirtualTime

# random.NV_MAGICCONST, the constant of the Kinderman-Monahan ratio method
# random.normalvariate uses.
_NV_MAGICCONST = 4 * math.exp(-0.5) / math.sqrt(2.0)

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "LogNormalLatency",
    "PerLinkLatency",
    "WanMatrixLatency",
    "SlowdownLatency",
    "GrayFailureLatency",
    "wan_latency_matrix",
]


class LatencyModel:
    """Base class: maps (sender, receiver, now) to a one-way message delay."""

    def delay(
        self, sender: ProcessId, receiver: ProcessId, now: VirtualTime
    ) -> VirtualTime:
        """Return the one-way delay for a message sent at virtual time ``now``."""
        raise NotImplementedError


class ConstantLatency(LatencyModel):
    """Every message takes exactly ``value`` time units."""

    def __init__(self, value: VirtualTime = 1.0) -> None:
        if value < 0:
            raise ConfigurationError(f"latency must be non-negative, got {value}")
        self.value = value

    def delay(
        self, sender: ProcessId, receiver: ProcessId, now: VirtualTime
    ) -> VirtualTime:
        return self.value


class UniformLatency(LatencyModel):
    """Delays drawn uniformly from ``[low, high]`` with a seeded RNG."""

    def __init__(
        self, low: VirtualTime = 0.5, high: VirtualTime = 1.5, seed: int = 0
    ) -> None:
        if low < 0 or high < low:
            raise ConfigurationError(
                f"invalid uniform latency bounds: low={low}, high={high}"
            )
        self.low = low
        self.high = high
        self._rng = random.Random(seed)

    def delay(
        self, sender: ProcessId, receiver: ProcessId, now: VirtualTime
    ) -> VirtualTime:
        # Random.uniform(low, high), written out.
        return self.low + (self.high - self.low) * self._rng.random()


class LogNormalLatency(LatencyModel):
    """Heavy-tailed delays, the usual shape of WAN round-trip samples.

    ``median`` fixes the distribution's median; ``sigma`` controls the spread
    of the underlying normal distribution (larger = heavier tail).
    """

    def __init__(
        self, median: VirtualTime = 1.0, sigma: float = 0.3, seed: int = 0
    ) -> None:
        if median <= 0:
            raise ConfigurationError(f"median must be positive, got {median}")
        if sigma < 0:
            raise ConfigurationError(f"sigma must be non-negative, got {sigma}")
        self.median = median
        self.sigma = sigma
        self._mu = math.log(median)
        self._rng = random.Random(seed)

    def delay(
        self, sender: ProcessId, receiver: ProcessId, now: VirtualTime
    ) -> VirtualTime:
        # Random.lognormvariate(mu, sigma) = exp(normalvariate(mu, sigma)),
        # written out: the ratio-of-uniforms loop exactly as the stdlib has it.
        rand = self._rng.random
        while True:
            u1 = rand()
            u2 = 1.0 - rand()
            z = _NV_MAGICCONST * (u1 - 0.5) / u2
            if z * z / 4.0 <= -math.log(u2):
                return math.exp(self._mu + z * self.sigma)


class PerLinkLatency(LatencyModel):
    """Explicit per-link base delays with optional jitter.

    ``base`` maps ``(sender, receiver)`` pairs to delays; ``default`` is used
    for unlisted links.  When ``jitter`` is non-zero, a seeded multiplicative
    jitter in ``[1, 1 + jitter]`` is applied to each message.
    """

    def __init__(
        self,
        base: Mapping[Tuple[ProcessId, ProcessId], VirtualTime],
        default: VirtualTime = 1.0,
        jitter: float = 0.0,
        seed: int = 0,
    ) -> None:
        if default < 0:
            raise ConfigurationError("default latency must be non-negative")
        if jitter < 0:
            raise ConfigurationError("jitter must be non-negative")
        for link, value in base.items():
            if value < 0:
                raise ConfigurationError(f"negative latency for link {link}")
        self.base = dict(base)
        self.default = default
        self.jitter = jitter
        self._rng = random.Random(seed)

    def delay(
        self, sender: ProcessId, receiver: ProcessId, now: VirtualTime
    ) -> VirtualTime:
        value = self.base.get((sender, receiver), self.default)
        jitter = self.jitter
        if jitter:
            # Random.uniform(1.0, 1.0 + jitter), written out: the span is
            # (1 + jitter) - 1, which is not always jitter in floats.
            value *= 1.0 + ((1.0 + jitter) - 1.0) * self._rng.random()
        return value


def wan_latency_matrix(
    sites: Sequence[ProcessId],
    one_way: Mapping[Tuple[str, str], VirtualTime],
    site_of: Mapping[ProcessId, str],
) -> Dict[Tuple[ProcessId, ProcessId], VirtualTime]:
    """Expand a site-to-site latency table into a per-process link table.

    ``one_way`` maps *site* pairs (e.g. ``("eu", "us")``) to one-way delays;
    ``site_of`` assigns each process to a site.  Missing symmetric entries are
    filled in from their mirror; intra-site latency defaults to 0.5.
    """
    table: Dict[Tuple[ProcessId, ProcessId], VirtualTime] = {}
    for a in sites:
        for b in sites:
            if a == b:
                continue
            sa, sb = site_of[a], site_of[b]
            if sa == sb:
                table[(a, b)] = 0.5
                continue
            if (sa, sb) in one_way:
                table[(a, b)] = one_way[(sa, sb)]
            elif (sb, sa) in one_way:
                table[(a, b)] = one_way[(sb, sa)]
            else:
                raise ConfigurationError(f"no latency entry for sites {sa}->{sb}")
    return table


class WanMatrixLatency(PerLinkLatency):
    """Convenience model combining :func:`wan_latency_matrix` with jitter."""

    def __init__(
        self,
        processes: Sequence[ProcessId],
        site_of: Mapping[ProcessId, str],
        site_latency: Mapping[Tuple[str, str], VirtualTime],
        jitter: float = 0.05,
        seed: int = 0,
    ) -> None:
        table = wan_latency_matrix(processes, site_latency, site_of)
        super().__init__(base=table, default=1.0, jitter=jitter, seed=seed)
        self.site_of = dict(site_of)


class SlowdownLatency(LatencyModel):
    """Wrap another model, slowing selected processes down from ``start_at``.

    Any message *to or from* a process listed in ``slow`` is multiplied by
    ``factor`` once the virtual clock reaches ``start_at`` (and until
    ``end_at`` if given).  This models the run-time performance degradation
    that weight-reassignment reacts to.
    """

    def __init__(
        self,
        inner: LatencyModel,
        slow: Iterable[ProcessId],
        factor: float = 10.0,
        start_at: VirtualTime = 0.0,
        end_at: Optional[VirtualTime] = None,
    ) -> None:
        if factor < 1.0:
            raise ConfigurationError("slowdown factor must be >= 1")
        self.inner = inner
        self.slow = frozenset(slow)
        self.factor = factor
        self.start_at = start_at
        self.end_at = end_at

    def _active(self, now: VirtualTime) -> bool:
        if now < self.start_at:
            return False
        if self.end_at is not None and now >= self.end_at:
            return False
        return True

    def delay(
        self, sender: ProcessId, receiver: ProcessId, now: VirtualTime
    ) -> VirtualTime:
        base = self.inner.delay(sender, receiver, now)
        if self._active(now) and (sender in self.slow or receiver in self.slow):
            return base * self.factor
        return base


class GrayFailureLatency(LatencyModel):
    """Wrap another model with a *gray failure*: slow-but-alive processes.

    Any message to or from a process listed in ``degraded`` pays a
    multiplicative ``factor`` plus an additive per-message ``stall`` while
    the window ``[start_at, end_at)`` is open (``end_at=None`` never closes).
    The additive stall is what distinguishes a gray failure from a plain
    slowdown: even a near-zero base delay is dragged up to ``stall``, the
    shape of a node grinding through I/O timeouts while still answering —
    so crash detection never fires, quorums still count its vote, and the
    operation latency quietly degrades.
    """

    def __init__(
        self,
        inner: LatencyModel,
        degraded: Iterable[ProcessId],
        factor: float = 4.0,
        stall: VirtualTime = 0.0,
        start_at: VirtualTime = 0.0,
        end_at: Optional[VirtualTime] = None,
    ) -> None:
        if factor < 1.0:
            raise ConfigurationError("gray-failure factor must be >= 1")
        if stall < 0:
            raise ConfigurationError("gray-failure stall must be non-negative")
        if end_at is not None and end_at <= start_at:
            raise ConfigurationError(
                f"gray-failure end_at={end_at} must be after start_at={start_at}"
            )
        self.inner = inner
        self.degraded = frozenset(degraded)
        self.factor = factor
        self.stall = stall
        self.start_at = start_at
        self.end_at = end_at

    def _active(self, now: VirtualTime) -> bool:
        if now < self.start_at:
            return False
        if self.end_at is not None and now >= self.end_at:
            return False
        return True

    def delay(
        self, sender: ProcessId, receiver: ProcessId, now: VirtualTime
    ) -> VirtualTime:
        base = self.inner.delay(sender, receiver, now)
        if self._active(now) and (
            sender in self.degraded or receiver in self.degraded
        ):
            return base * self.factor + self.stall
        return base
