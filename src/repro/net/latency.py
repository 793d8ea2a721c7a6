"""Message-delay models.

The paper assumes an *asynchronous* system: message delays are unbounded but
finite.  In the simulator, a :class:`LatencyModel` decides how long each
message takes to travel from its sender to its receiver.  Different models
serve different purposes:

* :class:`ConstantLatency` / :class:`UniformLatency` / :class:`LogNormalLatency`
  — simple homogeneous clusters, used by most unit tests.
* :class:`PerLinkLatency` — heterogeneous wide-area deployments, the setting
  that motivates weighted quorums in the first place (Section I).
* :class:`SlowdownLatency` — a wrapper that degrades selected processes inside
  a window of virtual time: the run-time slowdowns the monitoring/reassignment
  machinery reacts to, and the *gray failures* (slow but alive, so the failure
  detector never fires) the chaos campaigns in :mod:`repro.chaos` search over.

Every range check is written ``not x >= 0`` so that it refuses NaN too: a
bad value fails at construction instead of making every delay of a run NaN.

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
from typing import Iterable, Mapping, Optional, Tuple

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
    "SlowdownLatency",
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
        if not value >= 0:
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
        if not (low >= 0 and high >= low):
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
        if not median > 0:
            raise ConfigurationError(f"median must be positive, got {median}")
        if not sigma >= 0:
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

    ``base`` maps ``(sender, receiver)`` pairs to delays.  A link it does not
    list takes the larger ``endpoints`` delay of its listed endpoints (a
    process's one-way distance, so the slower end sets the link), and
    ``default`` when neither endpoint is listed or the link is a process's
    own.  When ``jitter`` is non-zero, a seeded multiplicative jitter in
    ``[1, 1 + jitter]`` is applied to each message.
    """

    def __init__(
        self,
        base: Mapping[Tuple[ProcessId, ProcessId], VirtualTime],
        default: VirtualTime = 1.0,
        jitter: float = 0.0,
        seed: int = 0,
        endpoints: Optional[Mapping[ProcessId, VirtualTime]] = None,
    ) -> None:
        if not default >= 0:
            raise ConfigurationError("default latency must be non-negative")
        if not jitter >= 0:
            raise ConfigurationError("jitter must be non-negative")
        for link, value in [*base.items(), *(endpoints or {}).items()]:
            if not value >= 0:
                raise ConfigurationError(f"negative latency for link {link}")
        self.base = dict(base)
        self.endpoints = dict(endpoints or {})
        self.default = default
        self.jitter = jitter
        self._rng = random.Random(seed)

    def delay(
        self, sender: ProcessId, receiver: ProcessId, now: VirtualTime
    ) -> VirtualTime:
        value = self.base.get((sender, receiver))
        if value is None:
            endpoints = self.endpoints
            if sender != receiver and (sender in endpoints or receiver in endpoints):
                value = max(endpoints.get(sender, 0.0), endpoints.get(receiver, 0.0))
            else:
                value = self.default
        jitter = self.jitter
        if jitter:
            # Random.uniform(1.0, 1.0 + jitter), written out: the span is
            # (1 + jitter) - 1, which is not always jitter in floats.
            value *= 1.0 + ((1.0 + jitter) - 1.0) * self._rng.random()
        return value


class SlowdownLatency(LatencyModel):
    """Wrap another model, degrading selected processes inside a window.

    Any message *to or from* a process listed in ``slow`` pays ``factor``
    times the inner delay plus a flat per-message ``stall`` while the window
    ``[start_at, end_at)`` is open (``end_at=None`` never closes).  With no
    stall this is the run-time slowdown that weight reassignment reacts to;
    with one it is a *gray failure*: even a near-zero base delay is dragged
    up to ``stall``, the shape of a node grinding through I/O timeouts while
    still answering — so crash detection never fires, quorums still count
    its vote, and the operation latency quietly degrades.
    """

    def __init__(
        self,
        inner: LatencyModel,
        slow: Iterable[ProcessId],
        factor: float = 10.0,
        start_at: VirtualTime = 0.0,
        end_at: Optional[VirtualTime] = None,
        stall: VirtualTime = 0.0,
    ) -> None:
        if not factor >= 1.0:
            raise ConfigurationError(f"slowdown factor must be >= 1, got {factor}")
        if not stall >= 0:
            raise ConfigurationError(f"slowdown stall must be non-negative, got {stall}")
        if not start_at >= 0:
            raise ConfigurationError(
                f"slowdown start_at must be non-negative, got {start_at}"
            )
        if end_at is not None and not end_at > start_at:
            raise ConfigurationError(
                f"slowdown end_at={end_at} must be after start_at={start_at}"
            )
        self.inner = inner
        self.slow = frozenset(slow)
        self.factor = factor
        self.start_at = start_at
        self.end_at = end_at
        self.stall = stall

    def delay(
        self, sender: ProcessId, receiver: ProcessId, now: VirtualTime
    ) -> VirtualTime:
        base = self.inner.delay(sender, receiver, now)
        end_at = self.end_at
        if (
            now >= self.start_at
            and (end_at is None or now < end_at)
            and (sender in self.slow or receiver in self.slow)
        ):
            return base * self.factor + self.stall
        return base
