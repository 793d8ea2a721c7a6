"""The fault space of a declarative scenario, as ordinary sweep axes.

:func:`fault_axes` turns a :class:`~repro.experiments.spec.ScenarioSpec`
into a dict of dotted-path sweep axes covering its fault dimensions —
exactly the shape :meth:`~repro.experiments.sweep.Sweep.of` takes, so the
existing Latin-hypercube sampler stratifies the chaos space with no new
machinery.  Each axis value is *self-contained* (an outage carries its own
recovery, a partition window its own heal), so any combination of values
across axes is a valid, buildable schedule — the property LHS sampling
needs, since it combines axis values freely.

Two regimes:

* **benign** (``benign=True``) — every value keeps the cluster within its
  fault budget: outages recover, partitions heal with a quorum-capable
  majority (plus all clients) on one side, gray failures are mild.  A
  correct system must come through the whole benign region with zero
  oracle violations; that is the CI smoke gate.
* **aggressive** (the default) — adds the known killers: a permanent crash
  set larger than the quorum system tolerates, a partition isolating every
  client from every server, and a gray-failure set wide enough to touch
  every quorum.  These are *expected* to surface findings; the campaign
  ranks them.

The derived set sizes come from the spec's own quorum system
(:func:`~repro.quorum.weighted.smallest_quorum_size`), so the
axes stay sharp when weights or ``n`` change.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments.spec import ScenarioSpec
from repro.quorum.weighted import smallest_quorum_size
from repro.types import VirtualTime, client_name

__all__ = ["fault_axes"]

#: Gray-failure multipliers: the benign prefix stays mild, the aggressive
#: tail reaches the regime where a gray node dominates every quorum round.
BENIGN_FACTORS = (2.0, 4.0)
AGGRESSIVE_FACTORS = (2.0, 4.0, 8.0, 16.0)
BENIGN_STALLS = (0.0,)
AGGRESSIVE_STALLS = (0.0, 2.0)


def fault_axes(
    spec: ScenarioSpec,
    benign: bool = False,
    times: Sequence[VirtualTime] = (4.0, 8.0, 12.0),
    outage_length: VirtualTime = 8.0,
    window_length: VirtualTime = 8.0,
) -> Dict[str, List[Any]]:
    """The sweepable fault axes of ``spec``, ready for ``Sweep.of``.

    ``times`` are the candidate injection instants (vary them to move the
    faults relative to the scenario's own schedule — e.g. past its scripted
    transfers); ``outage_length`` / ``window_length`` size the recovering
    windows.  Every axis includes the no-fault value ``()``, so the sampled
    region always contains near-baseline points and single-fault marginals.
    """
    if not times:
        raise ConfigurationError("fault_axes needs at least one injection time")
    if any(t < 0 for t in times):
        raise ConfigurationError(f"injection times must be non-negative: {times}")
    config = spec.cluster.system_config()
    servers: Tuple[str, ...] = tuple(config.servers)
    n = len(servers)
    min_quorum = smallest_quorum_size(config.initial_weights)
    if min_quorum is None:
        raise ConfigurationError("the initial weights hold no quorum (total weight 0)")
    # The smallest set of servers that intersects *every* quorum: take this
    # many out (crash, isolate, or degrade them) and no quorum is clean.
    blocking = n - min_quorum + 1
    clients = tuple(
        client_name(index) for index in range(1, spec.cluster.client_count + 1)
    )
    times = tuple(times)

    # -- faults.outages: one recovering window per (server, time) ----------
    outages: List[Any] = [()]
    if config.f >= 1:
        for server in servers:
            for at in times:
                outages.append(((server, at, at + outage_length),))
    if not benign:
        # Permanently crash a quorum-blocking set: beyond any fault budget,
        # liveness is gone and the run must die (a captured error finding).
        outages.append(
            tuple((server, times[0], None) for server in servers[:blocking])
        )

    # -- faults.partitions: healed minority cuts (+ client isolation) ------
    partitions: List[Any] = [()]
    if n - 1 >= min_quorum:
        for index, at in enumerate(times):
            minority = servers[index % n]
            majority = tuple(s for s in servers if s != minority) + clients
            partitions.append(((at, (majority,), at + window_length),))
    if not benign:
        # All servers on one side, every client implicitly on the other:
        # operations stall for the whole window, the canonical latency bomb.
        partitions.append(((times[0], (servers,), times[0] + window_length),))

    # -- latency.degraded*: gray failures (slow-but-alive) ------------------
    degraded: List[Any] = [()]
    degraded.extend((server,) for server in servers)
    if not benign:
        # Degrade a quorum-blocking set: every quorum now waits on at least
        # one gray node, so the whole run inherits the gray latency.
        degraded.append(tuple(servers[:blocking]))

    return {
        "faults.outages": outages,
        "faults.partitions": partitions,
        "latency.degraded": degraded,
        "latency.degraded_factor": list(
            BENIGN_FACTORS if benign else AGGRESSIVE_FACTORS
        ),
        "latency.degraded_stall": list(
            BENIGN_STALLS if benign else AGGRESSIVE_STALLS
        ),
    }
