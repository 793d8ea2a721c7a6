"""Expected quorum-assembly latency for a client.

Model: a client sends a request to every server simultaneously; server ``s``
replies after round-trip latency ``rtt[s]``; the operation completes as soon
as the set of servers that have replied forms a quorum.  The completion time
is therefore the smallest latency ``L`` such that the servers with
``rtt <= L`` form a quorum — for majority-style systems, the ``k``-th
smallest round-trip time where ``k`` is the quorum cardinality needed among
the fastest servers.

This is exactly the quantity weighted quorums improve on heterogeneous WANs
(the paper's motivation and the WHEAT observation [20]): if the weight sits on
the fast servers, the client stops waiting earlier.
"""

from __future__ import annotations

from typing import Mapping, Tuple

from repro.errors import ConfigurationError
from repro.quorum.base import QuorumSystem
from repro.types import ProcessId, VirtualTime

__all__ = ["fastest_quorum", "expected_quorum_latency"]


def fastest_quorum(
    quorum_system: QuorumSystem, rtt: Mapping[ProcessId, VirtualTime]
) -> Tuple[ProcessId, ...]:
    """The quorum a client assembles first: servers in ascending-RTT order."""
    missing = set(quorum_system.servers) - set(rtt)
    if missing:
        raise ConfigurationError(f"missing RTT entries for {sorted(missing)}")
    ranked = sorted(quorum_system.servers, key=lambda server: (rtt[server], server))
    assembled = []
    for server in ranked:
        assembled.append(server)
        if quorum_system.is_quorum(assembled):
            return tuple(assembled)
    raise ConfigurationError("no quorum can be assembled from the given servers")


def expected_quorum_latency(
    quorum_system: QuorumSystem, rtt: Mapping[ProcessId, VirtualTime]
) -> VirtualTime:
    """Completion latency of a one-phase quorum access under the model above."""
    quorum = fastest_quorum(quorum_system, rtt)
    return max(rtt[server] for server in quorum)
