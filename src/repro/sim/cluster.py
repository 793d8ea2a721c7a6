"""Cluster builders: one call to wire up a loop, network, servers and clients.

``build_cluster`` wires one register of any storage flavour, from the
per-flavour factory in :mod:`repro.storage.sharded`; two names for the
flavours of the benchmark matrix call it:

* ``build_dynamic_cluster`` — the paper's dynamic-weighted storage
  (:mod:`repro.core.storage`) whose servers also run the reassignment
  protocol;
* ``build_static_cluster`` — classical ABD over a static quorum system
  (majority or static-weighted), the baselines of experiment E6.

All return a :class:`Cluster`, a small bag of handles the runner and the
examples operate on.  ``build_sharded_cluster`` scales any flavour out by
key: it wires N independent replica groups (one per shard) onto a *single*
loop and network, and hands every logical client a keyed
:class:`~repro.storage.sharded.ShardedStore` facade — the
:class:`ShardedCluster` it returns duck-types as a :class:`Cluster` for the
workload runner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.core.protocol import ReassignmentServer
from repro.core.spec import SystemConfig
from repro.core.storage import DynamicWeightedStorageClient, DynamicWeightedStorageServer
from repro.errors import ConfigurationError
from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.network import Network
from repro.net.simloop import SimLoop
from repro.storage.abd import StaticQuorumStorageClient, StaticQuorumStorageServer
from repro.storage.sharded import (
    ShardedStore,
    base_process_name,
    shard_config,
    shard_factory,
    shard_process_name,
)
from repro.types import ProcessId, client_name

__all__ = [
    "Cluster",
    "ReassignmentFleet",
    "ShardGroup",
    "ShardedCluster",
    "build_cluster",
    "build_dynamic_cluster",
    "build_static_cluster",
    "build_sharded_cluster",
    "build_reassignment_fleet",
]

StorageClient = Union[DynamicWeightedStorageClient, StaticQuorumStorageClient]
StorageServer = Union[DynamicWeightedStorageServer, StaticQuorumStorageServer]


@dataclass
class Cluster:
    """Handles to a wired-up simulated deployment."""

    loop: SimLoop
    network: Network
    config: SystemConfig
    servers: Dict[ProcessId, StorageServer]
    clients: Dict[ProcessId, StorageClient]
    flavour: str

    def server(self, pid: ProcessId) -> StorageServer:
        return self.servers[pid]

    def client(self, pid: ProcessId) -> StorageClient:
        return self.clients[pid]

    def any_client(self) -> StorageClient:
        return next(iter(self.clients.values()))


@dataclass
class ReassignmentFleet:
    """A loop/network/servers bundle for pure weight-reassignment experiments.

    This is the setup every protocol-level benchmark needs (no storage, no
    clients): a deterministic loop, a network, and one
    :class:`~repro.core.protocol.ReassignmentServer` per configured server.
    """

    loop: SimLoop
    network: Network
    config: SystemConfig
    servers: Dict[ProcessId, "ReassignmentServer"]

    def server(self, pid: ProcessId) -> "ReassignmentServer":
        return self.servers[pid]


def build_reassignment_fleet(
    config: SystemConfig,
    latency: Optional[LatencyModel] = None,
) -> ReassignmentFleet:
    """Wire up a fleet of reassignment servers (Algorithms 3/4 only)."""
    loop = SimLoop()
    network = Network(loop, latency or ConstantLatency(1.0))
    servers = {pid: ReassignmentServer(pid, network, config) for pid in config.servers}
    return ReassignmentFleet(loop=loop, network=network, config=config, servers=servers)


def build_cluster(
    config: SystemConfig,
    flavour: str,
    latency: Optional[LatencyModel] = None,
    client_count: int = 2,
) -> Cluster:
    """A single-register cluster of ``flavour``: servers, then clients, built
    by the :func:`~repro.storage.sharded.shard_factory` the sharded builder
    uses per shard, under canonical (unqualified) process names."""
    if client_count < 1:
        raise ConfigurationError("need at least one client")
    factory = shard_factory(flavour)
    loop = SimLoop()
    network = Network(loop, latency or ConstantLatency(1.0))
    servers = factory.build_servers(config, network)
    clients: Dict[ProcessId, StorageClient] = {}
    for index in range(1, client_count + 1):
        pid = client_name(index)
        clients[pid] = factory.build_client(pid, network, config)
    return Cluster(
        loop=loop,
        network=network,
        config=config,
        servers=servers,
        clients=clients,
        flavour=flavour,
    )


def build_dynamic_cluster(
    config: SystemConfig,
    latency: Optional[LatencyModel] = None,
    client_count: int = 2,
) -> Cluster:
    """A cluster running the paper's dynamic-weighted atomic storage."""
    return build_cluster(config, "dynamic-weighted", latency, client_count)


def build_static_cluster(
    config: SystemConfig,
    latency: Optional[LatencyModel] = None,
    client_count: int = 2,
    weighted: bool = False,
) -> Cluster:
    """A cluster running classical ABD over a static quorum system.

    With ``weighted=False`` the quorum system is the plain majority system;
    with ``weighted=True`` it is a static WMQS built from the config's initial
    weights (the WHEAT-style baseline).
    """
    return build_cluster(
        config, "static-weighted" if weighted else "static-majority",
        latency, client_count,
    )


@dataclass
class ShardGroup:
    """One shard's replica group: its config and its server instances.

    ``config`` uses shard-qualified names (``s1#2``); :meth:`server` accepts
    either the qualified or the canonical (``s1``) name for convenience.
    """

    index: int
    config: SystemConfig
    servers: Dict[ProcessId, object]

    def server(self, pid: ProcessId) -> object:
        if pid in self.servers:
            return self.servers[pid]
        return self.servers[shard_process_name(pid, self.index)]

    def local_weights(self) -> Dict[ProcessId, float]:
        """The shard's current weight map, keyed by canonical server names.

        Reads one surviving server's local view (dynamic-weighted flavour
        only); static flavours report the initial weights unchanged.
        """
        for server in self.servers.values():
            weights = getattr(server, "local_weights", None)
            if weights is None:
                break
            if not server.network.is_crashed(server.pid):  # type: ignore[attr-defined]
                return {
                    base_process_name(pid): weight
                    for pid, weight in sorted(weights().items())
                }
        return {
            base_process_name(pid): weight
            for pid, weight in sorted(self.config.initial_weights.items())
        }


@dataclass
class ShardedCluster:
    """Handles to a key-sharded deployment sharing one loop and network.

    Duck-types as :class:`Cluster` for the workload runner: ``loop``,
    ``network``, ``flavour``, ``config`` and ``clients`` carry the same
    meaning, but each value in ``clients`` is a keyed
    :class:`~repro.storage.sharded.ShardedStore` facade, and the server side
    is grouped per shard in ``shards``.
    """

    loop: SimLoop
    network: Network
    config: SystemConfig  # the per-shard template, canonical server names
    shards: List[ShardGroup]
    clients: Dict[ProcessId, ShardedStore]
    flavour: str

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def shard(self, index: int) -> ShardGroup:
        return self.shards[index]

    def server(self, shard: int, pid: ProcessId) -> object:
        """The server ``pid`` (canonical or qualified name) of ``shard``."""
        return self.shards[shard].server(pid)

    def client(self, pid: ProcessId) -> ShardedStore:
        return self.clients[pid]

    def any_client(self) -> ShardedStore:
        return next(iter(self.clients.values()))

    def shard_weights(self) -> Dict[int, Dict[ProcessId, float]]:
        """Current per-shard weight maps (canonical server names)."""
        return {group.index: group.local_weights() for group in self.shards}


def build_sharded_cluster(
    config: SystemConfig,
    shards: int,
    latency: Optional[LatencyModel] = None,
    client_count: int = 2,
    flavour: str = "dynamic-weighted",
) -> ShardedCluster:
    """Wire up ``shards`` independent replica groups behind keyed clients.

    ``config`` is the per-shard template (canonical ``s1..sn`` names); every
    shard gets a renamed copy (``s1#k``) so its weights, change sets and
    reassignment state evolve independently.  All shards share one
    :class:`SimLoop` and :class:`Network`, so operations against different
    shards interleave in a single coherent virtual timeline and one latency
    model (which may slow individual shard servers by their qualified names)
    governs the whole deployment.

    Every logical client ``c1..cN`` owns one sub-client per shard
    (``c1#0``, ``c1#1``, ...) wrapped in a
    :class:`~repro.storage.sharded.ShardedStore`; the runner routes each
    operation's key through it.

    Process ids are shard-qualified even with ``shards=1``, so latency
    models and failure schedules targeting this builder's processes must use
    qualified names (``s1#0``) — or go through the spec layer, which resolves
    canonical names via
    :func:`~repro.storage.sharded.expand_process_names` and routes
    ``shards == 1`` to the unsharded builders.
    """
    if shards < 1:
        raise ConfigurationError(f"need at least one shard, got {shards}")
    if client_count < 1:
        raise ConfigurationError("need at least one client")
    factory = shard_factory(flavour)
    loop = SimLoop()
    network = Network(loop, latency or ConstantLatency(1.0))
    groups: List[ShardGroup] = []
    for index in range(shards):
        sharded = shard_config(config, index)
        groups.append(
            ShardGroup(index=index, config=sharded,
                       servers=factory.build_servers(sharded, network))
        )
    clients: Dict[ProcessId, ShardedStore] = {}
    for client_index in range(1, client_count + 1):
        pid = client_name(client_index)
        sub_clients = [
            factory.build_client(
                shard_process_name(pid, group.index), network, group.config
            )
            for group in groups
        ]
        clients[pid] = ShardedStore(pid, sub_clients)
    return ShardedCluster(
        loop=loop,
        network=network,
        config=config,
        shards=groups,
        clients=clients,
        flavour=flavour,
    )
