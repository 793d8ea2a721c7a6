"""The one module that builds worlds: a loop, a network, servers and clients.

Every builder returns a :class:`World` (a :class:`SimLoop` and the
:class:`Network` on it) that its caller closes with ``with``: the network
closes every process and the loop drops its queued events, so reference
counting alone frees the run.  ``build_world`` is the bare pair, for
protocols that bring their own processes.

``build_cluster`` wires any storage flavour of :data:`FLAVOURS` into a
:class:`Cluster`: one replica group per shard and its clients, the handles
the runner and the examples operate on.  A single register is the one-shard
cluster, under canonical process names; more shards are key-hashed groups
behind keyed :class:`~repro.storage.sharded.ShardedStore` clients.
``build_dynamic_cluster`` names the paper's dynamic-weighted storage
(:mod:`repro.core.storage`), whose servers also run the reassignment
protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.core.protocol import ReassignmentServer
from repro.core.spec import SystemConfig
from repro.core.storage import DynamicWeightedStorageClient, DynamicWeightedStorageServer
from repro.errors import ConfigurationError
from repro.net.latency import LatencyModel
from repro.net.network import Network
from repro.net.simloop import SimLoop
from repro.quorum.majority import MajorityQuorumSystem
from repro.quorum.weighted import WeightedMajorityQuorumSystem
from repro.storage.abd import StaticQuorumStorageClient, StaticQuorumStorageServer
from repro.storage.sharded import (
    ShardedStore,
    base_process_name,
    shard_config,
    shard_process_name,
)
from repro.types import ProcessId, Weight, client_name

__all__ = [
    "FLAVOURS",
    "Cluster",
    "ReassignmentFleet",
    "ShardGroup",
    "World",
    "build_cluster",
    "build_dynamic_cluster",
    "build_reassignment_fleet",
    "build_world",
]

StorageClient = Union[
    DynamicWeightedStorageClient, StaticQuorumStorageClient, ShardedStore
]
StorageServer = Union[DynamicWeightedStorageServer, StaticQuorumStorageServer]
#: Builds one server or client of a flavour: ``(pid, network, config)``.
Builder = Callable[[ProcessId, Network, SystemConfig], Any]


def _static_server(
    pid: ProcessId, network: Network, config: SystemConfig
) -> StaticQuorumStorageServer:
    return StaticQuorumStorageServer(pid, network)


#: Every storage flavour a cluster runs, and its ``(server, client)``
#: builders: the paper's dynamic-weighted storage (each shard runs its own
#: reassignment protocol) and classical ABD over a static majority or
#: weighted-majority quorum system.  ``ClusterSpec`` admits these names.
FLAVOURS: Dict[str, Tuple[Builder, Builder]] = {
    "dynamic-weighted": (DynamicWeightedStorageServer, DynamicWeightedStorageClient),
    "static-majority": (
        _static_server,
        lambda pid, network, config: StaticQuorumStorageClient(
            pid, network, MajorityQuorumSystem(config.servers)
        ),
    ),
    "static-weighted": (
        _static_server,
        lambda pid, network, config: StaticQuorumStorageClient(
            pid, network, WeightedMajorityQuorumSystem(config.initial_weights)
        ),
    ),
}


@dataclass
class World:
    """A loop and the network on it; leaving its ``with`` closes both."""

    loop: SimLoop
    network: Network

    def __enter__(self) -> "World":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.network.close()
        self.loop.close()


def build_world(latency: Optional[LatencyModel] = None) -> World:
    """A bare world: a fresh loop and a network on it, with no processes."""
    loop = SimLoop()
    return World(loop=loop, network=Network(loop, latency))


@dataclass
class ReassignmentFleet(World):
    """A loop/network/servers bundle for pure weight-reassignment experiments.

    This is the setup every protocol-level benchmark needs (no storage, no
    clients): a deterministic loop, a network, and one
    :class:`~repro.core.protocol.ReassignmentServer` per configured server.
    """

    config: SystemConfig
    servers: Dict[ProcessId, "ReassignmentServer"]

    def server(self, pid: ProcessId) -> "ReassignmentServer":
        return self.servers[pid]


def build_reassignment_fleet(
    config: SystemConfig,
    latency: Optional[LatencyModel] = None,
) -> ReassignmentFleet:
    """Wire up a fleet of reassignment servers (Algorithms 3/4 only)."""
    world = build_world(latency)
    servers = {
        pid: ReassignmentServer(pid, world.network, config) for pid in config.servers
    }
    return ReassignmentFleet(world.loop, world.network, config, servers)


@dataclass
class ShardGroup:
    """One replica group: its config and its servers, keyed by network name.

    ``index`` is the group's shard.  The one group of a one-shard cluster
    keeps the canonical names (``s1``); the groups of a sharded one are
    renamed into their shard (``s1#2``).  :meth:`server` accepts either.
    """

    index: int
    config: SystemConfig
    servers: Dict[ProcessId, StorageServer]

    def server(self, pid: ProcessId) -> StorageServer:
        """The server ``pid`` names, canonically (``s1``) or qualified
        (``s1#k``, which must be this group's ``k``)."""
        base = base_process_name(pid)
        qualified = shard_process_name(base, self.index)
        if pid != base and pid != qualified:
            raise KeyError(pid)
        servers = self.servers
        return servers[base] if base in servers else servers[qualified]

    def local_weights(self) -> Dict[ProcessId, Weight]:
        """The group's current weight map, keyed by canonical server names.

        Reads one surviving server's local view (dynamic-weighted flavour
        only); static flavours report the initial weights unchanged.
        """
        for server in self.servers.values():
            weights = getattr(server, "local_weights", None)
            if weights is None:
                break
            if not server.network.is_crashed(server.pid):
                return {
                    base_process_name(pid): weight
                    for pid, weight in sorted(weights().items())
                }
        return {
            base_process_name(pid): weight
            for pid, weight in sorted(self.config.initial_weights.items())
        }


@dataclass
class Cluster(World):
    """Handles to a wired-up deployment: replica groups and their clients.

    ``config`` is the per-shard template under canonical names, ``shards``
    holds one :class:`ShardGroup` per shard, ``servers`` every group's
    servers by network name, and ``clients`` one handle per logical client:
    the flavour's own client at one shard, a keyed
    :class:`~repro.storage.sharded.ShardedStore` facade at more.
    """

    config: SystemConfig
    shards: List[ShardGroup]
    servers: Dict[ProcessId, StorageServer]
    clients: Dict[ProcessId, StorageClient]
    flavour: str

    def server(self, shard: int, pid: ProcessId) -> StorageServer:
        """The server ``pid`` (canonical or qualified name) of ``shard``."""
        return self.shards[shard].server(pid)

    def client(self, pid: ProcessId) -> StorageClient:
        return self.clients[pid]

    def any_client(self) -> StorageClient:
        return next(iter(self.clients.values()))

    def shard_weights(self) -> Dict[int, Dict[ProcessId, Weight]]:
        """Current per-shard weight maps (canonical server names)."""
        return {group.index: group.local_weights() for group in self.shards}


def build_cluster(
    config: SystemConfig,
    flavour: str,
    latency: Optional[LatencyModel] = None,
    client_count: int = 2,
    shards: int = 1,
) -> Cluster:
    """Wire up ``shards`` replica groups of ``flavour`` and their clients.

    ``config`` is the per-shard template (canonical ``s1..sn`` names).  One
    shard is one group under those names, and each client ``c1..cN`` is the
    flavour's own client.  More shards share one :class:`SimLoop` and
    :class:`Network`, so operations on different shards interleave in one
    virtual timeline under one latency model: every shard gets a renamed
    copy of the config (``s1#k``), so its weights, change sets and
    reassignment state evolve on their own, and each logical client owns
    one sub-client per shard (``c1#k``) behind a keyed
    :class:`~repro.storage.sharded.ShardedStore`.  Servers are built before
    clients, shard by shard, from the flavour's :data:`FLAVOURS` builders.
    """
    if shards < 1:
        raise ConfigurationError(f"need at least one shard, got {shards}")
    if client_count < 1:
        raise ConfigurationError("need at least one client")
    try:
        build_server, build_client = FLAVOURS[flavour]
    except KeyError:
        raise ConfigurationError(
            f"unknown storage flavour {flavour!r}; expected one of {', '.join(FLAVOURS)}"
        ) from None
    loop = SimLoop()
    network = Network(loop, latency)
    clients: Dict[ProcessId, StorageClient] = {}
    if shards == 1:
        # No loop over one group: the steady run's counted calls cover the build.
        servers = {pid: build_server(pid, network, config) for pid in config.servers}
        groups = [ShardGroup(index=0, config=config, servers=servers)]
        for index in range(1, client_count + 1):
            pid = client_name(index)
            clients[pid] = build_client(pid, network, config)
    else:
        groups = []
        servers = {}
        for index in range(shards):
            sharded = shard_config(config, index)
            group = ShardGroup(index=index, config=sharded, servers={
                pid: build_server(pid, network, sharded) for pid in sharded.servers
            })
            groups.append(group)
            servers.update(group.servers)
        for index in range(1, client_count + 1):
            pid = client_name(index)
            clients[pid] = ShardedStore(pid, [
                build_client(shard_process_name(pid, group.index), network, group.config)
                for group in groups
            ])
    return Cluster(
        loop=loop,
        network=network,
        config=config,
        shards=groups,
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
