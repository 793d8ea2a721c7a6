"""Tests for the static ABD baseline and the simplified reconfigurable storage."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, DeadlockError
from repro.net.latency import ConstantLatency, PerLinkLatency, UniformLatency
from repro.net.network import Network
from repro.net.simloop import SimLoop, gather
from repro.quorum.majority import MajorityQuorumSystem
from repro.quorum.weighted import WeightedMajorityQuorumSystem
from repro.storage.abd import StaticQuorumStorageClient, StaticQuorumStorageServer
from repro.storage.reconfigurable import (
    ReconfigurableStorageClient,
    ReconfigurableStorageServer,
)
from repro.types import server_set

from tests.conftest import check_atomic_history, history_from_records


def build_static(n, weighted_weights=None, latency=None, clients=2):
    loop = SimLoop()
    network = Network(loop, latency or ConstantLatency(1.0))
    servers = {pid: StaticQuorumStorageServer(pid, network) for pid in server_set(n)}
    if weighted_weights is None:
        quorum_system = MajorityQuorumSystem(server_set(n))
    else:
        quorum_system = WeightedMajorityQuorumSystem(weighted_weights)
    client_map = {
        f"c{i}": StaticQuorumStorageClient(f"c{i}", network, quorum_system)
        for i in range(1, clients + 1)
    }
    return loop, network, client_map


class TestStaticABD:
    def test_write_then_read(self):
        loop, _, clients = build_static(5)

        async def go():
            await clients["c1"].write("payload")
            return await clients["c2"].read()

        assert loop.run_until_complete(go()) == "payload"

    def test_read_of_unwritten_register(self):
        loop, _, clients = build_static(3)
        assert loop.run_until_complete(clients["c1"].read()) is None

    def test_write_none_rejected(self):
        loop, _, clients = build_static(3)

        async def go():
            await clients["c1"].write(None)

        with pytest.raises(ConfigurationError):
            loop.run_until_complete(go())

    def test_survives_minority_crashes(self):
        loop, network, clients = build_static(5)

        async def go():
            await clients["c1"].write("kept")
            network.crash("s4")
            network.crash("s5")
            return await clients["c2"].read()

        assert loop.run_until_complete(go()) == "kept"

    def test_blocks_on_majority_crashes(self):
        loop, network, clients = build_static(5)

        async def go():
            network.crash("s3")
            network.crash("s4")
            network.crash("s5")
            await clients["c1"].write("nope")

        with pytest.raises(DeadlockError):
            loop.run_until_complete(go())

    def test_concurrent_history_is_atomic(self):
        loop, _, clients = build_static(
            5, latency=UniformLatency(0.5, 2.0, seed=13), clients=3
        )

        async def worker(client, prefix):
            for index in range(5):
                await client.write(f"{prefix}{index}")
                await client.read()

        loop.run_until_complete(
            gather(loop, [worker(clients[f"c{i}"], f"w{i}-") for i in range(1, 4)])
        )
        entries = []
        for client in clients.values():
            entries.extend(history_from_records(client.history))
        assert check_atomic_history(entries) == []

    def test_weighted_static_quorum_uses_fast_heavy_servers(self):
        """With the weight on s1..s3, those three servers suffice."""
        weights = {"s1": 2.0, "s2": 2.0, "s3": 2.0, "s4": 0.5, "s5": 0.5}
        loop, network, clients = build_static(5, weighted_weights=weights)
        network.crash("s4")
        network.crash("s5")

        async def go():
            await clients["c1"].write("weighted")
            return await clients["c2"].read()

        assert loop.run_until_complete(go()) == "weighted"

    def test_majority_variant_blocks_in_same_scenario(self):
        loop, network, clients = build_static(5)
        network.crash("s4")
        network.crash("s5")
        network.crash("s3")

        async def go():
            await clients["c1"].write("x")

        with pytest.raises(DeadlockError):
            loop.run_until_complete(go())

    def test_latency_follows_slowest_quorum_member(self):
        table = {("c1", f"s{i}"): float(i) for i in range(1, 6)}
        table.update({(f"s{i}", "c1"): 0.0 for i in range(1, 6)})
        loop, _, clients = build_static(
            5, latency=PerLinkLatency(table, default=0.0), clients=1
        )

        async def go():
            await clients["c1"].write("timed")

        loop.run_until_complete(go())
        record = clients["c1"].history[0]
        # Two phases, each waits for the 3rd-fastest server (RTT 3.0).
        assert record.latency == pytest.approx(6.0)


def build_reconfigurable(initial_n, all_n, latency=None, clients=2):
    loop = SimLoop()
    network = Network(loop, latency or ConstantLatency(1.0))
    everyone = server_set(all_n)
    initial = server_set(initial_n)
    servers = {
        pid: ReconfigurableStorageServer(pid, network, initial) for pid in everyone
    }
    client_map = {
        f"c{i}": ReconfigurableStorageClient(f"c{i}", network, initial, everyone)
        for i in range(1, clients + 1)
    }
    return loop, network, servers, client_map


class TestReconfigurableStorage:
    def test_basic_read_write(self):
        loop, _, _, clients = build_reconfigurable(3, 3)

        async def go():
            await clients["c1"].write("base")
            return await clients["c2"].read()

        assert loop.run_until_complete(go()) == "base"

    def test_reconfigure_adds_servers_and_preserves_value(self):
        loop, _, servers, clients = build_reconfigurable(3, 5)

        async def go():
            await clients["c1"].write("carried-over")
            await clients["c1"].reconfigure(server_set(5))
            return await clients["c2"].read()

        assert loop.run_until_complete(go()) == "carried-over"
        assert len(clients["c1"].known_configs) == 2

    def test_other_clients_learn_new_config_through_replies(self):
        loop, _, _, clients = build_reconfigurable(3, 5)

        async def go():
            await clients["c1"].write("v")
            await clients["c1"].reconfigure(server_set(5))
            await clients["c2"].read()
            return clients["c2"].known_configs

        configs = loop.run_until_complete(go())
        assert frozenset(server_set(5)) in configs

    def test_liveness_depends_on_every_pending_config(self):
        """The availability contrast of Section VIII: after proposing a new
        configuration, losing its majority blocks the store even though the
        *old* configuration is fully alive."""
        loop, network, _, clients = build_reconfigurable(3, 7)

        async def go():
            await clients["c1"].write("v")
            await clients["c1"].reconfigure(server_set(7))
            # Crash a majority of the *new* configuration (s4..s7), while the
            # old configuration {s1,s2,s3} stays entirely correct.
            for pid in ("s4", "s5", "s6", "s7"):
                network.crash(pid)
            await clients["c1"].read()

        with pytest.raises(DeadlockError):
            loop.run_until_complete(go())

    def test_old_config_crashes_also_block(self):
        loop, network, _, clients = build_reconfigurable(3, 5)

        async def go():
            await clients["c1"].reconfigure(server_set(5))
            network.crash("s1")
            network.crash("s2")
            await clients["c1"].read()

        with pytest.raises(DeadlockError):
            loop.run_until_complete(go())

    def test_unknown_server_in_reconfig_rejected(self):
        loop, _, _, clients = build_reconfigurable(3, 3)

        async def go():
            await clients["c1"].reconfigure(("s1", "s2", "s9"))

        with pytest.raises(ConfigurationError):
            loop.run_until_complete(go())

    def test_history_remains_atomic_across_reconfiguration(self):
        loop, _, _, clients = build_reconfigurable(
            3, 5, latency=UniformLatency(0.5, 1.5, seed=21), clients=3
        )

        async def writer(client, prefix):
            for index in range(4):
                await client.write(f"{prefix}{index}")

        async def reconfigurer(client):
            await loop.sleep(2.0)
            await client.reconfigure(server_set(5))

        async def reader(client):
            for _ in range(6):
                await client.read()

        loop.run_until_complete(
            gather(
                loop,
                [
                    writer(clients["c1"], "a"),
                    reconfigurer(clients["c2"]),
                    reader(clients["c3"]),
                ],
            )
        )
        entries = []
        for client in clients.values():
            entries.extend(history_from_records(client.history))
        assert check_atomic_history(entries) == []
