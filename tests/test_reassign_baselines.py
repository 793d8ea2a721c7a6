"""Tests for the baseline reassignment protocols (epoch-based, consensus-based)."""

from __future__ import annotations

import pytest

from repro.consensus.sequencer import Sequencer
from repro.core.spec import SystemConfig, check_integrity
from repro.errors import ConfigurationError
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.net.simloop import SimLoop, gather
from repro.reassign import (
    ConsensusBasedServer,
    EpochBasedCoordinator,
    EpochBasedServer,
)


def build_consensus_based(n, f):
    loop = SimLoop()
    network = Network(loop, ConstantLatency(1.0))
    config = SystemConfig.uniform(n, f=f)
    sequencer = Sequencer("seq", network, config.servers)
    servers = {
        pid: ConsensusBasedServer(pid, network, config, "seq") for pid in config.servers
    }
    return loop, network, config, sequencer, servers


def build_epoch_based(n, f, epoch_length=10.0):
    loop = SimLoop()
    network = Network(loop, ConstantLatency(1.0))
    config = SystemConfig.uniform(n, f=f)
    coordinator = EpochBasedCoordinator("coord", network, config, epoch_length)
    servers = {
        pid: EpochBasedServer(pid, network, config, "coord") for pid in config.servers
    }
    return loop, network, config, coordinator, servers


class TestConsensusBasedReassignment:
    def test_transfer_applies_on_all_replicas(self):
        loop, _, config, _, servers = build_consensus_based(5, 1)

        async def go():
            return await servers["s1"].transfer("s1", "s2", 0.4)

        assert loop.run_until_complete(go())
        loop.run()
        for server in servers.values():
            assert server.weights["s2"] == pytest.approx(1.4)

    def test_any_server_may_reassign_any_pair(self):
        """No C1 restriction: s3 moves weight from s1 to s2."""
        loop, _, config, _, servers = build_consensus_based(5, 1)

        async def go():
            return await servers["s3"].transfer("s1", "s2", 0.3)

        assert loop.run_until_complete(go())

    def test_integrity_violating_request_rejected_consistently(self):
        loop, _, config, _, servers = build_consensus_based(5, 2)

        async def go():
            # Moving 0.8 onto s2 would let the two heaviest servers reach half
            # of the total weight: every replica must reject it.
            return await servers["s1"].transfer("s1", "s2", 0.8)

        assert not loop.run_until_complete(go())
        loop.run()
        for server in servers.values():
            assert server.weights == config.initial_weights
            assert check_integrity(server.weights, config.f)

    def test_negative_weights_never_created(self):
        loop, _, config, _, servers = build_consensus_based(5, 1)

        async def go():
            return await servers["s1"].transfer("s1", "s2", 1.5)

        assert not loop.run_until_complete(go())

    def test_crashed_sequencer_blocks_progress(self):
        from repro.errors import DeadlockError

        loop, network, config, _, servers = build_consensus_based(5, 1)
        network.crash("seq")

        async def go():
            await servers["s1"].transfer("s1", "s2", 0.1)

        with pytest.raises(DeadlockError):
            loop.run_until_complete(go())

    def test_invalid_requests_rejected(self):
        loop, _, config, _, servers = build_consensus_based(3, 1)

        async def zero():
            await servers["s1"].transfer("s1", "s2", 0.0)

        async def unknown():
            await servers["s1"].transfer("s1", "s9", 0.1)

        for bad in (zero, unknown):
            with pytest.raises(ConfigurationError):
                loop.run_until_complete(bad())


class TestEpochBasedReassignment:
    def test_completion_waits_for_epoch_boundary(self):
        loop, _, config, coordinator, servers = build_epoch_based(5, 1, epoch_length=20.0)

        async def go():
            return await servers["s1"].transfer("s2", 0.2)

        assert loop.run_until_complete(go())
        # The request was issued at t~0 but only completed at the first epoch
        # boundary (t >= 20): epoch length dominates completion latency.
        assert loop.now >= 20.0

    def test_increment_lands_one_epoch_later(self):
        loop, _, config, coordinator, servers = build_epoch_based(5, 1, epoch_length=10.0)

        async def go():
            await servers["s1"].transfer("s2", 0.2)
            return dict(coordinator.weights)

        weights_after_first_epoch = loop.run_until_complete(go())
        # Decrement applied, increment still pending.
        assert weights_after_first_epoch["s1"] == pytest.approx(0.8)
        assert weights_after_first_epoch["s2"] == pytest.approx(1.0)
        loop.run(until=25.0)
        assert coordinator.weights["s2"] == pytest.approx(1.2)
        coordinator.stop()

    def test_weight_leaks_when_issuer_crashes_before_confirming(self):
        """The deficiency the paper points out: total weight can shrink."""
        loop, network, config, coordinator, servers = build_epoch_based(
            5, 1, epoch_length=10.0
        )

        async def go():
            # Issue the request but crash the issuer before the first epoch
            # boundary: the decrement is applied, the confirmation never
            # arrives, and the increment is dropped at the following boundary.
            loop.create_task(servers["s1"].transfer("s2", 0.2))
            await loop.sleep(5.0)
            network.crash("s1")

        loop.run_until_complete(go())
        loop.run(until=35.0)
        coordinator.stop()
        assert coordinator.leaked_weight == pytest.approx(0.2)
        assert coordinator.total_weight() == pytest.approx(
            config.total_initial_weight - 0.2
        )

    def test_no_leak_when_issuer_stays_correct(self):
        loop, _, config, coordinator, servers = build_epoch_based(5, 1, epoch_length=10.0)

        async def go():
            await servers["s1"].transfer("s2", 0.2)

        loop.run_until_complete(go())
        loop.run(until=45.0)
        coordinator.stop()
        assert coordinator.leaked_weight == 0.0
        assert coordinator.total_weight() == pytest.approx(config.total_initial_weight)

    def test_requests_below_floor_are_rejected(self):
        loop, _, config, coordinator, servers = build_epoch_based(5, 2, epoch_length=10.0)

        async def go():
            return await servers["s1"].transfer("s2", 0.5)

        assert not loop.run_until_complete(go())
        coordinator.stop()

    def test_invalid_requests_rejected(self):
        loop, _, config, coordinator, servers = build_epoch_based(3, 1)

        async def negative():
            await servers["s1"].transfer("s2", -0.1)

        async def to_self():
            await servers["s1"].transfer("s1", 0.1)

        for bad in (negative, to_self):
            with pytest.raises(ConfigurationError):
                loop.run_until_complete(bad())
        coordinator.stop()

