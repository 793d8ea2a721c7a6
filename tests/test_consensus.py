"""Tests for the consensus substrate (the property checkers and the sequencer)."""

from __future__ import annotations

import pytest

from repro.consensus.sequencer import Sequencer, TotalOrderClient
from repro.consensus.spec import (
    ConsensusResult,
    check_agreement,
    check_termination,
    check_validity,
)
from repro.net.latency import UniformLatency
from repro.net.network import Network
from repro.net.process import Process
from repro.net.simloop import SimLoop, gather


class TestConsensusSpecHelpers:
    def test_agreement_checker(self):
        results = [
            ConsensusResult("p1", "a", "x", 1.0),
            ConsensusResult("p2", "b", "x", 2.0),
        ]
        assert check_agreement(results)
        results.append(ConsensusResult("p3", "c", "y", 3.0))
        assert not check_agreement(results)

    def test_validity_checker(self):
        results = [ConsensusResult("p1", "a", "a", 1.0)]
        assert check_validity(results)
        assert not check_validity([ConsensusResult("p1", "a", "never-proposed", 1.0)])

    def test_termination_checker(self):
        results = [ConsensusResult("p1", "a", "a", 1.0)]
        assert check_termination(results, ["p1"])
        assert not check_termination(results, ["p1", "p2"])


class StateMachineReplica(Process):
    """Tiny replica used to exercise the total-order client."""

    def __init__(self, pid, network, sequencer):
        super().__init__(pid, network)
        self.log = []
        self.order = TotalOrderClient(self, sequencer, self._apply)

    def _apply(self, submitter, command):
        self.log.append((submitter, command))
        return len(self.log)


def build_sequencer_cluster(n_replicas):
    loop = SimLoop()
    network = Network(loop, UniformLatency(0.5, 1.5, seed=2))
    replica_ids = [f"r{i}" for i in range(1, n_replicas + 1)]
    sequencer = Sequencer("seq", network, replica_ids)
    replicas = {pid: StateMachineReplica(pid, network, "seq") for pid in replica_ids}
    return loop, network, sequencer, replicas


class TestSequencer:
    def test_all_replicas_apply_in_the_same_order(self):
        loop, _, sequencer, replicas = build_sequencer_cluster(4)

        async def submit(replica, count):
            for index in range(count):
                await replica.order.submit(f"{replica.pid}-cmd{index}")

        loop.run_until_complete(
            gather(loop, [submit(replica, 3) for replica in replicas.values()])
        )
        loop.run()
        logs = [replica.log for replica in replicas.values()]
        assert all(log == logs[0] for log in logs)
        assert len(logs[0]) == 12

    def test_submit_resolves_with_apply_result(self):
        loop, _, _, replicas = build_sequencer_cluster(2)

        async def go():
            first = await replicas["r1"].order.submit("a")
            second = await replicas["r1"].order.submit("b")
            return first, second

        first, second = loop.run_until_complete(go())
        assert (first, second) == (1, 2)

    def test_every_replica_applies_the_sequencer_log(self):
        loop, _, sequencer, replicas = build_sequencer_cluster(3)

        async def go():
            for index in range(5):
                await replicas["r2"].order.submit(index)

        loop.run_until_complete(go())
        loop.run()
        assert len(sequencer.ordered_log) == 5
        assert all(len(replica.log) == 5 for replica in replicas.values())

    def test_crashed_sequencer_blocks_submissions(self):
        from repro.errors import DeadlockError

        loop, network, sequencer, replicas = build_sequencer_cluster(3)
        network.crash("seq")

        async def go():
            await replicas["r1"].order.submit("stuck")

        with pytest.raises(DeadlockError):
            loop.run_until_complete(go())
