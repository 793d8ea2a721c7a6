"""Tests for reliable broadcast and the shared SWMR register array."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.net.broadcast import ReliableBroadcast
from repro.net.latency import ConstantLatency
from repro.net.process import Process
from repro.net.registers import SharedRegister, SWMRRegisterArray

from tests.conftest import make_net


class BroadcastNode(Process):
    def __init__(self, pid, network, peers):
        super().__init__(pid, network)
        self.delivered = []
        callback = lambda origin, payload: self.delivered.append((origin, payload["v"]))
        self.bcast = ReliableBroadcast(self, peers, callback)


def build_nodes(net, count):
    peers = [f"n{i}" for i in range(1, count + 1)]
    return {pid: BroadcastNode(pid, net, peers) for pid in peers}


class TestReliableBroadcast:
    def test_everyone_delivers_exactly_once(self):
        loop, net = make_net()
        nodes = build_nodes(net, 5)
        nodes["n2"].bcast.broadcast({"v": 42})
        loop.run()
        for node in nodes.values():
            assert node.delivered == [("n2", 42)]

    def test_two_broadcasts_from_same_origin_both_delivered(self):
        loop, net = make_net()
        nodes = build_nodes(net, 3)
        nodes["n1"].bcast.broadcast({"v": "a"})
        nodes["n1"].bcast.broadcast({"v": "b"})
        loop.run()
        for node in nodes.values():
            assert sorted(v for _, v in node.delivered) == ["a", "b"]

    def test_relay_reaches_partitioned_node_indirectly(self):
        """Agreement: a node cut off from the origin still delivers via relays."""
        loop, net = make_net(ConstantLatency(1.0))
        nodes = build_nodes(net, 3)
        # n1 cannot talk to n3 directly, but n2 talks to both.
        net.partition([["n1", "n2"], ["n3"]])
        nodes["n1"].bcast.broadcast({"v": "indirect"})
        loop.run()
        assert nodes["n2"].delivered == [("n1", "indirect")]
        assert nodes["n3"].delivered == []
        # Heal the n2<->n3 side: n2's relayed copy is released and n3 delivers,
        # even though n1 has crashed in the meantime.
        net.crash("n1")
        net.heal()
        loop.run()
        assert nodes["n3"].delivered == [("n1", "indirect")]

    def test_origin_delivers_even_if_alone(self):
        loop, net = make_net()
        nodes = build_nodes(net, 3)
        net.partition([["n1"], ["n2", "n3"]])
        nodes["n1"].bcast.broadcast({"v": "self"})
        assert nodes["n1"].delivered == [("n1", "self")]


class TestSharedRegister:
    def test_read_returns_written_value(self):
        register = SharedRegister(owner="s1", initial=None)
        register.write("s1", "value")
        assert register.read("anyone") == "value"

    def test_non_owner_write_rejected(self):
        register = SharedRegister(owner="s1")
        with pytest.raises(ConfigurationError):
            register.write("s2", "value")

    def test_unowned_register_accepts_any_writer(self):
        register = SharedRegister()
        register.write("s1", 1)
        register.write("s2", 2)
        assert register.read() == 2

    def test_counts_accesses(self):
        register = SharedRegister(owner="s1")
        register.write("s1", 1)
        register.read()
        register.read()
        assert register.write_count == 1
        assert register.read_count == 2


class TestSWMRRegisterArray:
    def test_each_server_writes_its_own_entry(self):
        array = SWMRRegisterArray(["s1", "s2", "s3"])
        array.write("s1", "a")
        array.write("s2", "b")
        assert array.read("s1") == "a"
        assert array.read("s2") == "b"
        assert array.read("s3") is None

    def test_snapshot(self):
        array = SWMRRegisterArray(["s1", "s2"])
        array.write("s1", 10)
        assert array.snapshot() == {"s1": 10, "s2": None}

    def test_unknown_owner_rejected(self):
        array = SWMRRegisterArray(["s1"])
        with pytest.raises(ConfigurationError):
            array.write("s9", 1)
        with pytest.raises(ConfigurationError):
            array.read("s9")

    def test_duplicate_owners_rejected(self):
        with pytest.raises(ConfigurationError):
            SWMRRegisterArray(["s1", "s1"])
