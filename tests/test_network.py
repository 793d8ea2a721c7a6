"""Tests for the network, processes, latency models and fault injection."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, CrashedProcessError, UnknownProcessError
from repro.net.latency import (
    ConstantLatency,
    LogNormalLatency,
    PerLinkLatency,
    SlowdownLatency,
    UniformLatency,
    WanMatrixLatency,
    wan_latency_matrix,
)
from repro.net.message import Message
from repro.net.network import Network
from repro.net.process import Process, ResponseCollector
from repro.net.simloop import SimFuture, SimLoop

from tests.conftest import make_net


class EchoServer(Process):
    """Replies to PING with PONG carrying the same payload."""

    def __init__(self, pid, network):
        super().__init__(pid, network)
        self.received = []
        self.register_handler("PING", self._on_ping)
        self.register_handler("NOTE", lambda m: self.received.append(m.payload["text"]))

    def _on_ping(self, message):
        self.reply(message, "PONG", {"echo": message.payload["n"]})


class TestLatencyModels:
    def test_constant(self):
        model = ConstantLatency(2.5)
        assert model.delay("a", "b", 0.0) == 2.5

    def test_constant_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            ConstantLatency(-1.0)

    def test_uniform_within_bounds_and_seeded(self):
        model = UniformLatency(1.0, 3.0, seed=7)
        samples = [model.delay("a", "b", 0.0) for _ in range(100)]
        assert all(1.0 <= s <= 3.0 for s in samples)
        again = UniformLatency(1.0, 3.0, seed=7)
        assert [again.delay("a", "b", 0.0) for _ in range(100)] == samples

    def test_uniform_rejects_bad_bounds(self):
        with pytest.raises(ConfigurationError):
            UniformLatency(3.0, 1.0)

    def test_lognormal_positive(self):
        model = LogNormalLatency(median=2.0, sigma=0.5, seed=1)
        assert all(model.delay("a", "b", 0.0) > 0 for _ in range(50))

    def test_lognormal_validation(self):
        with pytest.raises(ConfigurationError):
            LogNormalLatency(median=0.0)
        with pytest.raises(ConfigurationError):
            LogNormalLatency(sigma=-1.0)

    def test_per_link_uses_table_and_default(self):
        model = PerLinkLatency({("a", "b"): 5.0}, default=1.0)
        assert model.delay("a", "b", 0.0) == 5.0
        assert model.delay("b", "a", 0.0) == 1.0

    def test_per_link_rejects_negative_entries(self):
        with pytest.raises(ConfigurationError):
            PerLinkLatency({("a", "b"): -2.0})

    def test_wan_matrix_symmetric_fill(self):
        table = wan_latency_matrix(
            ["s1", "s2"],
            one_way={("eu", "us"): 40.0},
            site_of={"s1": "eu", "s2": "us"},
        )
        assert table[("s1", "s2")] == 40.0
        assert table[("s2", "s1")] == 40.0

    def test_wan_matrix_missing_entry_rejected(self):
        with pytest.raises(ConfigurationError):
            wan_latency_matrix(
                ["s1", "s2"],
                one_way={},
                site_of={"s1": "eu", "s2": "us"},
            )

    def test_wan_model_intra_site_fast(self):
        model = WanMatrixLatency(
            processes=["s1", "s2", "s3"],
            site_of={"s1": "eu", "s2": "eu", "s3": "us"},
            site_latency={("eu", "us"): 40.0},
            jitter=0.0,
        )
        assert model.delay("s1", "s2", 0.0) == 0.5
        assert model.delay("s1", "s3", 0.0) == 40.0

    def test_slowdown_applies_only_in_window_and_to_slow_processes(self):
        inner = ConstantLatency(1.0)
        model = SlowdownLatency(inner, slow=["s1"], factor=10.0, start_at=5.0, end_at=15.0)
        assert model.delay("s1", "s2", 0.0) == 1.0  # before the window
        assert model.delay("s1", "s2", 5.0) == 10.0  # slow sender
        assert model.delay("s2", "s1", 10.0) == 10.0  # slow receiver
        assert model.delay("s2", "s3", 10.0) == 1.0  # unaffected pair
        assert model.delay("s1", "s2", 15.0) == 1.0  # after the window

    def test_slowdown_rejects_factor_below_one(self):
        with pytest.raises(ConfigurationError):
            SlowdownLatency(ConstantLatency(1.0), slow=["s1"], factor=0.5)


_DRAWS = 1000
_seeds = st.integers(min_value=0, max_value=2**64)
_bounds = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)


def _draws(model):
    return [model.delay("a", "b", 0.0) for _ in range(_DRAWS)]


class TestDrawsMatchTheStdlib:
    """The models write the stdlib's formulas out over ``Random.random()``;
    ``random.Random(seed)`` itself is the oracle, compared with ``==``."""

    @settings(max_examples=60, deadline=None)
    @given(seed=_seeds, low=_bounds, width=_bounds)
    def test_uniform(self, seed, low, width):
        high = low + width
        oracle = random.Random(seed)
        assert _draws(UniformLatency(low, high, seed=seed)) == [
            oracle.uniform(low, high) for _ in range(_DRAWS)
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=_seeds,
        median=st.floats(min_value=1e-3, max_value=1e3),
        sigma=st.floats(min_value=0.0, max_value=3.0),
    )
    def test_lognormal(self, seed, median, sigma):
        oracle = random.Random(seed)
        assert _draws(LogNormalLatency(median, sigma, seed=seed)) == [
            oracle.lognormvariate(math.log(median), sigma) for _ in range(_DRAWS)
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=_seeds,
        base=_bounds,
        jitter=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2.0)),
    )
    def test_per_link_jitter(self, seed, base, jitter):
        oracle = random.Random(seed)
        expected = []
        for _ in range(_DRAWS):
            value = base
            if jitter:
                value *= oracle.uniform(1.0, 1.0 + jitter)
            expected.append(value)
        model = PerLinkLatency({("a", "b"): base}, jitter=jitter, seed=seed)
        assert _draws(model) == expected


class TestNetworkDelivery:
    def test_round_trip_uses_latency(self):
        loop, net = make_net(ConstantLatency(2.0))
        a = EchoServer("a", net)
        b = EchoServer("b", net)

        async def go():
            collector = a.request_all(["b"], "PING", {"n": 1})
            replies = await collector.wait_for_count(1)
            return replies[0].payload["echo"], loop.now

        echo, finished = loop.run_until_complete(go())
        assert echo == 1
        assert finished == 4.0  # two hops at 2.0 each

    def test_duplicate_registration_rejected(self):
        _, net = make_net()
        EchoServer("a", net)
        with pytest.raises(UnknownProcessError):
            EchoServer("a", net)

    def test_unknown_receiver_rejected(self):
        loop, net = make_net()
        a = EchoServer("a", net)
        with pytest.raises(UnknownProcessError):
            a.send("ghost", "PING", {"n": 1})

    def test_stats_count_messages(self):
        loop, net = make_net()
        a = EchoServer("a", net)
        b = EchoServer("b", net)
        a.send("b", "NOTE", {"text": "hi"})
        loop.run()
        assert net.messages_sent == 1
        assert net.messages_delivered == 1
        assert b.received == ["hi"]
        net.reset_stats()
        assert net.stats()["sent"] == 0

    def test_send_to_all(self):
        loop, net = make_net()
        a = EchoServer("a", net)
        receivers = [EchoServer(f"r{i}", net) for i in range(3)]
        a.send_to_all([r.pid for r in receivers], "NOTE", {"text": "x"})
        loop.run()
        assert all(r.received == ["x"] for r in receivers)


class TestCrashSemantics:
    def test_crashed_process_does_not_receive(self):
        loop, net = make_net()
        a = EchoServer("a", net)
        b = EchoServer("b", net)
        net.crash("b")
        a.send("b", "NOTE", {"text": "hi"})
        loop.run()
        assert b.received == []
        assert net.messages_dropped == 1

    def test_crashed_process_does_not_send(self):
        loop, net = make_net()
        a = EchoServer("a", net)
        b = EchoServer("b", net)
        a.crash()
        a.send("b", "NOTE", {"text": "hi"})
        loop.run()
        assert b.received == []

    def test_message_in_flight_to_crashed_process_dropped(self):
        loop, net = make_net(ConstantLatency(5.0))
        a = EchoServer("a", net)
        b = EchoServer("b", net)
        a.send("b", "NOTE", {"text": "hi"})
        loop.call_later(1.0, lambda: net.crash("b"))
        loop.run()
        assert b.received == []

    def test_request_from_crashed_process_raises(self):
        loop, net = make_net()
        a = EchoServer("a", net)
        EchoServer("b", net)
        a.crash()
        with pytest.raises(CrashedProcessError):
            a.request_all(["b"], "PING", {"n": 1})

    def test_crash_unknown_process_rejected(self):
        _, net = make_net()
        with pytest.raises(UnknownProcessError):
            net.crash("ghost")


class TestPartitions:
    def test_partition_holds_and_heal_releases(self):
        loop, net = make_net(ConstantLatency(1.0))
        a = EchoServer("a", net)
        b = EchoServer("b", net)
        net.partition([["a"], ["b"]])
        a.send("b", "NOTE", {"text": "trapped"})
        loop.run()
        assert b.received == []
        net.heal()
        loop.run()
        assert b.received == ["trapped"]

    def test_partition_allows_intra_group_traffic(self):
        loop, net = make_net()
        a = EchoServer("a", net)
        b = EchoServer("b", net)
        c = EchoServer("c", net)
        net.partition([["a", "b"], ["c"]])
        a.send("b", "NOTE", {"text": "same side"})
        loop.run()
        assert b.received == ["same side"]

    def test_unlisted_processes_form_implicit_group(self):
        loop, net = make_net()
        a = EchoServer("a", net)
        b = EchoServer("b", net)
        c = EchoServer("c", net)
        net.partition([["a"]])
        b.send("c", "NOTE", {"text": "both implicit"})
        a.send("b", "NOTE", {"text": "cross"})
        loop.run()
        assert c.received == ["both implicit"]
        assert b.received == []


class TestResponseCollector:
    def test_wait_for_count_resolves_with_partial_replies(self):
        loop, net = make_net(ConstantLatency(1.0))
        client = Process("client", net)
        servers = [EchoServer(f"s{i}", net) for i in range(1, 6)]
        net.crash("s5")

        async def go():
            collector = client.request_all([s.pid for s in servers], "PING", {"n": 9})
            replies = await collector.wait_for_count(4)
            return sorted(r.sender for r in replies)

        assert loop.run_until_complete(go()) == ["s1", "s2", "s3", "s4"]

    def test_wait_until_custom_predicate(self):
        loop, net = make_net(ConstantLatency(1.0))
        client = Process("client", net)
        servers = [EchoServer(f"s{i}", net) for i in range(1, 4)]

        async def go():
            collector = client.request_all([s.pid for s in servers], "PING", {"n": 0})
            replies = await collector.wait_until(
                lambda rs: any(r.sender == "s2" for r in rs), name="s2-replied"
            )
            return [r.sender for r in replies]

        assert "s2" in loop.run_until_complete(go())

    def test_late_replies_still_recorded(self):
        loop, net = make_net(UniformLatency(0.5, 3.0, seed=11))
        client = Process("client", net)
        servers = [EchoServer(f"s{i}", net) for i in range(1, 6)]

        async def go():
            collector = client.request_all([s.pid for s in servers], "PING", {"n": 0})
            await collector.wait_for_count(2)
            return collector

        collector = loop.run_until_complete(go())
        loop.run()
        assert len(collector.responses) == 5

    def test_a_fully_answered_request_is_forgotten(self):
        loop, net = make_net(UniformLatency(0.5, 3.0, seed=11))
        client = Process("client", net)
        servers = [EchoServer(f"s{i}", net) for i in range(1, 6)]
        seen_pending = []

        async def go():
            collector = client.request_all([s.pid for s in servers], "PING", {"n": 0})
            await collector.wait_for_count(2)
            # The caller moved on; three replies are still in flight.
            seen_pending.append(dict(client._pending))
            return collector

        collector = loop.run_until_complete(go())
        assert seen_pending == [{collector.request_id: collector}]
        loop.run()
        # The n-th reply was recorded, and with it the process let go.
        assert len(collector.responses) == collector.expected == 5
        assert client._pending == {}

    def test_an_unanswered_request_stays_for_late_replies(self):
        loop, net = make_net(ConstantLatency(1.0))
        client = Process("client", net)
        servers = [EchoServer(f"s{i}", net) for i in range(1, 5)]
        net.crash("s4")  # never answers
        net.partition([["client", "s1", "s2", "s4"], ["s3"]])  # answers late
        collector = client.request_all([s.pid for s in servers], "PING", {"n": 0})
        loop.run()
        assert sorted(collector.senders()) == ["s1", "s2"]
        assert client._pending == {collector.request_id: collector}
        net.heal()
        loop.run()
        # The reply heal() released still found its collector ...
        assert sorted(collector.senders()) == ["s1", "s2", "s3"]
        # ... which stays registered: s4's answer can never be ruled out.
        assert client._pending == {collector.request_id: collector}


class LoopCollector(ResponseCollector):
    """``add`` as it was before it had a one-waiter path (verbatim)."""

    def add(self, message):
        self.responses.append(message)
        if not self._waiters:
            return
        still_waiting = []
        for predicate, future in self._waiters:
            if future.done():
                continue
            if predicate(self.responses):
                future.set_result(list(self.responses))
            else:
                still_waiting.append((predicate, future))
        self._waiters = still_waiting


def _resolutions(collector, waits, replies):
    """Per reply: which waits are done, and with which replies."""
    futures = [collector.wait_for_count(count) for count, _ in waits]
    for future, (_, cancelled) in zip(futures, waits):
        if cancelled:
            future.cancel()
    timeline = []
    for reply in replies:
        collector.add(reply)
        timeline.append([
            (future.cancelled(), [id(r) for r in future.result()]
             if future.done() and not future.cancelled() else None)
            for future in futures
        ])
    return timeline


class TestResponseCollectorAdd:
    @pytest.mark.parametrize("waits", [
        [(3, False)],                       # one waiter
        [(2, False), (4, False)],           # two waiters
        [(2, True)],                        # one cancelled waiter
        [(2, True), (3, False)],            # a cancelled one beside a live one
        [(3, False), (3, False)],           # two resolving at the same reply
        [],
    ])
    def test_each_wait_resolves_at_the_same_reply(self, waits):
        replies = [Message(f"s{i}", "c", "PONG", {}, 1, True) for i in range(5)]
        assert _resolutions(ResponseCollector(1, 5), waits, replies) == (
            _resolutions(LoopCollector(1, 5), waits, replies))

    def test_a_wait_added_after_the_first_resolved_is_still_served(self):
        collector = ResponseCollector(1, 4)
        replies = [Message(f"s{i}", "c", "PONG", {}, 1, True) for i in range(4)]
        first = collector.wait_for_count(1)
        collector.add(replies[0])
        assert first.done() and collector._waiters == []
        second = collector.wait_for_count(3)
        collector.add(replies[1])
        assert not second.done()
        collector.add(replies[2])
        assert second.result() == replies[:3]


class TestDeliverSpawnsTasksForCoroutines:
    @staticmethod
    def _deliver_one(handler):
        loop, net = make_net()
        sender = Process("a", net)
        receiver = Process("b", net)
        receiver.register_handler("GO", handler)
        spawned = []
        create_task = loop.create_task

        def recording_create_task(coro, name=""):
            spawned.append(name)
            return create_task(coro, name=name)

        loop.create_task = recording_create_task
        sender.send("b", "GO", {})
        loop.run()
        return spawned

    def test_async_handler(self):
        ran = []

        async def handler(message):
            ran.append(message.kind)

        assert self._deliver_one(handler) == ["b.GO"]
        assert ran == ["GO"]

    def test_sync_handler_returning_a_coroutine(self):
        ran = []

        async def later(message):
            ran.append(message.kind)

        assert self._deliver_one(lambda message: later(message)) == ["b.GO"]
        assert ran == ["GO"]

    @pytest.mark.parametrize("returned", [None, 0, "done", SimFuture()])
    def test_no_task_for_anything_else(self, returned):
        ran = []

        def handler(message):
            ran.append(message.kind)
            return returned

        assert self._deliver_one(handler) == []
        assert ran == ["GO"]


class TestMessage:
    def test_keyword_construction_and_defaults(self):
        message = Message(sender="a", receiver="b", kind="PING")
        assert (message.payload, message.request_id, message.is_reply) == ({}, None, False)
        assert (message.sent_at, message.delivered_at) == (0.0, 0.0)
        assert message.trace_flow is None
        later = Message(sender="a", receiver="b", kind="PING")
        assert later.msg_id > message.msg_id
        assert later.payload is not message.payload

    def test_instances_are_slotted(self):
        message = Message("a", "b", "PING", {"n": 1}, 7, True)
        assert not hasattr(message, "__dict__")
        with pytest.raises(AttributeError):
            message.scratch = 1
        message.trace_flow = 12  # the one extra slot, for the observer
        assert message.trace_flow == 12

    def test_equality_is_by_field_and_ignores_the_flow_stamp(self):
        fields = dict(sender="a", receiver="b", kind="PING", payload={"n": 1},
                      request_id=7, is_reply=True, sent_at=1.0, delivered_at=2.0,
                      msg_id=99)
        first, second = Message(**fields), Message(**fields)
        assert first == second
        second.trace_flow = 3
        assert first == second
        for name, other in [("kind", "PONG"), ("payload", {}), ("msg_id", 100),
                            ("delivered_at", 2.5), ("request_id", None)]:
            assert first != Message(**{**fields, name: other}), name
        assert first != ("a", "b", "PING")
        with pytest.raises(TypeError):
            hash(first)

    def test_reply_swaps_the_ends_and_keeps_the_correlation_id(self):
        request = Message("a", "b", "PING", {"n": 1}, request_id=7)
        answer = request.reply("PONG", {"echo": 1})
        assert (answer.sender, answer.receiver, answer.kind) == ("b", "a", "PONG")
        assert (answer.request_id, answer.is_reply) == (7, True)
        assert answer.payload == {"echo": 1}


class TestUnhandledMessages:
    def test_unhandled_kind_is_ignored_by_default(self):
        loop, net = make_net()
        a = EchoServer("a", net)
        b = EchoServer("b", net)
        a.send("b", "UNKNOWN_KIND", {})
        loop.run()  # must not raise
        assert b.received == []
