"""Tests for the network, processes, latency models and fault injection."""

from __future__ import annotations

import gc
import math
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.consensus.sequencer import Sequencer
from repro.core.protocol import ReassignmentServer
from repro.core.spec import SystemConfig
from repro.errors import ConfigurationError, CrashedProcessError, UnknownProcessError
from repro.net.latency import (
    ConstantLatency,
    LogNormalLatency,
    PerLinkLatency,
    SlowdownLatency,
    UniformLatency,
)
from repro.net.message import Message
from repro.net.network import Network
from repro.net.process import Process, ResponseCollector
from repro.net.simloop import SimFuture, SimLoop
from repro.reassign.consensus_based import ConsensusBasedServer
from repro.sim.cluster import World

from tests.conftest import make_net, pending_events


class EchoServer(Process):
    """Replies to PING with PONG carrying the same payload."""

    def __init__(self, pid, network):
        super().__init__(pid, network)
        self.received = []
        self.register_handler("PING", self._on_ping)
        self.register_handler("NOTE", lambda m: self.received.append(m.payload["text"]))

    def _on_ping(self, message):
        self.reply(message, "PONG", {"echo": message.payload["n"]})


_NAN = float("nan")


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

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: ConstantLatency(_NAN), id="constant-value"),
        pytest.param(lambda: UniformLatency(_NAN, 1.5), id="uniform-low"),
        pytest.param(lambda: UniformLatency(0.5, _NAN), id="uniform-high"),
        pytest.param(lambda: LogNormalLatency(median=_NAN), id="lognormal-median"),
        pytest.param(lambda: LogNormalLatency(sigma=_NAN), id="lognormal-sigma"),
        pytest.param(lambda: PerLinkLatency({("a", "b"): _NAN}), id="per-link-base"),
        pytest.param(lambda: PerLinkLatency({}, default=_NAN), id="per-link-default"),
        pytest.param(lambda: PerLinkLatency({}, jitter=_NAN), id="per-link-jitter"),
        pytest.param(
            lambda: PerLinkLatency({}, endpoints={"a": _NAN}), id="per-link-endpoints"),
        pytest.param(
            lambda: SlowdownLatency(ConstantLatency(), ["s1"], factor=_NAN),
            id="slowdown-factor"),
        pytest.param(
            lambda: SlowdownLatency(ConstantLatency(), ["s1"], stall=_NAN),
            id="slowdown-stall"),
        pytest.param(
            lambda: SlowdownLatency(ConstantLatency(), ["s1"], end_at=_NAN),
            id="slowdown-end_at"),
        pytest.param(
            lambda: SlowdownLatency(ConstantLatency(), ["s1"], start_at=_NAN),
            id="slowdown-start_at"),
    ])
    def test_every_model_rejects_nan(self, build):
        with pytest.raises(ConfigurationError):
            build()

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

    def test_slowdown_stall_window_edges_and_listed_endpoints(self):
        model = SlowdownLatency(
            ConstantLatency(2.0), slow=["s1", "s2"], factor=3.0,
            start_at=5.0, end_at=15.0, stall=0.5,
        )
        assert model.delay("s1", "c1", 4.999) == 2.0  # before the window
        assert model.delay("s1", "c1", 5.0) == 6.5  # start_at is inside
        assert model.delay("c1", "s2", 14.999) == 6.5  # listed receiver
        assert model.delay("s1", "s2", 10.0) == 6.5  # both listed: paid once
        assert model.delay("c1", "s3", 10.0) == 2.0  # no listed endpoint
        assert model.delay("s1", "c1", 15.0) == 2.0  # end_at is outside
        assert SlowdownLatency(
            ConstantLatency(0.0), slow=["s1"], stall=0.5).delay("s1", "c1", 0.0) == 0.5

    def test_slowdown_window_must_end_after_it_starts(self):
        with pytest.raises(ConfigurationError, match="must be after"):
            SlowdownLatency(ConstantLatency(), ["s1"], start_at=5.0, end_at=5.0)

    def test_slowdown_without_stall_is_the_bare_product(self):
        inner, oracle = UniformLatency(seed=9), UniformLatency(seed=9)
        model = SlowdownLatency(inner, slow=["s1"], factor=7.3)
        for _ in range(200):
            assert model.delay("s1", "c1", 0.0) == oracle.delay("s1", "c1", 0.0) * 7.3


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

    def test_a_send_reaches_only_its_receiver(self):
        loop, net = make_net()
        a = EchoServer("a", net)
        receivers = [EchoServer(f"r{i}", net) for i in range(3)]
        a.send("r1", "NOTE", {"text": "x"})
        loop.run()
        assert [r.received for r in receivers] == [[], ["x"], []]


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


class Asker(EchoServer):
    """Awaits the first reply to a request, as a quorum phase does."""

    async def ask(self, receivers):
        await self.request_all(receivers, "PING", {"n": 1}).wait_for_count(1)


@pytest.fixture
def no_automatic_gc():
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


class TestAClosedNetworkFreesItsWorld:
    """Closing a world breaks every cycle a finished run's processes are in:
    process <-> network, a handler table of bound methods, a server <-> its
    reliable broadcast or total-order client, and the loop <-> the network
    through a message still in flight.  Reference counting alone then frees
    the whole world, with the collector still registered for a crashed
    receiver."""

    def test_nothing_is_left_to_the_collector(self, no_automatic_gc):
        with World(*make_net()) as world:
            loop, net = world.loop, world.network
            config = SystemConfig.uniform(2, f=0)
            s1, s2 = (ReassignmentServer(pid, net, config) for pid in config.servers)
            a, x, c = EchoServer("a", net), EchoServer("x", net), Asker("c", net)
            ordered = SystemConfig(
                servers=("r1", "r2"), f=0, initial_weights={"r1": 1.0, "r2": 1.0}
            )
            seq = Sequencer("seq", net, ordered.servers)
            r1, r2 = (
                ConsensusBasedServer(pid, net, ordered, "seq") for pid in ordered.servers
            )
            net.crash("x")
            assert loop.run_until_complete(s1.transfer("s2", 0.25)).effective
            assert loop.run_until_complete(r1.transfer("r1", "r2", 0.25))
            loop.create_task(c.ask(["a", "x"]))
            loop.run()
            assert len(c._pending) == 1  # met, but "x" never answers
            a.send("c", "NOTE", {"text": "in flight at close"})
            assert pending_events(loop) == 1
            refs = {
                "loop": weakref.ref(loop),
                "network": weakref.ref(net),
                **{p.pid: weakref.ref(p) for p in (s1, s2, a, x, c, seq, r1, r2)},
            }
        del world, loop, net, s1, s2, a, x, c, seq, r1, r2
        assert [name for name, ref in refs.items() if ref() is not None] == []
