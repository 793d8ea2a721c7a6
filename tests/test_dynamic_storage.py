"""Tests for the dynamic-weighted atomic storage (Algorithms 5 and 6)."""

from __future__ import annotations

import copy
import dataclasses
import gc
import pathlib
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.change import Change, ChangeSet, initial_changes
from repro.core.spec import SystemConfig
from repro.core.storage import (
    DynamicWeightedStorageClient,
    DynamicWeightedStorageServer,
    OperationRecord,
    _collect_news,
    _quorum_or_news,
)
from repro.errors import ConfigurationError
from repro.experiments.registry import get_scenario
from repro.experiments.spec import (
    ClusterSpec,
    KeySpec,
    LatencySpec,
    MixSpec,
    ScenarioSpec,
    WorkloadSpec,
    load_spec_file,
    run_spec,
)
from repro.net.latency import ConstantLatency, UniformLatency
from repro.net.message import Message
from repro.net.network import Network
from repro.net.process import ResponseCollector
from repro.net.simloop import SimLoop, gather
from repro.sim.runner import run_workload
from repro.sim.workload import Operation
from repro.types import Tag

from tests.conftest import check_atomic_history, history_from_records


def build_storage_cluster(n, f, latency=None, clients=2):
    loop = SimLoop()
    network = Network(loop, latency or ConstantLatency(1.0))
    config = SystemConfig.uniform(n, f=f)
    servers = {
        pid: DynamicWeightedStorageServer(pid, network, config) for pid in config.servers
    }
    client_map = {
        f"c{i}": DynamicWeightedStorageClient(f"c{i}", network, config)
        for i in range(1, clients + 1)
    }
    return loop, network, config, servers, client_map


class TestReadWriteBasics:
    def test_read_of_unwritten_register_returns_none(self):
        loop, _, _, _, clients = build_storage_cluster(3, 1)
        assert loop.run_until_complete(clients["c1"].read()) is None

    def test_read_returns_last_written_value(self):
        loop, _, _, _, clients = build_storage_cluster(5, 1)

        async def go():
            await clients["c1"].write("alpha")
            await clients["c1"].write("beta")
            return await clients["c2"].read()

        assert loop.run_until_complete(go()) == "beta"

    def test_write_of_none_rejected(self):
        loop, _, _, _, clients = build_storage_cluster(3, 1)

        async def go():
            await clients["c1"].write(None)

        with pytest.raises(ConfigurationError):
            loop.run_until_complete(go())

    def test_multi_writer_tags_are_ordered_by_writer_id(self):
        loop, _, _, _, clients = build_storage_cluster(5, 1)

        async def go():
            await clients["c1"].write("from-c1")
            await clients["c2"].write("from-c2")
            return await clients["c1"].read()

        assert loop.run_until_complete(go()) == "from-c2"

    def test_operation_records_are_kept(self):
        loop, _, _, _, clients = build_storage_cluster(3, 1)

        async def go():
            await clients["c1"].write("x")
            await clients["c1"].read()

        loop.run_until_complete(go())
        kinds = [record.kind for record in clients["c1"].history]
        assert kinds == ["write", "read"]
        assert all(record.latency > 0 for record in clients["c1"].history)

    def test_reads_survive_f_crashes(self):
        loop, network, _, _, clients = build_storage_cluster(5, 2)

        async def go():
            await clients["c1"].write("durable")
            network.crash("s4")
            network.crash("s5")
            return await clients["c2"].read()

        assert loop.run_until_complete(go()) == "durable"

    def test_a_completed_write_is_stored_at_a_quorum(self):
        loop, _, config, servers, clients = build_storage_cluster(5, 1)
        loop.run_until_complete(clients["c1"].write("shared"))
        holding = [pid for pid, server in servers.items()
                   if server.stored.value == "shared"]
        assert len(holding) >= config.n - config.f


class TestAtomicity:
    def test_concurrent_clients_histories_are_atomic(self):
        loop, _, _, _, clients = build_storage_cluster(
            5, 2, latency=UniformLatency(0.5, 2.5, seed=42), clients=4
        )

        async def writer(client, prefix, count):
            for index in range(count):
                await client.write(f"{prefix}-{index}")
                await loop.sleep(0.3)

        async def reader(client, count):
            for _ in range(count):
                await client.read()
                await loop.sleep(0.2)

        loop.run_until_complete(
            gather(
                loop,
                [
                    writer(clients["c1"], "a", 6),
                    writer(clients["c2"], "b", 6),
                    reader(clients["c3"], 10),
                    reader(clients["c4"], 10),
                ],
            )
        )
        entries = []
        for client in clients.values():
            entries.extend(history_from_records(client.history))
        assert check_atomic_history(entries) == []

    def test_atomicity_with_concurrent_transfers(self):
        """Definition 6 holds while weights are being reassigned mid-workload."""
        loop, _, _, servers, clients = build_storage_cluster(
            7, 2, latency=UniformLatency(0.5, 2.0, seed=7), clients=3
        )

        async def workload(client, prefix):
            for index in range(5):
                await client.write(f"{prefix}-{index}")
                value = await client.read()
                assert value is not None

        async def reassigner():
            await loop.sleep(1.0)
            await servers["s4"].transfer("s1", 0.2)
            await servers["s5"].transfer("s2", 0.2)
            await servers["s6"].transfer("s3", 0.2)

        loop.run_until_complete(
            gather(
                loop,
                [
                    workload(clients["c1"], "x"),
                    workload(clients["c2"], "y"),
                    workload(clients["c3"], "z"),
                    reassigner(),
                ],
            )
        )
        entries = []
        for client in clients.values():
            entries.extend(history_from_records(client.history))
        assert check_atomic_history(entries) == []

    def test_two_sequential_reads_are_monotonic(self):
        """Definition 6 directly: a later read never returns an older value."""
        loop, _, _, _, clients = build_storage_cluster(5, 1, clients=2)

        async def go():
            await clients["c1"].write("v1")
            first = await clients["c2"].read()
            await clients["c1"].write("v2")
            second = await clients["c2"].read()
            return first, second

        first, second = loop.run_until_complete(go())
        assert first == "v1"
        assert second == "v2"


class TestWeightAwareQuorums:
    def test_client_learns_new_weights_and_restarts(self):
        loop, _, config, servers, clients = build_storage_cluster(7, 2)

        async def go():
            await clients["c1"].write("seed")
            await servers["s4"].transfer("s1", 0.2)
            await servers["s5"].transfer("s2", 0.2)
            await servers["s6"].transfer("s3", 0.2)
            await clients["c1"].read()
            return clients["c1"].observed_weights()

        weights = loop.run_until_complete(go())
        assert weights["s1"] == pytest.approx(1.2)
        assert weights["s4"] == pytest.approx(0.8)
        restarts = sum(record.restarts for record in clients["c1"].history)
        assert restarts >= 1  # the post-transfer read had to refresh its view

    def test_minority_quorum_suffices_after_reassignment(self):
        """After the Fig. 1 transfers, {s1,s2,s3} alone can serve operations."""
        loop, network, config, servers, clients = build_storage_cluster(7, 2)

        async def reassign_and_isolate():
            await servers["s4"].transfer("s1", 0.2)
            await servers["s5"].transfer("s2", 0.2)
            await servers["s6"].transfer("s3", 0.2)
            # Let the change sets propagate everywhere before partitioning.
            await loop.sleep(10.0)
            # Make the client learn the new weights before the partition.
            await clients["c1"].write("before-partition")
            network.partition([["s1", "s2", "s3", "c1"], ["s4", "s5", "s6", "s7"]])
            await clients["c1"].write("inside-minority")
            return await clients["c1"].read()

        assert loop.run_until_complete(reassign_and_isolate()) == "inside-minority"

    def test_uniform_weights_require_majority(self):
        """Without reassignment the same 3-of-7 partition blocks operations."""
        from repro.errors import DeadlockError

        loop, network, config, servers, clients = build_storage_cluster(7, 2)

        async def go():
            await clients["c1"].write("seed")
            network.partition([["s1", "s2", "s3", "c1"], ["s4", "s5", "s6", "s7"]])
            await clients["c1"].read()

        with pytest.raises(DeadlockError):
            loop.run_until_complete(go())

    def test_gaining_server_refreshes_register_before_acking(self):
        """Algorithm 4 lines 8-9: the beneficiary reads before storing the gain."""
        loop, _, config, servers, clients = build_storage_cluster(5, 1)

        async def go():
            await clients["c1"].write("precious")
            await servers["s2"].transfer("s1", 0.2)
            return servers["s1"].stored.value

        assert loop.run_until_complete(go()) == "precious"

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: the weight-gain refresh recurses to the "
        "interpreter's limit, so the gaining server never stores its gain",
    )
    def test_every_server_learns_a_settled_transfer(self, monkeypatch):
        """``quickstart`` moves 0.25 from s1 to s2 once, at t=5.  Today s2's
        refresh read restarts on its own gain until the handler task dies of
        ``RecursionError`` (247 refreshes for that one transfer; the settle
        runs to t=393 instead of t=53), and s2 ends holding ``s2=1.0`` —
        a map summing to 4.75 — against 1.25 everywhere else."""
        clusters = []
        build = ClusterSpec.build

        def recording_build(self, *args, **kwargs):
            clusters.append(build(self, *args, **kwargs))
            return clusters[-1]

        monkeypatch.setattr(ClusterSpec, "build", recording_build)
        result = run_spec(get_scenario("quickstart").spec.with_overrides({
            "observability.enabled": True, "observability.trace": False,
        }))
        views = [server.local_weights() for server in clusters[0].servers.values()]
        assert all(view == views[0] for view in views)
        assert sum(views[0].values()) == pytest.approx(5.0)
        assert result["metrics"]["counters"]["storage.weight_gain_refreshes"] < 10


# ---------------------------------------------------------------------------
# The rejection schedule (ROADMAP 4(a'))
# ---------------------------------------------------------------------------

REJECTION_SCHEDULE = str(
    pathlib.Path(__file__).parent / "specs" / "rejection-schedule.json")


def c2_outcomes(spec):
    """What a correct protocol reports for each scheduled transfer, replayed
    on exact weights: the issuer's weight must stay above ``n / (2(n - f))``
    after giving ``delta`` away (condition C2), else the transfer is null.
    The schedule is sequential, so each transfer sees every earlier one."""
    floor = Fraction(spec.cluster.n, 2 * (spec.cluster.n - spec.cluster.f))
    weights = {f"s{index}": Fraction(1) for index in range(1, spec.cluster.n + 1)}
    outcomes = []
    for event in spec.transfers:
        delta = Fraction(repr(event.delta))
        remaining = weights[event.source] - delta
        outcomes.append((remaining > floor, remaining - floor))
        if remaining > floor:
            weights[event.source] = remaining
            weights[event.target] += delta
    return outcomes


class TestTheRejectionSchedule:
    """Transfers C2 must reject, and only those, with no monitoring to move
    weight on its own: the schedule `reassign-churn` will check."""

    def test_the_schedule_reaches_the_floor_and_crosses_it(self):
        outcomes = c2_outcomes(load_spec_file(REJECTION_SCHEDULE))
        rejected = [margin for effective, margin in outcomes if not effective]
        assert [effective for effective, _ in outcomes] == [
            True, False, True, False, True, True]
        assert sorted(rejected) == [Fraction(-1, 40), 0]  # below, and onto it

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 1: a gaining server never stores its gain, so "
        "s2 and s3 cannot shed what only their gains allow",
    )
    def test_exactly_the_floor_crossing_transfers_are_rejected(self):
        spec = load_spec_file(REJECTION_SCHEDULE)
        result = run_spec(spec)
        assert spec.monitoring.enabled is False
        assert [entry["effective"] for entry in result["transfers"]] == [
            effective for effective, _ in c2_outcomes(spec)]


# ---------------------------------------------------------------------------
# The incremental phase predicate against the full re-scan it replaced
# ---------------------------------------------------------------------------


def rescan_quorum_or_news(known, total):
    """The phase predicate as it was before it became incremental, on exact
    weights: every call re-reads every reply and rebuilds its set."""

    def quorum_or_news(replies):
        if any(
            not set(reply.payload["changes"]) <= known.as_frozenset()
            for reply in replies
        ):
            return True
        senders = {reply.sender for reply in replies}
        return 2 * sum(known.weight_of(server) for server in senders) > total

    return quorum_or_news


def listcomp_quorum_or_news(known, total):
    """The incremental predicate as it was before it summed integer
    numerators, on exact weights: it re-sums every sender per call."""
    weights = known.weight_map()
    senders = set()
    seen = 0

    def predicate(replies):
        nonlocal seen
        while seen < len(replies):
            reply = replies[seen]
            if not known.covers(reply.payload["changes"]):
                return True  # ``seen`` stays on the news: asked again, same answer
            senders.add(reply.sender)
            seen += 1
        return 2 * sum([weights.get(server, 0) for server in senders]) > total

    return predicate


def rescan_collect_news(replies, known):
    news = []
    for reply in replies:
        for change in reply.payload["changes"]:
            if change not in known:
                news.append(change)
    return news


_SERVERS = ("s1", "s2", "s3", "s4", "s5")
# Transfers some of which ``known`` has merged and some of which it has not.
_TRANSFERS = tuple(
    Change(author, counter, server, delta)
    for counter, (author, server, delta) in enumerate(
        [
            ("s1", "s1", -0.1), ("s1", "s2", 0.1), ("s2", "s2", -0.2),
            ("s2", "s3", 0.2), ("s4", "s4", -0.3), ("s4", "s5", 0.3),
            ("s3", "s3", 0.0), ("s5", "s1", 0.7),
        ],
        start=2,
    )
)


@st.composite
def phase_cases(draw):
    weights = draw(
        st.lists(
            st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0, 1.1, 1.5])
            | st.floats(min_value=0.01, max_value=10.0),
            min_size=len(_SERVERS), max_size=len(_SERVERS),
        )
    )
    initial = initial_changes(dict(zip(_SERVERS, weights)))
    merged = draw(st.sets(st.sampled_from(_TRANSFERS)))
    known = initial.union(merged)
    # A few distinct reported tuples, as servers cache and resend theirs:
    # stale ones (subsets of known) and newer ones (changes known lacks).
    universe = initial.sorted() + _TRANSFERS
    reported = [
        ChangeSet(subset).sorted()
        for subset in draw(
            st.lists(st.sets(st.sampled_from(universe)), min_size=1, max_size=4)
        )
    ]
    if draw(st.booleans()):
        reported.append(known.sorted())
    replies = [
        Message(
            sender=draw(st.sampled_from(_SERVERS)),  # repeats allowed
            receiver="c1",
            kind="R_ACK",
            payload={"changes": reported[draw(st.integers(0, len(reported) - 1))]},
            request_id=1,
            is_reply=True,
        )
        for _ in range(draw(st.integers(min_value=0, max_value=8)))
    ]
    # Put W0 / 2 exactly on the weight of the senders of some prefix (that
    # prefix is then *not* a quorum), or one step of ``known``'s common
    # denominator either side of it.
    prefix = draw(st.integers(min_value=0, max_value=len(replies)))
    quorum = {reply.sender for reply in replies[:prefix]} or set(_SERVERS)
    weight = sum(known.weight_of(server) for server in quorum)
    step = Fraction(draw(st.sampled_from([-1, 0, 1])), known.integer_weights()[1])
    return known, 2 * (weight + step), replies


class TestIncrementalPhasePredicate:
    @settings(max_examples=300, deadline=None)
    @given(case=phase_cases())
    def test_fires_on_the_same_reply_with_the_same_list(self, case):
        known, total, replies = case
        new, old, listcomp = (ResponseCollector(1, len(replies)) for _ in range(3))
        new_wait = new.wait_until(_quorum_or_news(known, total))
        old_wait = old.wait_until(rescan_quorum_or_news(known, total))
        listcomp_wait = listcomp.wait_until(listcomp_quorum_or_news(known, total))
        for reply in replies:
            assert new_wait.done() == old_wait.done() == listcomp_wait.done()
            new.add(reply)
            old.add(reply)
            listcomp.add(reply)
        assert new_wait.done() == old_wait.done() == listcomp_wait.done()
        if old_wait.done():
            fired_with = old_wait.result()
            assert [id(r) for r in new_wait.result()] == [id(r) for r in fired_with]
            assert [id(r) for r in listcomp_wait.result()] == [id(r) for r in fired_with]
        else:
            fired_with = replies
        assert _collect_news(fired_with, known) == rescan_collect_news(fired_with, known)

    def test_news_is_sticky_and_only_new_replies_are_read(self):
        known = initial_changes({"s1": 1.0, "s2": 1.0, "s3": 1.0})
        stale = Message("s1", "c1", "R_ACK", {"changes": known.sorted()})
        newer = Message(
            "s2", "c1", "R_ACK",
            {"changes": known.add(Change("s1", 2, "s2", 0.25)).sorted()},
        )
        predicate = _quorum_or_news(known, Fraction(3))
        replies = [stale]
        assert predicate(replies) is False
        # Folded in once: a reply the predicate already passed is not read
        # again, even if (against the rules) it changed afterwards.
        stale.payload = None
        replies.append(newer)
        assert predicate(replies) is True
        assert predicate(replies + [stale]) is True


# ---------------------------------------------------------------------------
# A finished request is garbage
# ---------------------------------------------------------------------------


def _live(kind):
    return sum(1 for obj in gc.get_objects() if type(obj) is kind)


def _live_after_steady_run(operations_per_client):
    """Run the steady read-mostly spec (n=5 f=1, 8 clients) to quiescence and
    count what it still holds, with the whole world kept alive."""
    spec = ScenarioSpec(
        name="steady-lifetime",
        cluster=ClusterSpec(flavour="dynamic-weighted", n=5, f=1, client_count=8),
        workload=WorkloadSpec(
            operations_per_client=operations_per_client,
            keys=KeySpec(kind="zipfian", space=64, zipf_s=1.1),
            mix=MixSpec(read_ratio=0.9),
        ),
        latency=LatencySpec(kind="uniform", low=0.5, high=1.5),
        seed=3,
    ).validate()
    gc.collect()
    before = _live(Message), _live(ResponseCollector)
    cluster = spec.cluster.build(
        spec.cluster.system_config(), spec.latency.build(seed=spec.seed, shards=1)
    )
    workload = spec.workload.build(tuple(cluster.clients), seed=spec.seed)
    report = run_workload(cluster, workload)
    cluster.loop.run()
    assert report.operations == 8 * operations_per_client
    processes = list(cluster.servers.values()) + list(cluster.clients.values())
    assert [process._pending for process in processes] == [{}] * len(processes)
    gc.collect()
    return _live(Message) - before[0], _live(ResponseCollector) - before[1]


class TestFinishedRequestsDie:
    def test_live_messages_do_not_grow_with_the_number_of_operations(self):
        short = _live_after_steady_run(operations_per_client=25)  # 200 ops
        long = _live_after_steady_run(operations_per_client=250)  # 2 000 ops
        # 2 000 ops are 4 000 requests and 20 000 replies; holding on to
        # them shows as a 10x difference, letting go as (nearly) none.
        assert abs(long[0] - short[0]) <= 16, (short, long)
        assert abs(long[1] - short[1]) <= 4, (short, long)


#: The two records a run keeps for its whole length — every operation of the
#: workload, generated up front, and every completed one — each with a field
#: to replace.
RECORDS = [
    pytest.param(
        Operation("c1", "write", "v1", issue_after=0.5, key="k3", batch_id=2,
                  batch_index=1),
        "key", id="operation"),
    pytest.param(
        OperationRecord(kind="read", value="v", tag=Tag(ts=3, pid="s1"),
                        started_at=1.0, completed_at=2.5, restarts=1,
                        contacted=4),
        "restarts", id="operation-record"),
]


class TestSlottedRecords:
    @pytest.mark.parametrize("record, field", RECORDS)
    def test_no_instance_dict(self, record, field):
        assert not hasattr(record, "__dict__")
        # A frozen slotted dataclass's __setattr__ still names the class as it
        # was before slots were added, so a new name raises TypeError there.
        with pytest.raises((AttributeError, TypeError)):
            record.extra = 1

    def test_an_operation_stays_frozen(self):
        operation = RECORDS[0].values[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            operation.kind = "read"

    @pytest.mark.parametrize("record, field", RECORDS)
    def test_copy_survives(self, record, field):
        for duplicate in (copy.copy(record), copy.deepcopy(record)):
            assert duplicate == record and duplicate is not record

    @pytest.mark.parametrize("record, field", RECORDS)
    def test_pickle_round_trip(self, record, field):
        # Protocol 2 on: what copy and multiprocessing use.  A frozen
        # slotted dataclass unpickles through the setstate dataclasses adds
        # (the 3.10 edge); 0 and 1 cannot carry a slotted instance without it.
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            restored = pickle.loads(pickle.dumps(record, protocol))
            assert restored == record and type(restored) is type(record)

    @pytest.mark.parametrize("record, field", RECORDS)
    def test_replace_changes_one_field(self, record, field):
        changed = dataclasses.replace(record, **{field: 7})
        assert getattr(changed, field) == 7
        assert dataclasses.replace(changed, **{field: getattr(record, field)}) == record
