"""Determinism and kernel fast-path tests.

The simulation kernel promises *bit-identical* runs: same seed, same inputs,
same interleaving.  The golden test below freezes that promise into a digest
of the full observable trace (every message delivery with its timestamp plus
every per-client operation record) so any change to event ordering — e.g. in
the ready-deque fast path — fails loudly instead of shifting baselines by an
ulp.  Beside it, the determinism gate: six fixed workloads, one per layer of
the hot path, whose exact event / operation / message counts are test data
here, counted passes holding the Python and C calls of the steady storage
run (per message) and of a small serial sweep (per run) to ratchets, and a
memory pin holding the live messages of a churn run's nested refresh reads
to another.  The remaining tests pin the fast-path mechanics themselves:
FIFO ordering across the heap/ready-deque split, the cached partition map,
the detach-on-cancel rule, and the single-sort latency summary.

Run the gate alone with ``python -m pytest tests/test_determinism.py``; CI
runs it under ``PYTHONHASHSEED=0`` and ``=random``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro.core.spec import SystemConfig
from repro.errors import ConfigurationError, SimulationError
from repro.net.latency import UniformLatency
from repro.net.network import Network
from repro.net.simloop import Event, Queue, SimFuture, SimLoop, gather
from repro.sim.cluster import build_cluster
from repro.sim.metrics import percentile, summarize
from repro.sim.runner import run_workload
from repro.sim.workload import uniform_workload
from repro.workloads import WorkloadGenerator, ZipfianKeys
from tests.conftest import synthetic_trace

REPO_ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# Golden interleaving digest
# ---------------------------------------------------------------------------


def _trace_digest(seed: int) -> str:
    """Run a seeded scenario and hash its complete observable trace."""
    config = SystemConfig(servers=("s1", "s2", "s3", "s4", "s5"), f=1)
    cluster = build_cluster(
        config, "static-majority", latency=UniformLatency(0.5, 1.5, seed=seed),
        client_count=3,
    )
    deliveries = []
    original_deliver = cluster.network._deliver

    def recording_deliver(message):
        deliveries.append(
            f"{cluster.loop.now!r}|{message.sender}>{message.receiver}|{message.kind}"
        )
        original_deliver(message)

    cluster.network._deliver = recording_deliver
    workload = uniform_workload(
        list(cluster.clients), operations_per_client=20,
        read_ratio=0.5, mean_think_time=0.5, seed=seed,
    )
    report = run_workload(cluster, workload)
    lines = list(deliveries)
    for pid in sorted(cluster.clients):
        for record in cluster.clients[pid].history:
            lines.append(
                f"{pid}|{record.kind}|{record.latency!r}|{record.restarts}"
            )
    lines.append(f"events={cluster.loop.events_processed}")
    lines.append(f"sent={cluster.network.messages_sent}")
    lines.append(f"ops={report.operations}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestGoldenInterleaving:
    # The exact event interleaving of the seeded run above, frozen.  If this
    # fails, the kernel's dispatch order changed: every latency baseline is
    # now suspect.  Only update it alongside an intentional, documented
    # semantic change (and regenerate benchmarks/baselines/*).
    GOLDEN = "f0d381fdbab92df4b65792765839bf01106e18980dadfc511876197c396faab9"

    def test_trace_digest_matches_committed_golden(self):
        assert _trace_digest(7) == self.GOLDEN

    def test_trace_digest_is_reproducible_within_a_process(self):
        assert _trace_digest(7) == _trace_digest(7)

    def test_different_seeds_produce_different_traces(self):
        assert _trace_digest(7) != _trace_digest(8)


# ---------------------------------------------------------------------------
# The determinism gate: exact counts of six fixed workloads
# ---------------------------------------------------------------------------
#
# The paper states its costs as counts in virtual time, so the counts are
# what must never drift.  Each workload builds its world from fixed seeds,
# runs once and returns what it did — ``{"events", "ops", "counters"}``, all
# exact integers.  Nothing here reads a clock: ``benchmarks/perf`` is the
# stopwatch.

_CONFIG = SystemConfig(servers=("s1", "s2", "s3", "s4", "s5"), f=1)


def _event_loop():
    """Kernel dispatch: zero-delay sleeps + queue handoffs, no network."""
    tasks, iterations = 10, 200
    loop = SimLoop()
    queue = Queue()

    async def worker(index):
        for i in range(iterations):
            await loop.sleep(0)
            queue.put(index * iterations + i)
            await queue.get()

    loop.run_until_complete(gather(loop, [worker(t) for t in range(tasks)]))
    return {
        "events": loop.events_processed,
        "ops": tasks * iterations * 2,  # two awaits per iteration
        "counters": {"tasks": tasks, "iterations": iterations},
    }


def _event_loop_obs():
    """The same kernel dispatch with a metrics observer installed."""
    from repro.obs import Observer, observing

    observer = Observer(metrics=True, trace=False)
    with observing(observer):  # the loop captures it when it is built
        counts = _event_loop()
    kernel = observer.metrics.as_dict()["counters"]
    ready = kernel["kernel.ready_dispatches"]
    heap = kernel["kernel.heap_dispatches"]
    # Observing is passive: the observed twin does exactly the unobserved
    # work, and each event it dispatched came off the deque or the heap.
    plain = _event_loop()
    assert (counts["events"], counts["ops"]) == (plain["events"], plain["ops"])
    assert ready + heap == counts["events"]
    # The split is pinned too: a change means the ready-deque fast path's
    # hit pattern moved.
    counts["counters"].update(ready_dispatches=ready, heap_dispatches=heap)
    return counts


def _abd_round():
    """ABD read/write rounds over a majority quorum."""
    cluster = build_cluster(
        _CONFIG, "static-majority", latency=UniformLatency(0.5, 1.5, seed=11),
        client_count=2,
    )
    workload = uniform_workload(
        list(cluster.clients), operations_per_client=25, read_ratio=0.5,
        mean_think_time=0.1, seed=11,
    )
    report = run_workload(cluster, workload)
    return {
        "events": cluster.loop.events_processed,
        "ops": report.operations,
        "counters": {"messages": cluster.network.messages_sent},
    }


def _sharded_zipfian():
    """A zipfian keyed workload across shard groups."""
    cluster = build_cluster(
        _CONFIG, "static-majority", latency=UniformLatency(0.5, 1.5, seed=23),
        client_count=2, shards=2,
    )
    generator = WorkloadGenerator(keys=ZipfianKeys(space=64, s=1.1))
    workload = generator.generate(
        list(cluster.clients), operations_per_client=20, seed=23
    )
    report = run_workload(cluster, workload)
    return {
        "events": cluster.loop.events_processed,
        "ops": report.operations,
        "counters": {
            "messages": cluster.network.messages_sent,
            "hottest_shard_load": report.imbalance.max_load,
        },
    }


def _sweep():
    """A serial parameter sweep through the experiment layer."""
    from repro.experiments.executor import execute_many
    from repro.experiments.sweep import expand_grid

    # static-majority: the dynamic-weighted flavour's weight-gain refresh
    # recursion (see ROADMAP) aborts at a stack-depth-dependent point, which
    # would make the event count here depend on the caller's stack depth.
    runs = expand_grid(
        "quickstart",
        grid={"seed": [0, 1]},
        base={
            "cluster.flavour": "static-majority",
            "transfers": (),
            "workload.operations_per_client": 4,
        },
    )
    # Each run executes on a loop of its own: count every loop's events.
    loops = []
    build = SimLoop.__init__

    def recording_init(loop):
        build(loop)
        loops.append(loop)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SimLoop, "__init__", recording_init)
        results = execute_many(runs, workers=1)
    return {
        "events": sum(loop.events_processed for loop in loops),
        "ops": sum(result.result["operations"] for result in results),
        "counters": {
            "runs": len(results),
            "messages": sum(result.result["messages"] for result in results),
        },
    }


def _trace_analyze():
    """Invariant checking + critical-path attribution over a trace."""
    from repro.obs import check_trace_invariants, critical_path_report

    records = synthetic_trace(clients=4, ops_each=25)
    report = check_trace_invariants(records)
    assert report.ok, report.findings
    cpath = critical_path_report(records)
    return {
        # Two full passes over the record stream: one for the invariant
        # checker, one for the attributor.
        "events": 2 * len(records),
        "ops": len(cpath["operations"]),
        "counters": {
            "records": len(records),
            "findings": len(report.findings),
            "path_steps": sum(op["path_length"] for op in cpath["operations"]),
        },
    }


#: One case per workload: the function and the exact counts it must return.
EXACT_COUNTS = [
    pytest.param(_event_loop, {
        "events": 4010, "ops": 4000,
        "counters": {"tasks": 10, "iterations": 200},
    }, id="event-loop"),
    pytest.param(_event_loop_obs, {
        "events": 4010, "ops": 4000,
        "counters": {"tasks": 10, "iterations": 200,
                     "ready_dispatches": 4010, "heap_dispatches": 0},
    }, id="event-loop-obs"),
    pytest.param(_abd_round, {
        "events": 1200, "ops": 50,
        "counters": {"messages": 1000},
    }, id="abd-round"),
    pytest.param(_sharded_zipfian, {
        "events": 960, "ops": 40,
        "counters": {"messages": 800, "hottest_shard_load": 22},
    }, id="sharded-zipfian"),
    pytest.param(_sweep, {
        "events": 388, "ops": 16,
        "counters": {"runs": 2, "messages": 320},
    }, id="sweep"),
    pytest.param(_trace_analyze, {
        "events": 3130, "ops": 100,
        "counters": {"records": 1565, "findings": 0, "path_steps": 830},
    }, id="trace-analyze"),
]


#: The same workloads without their counts.
WORKLOADS = [pytest.param(case.values[0], id=case.id) for case in EXACT_COUNTS]


def _fresh_python(script, cwd=REPO_ROOT, **env):
    """Run *script* in a fresh interpreter that can import ``repro`` and
    ``tests``."""
    path = os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)])
    return subprocess.run(
        [sys.executable, "-c", script],
        cwd=cwd, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path, **env),
    )


_RUN_EVERY_CASE = (
    "from tests.test_determinism import EXACT_COUNTS\n"
    "for case in EXACT_COUNTS:\n"
    "    case.values[0]()\n"
)


class TestExactCounts:
    @pytest.mark.parametrize("workload, expected", EXACT_COUNTS)
    def test_counts_match(self, workload, expected):
        assert workload() == expected

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_counts_are_invariant_across_invocations(self, workload):
        # Nothing one run leaves behind in this process changes the next
        # run's counts.
        assert workload() == workload()

    def test_the_gate_lists_the_six_workloads(self):
        assert [case.id for case in EXACT_COUNTS] == [
            "event-loop", "event-loop-obs", "abd-round", "sharded-zipfian",
            "sweep", "trace-analyze",
        ]

    def test_the_gate_pins_twenty_six_numbers(self):
        numbers = []
        for case in EXACT_COUNTS:
            expected = case.values[1]
            assert set(expected) == {"events", "ops", "counters"}
            numbers += [expected["events"], expected["ops"],
                        *expected["counters"].values()]
        assert len(numbers) == 26
        assert all(type(number) is int for number in numbers)

    def test_the_sweep_case_leaves_the_kernel_unpatched(self):
        build = SimLoop.__init__
        _sweep()
        assert SimLoop.__init__ is build

    def test_counters_survive_order_hash_seed_and_the_collector(self):
        # Three shuffled passes in one fresh interpreter, hash seed
        # randomised, collector on: identical to each other and to this
        # process's run, which the cases above hold to the inline counts.
        script = (
            "import gc, json, random\n"
            "from tests.test_determinism import EXACT_COUNTS\n"
            "assert gc.isenabled()\n"
            "cases = list(EXACT_COUNTS)\n"
            "passes = []\n"
            "for _ in range(3):\n"
            "    random.shuffle(cases)\n"
            "    passes.append({case.id: case.values[0]() for case in cases})\n"
            "print(json.dumps(passes))\n"
        )
        completed = _fresh_python(script, PYTHONHASHSEED="random")
        assert completed.returncode == 0, completed.stderr
        first, second, third = json.loads(completed.stdout)
        assert first == second == third
        assert first == {case.id: case.values[0]() for case in EXACT_COUNTS}

    def test_the_gate_writes_no_file(self, tmp_path):
        completed = _fresh_python(_RUN_EVERY_CASE, cwd=tmp_path)
        assert completed.returncode == 0, completed.stderr
        assert list(tmp_path.iterdir()) == []

    def test_the_gate_leaves_the_checkout_clean(self):
        def porcelain():
            try:
                status = subprocess.run(
                    ["git", "status", "--porcelain"], cwd=REPO_ROOT,
                    capture_output=True, text=True, timeout=60,
                )
            except OSError:
                pytest.skip("git is not installed")
            if status.returncode != 0:
                pytest.skip("not a git checkout")
            return status.stdout

        before = porcelain()
        completed = _fresh_python(_RUN_EVERY_CASE, PYTHONDONTWRITEBYTECODE="1")
        assert completed.returncode == 0, completed.stderr
        assert porcelain() == before


# ---------------------------------------------------------------------------
# The counted pass: interpreter calls per message on the steady path
# ---------------------------------------------------------------------------
#
# A clock cannot resolve a few per cent on a shared host; a count can.  The
# transfer-free steady run (the ``storage-steady`` workload's spec: n=5, f=1,
# 8 clients x 40 operations, zipfian keys, 90 % reads, 6 400 messages) is
# run once under a ``sys.setprofile`` counter with the collector off, and
# the Python and C calls made from the lab's own code (a frame under
# ``src/repro``) are held to a ratchet per CPython minor version.  Only a
# transfer-free run qualifies: under the weight-gain refresh recursion
# (ROADMAP item 1) a profile hook changes what a run computes.  The count is
# exact: the same under every hash seed (``ChangeSet.sorted`` sorts by a
# C-built key, so a set's order no longer decides how many Python calls a
# sort makes), and free of what the standard library does inside a call, so
# a patch release of it does not move the count.  Measured under hash seeds
# 0-4 on 3.10.13, 3.11.7, 3.12.1 and 3.13.0; 3.12 inlines comprehensions,
# which is its whole difference.

#: ``(Python calls, C calls)`` of the counted run (per message: 16.85 and
#: 10.62 up to 3.11, 16.79 and 10.62 from 3.12): a rise fails, a fall is
#: reported so that the pin can follow it down.
STEADY_CALLS = {
    (3, 10): (107824, 67965),
    (3, 11): (107824, 67965),
    (3, 12): (107472, 67965),
    (3, 13): (107472, 67965),
}

#: ``(Python calls, C calls)`` of the counted sweep: ``quickstart`` without
#: its transfer over 2 seeds x ``cluster.client_count`` 2/4 x
#: ``workload.mix.read_ratio`` 0.2/0.8 (a slice of the ``sweep-fanout``
#: grid), run by the serial executor.  It holds what every run of a sweep or
#: a served job pays around its simulation (``with_overrides``, the spec's
#: build, its ``SpecRun`` and result), which the one spec above does not.
#: Measured like ``STEADY_CALLS``; 3.13 differs from 3.12 here.
SWEEP_CALLS = {
    (3, 10): (86346, 53869),
    (3, 11): (86346, 53869),
    (3, 12): (85881, 53869),
    (3, 13): (85865, 53869),
}


def _steady_spec():
    from repro.experiments.spec import (
        ClusterSpec, KeySpec, LatencySpec, MixSpec, ScenarioSpec, WorkloadSpec,
    )

    return ScenarioSpec(
        name="counted-steady",
        cluster=ClusterSpec(flavour="dynamic-weighted", n=5, f=1, client_count=8),
        workload=WorkloadSpec(
            operations_per_client=40,
            keys=KeySpec(kind="zipfian", space=64, zipf_s=1.1),
            mix=MixSpec(read_ratio=0.9),
        ),
        latency=LatencySpec(kind="uniform", low=0.5, high=1.5),
        seed=1,
    )


def _counted(run):
    """``run()``'s result and the calls the lab's code made, by profile event."""
    import gc

    import repro

    src = os.path.dirname(repro.__file__) + os.sep
    counts = {"call": 0, "c_call": 0}

    def count(frame, event, arg):
        # A Python call's caller is its frame's parent; a C call's is the
        # frame itself.
        if event == "call":
            frame = frame.f_back
        elif event != "c_call":
            return
        if frame is not None and frame.f_code.co_filename.startswith(src):
            counts[event] += 1

    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(count)
    try:
        result = run()
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return result, counts


def _hold(pins, measured, units, unit, table):
    """A rise over ``pins`` fails; a fall warns that ``table`` can follow."""
    for what, value, pin in zip(("Python", "C"), measured, pins):
        assert value <= pin, (
            f"{what} calls rose to {value} ({value / units:.4f} per {unit}; "
            f"pin {pin})")
        if value < pin:
            warnings.warn(
                f"{what} calls fell to {value} ({value / units:.4f} per "
                f"{unit}): lower the pin {pin} in {table}",
                stacklevel=2)


def _pins(table):
    pins = table.get(sys.version_info[:2])
    if pins is None:
        pytest.skip(f"no pin for Python {sys.version_info[0]}.{sys.version_info[1]}")
    return pins


class TestCountedPass:
    def test_calls_per_message_hold_their_pins(self):
        from repro.experiments.spec import run_spec

        pins = _pins(STEADY_CALLS)
        spec = _steady_spec()
        plain = run_spec(spec)  # also the warm-up: imports, caches
        counted, counts = _counted(lambda: run_spec(spec))
        assert json.dumps(counted, sort_keys=True) == json.dumps(plain, sort_keys=True)
        messages = counted["messages"]
        assert messages == 6400
        _hold(pins, (counts["call"], counts["c_call"]), messages, "message",
              "STEADY_CALLS")

    def test_calls_per_sweep_run_hold_their_pins(self):
        from repro.experiments.executor import execute_many
        from repro.experiments.results import dumps_json
        from repro.experiments.sweep import expand_grid

        pins = _pins(SWEEP_CALLS)
        runs = expand_grid("quickstart", grid={
            "seed": [0, 1], "cluster.client_count": [2, 4],
            "workload.mix.read_ratio": [0.2, 0.8],
        }, base={"transfers": ()})
        plain = dumps_json(execute_many(runs, workers=1))  # and the warm-up
        counted, counts = _counted(lambda: execute_many(runs, workers=1))
        assert dumps_json(counted) == plain
        assert len(runs) == 8
        _hold(pins, (counts["call"], counts["c_call"]), len(runs), "run",
              "SWEEP_CALLS")


# ---------------------------------------------------------------------------
# The memory pin: what a suspended restart holds
# ---------------------------------------------------------------------------
#
# Under transfer churn a server's weight-gain refresh read merges news by
# running another refresh read (ROADMAP item 1), and every level suspends an
# operation in ``merge_changes``.  What such a level keeps alive decides the
# run's peak memory: it holds its change sets and counters, never its
# phase's collector or replies.  A count of live ``Message`` objects the
# first time a refresh nests 50 and 200 deep shows it exactly; with the
# replies held it reads 925 and 3 915.  Once item 1 bounds the recursion the
# depth never reaches 50: that change re-pins this test or deletes it.

#: Live ``Message`` objects at the first refresh of each depth: a rise
#: fails, a fall is reported so that the pin can follow it down.
REFRESH_MESSAGES = {50: 25, 200: 130}


def _churn_spec():
    """n=5, f=1, 2 shards, 8 ops per client, 3 s1<->s2 transfers per shard."""
    from repro.experiments.spec import (
        ClusterSpec, KeySpec, LatencySpec, MixSpec, MonitoringSpec, PhaseSpec,
        PolicySpec, ScenarioSpec, TransferEvent, WorkloadSpec,
    )

    return ScenarioSpec(
        name="pinned-churn",
        cluster=ClusterSpec(
            flavour="dynamic-weighted", n=5, f=1, client_count=6, shards=2),
        workload=WorkloadSpec(
            operations_per_client=8,
            keys=KeySpec(kind="hotspot", space=64, hot_fraction=0.125,
                         hot_weight=0.9),
            mix=MixSpec(read_ratio=0.3),
            phases=(PhaseSpec(at=100.0, overrides=(("keys.offset", 32),)),),
        ),
        latency=LatencySpec(
            kind="uniform", low=0.8, high=1.2,
            slow=("s4", "s5"), slow_factor=6.0, slow_start=100.0,
        ),
        monitoring=MonitoringSpec(
            enabled=True, interval=10.0, rounds=4, scope="per-shard",
            policy=PolicySpec(threshold=0.2),
        ),
        transfers=tuple(
            TransferEvent(
                at=10.0 + 12.0 * step + shard,
                source="s1" if step % 2 == 0 else "s2",
                target="s2" if step % 2 == 0 else "s1",
                delta=0.3, shard=shard,
            )
            for shard in range(2)
            for step in range(3)
        ),
        seed=1,
        max_time=100_000.0,
    )


class TestMemoryPin:
    def test_a_suspended_restart_holds_no_replies(self):
        import gc

        from repro.experiments.executor import run_with_stable_stack
        from repro.experiments.spec import run_spec
        from repro.net.message import Message
        from repro.obs import Observer, observing

        def count():
            # C calls only: the count adds no frame to the recursion.
            return list(map(type, gc.get_objects())).count(Message)

        live = {}

        class Census(Observer):
            def weight_gain_refresh(self, pid, depth, now):
                if depth in REFRESH_MESSAGES and depth not in live:
                    live[depth] = count() - before

        # What earlier tests left is collected or counted out, and with the
        # collector off the run's own garbage is counted whatever ran before.
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        before = count()
        try:
            with observing(Census(metrics=False, trace=False)):
                run_with_stable_stack(run_spec, _churn_spec())
        finally:
            if enabled:
                gc.enable()
        assert sorted(live) == sorted(REFRESH_MESSAGES), (
            f"refreshes nested to {sorted(live)} only: re-pin or delete "
            "this test (see the comment above REFRESH_MESSAGES)")
        for depth, pin in REFRESH_MESSAGES.items():
            value = live[depth]
            assert value <= pin, (
                f"{value} live Messages at refresh depth {depth} (pin {pin}): "
                "a suspended operation holds replies again")
            if value < pin:
                warnings.warn(
                    f"{value} live Messages at refresh depth {depth}: lower "
                    f"the pin {pin} in REFRESH_MESSAGES", stacklevel=1)


# ---------------------------------------------------------------------------
# Ready-deque fast path
# ---------------------------------------------------------------------------


class TestReadyDeque:
    def test_zero_delay_events_bypass_the_heap(self):
        loop = SimLoop()
        loop.call_later(0.0, lambda: None)
        loop.call_later(1.0, lambda: None)
        assert len(loop._ready) == 1
        assert len(loop._events) == 1
        assert loop.pending_event_count() == 2

    def test_same_time_fifo_across_heap_and_deque(self):
        # Events landing at the same virtual time must run in scheduling
        # order even when some sit in the heap (scheduled from an earlier
        # time) and some in the ready deque (scheduled at that time).
        loop = SimLoop()
        seen = []

        def tag(name):
            seen.append(name)

        loop.call_later(1.0, tag, "A")  # heap, seq 1

        def schedules_more():
            seen.append("B")
            # Scheduled *at* t=1 while C (an older-sequence heap event at
            # the same time) is still pending: C must run before D.
            loop.call_at(1.0, tag, "D")

        loop.call_later(1.0, schedules_more)  # heap, seq 2
        loop.call_later(1.0, tag, "C")  # heap, seq 3
        loop.run()
        assert seen == ["A", "B", "C", "D"]

    def test_task_steps_preserve_global_fifo(self):
        loop = SimLoop()
        seen = []

        async def worker(name):
            seen.append(f"{name}-a")
            await loop.sleep(0)
            seen.append(f"{name}-b")

        loop.create_task(worker("t1"))
        loop.create_task(worker("t2"))
        loop.run()
        assert seen == ["t1-a", "t2-a", "t1-b", "t2-b"]

    def test_events_processed_counts_every_dispatch(self):
        loop = SimLoop()
        for _ in range(3):
            loop.call_later(0.0, lambda: None)
        for _ in range(2):
            loop.call_later(1.0, lambda: None)
        loop.run()
        assert loop.events_processed == 5

    def test_loops_share_no_event_count(self):
        # Each loop counts its own dispatches; there is no process-wide
        # total for one run to leak into the next.
        busy, idle = SimLoop(), SimLoop()
        busy.call_later(0.0, lambda: None)
        busy.run()
        assert (busy.events_processed, idle.events_processed) == (1, 0)
        assert not hasattr(SimLoop, "total_events_processed")

    def test_run_until_respects_budget_with_pending_ready_events(self):
        loop = SimLoop()
        seen = []
        loop.call_later(0.0, lambda: seen.append("now"))
        loop.call_later(5.0, lambda: seen.append("later"))
        assert loop.run(until=1.0) == 1.0
        assert seen == ["now"]

    def test_deadlock_detection_still_works(self):
        from repro.errors import DeadlockError

        loop = SimLoop()
        with pytest.raises(DeadlockError):
            loop.run_until_complete(SimFuture(name="never"))

    def test_queue_and_event_wake_in_fifo_order(self):
        loop = SimLoop()
        queue = Queue()
        event = Event()
        seen = []

        async def getter(name):
            seen.append((name, (await queue.get())))

        async def waiter(name):
            await event.wait()
            seen.append(name)

        loop.create_task(getter("g1"))
        loop.create_task(getter("g2"))
        loop.create_task(waiter("w1"))
        loop.create_task(waiter("w2"))
        loop.call_later(1.0, lambda: (queue.put("x"), queue.put("y")))
        loop.call_later(2.0, event.set)
        loop.run()
        assert seen == [("g1", "x"), ("g2", "y"), "w1", "w2"]


# ---------------------------------------------------------------------------
# Cancelled tasks detach from awaited futures
# ---------------------------------------------------------------------------


class TestCancelDetach:
    def test_cancel_removes_the_done_callback(self):
        loop = SimLoop()
        future = SimFuture(name="awaited")

        async def wait_forever():
            await future

        task = loop.create_task(wait_forever())
        loop.run()  # park the task on the future
        assert len(future._callbacks) == 1
        assert task.cancel()
        assert future._callbacks == []
        # Resolving the future later schedules nothing into the dead task.
        future.set_result("late")
        assert loop.pending_event_count() == 0

    def test_cancel_before_first_step_still_cancels(self):
        loop = SimLoop()

        async def never_runs():  # pragma: no cover - cancelled before step
            raise AssertionError

        task = loop.create_task(never_runs())
        assert task.cancel()
        loop.run()  # the queued first step must be a no-op
        assert task.cancelled()

    def test_remove_done_callback_counts_removals(self):
        future = SimFuture()
        calls = []

        def callback(f):
            calls.append(f)

        future.add_done_callback(callback)
        future.add_done_callback(callback)
        assert future.remove_done_callback(callback) == 2
        future.set_result(1)
        assert calls == []


# ---------------------------------------------------------------------------
# Cached partition map
# ---------------------------------------------------------------------------


class _Sink:
    def __init__(self, pid):
        self.pid = pid
        self.received = []

    def deliver(self, message):
        self.received.append(message)


class TestPartitionCache:
    def _network(self):
        loop = SimLoop()
        network = Network(loop)
        sinks = {pid: _Sink(pid) for pid in ("a", "b", "c")}
        for sink in sinks.values():
            network.register(sink)
        return loop, network, sinks

    def test_partition_map_rebuilt_only_on_topology_change(self):
        _loop, network, _sinks = self._network()
        assert network._group_of == {}
        network.partition([["a"], ["b"]])
        assert network._group_of == {"a": 0, "b": 1}
        assert network._implicit_group == 2
        # Unlisted processes fall into the implicit group.
        assert network._crosses_partition("a", "c")
        assert not network._crosses_partition("c", "c")
        network.heal()
        assert network._group_of == {}
        assert not network._crosses_partition("a", "b")

    def test_partitioned_messages_held_and_released_in_order(self):
        from repro.net.message import Message

        loop, network, sinks = self._network()
        network.partition([["a"], ["b", "c"]])
        network.send(Message(sender="a", receiver="b", kind="m1", payload={}))
        network.send(Message(sender="a", receiver="b", kind="m2", payload={}))
        loop.run()
        assert sinks["b"].received == []
        network.heal()
        loop.run()
        assert [m.kind for m in sinks["b"].received] == ["m1", "m2"]


# ---------------------------------------------------------------------------
# Single-sort summaries
# ---------------------------------------------------------------------------


class TestSummarizeSingleSort:
    def test_matches_per_percentile_reference(self):
        import random

        rng = random.Random(5)
        samples = [rng.expovariate(1.0) for _ in range(997)]
        summary = summarize(samples)
        assert summary.count == 997
        assert summary.mean == pytest.approx(sum(samples) / len(samples))
        assert summary.median == percentile(samples, 0.5)
        assert summary.p95 == percentile(samples, 0.95)
        assert summary.p99 == percentile(samples, 0.99)
        assert summary.maximum == max(samples)

    def test_mean_uses_input_order_sum(self):
        # Bit-compatibility with historical baselines: the mean must be the
        # sum in *sample* order, not sorted order.
        samples = [0.1, 0.2, 0.3, 1e16, -1e16]
        assert summarize(samples).mean == sum(samples) / len(samples)

    def test_empty_samples_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize([])


# ---------------------------------------------------------------------------
# Sharded routing memo
# ---------------------------------------------------------------------------


class TestShardRoutingMemo:
    def test_memo_agrees_with_shard_for_key(self):
        from repro.storage.sharded import ShardedStore, shard_for_key

        class _StubClient:
            history: list = []

        store = ShardedStore("c1", [_StubClient() for _ in range(8)])
        keys = [f"k{i}" for i in range(100)] + [None]
        for key in keys:
            assert store.shard_of(key) == shard_for_key(key, 8)
        # Second pass hits the memo and must agree with itself.
        for key in keys:
            assert store.shard_of(key) == shard_for_key(key, 8)
