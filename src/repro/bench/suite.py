"""The determinism gate: six fixed, seeded workloads and their exact counts.

One workload per layer of the hot path (kernel dispatch, ABD protocol
rounds, the sharded data plane, the sweep layer, the trace analyses) plus an
observed twin of the kernel one.  Each builds its world from fixed seeds,
runs once and returns what it did — ``{"events", "ops", "counters"}``, all
exact integers — and :func:`check_expectations` compares that with the
committed ``benchmarks/bench_expectations.json``: any difference means the
simulation changed.  Nothing here is timed; wall-clock measurement belongs
to ``benchmarks/perf``, which runs the workloads ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Mapping, Sequence

from repro.core.spec import SystemConfig
from repro.errors import ConfigurationError
from repro.net.latency import UniformLatency
from repro.net.simloop import Queue, SimLoop, gather
from repro.sim.cluster import build_sharded_cluster, build_static_cluster
from repro.sim.runner import run_workload
from repro.sim.workload import uniform_workload
from repro.workloads import WorkloadGenerator, ZipfianKeys

__all__ = ["WORKLOADS", "run_benchmarks", "check_expectations"]

_CONFIG = SystemConfig(servers=("s1", "s2", "s3", "s4", "s5"), f=1)


def bench_event_loop() -> Dict[str, Any]:
    """kernel dispatch: zero-delay sleeps + queue handoffs, no network"""
    tasks, iterations = 10, 200
    loop = SimLoop()
    queue = Queue()

    async def worker(index: int) -> None:
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


def bench_event_loop_obs() -> Dict[str, Any]:
    """the same kernel dispatch with a metrics observer installed"""
    from repro.obs import Observer, observing

    observer = Observer(metrics=True, trace=False)
    with observing(observer):  # the loop captures it when it is built
        counts = bench_event_loop()
    assert observer.metrics is not None
    kernel = observer.metrics.as_dict()["counters"]
    # The dispatch split is part of the gate: a change here means the
    # ready-deque fast path's hit pattern moved.
    counts["counters"]["ready_dispatches"] = kernel["kernel.ready_dispatches"]
    counts["counters"]["heap_dispatches"] = kernel["kernel.heap_dispatches"]
    return counts


def bench_abd_round() -> Dict[str, Any]:
    """ABD read/write rounds over a majority quorum"""
    cluster = build_static_cluster(
        _CONFIG, latency=UniformLatency(0.5, 1.5, seed=11), client_count=2
    )
    workload = uniform_workload(
        list(cluster.clients),
        operations_per_client=25,
        read_ratio=0.5,
        mean_think_time=0.1,
        seed=11,
    )
    report = run_workload(cluster, workload)
    return {
        "events": cluster.loop.events_processed,
        "ops": report.operations,
        "counters": {"messages": cluster.network.messages_sent},
    }


def bench_sharded_zipfian() -> Dict[str, Any]:
    """zipfian keyed workload across shard groups"""
    cluster = build_sharded_cluster(
        _CONFIG,
        shards=2,
        latency=UniformLatency(0.5, 1.5, seed=23),
        client_count=2,
        flavour="static-majority",
    )
    generator = WorkloadGenerator(keys=ZipfianKeys(space=64, s=1.1))
    workload = generator.generate(
        list(cluster.clients), operations_per_client=20, seed=23
    )
    report = run_workload(cluster, workload)
    assert report.imbalance is not None
    return {
        "events": cluster.loop.events_processed,
        "ops": report.operations,
        "counters": {
            "messages": cluster.network.messages_sent,
            "hottest_shard_load": report.imbalance.max_load,
        },
    }


def _synthetic_trace(clients: int, ops_each: int):
    """A deterministic, invariant-clean trace: quorum ops + transfers.

    Shaped like a real recorded run (operation spans around request/reply
    flows with quorum instants, occasional restarts and weight transfers)
    so the analyses exercise their real code paths, but built directly so
    the workload is the analysis code alone, not a simulation.
    """
    from repro.obs import TraceRecorder

    recorder = TraceRecorder()
    servers = ("s1", "s2", "s3")
    t = 0.0

    def tick() -> float:
        nonlocal t
        t += 0.25
        return t

    for index in range(clients * ops_each):
        client = f"c{index % clients + 1}"
        kind = "read" if index % 2 else "write"
        recorder.emit(ts=tick(), cat="op", name=kind, ph="B", actor=client,
                      args={"protocol": "storage"})
        restarted = index % 7 == 0
        if restarted:
            flow = recorder.next_flow_id()
            recorder.emit(ts=tick(), cat="net", name="READ", ph="s",
                          actor=client, args={"to": servers[0]}, flow=flow)
            recorder.emit(ts=tick(), cat="net", name="READ", ph="f",
                          actor=servers[0], args={"from": client}, flow=flow)
            recorder.emit(ts=tick(), cat="op", name="restart", ph="i",
                          actor=client, args={"op": kind, "protocol": "storage"})
        requests = []
        for server in servers:
            flow = recorder.next_flow_id()
            requests.append((server, flow))
            recorder.emit(ts=t, cat="net", name="READ", ph="s", actor=client,
                          args={"to": server}, flow=flow)
        replies = []
        for server, flow in requests:
            recorder.emit(ts=tick(), cat="net", name="READ", ph="f",
                          actor=server, args={"from": client}, flow=flow)
            reply = recorder.next_flow_id()
            replies.append((server, reply))
            recorder.emit(ts=t, cat="net", name="READ-ACK", ph="s",
                          actor=server, args={"to": client}, flow=reply)
        for server, reply in replies:
            recorder.emit(ts=tick(), cat="net", name="READ-ACK", ph="f",
                          actor=client, args={"from": server}, flow=reply)
        recorder.emit(ts=t, cat="quorum", name="phase1", ph="i", actor=client,
                      args={"protocol": "storage", "size": len(servers)})
        recorder.emit(ts=t, cat="op", name=kind, ph="E", actor=client,
                      args={"contacted": len(servers),
                            "restarts": 1 if restarted else 0})
        if index % 10 == 0:
            source = servers[(index // 10) % len(servers)]
            target = servers[(index // 10 + 1) % len(servers)]
            recorder.emit(ts=t, cat="transfer", name="transfer", ph="B",
                          actor=source, args={"delta": 0.1, "target": target})
            recorder.emit(ts=tick(), cat="transfer", name="transfer", ph="E",
                          actor=source,
                          args={"delta": 0.1, "effective": True,
                                "target": target})
    return recorder.records


def bench_trace_analyze() -> Dict[str, Any]:
    """invariant checking + critical-path attribution over a trace"""
    from repro.obs import check_trace_invariants, critical_path_report

    records = _synthetic_trace(clients=4, ops_each=25)
    report = check_trace_invariants(records)
    assert report.ok, report.findings
    cpath = critical_path_report(records)
    path_steps = sum(op["path_length"] for op in cpath["operations"])
    return {
        # Two full passes over the record stream: one for the invariant
        # checker, one for the attributor.
        "events": 2 * len(records),
        "ops": len(cpath["operations"]),
        "counters": {
            "records": len(records),
            "findings": len(report.findings),
            "path_steps": path_steps,
        },
    }


def bench_sweep() -> Dict[str, Any]:
    """serial parameter sweep through the experiment layer"""
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
    # Each run executes on its own loop; the process-wide kernel counter
    # meters the total dispatch work across all of them.
    events_before = SimLoop.total_events_processed
    results = execute_many(runs, workers=1)
    events = SimLoop.total_events_processed - events_before
    operations = sum(result.result["operations"] for result in results)
    messages = sum(result.result["messages"] for result in results)
    return {
        "events": events,
        "ops": operations,
        "counters": {"runs": len(results), "messages": messages},
    }


#: The gate's workloads, by the name ``python -m repro bench`` takes; a
#: function's docstring is its ``--list`` description.
WORKLOADS: Dict[str, Callable[[], Dict[str, Any]]] = {
    "abd-round": bench_abd_round,
    "event-loop": bench_event_loop,
    "event-loop-obs": bench_event_loop_obs,
    "sharded-zipfian": bench_sharded_zipfian,
    "sweep": bench_sweep,
    "trace-analyze": bench_trace_analyze,
}


def run_benchmarks(names: Sequence[str]) -> Dict[str, Dict[str, Any]]:
    """Run the named workloads once each, in order: ``name -> counts``, the
    layout of the expectations file.  An unknown name fails before any runs."""
    for name in names:
        if name not in WORKLOADS:
            raise ConfigurationError(
                f"unknown benchmark {name!r}; known: {', '.join(WORKLOADS)}"
            )
    return {name: WORKLOADS[name]() for name in names}


def check_expectations(
    results: Mapping[str, Mapping[str, Any]], path: str
) -> List[str]:
    """Compare ``results`` with a committed expectations file (``name -> counts``).

    Returns human-readable mismatch lines (empty = all good).  A workload
    the file does not know is reported too, so the file stays in lockstep
    with the suite.
    """
    with open(path, "r", encoding="utf-8") as handle:
        expected = json.load(handle)
    problems: List[str] = []
    for name, got in results.items():
        want = expected.get(name)
        if want is None:
            problems.append(f"{name}: no committed expectation")
        elif got != want:
            problems.append(
                f"{name}: deterministic counters diverge: "
                f"got {got}, expected {want}"
            )
    return problems
