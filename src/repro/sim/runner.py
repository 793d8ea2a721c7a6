"""Run a workload against a cluster and collect metrics.

The runner is shard-aware: against a plain :class:`~repro.sim.cluster.
Cluster` it drives the single register exactly as before, while against a
:class:`~repro.sim.cluster.ShardedCluster` (whose clients are keyed
:class:`~repro.storage.sharded.ShardedStore` facades) it threads every
operation's ``key`` through to the owning shard and extends the
:class:`RunReport` with a per-shard load/latency breakdown plus an
:class:`~repro.sim.metrics.ImbalanceSummary`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.sim.cluster import Cluster, ShardedCluster
from repro.sim.failures import FailureSchedule
from repro.sim.metrics import (
    ImbalanceSummary,
    LatencySummary,
    ShardLoadSummary,
    summarize,
    summarize_shard_loads,
)
from repro.sim.workload import Workload
from repro.net.simloop import gather
from repro.types import ProcessId, VirtualTime

__all__ = ["RunReport", "run_workload"]


@dataclass
class RunReport:
    """The outcome of one workload run.

    ``shards`` and ``imbalance`` are populated only for sharded runs: one
    :class:`~repro.sim.metrics.ShardLoadSummary` per shard (including shards
    that served nothing) and the load-imbalance summary over the per-shard
    operation counts.
    """

    flavour: str
    duration: VirtualTime
    read_latency: Optional[LatencySummary]
    write_latency: Optional[LatencySummary]
    messages_sent: int
    restarts: int
    operations: int
    shards: Optional[Tuple[ShardLoadSummary, ...]] = None
    imbalance: Optional[ImbalanceSummary] = None
    #: Snapshot of the ambient observer's metrics registry at the end of the
    #: run (see :mod:`repro.obs`); ``None`` when observability is disabled.
    metrics: Optional[Dict[str, Any]] = None

    def describe(self) -> str:
        """A human-readable multi-line summary (used by the examples)."""
        lines = [
            f"cluster flavour : {self.flavour}",
            f"virtual duration: {self.duration:.2f}",
            f"operations      : {self.operations} ({self.restarts} restarts)",
            f"messages sent   : {self.messages_sent}",
        ]
        if self.read_latency is None and self.write_latency is None:
            lines.append("latency         : (no completed operations)")
        if self.read_latency is not None:
            lines.append(f"read  latency   : {self.read_latency.as_row()}")
        if self.write_latency is not None:
            lines.append(f"write latency   : {self.write_latency.as_row()}")
        if self.shards is not None and self.imbalance is not None:
            lines.append(
                f"shards          : {self.imbalance.shards} "
                f"(hottest #{self.imbalance.hottest_shard} served "
                f"{self.imbalance.hottest_share:.0%}, fair share "
                f"{self.imbalance.fair_share:.0%}, max/mean "
                f"{self.imbalance.imbalance_ratio:.2f})"
            )
            for shard in self.shards:
                lines.append(
                    f"  shard {shard.shard:3d}     : {shard.operations:5d} ops "
                    f"({shard.reads} reads / {shard.writes} writes)"
                )
        return "\n".join(lines)


def run_workload(
    cluster: Union[Cluster, ShardedCluster],
    workload: Workload,
    failures: Optional[FailureSchedule] = None,
    max_time: Optional[VirtualTime] = None,
) -> RunReport:
    """Execute ``workload`` on ``cluster`` and summarise per-kind latencies.

    Every client executes its operation sequence concurrently (operations
    within one client stay sequential, matching the paper's "processes are
    sequential" model).  Crash events from ``failures`` are armed before the
    run starts.

    Operations carrying an absolute ``issue_at`` are driven open-loop: the
    client sleeps until that virtual time (measured from the run's start) and
    issues immediately if it is already late — arrival times do not stretch
    when the store slows down, only queueing delay does.

    Keyed clients (``client.keyed`` is true, e.g. the sharded store facade)
    receive each operation's ``key`` so they can route it; single-register
    clients ignore keys, which then only shape contention timing.
    """
    if max_time is not None and max_time <= 0:
        raise ConfigurationError(f"max_time must be positive, got {max_time}")
    unknown = set(workload.clients()) - set(cluster.clients)
    if unknown:
        raise ConfigurationError(f"workload references unknown clients: {sorted(unknown)}")
    if failures is not None:
        failures.arm(cluster.loop, cluster.network)

    started_at = cluster.loop.now
    cluster.network.reset_stats()

    async def run_client(client_pid: ProcessId) -> None:
        client = cluster.clients[client_pid]
        keyed = getattr(client, "keyed", False)
        for operation in workload.for_client(client_pid):
            if operation.issue_at is not None:
                delay = started_at + operation.issue_at - cluster.loop.now
                if delay > 0:
                    await cluster.loop.sleep(delay)
            elif operation.issue_after > 0:
                await cluster.loop.sleep(operation.issue_after)
            if operation.kind == "read":
                if keyed:
                    await client.read(key=operation.key)
                else:
                    await client.read()
            else:
                if keyed:
                    await client.write(operation.value, key=operation.key)
                else:
                    await client.write(operation.value)

    tasks = [run_client(client_pid) for client_pid in workload.clients()]
    cluster.loop.run_until_complete(gather(cluster.loop, tasks), max_time=max_time)

    read_samples: List[float] = []
    write_samples: List[float] = []
    restarts = 0
    operations = 0
    placements: List[Tuple[int, str, float]] = []
    for client in cluster.clients.values():
        for record in client.history:
            operations += 1
            restarts += record.restarts
            if record.kind == "read":
                read_samples.append(record.latency)
            else:
                write_samples.append(record.latency)
        for entry in getattr(client, "sharded_history", ()):
            placements.append((entry.shard, entry.record.kind, entry.record.latency))

    shard_summaries: Optional[Tuple[ShardLoadSummary, ...]] = None
    imbalance: Optional[ImbalanceSummary] = None
    shard_count = getattr(cluster, "shard_count", None)
    if shard_count is not None:
        shard_summaries, imbalance = summarize_shard_loads(placements, shard_count)

    # The observer the cluster captured at construction time (if any); the
    # registry keeps accumulating afterwards, this is a point-in-time copy.
    obs = cluster.network.obs
    metrics_snapshot = (
        obs.metrics.as_dict() if obs is not None and obs.metrics is not None else None
    )

    return RunReport(
        flavour=cluster.flavour,
        duration=cluster.loop.now - started_at,
        read_latency=summarize(read_samples) if read_samples else None,
        write_latency=summarize(write_samples) if write_samples else None,
        messages_sent=cluster.network.messages_sent,
        restarts=restarts,
        operations=operations,
        shards=shard_summaries,
        imbalance=imbalance,
        metrics=metrics_snapshot,
    )
