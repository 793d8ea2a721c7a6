"""Catalogue family: monitoring-driven reassignment on one register."""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.spec import SystemConfig
from repro.errors import ConfigurationError
from repro.experiments.registry import scenario
from repro.monitoring.loop import install_monitoring
from repro.net.latency import SlowdownLatency, UniformLatency
from repro.sim.cluster import build_dynamic_cluster
from repro.sim.metrics import summarize
from repro.sim.runner import run_workload
from repro.workloads.arrivals import ClosedLoopArrivals
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.keys import HotspotKeys
from repro.workloads.mix import OperationMix
from repro.workloads.phases import Phase
from repro.workloads.stats import workload_stats

__all__ = ["hotspot_shift_monitoring"]


@scenario(
    "hotspot-shift-monitoring",
    description="Monitoring-driven reassignment under a workload shift: when "
    "the hot set flips and s1/s2 degrade, latency probes feed the "
    "inverse-latency policy and per-server controllers push weight to the "
    "healthy servers.",
    tags=("workload", "monitoring", "storage"),
)
def hotspot_shift_monitoring(
    shift_at: float = 30.0,
    slow_factor: float = 6.0,
    operations: int = 18,
    probe_interval: float = 6.0,
    control_rounds: int = 8,
    seed: int = 3,
) -> Dict[str, Any]:
    """Close the monitoring loop on a single-register hotspot shift."""
    if operations < 1:
        raise ConfigurationError(f"need at least one operation, got {operations}")
    if control_rounds < 1:
        raise ConfigurationError(f"need at least one control round, got {control_rounds}")
    config = SystemConfig.uniform(5, f=1)
    latency = SlowdownLatency(
        UniformLatency(0.5, 1.5, seed=seed),
        slow=["s1", "s2"],
        factor=slow_factor,
        start_at=shift_at,
    )
    with build_dynamic_cluster(config, latency=latency, client_count=2) as cluster:
        harness = install_monitoring(
            cluster.loop,
            cluster.network,
            config,
            {0: cluster.servers},
            prober="mon",
            rounds=control_rounds,
            interval=probe_interval,
            tolerance=0.05,
            max_step=0.3,
        )

        # The workload mirrors the infrastructure event: the hot set rotates at
        # shift_at, the moment s1/s2 degrade.
        generator = WorkloadGenerator(
            keys=HotspotKeys(space=16, hot_fraction=0.25, hot_weight=0.9),
            arrivals=ClosedLoopArrivals(mean_think_time=2.0),
            mix=OperationMix(read_ratio=0.6),
            phases=(
                Phase(start=shift_at, keys=HotspotKeys(space=16, hot_fraction=0.25,
                                                       hot_weight=0.9, offset=8)),
            ),
        )
        workload = generator.generate(tuple(cluster.clients), operations, seed=seed)
        report = run_workload(cluster, workload, max_time=10_000.0)
        cluster.loop.run()  # drain trailing control rounds and broadcast echoes

        before: List[float] = []
        after: List[float] = []
        for client in cluster.clients.values():
            for record in client.history:
                bucket = before if record.completed_at < shift_at else after
                bucket.append(record.latency)
        weights = {
            pid: weight
            # s1's local view: the same vantage point run_spec reports, so the
            # spec-file port of this scenario reproduces the result exactly.
            for pid, weight in sorted(cluster.servers["s1"].local_weights().items())
        }
        return {
            "operations": report.operations,
            "duration": report.duration,
            "messages": report.messages_sent,
            "weights": weights,
            "shifted_weight": sum(weights[pid] for pid in ("s3", "s4", "s5")),
            "transfers_attempted": sum(harness.transfers_attempted().values()),
            "latency_before_shift": summarize(before).median if before else None,
            "latency_after_shift": summarize(after).median if after else None,
            "workload": workload_stats(workload),
        }
