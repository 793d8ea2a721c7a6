"""Catalogue family: key-sharded storage scenarios."""

from __future__ import annotations

from typing import Any, Dict

from repro.core.spec import SystemConfig
from repro.errors import ConfigurationError
from repro.experiments.registry import scenario
from repro.experiments.spec import (
    ClusterSpec,
    KeySpec,
    LatencySpec,
    MixSpec,
    ScenarioSpec,
    WorkloadSpec,
    run_spec,
)
from repro.monitoring.loop import MonitoringHarness, install_monitoring
from repro.net.latency import SlowdownLatency, UniformLatency
from repro.sim.cluster import build_sharded_cluster
from repro.sim.runner import run_workload
from repro.storage.sharded import shard_for_key, shard_process_name
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.keys import HotspotKeys
from repro.workloads.mix import OperationMix
from repro.workloads.phases import Phase
from repro.workloads.stats import workload_stats

__all__ = ["sharded_zipfian_imbalance", "sharded_hotspot_reassignment"]


# ---------------------------------------------------------------------------
# Key-sharded storage: load imbalance and per-shard reassignment.
# ---------------------------------------------------------------------------


@scenario(
    "sharded-zipfian-imbalance",
    description="Key-sharded storage under zipfian vs uniform keys at equal "
    "op counts: skew concentrates load on few shards (hottest-shard share "
    "well above 1/shards) while uniform keys stay near the fair share.",
    tags=("storage", "workload", "sharding"),
)
def sharded_zipfian_imbalance(
    shards: int = 4,
    n: int = 3,
    f: int = 1,
    client_count: int = 3,
    operations: int = 40,
    space: int = 256,
    zipf_s: float = 1.2,
    seed: int = 17,
) -> Dict[str, Any]:
    """Run the same sharded deployment twice — zipfian keys, then uniform —
    and report each run's per-shard load vector and imbalance summary."""
    if shards < 2:
        raise ConfigurationError(
            f"the imbalance comparison needs at least 2 shards, got {shards}"
        )
    rows = []
    for kind in ("zipfian", "uniform"):
        spec = ScenarioSpec(
            name=f"sharded-{kind}",
            cluster=ClusterSpec(
                flavour="dynamic-weighted",
                n=n,
                f=f,
                client_count=client_count,
                shards=shards,
            ),
            workload=WorkloadSpec(
                operations_per_client=operations,
                keys=KeySpec(kind=kind, space=space, zipf_s=zipf_s),
                mix=MixSpec(read_ratio=0.6),
            ),
            latency=LatencySpec(kind="uniform", low=0.5, high=1.5),
            seed=seed,
        )
        result = run_spec(spec)
        imbalance = result["imbalance"]
        rows.append(
            {
                "keys": kind,
                "shard_loads": [entry["operations"] for entry in result["shards"]],
                "hottest_shard": imbalance["hottest_shard"],
                "hottest_share": imbalance["hottest_share"],
                "imbalance_ratio": imbalance["imbalance_ratio"],
                "load_variance": imbalance["load_variance"],
                "load_cv": imbalance["load_cv"],
                "messages": result["messages"],
                "top1_key_share": result["workload"]["keys"]["top1_share"],
            }
        )
    return {
        "shards": shards,
        "fair_share": 1.0 / shards,
        "operations_per_run": operations * client_count,
        "rows": rows,
    }


@scenario(
    "sharded-hotspot-reassignment",
    description="Per-shard reassignment state in action: when the hot set "
    "rotates onto another shard and that shard's fast servers degrade, only "
    "its monitoring-driven WeightControllers re-point quorums — the cold "
    "shards keep their initial weights.",
    tags=("storage", "monitoring", "sharding"),
)
def sharded_hotspot_reassignment(
    shards: int = 2,
    n: int = 5,
    f: int = 1,
    shift_at: float = 20.0,
    slow_factor: float = 6.0,
    operations: int = 24,
    arrival_rate: float = 0.5,
    probe_interval: float = 6.0,
    control_rounds: int = 8,
    seed: int = 3,
) -> Dict[str, Any]:
    """Per-shard monitoring + controllers rebalance only the slowed hot shard."""
    if operations < 1:
        raise ConfigurationError(f"need at least one operation, got {operations}")
    if control_rounds < 1:
        raise ConfigurationError(f"need at least one control round, got {control_rounds}")
    if shards < 2:
        raise ConfigurationError(
            f"per-shard reassignment needs at least 2 shards, got {shards}"
        )
    space = 16
    before_keys = HotspotKeys(space=space, hot_fraction=0.25, hot_weight=0.9)
    after_keys = before_keys.shifted(8)

    def hot_shard(distribution: HotspotKeys) -> int:
        votes = [shard_for_key(key, shards) for key in distribution.hot_keys()]
        return max(set(votes), key=votes.count)

    hot_before = hot_shard(before_keys)
    hot_after = hot_shard(after_keys)
    # The infrastructure event is correlated with the workload shift: the two
    # "fast" servers of the shard the hotspot lands on degrade at shift_at.
    slowed = [shard_process_name(pid, hot_after) for pid in ("s1", "s2")]
    # Mild jitter (+-10%): inverse-latency targets stay within the controller
    # tolerance until the genuine slowdown kicks in, so any weight movement in
    # the result is attributable to the infrastructure event, not noise.
    latency = SlowdownLatency(
        UniformLatency(0.9, 1.1, seed=seed),
        slow=slowed,
        factor=slow_factor,
        start_at=shift_at,
    )
    cluster = build_sharded_cluster(
        SystemConfig.uniform(n, f=f),
        shards=shards,
        latency=latency,
        client_count=2,
        flavour="dynamic-weighted",
    )

    # One independent monitoring loop per shard: its own prober, its own
    # latency monitor, and one WeightController per shard server.  Nothing is
    # shared across shards — exactly the per-shard reassignment state the
    # sharded store exists to exercise.  The tolerance is wide enough that
    # latency *jitter* never triggers a transfer — only a genuine slowdown
    # does — so cold shards provably keep their initial weights.
    harness = MonitoringHarness.merged([
        install_monitoring(
            cluster.loop,
            cluster.network,
            group.config,
            {group.index: group.servers},
            prober=f"mon#{group.index}",
            rounds=control_rounds,
            interval=probe_interval,
            tolerance=0.2,
            max_step=0.3,
        )
        for group in cluster.shards
    ])

    # Open-loop Poisson arrivals: issue times are absolute virtual times, so
    # the phase boundary at shift_at falls where it says it does and the
    # arrival stream does not bend when the slowed shard's latencies grow.
    generator = WorkloadGenerator(
        keys=before_keys,
        arrivals=PoissonArrivals(rate=arrival_rate),
        mix=OperationMix(read_ratio=0.6),
        phases=(Phase(start=shift_at, keys=after_keys),),
    )
    workload = generator.generate(tuple(cluster.clients), operations, seed=seed)
    report = run_workload(cluster, workload, max_time=10_000.0)
    cluster.loop.run()  # drain trailing control rounds and broadcast echoes

    # Per-shard load before/after the shift, bucketed by the operations'
    # *generated issue times* (a client queuing behind the slowed shard may
    # start an op later than its arrival, but where load lands was decided
    # at generation — and every generated op completes within max_time).
    loads_before = [0] * shards
    loads_after = [0] * shards
    for op in workload.operations:
        issued_at = op.issue_at if op.issue_at is not None else 0.0
        bucket = loads_before if issued_at < shift_at else loads_after
        bucket[shard_for_key(op.key, shards)] += 1

    shard_weights = cluster.shard_weights()
    slowed_weight = sum(
        shard_weights[hot_after][pid] for pid in ("s1", "s2")
    )
    return {
        "operations": report.operations,
        "duration": report.duration,
        "messages": report.messages_sent,
        "hot_shard_before": hot_before,
        "hot_shard_after": hot_after,
        "slowed_servers": slowed,
        "shard_loads_before_shift": loads_before,
        "shard_loads_after_shift": loads_after,
        "imbalance": report.imbalance.as_dict() if report.imbalance else None,
        "shard_weights": {
            str(index): weights for index, weights in sorted(shard_weights.items())
        },
        "transfers_attempted_by_shard": {
            str(index): count
            for index, count in harness.transfers_attempted().items()
        },
        "slowed_servers_weight": slowed_weight,
        "workload": workload_stats(workload),
    }
