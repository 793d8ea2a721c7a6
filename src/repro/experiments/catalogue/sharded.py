"""Catalogue family: key-sharded storage scenarios."""

from __future__ import annotations

from typing import Any, Dict

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
from repro.storage.sharded import shard_for_key, shard_process_name

__all__ = [
    "sharded_zipfian_imbalance",
    "sharded_hotspot_reassignment",
    "sharded_hotspot_reassignment_spec",
]


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


#: The hot set before the shift; the phase at ``shift_at`` rotates it eight
#: keys on.
_HOT_KEYS = {"kind": "hotspot", "space": 16, "hot_fraction": 0.25, "hot_weight": 0.9}


def _hot_shard(shards: int, offset: int) -> int:
    votes = [
        shard_for_key(key, shards)
        for key in KeySpec(**_HOT_KEYS, offset=offset).build().hot_keys()
    ]
    return max(set(votes), key=votes.count)


def sharded_hotspot_reassignment_spec(
    shards: int, n: int, f: int, shift_at: float, slow_factor: float,
    operations: int, arrival_rate: float, probe_interval: float,
    control_rounds: int, seed: int,
) -> ScenarioSpec:
    """The spec ``sharded-hotspot-reassignment`` runs (at its defaults, the
    one in ``examples/specs/``).

    The infrastructure event is correlated with the workload shift: the two
    "fast" servers of the shard the hotspot lands on degrade at
    ``shift_at``.  Arrivals are open-loop, so the phase boundary falls where
    it says it does however slow that shard gets.  Latency jitter is mild
    (+-10%) and the controllers' tolerance wide, so jitter alone never moves
    weight and the cold shards provably keep their initial weights.  Each
    shard runs its own monitoring loop (prober, monitor, controllers).
    """
    hot_after = _hot_shard(shards, 8)
    return ScenarioSpec.from_dict({
        "name": "sharded-hotspot-reassignment",
        "cluster": {"flavour": "dynamic-weighted", "n": n, "f": f,
                    "client_count": 2, "shards": shards},
        "workload": {
            "operations_per_client": operations,
            "keys": _HOT_KEYS,
            "arrivals": {"kind": "poisson", "rate": arrival_rate},
            "mix": {"read_ratio": 0.6},
            "phases": [{"at": shift_at, "overrides": [["keys.offset", 8]]}],
        },
        "latency": {
            "kind": "uniform", "low": 0.9, "high": 1.1,
            "slow": [shard_process_name(pid, hot_after) for pid in ("s1", "s2")],
            "slow_factor": slow_factor, "slow_start": shift_at,
        },
        "monitoring": {
            "enabled": True, "scope": "per-shard", "interval": probe_interval,
            "rounds": control_rounds,
            "policy": {"kind": "inverse-latency", "threshold": 0.2}, "gain": 0.3,
        },
        "seed": seed,
        "max_time": 10000.0,
    })


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
    if shards < 2:
        raise ConfigurationError(
            f"per-shard reassignment needs at least 2 shards, got {shards}"
        )
    spec = sharded_hotspot_reassignment_spec(
        shards, n, f, shift_at, slow_factor, operations, arrival_rate,
        probe_interval, control_rounds, seed,
    )

    def load_by_shift(cluster, workload) -> Dict[str, Any]:
        # Bucketed by *generated* issue time: a client queuing behind the
        # slowed shard may start an op later, but where load lands was
        # decided at generation (and every generated op completes).
        before = [0] * shards
        after = [0] * shards
        for op in workload.operations:
            issued_at = op.issue_at if op.issue_at is not None else 0.0
            bucket = before if issued_at < shift_at else after
            bucket[shard_for_key(op.key, shards)] += 1
        return {"shard_loads_before_shift": before, "shard_loads_after_shift": after}

    result = run_spec(spec, load_by_shift)
    row = {key: result[key] for key in (
        "operations", "duration", "messages", "shard_weights", "workload",
        "shard_loads_before_shift", "shard_loads_after_shift",
    )}
    hot_after = _hot_shard(shards, 8)
    row.update(
        hot_shard_before=_hot_shard(shards, 0),
        hot_shard_after=hot_after,
        slowed_servers=list(spec.latency.slow),
        imbalance=result.get("imbalance"),
        transfers_attempted_by_shard=(
            result["monitoring"]["transfers_attempted_by_shard"]),
        slowed_servers_weight=sum(
            row["shard_weights"][str(hot_after)][pid] for pid in ("s1", "s2")),
    )
    return row
