"""Catalogue family: the declarative storage workloads (``quickstart`` and friends)."""

from __future__ import annotations

from repro.experiments.registry import register_spec
from repro.experiments.spec import (
    ArrivalSpec,
    ClusterSpec,
    FaultSpec,
    KeySpec,
    LatencySpec,
    MixSpec,
    PhaseSpec,
    ScenarioSpec,
    TransferEvent,
    WorkloadSpec,
)


# ---------------------------------------------------------------------------
# Declarative storage workloads.
# ---------------------------------------------------------------------------

register_spec(
    ScenarioSpec(
        name="quickstart",
        description="A small dynamic-weighted cluster (n=5, f=1) running a "
        "seeded read/write mix with one mid-run weight transfer.",
        cluster=ClusterSpec(flavour="dynamic-weighted", n=5, f=1, client_count=2),
        workload=WorkloadSpec(operations_per_client=10, mix=MixSpec(read_ratio=0.5)),
        latency=LatencySpec(kind="uniform", low=0.5, high=1.5),
        transfers=(TransferEvent(at=5.0, source="s1", target="s2", delta=0.25),),
        seed=7,
    ),
    tags=("storage", "smoke"),
)

register_spec(
    ScenarioSpec(
        name="static-majority-baseline",
        description="Classical ABD over the plain majority quorum system "
        "(n=5): the MQS baseline every weighted variant is compared against.",
        cluster=ClusterSpec(flavour="static-majority", n=5, client_count=2),
        workload=WorkloadSpec(operations_per_client=20, mix=MixSpec(read_ratio=0.7)),
        latency=LatencySpec(kind="lognormal", median=1.0, sigma=0.4),
    ),
    tags=("storage", "baseline"),
)

register_spec(
    ScenarioSpec(
        name="static-weighted-baseline",
        description="Classical ABD over a static WMQS with WHEAT-style skewed "
        "weights (n=5, f=1): fast while the weights match reality.",
        cluster=ClusterSpec(
            flavour="static-weighted",
            n=5,
            f=1,
            client_count=2,
            initial_weights=(
                ("s1", 1.6), ("s2", 1.6), ("s3", 0.7), ("s4", 0.7), ("s5", 0.4),
            ),
        ),
        workload=WorkloadSpec(operations_per_client=20, mix=MixSpec(read_ratio=0.7)),
        latency=LatencySpec(kind="lognormal", median=1.0, sigma=0.4),
    ),
    tags=("storage", "baseline"),
)

register_spec(
    ScenarioSpec(
        name="crash-resilience",
        description="The dynamic-weighted store stays live while at most f "
        "servers crash mid-workload (n=5, f=2, two crashes at t=10).",
        cluster=ClusterSpec(flavour="dynamic-weighted", n=5, f=2, client_count=2),
        workload=WorkloadSpec(operations_per_client=15, mix=MixSpec(read_ratio=0.5)),
        latency=LatencySpec(kind="uniform", low=0.5, high=1.5),
        faults=FaultSpec(crashes=(("s4", 10.0), ("s5", 10.0))),
        max_time=10_000.0,
    ),
    tags=("storage", "failures"),
)


# ---------------------------------------------------------------------------
# Workload-driven scenarios: skewed keys, open-loop arrivals, hotspot shifts.
# ---------------------------------------------------------------------------

register_spec(
    ScenarioSpec(
        name="skewed-reassignment",
        description="Zipfian key popularity (s=1.2 over 32 keys) stressing the "
        "dynamic-weighted store while two mid-run transfers re-point quorums; "
        "the result carries the achieved skew next to the latencies.",
        cluster=ClusterSpec(flavour="dynamic-weighted", n=5, f=1, client_count=3),
        workload=WorkloadSpec(
            operations_per_client=12,
            keys=KeySpec(kind="zipfian", space=32, zipf_s=1.2),
            arrivals=ArrivalSpec(kind="closed", mean_think_time=1.0),
            mix=MixSpec(read_ratio=0.7),
        ),
        latency=LatencySpec(kind="uniform", low=0.5, high=1.5),
        transfers=(
            TransferEvent(at=6.0, source="s1", target="s2", delta=0.2),
            TransferEvent(at=9.0, source="s3", target="s2", delta=0.15),
        ),
        seed=13,
    ),
    tags=("storage", "workload", "skew"),
)

register_spec(
    ScenarioSpec(
        name="open-loop-saturation",
        description="Open-loop Poisson arrivals (rate 0.5/client over 4 "
        "clients) drive the store regardless of completion times, so queueing "
        "delay — not arrival spacing — absorbs the slack as load approaches "
        "capacity.",
        cluster=ClusterSpec(flavour="dynamic-weighted", n=5, f=1, client_count=4),
        workload=WorkloadSpec(
            operations_per_client=15,
            keys=KeySpec(kind="uniform", space=16),
            arrivals=ArrivalSpec(kind="poisson", rate=0.5),
            mix=MixSpec(read_ratio=0.5),
        ),
        latency=LatencySpec(kind="uniform", low=0.5, high=1.5),
        seed=5,
        max_time=10_000.0,
    ),
    tags=("storage", "workload", "open-loop"),
)

register_spec(
    ScenarioSpec(
        name="hotspot-shift",
        description="A hotspot workload (25% of keys take 90% of traffic) "
        "whose hot set rotates to the opposite half of the key space at t=12 "
        "via a workload phase — the declarative form of a mid-run skew flip.",
        cluster=ClusterSpec(flavour="dynamic-weighted", n=5, f=1, client_count=2),
        workload=WorkloadSpec(
            operations_per_client=16,
            keys=KeySpec(kind="hotspot", space=16, hot_fraction=0.25, hot_weight=0.9),
            phases=(PhaseSpec(at=12.0, overrides=(("keys.offset", 8),)),),
        ),
        latency=LatencySpec(kind="uniform", low=0.5, high=1.5),
        seed=21,
    ),
    tags=("storage", "workload", "skew"),
)
