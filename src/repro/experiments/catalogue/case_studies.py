"""Catalogue family: dynamic-weighted storage against its comparators (E8, E6)."""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.core.spec import SystemConfig
from repro.errors import DeadlockError, SimTimeoutError
from repro.experiments.registry import scenario
from repro.experiments.spec import ScenarioSpec, run_spec
from repro.sim.cluster import build_dynamic_cluster, build_world
from repro.sim.metrics import summarize
from repro.storage.reconfigurable import (
    ReconfigurableStorageClient,
    ReconfigurableStorageServer,
)
from repro.types import server_set

__all__ = ["storage_vs_reconfig", "dynamic_storage_adaptation",
           "dynamic_storage_adaptation_spec"]


# ---------------------------------------------------------------------------
# E8 — Dynamic-weighted storage vs reconfigurable storage availability.
# ---------------------------------------------------------------------------

RECONFIG_SCHEDULES: Tuple[Tuple[str, Tuple[str, ...], Tuple[str, ...]], ...] = (
    ("no crashes", (), ()),
    ("f=2 crashes, none touching the pending change", ("s4", "s5"), ("s4", "s5")),
    ("f=2 crashes hitting the newly added servers", ("s4", "s5"), ("s6", "s7")),
)


def _dynamic_stays_live(crashes: Sequence[str]) -> bool:
    config = SystemConfig.uniform(5, f=2)
    with build_dynamic_cluster(config, client_count=1) as cluster:
        client = cluster.any_client()

        async def run() -> Any:
            await client.write("seed")
            # An in-flight "operator action".
            await cluster.servers["s1"].transfer("s3", 0.2)
            for pid in crashes:
                cluster.network.crash(pid)
            await client.write("after-crashes")
            return await client.read()

        try:
            value = cluster.loop.run_until_complete(run(), max_time=10_000.0)
            return value == "after-crashes"
        except (DeadlockError, SimTimeoutError):
            return False


def _reconfigurable_stays_live(crashes: Sequence[str]) -> bool:
    with build_world() as world:
        loop, network = world.loop, world.network
        everyone = server_set(8)
        initial = server_set(5)
        for pid in everyone:
            ReconfigurableStorageServer(pid, network, initial)
        client = ReconfigurableStorageClient("c1", network, initial, everyone)

        async def run() -> Any:
            await client.write("seed")
            # The operator proposes replacing s3/s4/s5 with s6/s7 (a pending config).
            await client.reconfigure(("s1", "s2", "s6", "s7"))
            for pid in crashes:
                network.crash(pid)
            await client.write("after-crashes")
            return await client.read()

        try:
            value = loop.run_until_complete(run(), max_time=10_000.0)
            return value == "after-crashes"
        except (DeadlockError, SimTimeoutError):
            return False


@scenario(
    "storage-vs-reconfig",
    description="Liveness under crash schedules: the dynamic-weighted store's "
    "static fault threshold vs the reconfigurable store's pending-configuration "
    "majority condition.",
    tags=("paper", "storage", "baseline"),
)
def storage_vs_reconfig() -> Dict[str, Any]:
    """Liveness under crash schedules: dynamic-weighted vs reconfigurable."""
    rows = []
    for name, dynamic_crashes, reconfig_crashes in RECONFIG_SCHEDULES:
        rows.append(
            {
                "schedule": name,
                "dynamic": _dynamic_stays_live(dynamic_crashes),
                "reconfigurable": _reconfigurable_stays_live(reconfig_crashes),
            }
        )
    return {"rows": rows}


# ---------------------------------------------------------------------------
# E6 — Case study: dynamic-weighted storage vs static baselines under slowdown.
# ---------------------------------------------------------------------------

#: Each server's one-way delay: two fast, two mid-distance, one far away.
CASE_STUDY_DELAYS = {"s1": 1.0, "s2": 1.0, "s3": 4.0, "s4": 5.0, "s5": 30.0}
CASE_STUDY_WEIGHTS = {"s1": 1.6, "s2": 1.6, "s3": 0.7, "s4": 0.7, "s5": 0.4}


def dynamic_storage_adaptation_spec(
    flavour: str, slow_at: float, slow_factor: float, operations: int, seed: int,
) -> ScenarioSpec:
    """One arm of ``dynamic-storage-adaptation`` (the dynamic arm at the
    defaults is ``examples/specs/``'s): s1/s2 degrade at ``slow_at``, and 20
    time units later the dynamic arm moves their surplus weight to s3/s4."""
    transfers = [
        {"at": slow_at + 20.0, "source": source, "target": target, "delta": 0.8}
        for source, target in (("s1", "s3"), ("s2", "s4"))
    ] if flavour == "dynamic-weighted" else []
    return ScenarioSpec.from_dict({
        "name": "dynamic-storage-adaptation",
        "cluster": {"flavour": flavour, "n": 5, "f": 1, "client_count": 2,
                    "initial_weights": list(CASE_STUDY_WEIGHTS.items())},
        "workload": {"operations_per_client": operations,
                     "arrivals": {"kind": "closed", "mean_think_time": 3.0},
                     "mix": {"read_ratio": 0.67}},
        "latency": {"kind": "per-link", "delays": list(CASE_STUDY_DELAYS.items()),
                    "slow": ["s1", "s2"], "slow_factor": slow_factor,
                    "slow_start": slow_at},
        "transfers": transfers,
        "seed": seed,
    })


@scenario(
    "dynamic-storage-adaptation",
    description="Client latency before/after the two fast servers degrade: "
    "static majority vs static weighted vs the paper's dynamic-weighted "
    "storage, which re-points quorums mid-run.",
    tags=("paper", "storage", "case-study"),
)
def dynamic_storage_adaptation(
    slow_at: float = 150.0,
    slow_factor: float = 8.0,
    operations: int = 60,
    seed: int = 11,
) -> Dict[str, Any]:
    """The E6 case study: client latency before/after two servers degrade."""

    def latency_by_slowdown(cluster, workload) -> Dict[str, Any]:
        before: List[float] = []
        after: List[float] = []
        for client in cluster.clients.values():
            for record in client.history:
                bucket = before if record.started_at < slow_at else after
                bucket.append(record.latency)
        after_summary = summarize(after)
        return {"before": summarize(before).median, "after": after_summary.median,
                "after_p95": after_summary.p95}

    rows = []
    for flavour in ("static-majority", "static-weighted", "dynamic-weighted"):
        spec = dynamic_storage_adaptation_spec(
            flavour, slow_at, slow_factor, operations, seed)
        result = run_spec(spec, latency_by_slowdown)
        rows.append({key: result[key]
                     for key in ("flavour", "before", "after", "after_p95")})
    return {"rows": rows}
