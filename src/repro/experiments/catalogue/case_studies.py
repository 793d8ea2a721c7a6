"""Catalogue family: dynamic-weighted storage against its comparators (E8, E6)."""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.core.spec import SystemConfig
from repro.errors import DeadlockError, SimTimeoutError
from repro.experiments.registry import scenario
from repro.net.latency import PerLinkLatency, SlowdownLatency
from repro.net.simloop import gather
from repro.sim.cluster import build_cluster, build_dynamic_cluster, build_world
from repro.sim.metrics import summarize
from repro.storage.reconfigurable import (
    ReconfigurableStorageClient,
    ReconfigurableStorageServer,
)
from repro.types import server_set

__all__ = ["storage_vs_reconfig", "dynamic_storage_adaptation"]


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

CASE_STUDY_RTT = {"s1": 1.0, "s2": 1.0, "s3": 4.0, "s4": 5.0, "s5": 30.0}
CASE_STUDY_WEIGHTS = {"s1": 1.6, "s2": 1.6, "s3": 0.7, "s4": 0.7, "s5": 0.4}


def _case_study_latency(slow_at: float, slow_factor: float, seed: int) -> SlowdownLatency:
    table = {}
    for server, one_way in CASE_STUDY_RTT.items():
        for peer in ("c1", "c2", "s1", "s2", "s3", "s4", "s5"):
            if peer != server:
                table[(peer, server)] = one_way
                table[(server, peer)] = one_way
    base = PerLinkLatency(table, default=1.0, jitter=0.02, seed=seed)
    return SlowdownLatency(base, slow=["s1", "s2"], factor=slow_factor, start_at=slow_at)


def _case_study_flavour(
    flavour: str,
    slow_at: float,
    slow_factor: float,
    operations: int,
    seed: int,
) -> Dict[str, Any]:
    config = SystemConfig(
        servers=tuple(sorted(CASE_STUDY_WEIGHTS, key=lambda s: int(s[1:]))),
        f=1,
        initial_weights=dict(CASE_STUDY_WEIGHTS),
    )
    latency = _case_study_latency(slow_at, slow_factor, seed)
    with build_cluster(config, flavour, latency=latency, client_count=2) as cluster:
        loop = cluster.loop
        before: List[float] = []
        after: List[float] = []

        async def client_loop(client: Any) -> None:
            for index in range(operations):
                bucket = before if loop.now < slow_at else after
                if index % 3 == 0:
                    await client.write(f"{client.pid}-{index}")
                else:
                    await client.read()
                bucket.append(client.history[-1].latency)
                await loop.sleep(3.0)

        async def reassigner() -> None:
            if flavour != "dynamic-weighted":
                return
            await loop.sleep(slow_at + 20.0)
            # The degraded servers push their weight to the healthy ones.
            await cluster.servers["s1"].transfer("s3", 0.8)
            await cluster.servers["s2"].transfer("s4", 0.8)

        tasks = [client_loop(client) for client in cluster.clients.values()]
        tasks.append(reassigner())
        loop.run_until_complete(gather(loop, tasks))
        return {
            "flavour": flavour,
            "before": summarize(before).median,
            "after": summarize(after).median,
            "after_p95": summarize(after).p95,
        }


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
    return {
        "rows": [
            _case_study_flavour(flavour, slow_at, slow_factor, operations, seed)
            for flavour in ("static-majority", "static-weighted", "dynamic-weighted")
        ]
    }
