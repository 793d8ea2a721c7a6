"""Catalogue family: the paper's reassignment experiments (E1, E7)."""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.core.spec import SystemConfig, check_rp_integrity
from repro.errors import ConfigurationError
from repro.experiments.registry import scenario
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.net.simloop import SimLoop, gather
from repro.quorum.weighted import WeightedMajorityQuorumSystem
from repro.reassign.epoch_based import EpochBasedCoordinator, EpochBasedServer
from repro.sim.cluster import build_reassignment_fleet

__all__ = ["fig1_walkthrough", "epoch_vs_epochless"]


# ---------------------------------------------------------------------------
# E1 — Fig. 1 / Example 2: the restricted pairwise reassignment walkthrough.
# ---------------------------------------------------------------------------

FIG1_ACCEPTED = (("s4", "s1", 0.2), ("s5", "s2", 0.2), ("s6", "s3", 0.2))
FIG1_REJECTED = (("s6", "s2", 0.2), ("s7", "s3", 0.3))


@scenario(
    "fig1-walkthrough",
    description="Fig. 1 / Example 2: three accepted transfers concentrate a "
    "minority quorum on {s1,s2,s3}; two more are rejected by RP-Integrity.",
    tags=("paper", "reassignment"),
)
def fig1_walkthrough(n: int = 7, f: int = 2) -> Dict[str, Any]:
    """Replay the paper's Fig. 1 transfer sequence and check RP-Integrity."""
    if n < 7:
        raise ConfigurationError(
            f"fig1-walkthrough replays the paper's fixed transfer requests on "
            f"servers s1..s7 and needs n >= 7, got n={n}"
        )
    fleet = build_reassignment_fleet(SystemConfig.uniform(n, f=f))

    async def run() -> List[Dict[str, Any]]:
        outcomes = []
        for source, target, delta in FIG1_ACCEPTED + FIG1_REJECTED:
            outcome = await fleet.servers[source].transfer(target, delta)
            outcomes.append(
                {
                    "source": source,
                    "target": target,
                    "delta": delta,
                    "expected_effective": (source, target, delta) in FIG1_ACCEPTED,
                    "effective": outcome.effective,
                    "latency": outcome.latency,
                }
            )
        return outcomes

    transfers = fleet.loop.run_until_complete(run())
    fleet.loop.run()  # let the broadcast echoes finish for an honest message count
    weights = fleet.servers["s1"].local_weights()
    quorum_system = WeightedMajorityQuorumSystem(weights)
    return {
        "transfers": transfers,
        "weights": {pid: weight for pid, weight in sorted(weights.items())},
        "messages": fleet.network.messages_sent,
        "minority_is_quorum": quorum_system.is_quorum(["s1", "s2", "s3"]),
        "smallest_quorum_size": quorum_system.smallest_quorum_size(),
        "rp_integrity": check_rp_integrity(
            weights, fleet.config.total_initial_weight, fleet.config.f
        ),
    }


# ---------------------------------------------------------------------------
# E7 — Epochless restricted pairwise reassignment vs the epoch-based baseline.
# ---------------------------------------------------------------------------

EPOCH_REQUESTS = (("s4", "s1", 0.1), ("s5", "s2", 0.1), ("s6", "s3", 0.1), ("s7", "s1", 0.1))


def _run_epochless(n: int, f: int) -> Dict[str, Any]:
    fleet = build_reassignment_fleet(SystemConfig.uniform(n, f=f))

    async def one(source: str, target: str, delta: float):
        return await fleet.servers[source].transfer(target, delta)

    outcomes = fleet.loop.run_until_complete(
        gather(fleet.loop, [one(*request) for request in EPOCH_REQUESTS])
    )
    fleet.loop.run()
    total = sum(fleet.servers["s1"].local_weights().values())
    mean_latency = sum(o.latency for o in outcomes) / len(outcomes)
    return {"protocol": "restricted pairwise (paper)", "epoch": "-",
            "mean_latency": mean_latency, "total_weight": total, "leaked": 0.0}


def _run_epoch_based(
    n: int, f: int, epoch_length: float, crash_issuer: bool = False
) -> Dict[str, Any]:
    config = SystemConfig.uniform(n, f=f)
    loop = SimLoop()
    network = Network(loop, ConstantLatency(1.0))
    coordinator = EpochBasedCoordinator("coord", network, config, epoch_length)
    servers = {pid: EpochBasedServer(pid, network, config, "coord") for pid in config.servers}

    latencies: List[float] = []

    async def one(source: str, target: str, delta: float) -> None:
        started = loop.now
        await servers[source].transfer(target, delta)
        latencies.append(loop.now - started)

    async def run() -> None:
        tasks = [loop.create_task(one(*request)) for request in EPOCH_REQUESTS]
        if crash_issuer:
            await loop.sleep(epoch_length * 0.5)
            network.crash("s4")
        for task in tasks:
            if not crash_issuer:
                await task

    loop.run_until_complete(run())
    loop.run(until=loop.now + 3 * epoch_length)
    coordinator.stop()
    loop.run(until=loop.now + epoch_length + 1)
    label = f"{epoch_length:.0f}" + (" +crash" if crash_issuer else "")
    return {
        "protocol": "epoch-based [11]",
        "epoch": label,
        "mean_latency": sum(latencies) / len(latencies) if latencies else float("nan"),
        "total_weight": coordinator.total_weight(),
        "leaked": coordinator.leaked_weight,
    }


@scenario(
    "epoch-vs-epochless",
    description="Reassignment completion latency and weight preservation: the "
    "paper's epochless protocol vs an epoch-based baseline at several epoch "
    "lengths, including a crashed issuer that leaks weight.",
    tags=("paper", "reassignment", "baseline"),
)
def epoch_vs_epochless(
    n: int = 7,
    f: int = 2,
    epoch_lengths: Sequence[float] = (5.0, 20.0, 80.0),
    crash_epoch_length: float = 20.0,
) -> Dict[str, Any]:
    """Compare reassignment latency and weight leakage across protocols."""
    if n < 7:
        raise ConfigurationError(
            f"epoch-vs-epochless issues its fixed transfer requests from "
            f"servers s4..s7 and needs n >= 7, got n={n}"
        )
    rows = [_run_epochless(n, f)]
    for epoch_length in epoch_lengths:
        rows.append(_run_epoch_based(n, f, epoch_length))
    rows.append(_run_epoch_based(n, f, crash_epoch_length, crash_issuer=True))
    return {"rows": rows}
