"""Catalogue family: the paper's reassignment experiments (E1, E7, E10, E11)."""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence

from repro.consensus.sequencer import Sequencer
from repro.core.protocol import read_changes
from repro.core.spec import SystemConfig, check_rp_integrity
from repro.errors import ConfigurationError
from repro.experiments.registry import scenario
from repro.net.process import Process
from repro.net.simloop import gather
from repro.quorum.weighted import WeightedMajorityQuorumSystem, smallest_quorum_size
from repro.reassign.consensus_based import ConsensusBasedServer
from repro.reassign.epoch_based import EpochBasedCoordinator, EpochBasedServer
from repro.sim.cluster import build_reassignment_fleet, build_world
from repro.types import ProcessId, Weight, float_weights

__all__ = [
    "fig1_walkthrough", "epoch_vs_epochless", "limitation_vc", "protocol_costs",
]


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
    with build_reassignment_fleet(SystemConfig.uniform(n, f=f)) as fleet:

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
            "weights": float_weights(weights),
            "messages": fleet.network.messages_sent,
            "minority_is_quorum": quorum_system.is_quorum(["s1", "s2", "s3"]),
            "smallest_quorum_size": smallest_quorum_size(weights),
            "rp_integrity": check_rp_integrity(
                weights, fleet.config.total_initial_weight, fleet.config.f
            ),
        }


# ---------------------------------------------------------------------------
# E7 — Epochless restricted pairwise reassignment vs the epoch-based baseline.
# ---------------------------------------------------------------------------

EPOCH_REQUESTS = (("s4", "s1", 0.1), ("s5", "s2", 0.1), ("s6", "s3", 0.1), ("s7", "s1", 0.1))


def _run_epochless(n: int, f: int) -> Dict[str, Any]:
    with build_reassignment_fleet(SystemConfig.uniform(n, f=f)) as fleet:

        async def one(source: str, target: str, delta: float):
            return await fleet.servers[source].transfer(target, delta)

        outcomes = fleet.loop.run_until_complete(
            gather(fleet.loop, [one(*request) for request in EPOCH_REQUESTS])
        )
        fleet.loop.run()
        total = sum(fleet.servers["s1"].local_weights().values())
        mean_latency = sum(o.latency for o in outcomes) / len(outcomes)
        return {"protocol": "restricted pairwise (paper)", "epoch": "-",
                "mean_latency": mean_latency, "total_weight": float(total), "leaked": 0.0}


def _run_epoch_based(
    n: int, f: int, epoch_length: float, crash_issuer: bool = False
) -> Dict[str, Any]:
    config = SystemConfig.uniform(n, f=f)
    with build_world() as world:
        loop, network = world.loop, world.network
        coordinator = EpochBasedCoordinator("coord", network, config, epoch_length)
        servers = {
            pid: EpochBasedServer(pid, network, config, "coord") for pid in config.servers
        }

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
            "total_weight": float(coordinator.total_weight()),
            "leaked": float(coordinator.leaked_weight),
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


# ---------------------------------------------------------------------------
# E10 — Section V-C: the restricted protocol cannot always shrink quorums.
# ---------------------------------------------------------------------------

VC_WEIGHTS = {"s1": 1.6, "s2": 1.4, "s3": 0.8, "s4": 0.8, "s5": 0.8, "s6": 0.8, "s7": 0.8}
VC_F = 2
VC_SLOW = ("s1", "s2")
#: (source, target, delta): every kind of RP-legal move the healthy servers
#: have — they may only shuffle their *own* 0.8 among themselves (C1 has no
#: operation that touches s1/s2's weight), and C2 stops the third at the
#: 0.7 floor (s4 at 0.85 - 0.2).
VC_RESTRICTED_MOVES = (("s3", "s4", 0.05), ("s5", "s6", 0.05), ("s4", "s3", 0.2))
#: (issuer, source, target, delta): over a total order anyone may move
#: anyone's weight, so the healthy servers take over the slow servers' excess.
VC_UNRESTRICTED_MOVES = (("s3", "s1", "s3", 0.8), ("s4", "s2", "s4", 0.6))


def _vc_row(problem: str, attempts: List[Dict[str, Any]],
            weights: Mapping[ProcessId, Weight]) -> Dict[str, Any]:
    return {
        "problem": problem,
        "attempts": attempts,
        "weights_after": float_weights(weights),
        "quorum_before": smallest_quorum_size(VC_WEIGHTS, avoid=VC_SLOW),
        "quorum_after": smallest_quorum_size(weights, avoid=VC_SLOW),
    }


def _vc_restricted(config: SystemConfig) -> Dict[str, Any]:
    with build_reassignment_fleet(config) as fleet:

        async def run() -> List[Dict[str, Any]]:
            attempts = []
            for source, target, delta in VC_RESTRICTED_MOVES:
                outcome = await fleet.servers[source].transfer(target, delta)
                attempts.append({"issuer": source, "source": source, "target": target,
                                 "delta": delta, "effective": outcome.effective})
            return attempts

        attempts = fleet.loop.run_until_complete(run())
        fleet.loop.run()
        return _vc_row("restricted pairwise (paper)", attempts,
                       fleet.servers["s3"].local_weights())


def _vc_consensus_based(config: SystemConfig) -> Dict[str, Any]:
    with build_world() as world:
        loop, network = world.loop, world.network
        Sequencer("seq", network, config.servers)
        servers = {
            pid: ConsensusBasedServer(pid, network, config, "seq")
            for pid in config.servers
        }

        async def run() -> List[Dict[str, Any]]:
            attempts = []
            for issuer, source, target, delta in VC_UNRESTRICTED_MOVES:
                effective = await servers[issuer].transfer(source, target, delta)
                attempts.append({"issuer": issuer, "source": source, "target": target,
                                 "delta": delta, "effective": effective})
            return attempts

        attempts = loop.run_until_complete(run())
        loop.run()
        return _vc_row("consensus-based (total order)", attempts, servers["s3"].weights)


@scenario(
    "limitation-vc",
    description="Section V-C (E10): with the heavy servers s1, s2 slow, no "
    "RP-legal move shrinks the smallest quorum avoiding them (5 -> 5), while "
    "consensus-based reassignment lets the healthy servers take their weight "
    "over (5 -> 3).",
    tags=("paper", "reassignment", "baseline"),
)
def limitation_vc() -> Dict[str, Any]:
    """The discussion's n=7, f=2 example under both problems."""
    config = SystemConfig(
        servers=tuple(VC_WEIGHTS), f=VC_F, initial_weights=dict(VC_WEIGHTS)
    )
    return {
        "n": config.n,
        "f": config.f,
        "slow": list(VC_SLOW),
        "quorum_using_slow": smallest_quorum_size(VC_WEIGHTS),
        "rows": [_vc_restricted(config), _vc_consensus_based(config)],
    }


# ---------------------------------------------------------------------------
# E11 — Protocol micro-costs: message complexity and latency vs n.
# ---------------------------------------------------------------------------

COST_SWEEP_N = (4, 7, 10, 16, 25)


@scenario(
    "protocol-costs",
    description="Protocol micro-costs (E11) at unit link delay: transfer and "
    "read_changes latencies stay a constant number of message delays while "
    "messages grow ~n^2 (echo broadcast) and ~n.",
    tags=("paper", "reassignment", "analytic"),
)
def protocol_costs() -> Dict[str, Any]:
    """One transfer and one read_changes per cluster size, f = (n - 1) // 3."""
    rows = []
    for n in COST_SWEEP_N:
        f = (n - 1) // 3
        with build_reassignment_fleet(SystemConfig.uniform(n, f=f)) as fleet:
            loop, network = fleet.loop, fleet.network
            client = Process("c1", network)

            outcome = loop.run_until_complete(fleet.servers["s1"].transfer("s2", 0.05))
            loop.run()  # let the broadcast echoes finish for an honest message count
            transfer_messages = network.messages_sent

            network.reset_stats()
            started = loop.now
            loop.run_until_complete(read_changes(client, "s2", fleet.config))
            rows.append({
                "n": n,
                "f": f,
                "transfer_latency": outcome.latency,
                "transfer_messages": transfer_messages,
                "read_latency": loop.now - started,
                "read_messages": network.messages_sent,
            })
    return {"rows": rows}
