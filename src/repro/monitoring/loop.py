"""The probe → policy → controller feedback loop.

:func:`install_monitoring` wires one complete monitoring loop and starts it:
every ``interval`` a dedicated prober pings the servers, a
:class:`~repro.monitoring.monitor.LatencyMonitor` folds the reply latencies
into its EWMA summary, the configured policy turns the summary into target
weights, and each server's :class:`~repro.monitoring.controller.
WeightController` takes one RP-Integrity-preserving step towards them.

There is one loop, and the topology is data: a loop runs over a set of
*replica groups* that share its monitor.  A single register is one group;
independent per-shard monitoring is one call per shard; machine-level
(``global``) monitoring is one call over every shard, where each machine's
sample is the mean round trip of its instances.  The declarative
:class:`~repro.experiments.spec.MonitoringSpec` section and the catalogue
scenarios all call this function (and share its event ordering — the
checked-in baselines depend on it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping

from repro.core.spec import SystemConfig
from repro.errors import CrashedProcessError
from repro.monitoring.controller import WeightController
from repro.monitoring.monitor import LatencyMonitor, install_probe_responder
from repro.monitoring.policy import proportional_inverse_latency_weights
from repro.net.network import Network
from repro.net.process import Process
from repro.net.simloop import SimLoop
from repro.types import ProcessId, VirtualTime, Weight

__all__ = ["PolicyFn", "MonitoringHarness", "install_monitoring"]

# A policy maps the monitor's latency summary plus the system config to
# target weights (see repro.monitoring.policy for the built-in schemes).
PolicyFn = Callable[[Mapping[ProcessId, VirtualTime], SystemConfig], Dict[ProcessId, Weight]]


@dataclass
class MonitoringHarness:
    """The installed monitoring loop(s): controllers by replica-group index.

    Single-register clusters use the single group ``0``.  The harness is
    what a run's ``monitoring`` result block reports from; loops installed
    separately (one per shard) report together through :meth:`merged`.
    """

    controllers: Dict[int, List[WeightController]]
    rounds: int

    @classmethod
    def merged(cls, harnesses: List["MonitoringHarness"]) -> "MonitoringHarness":
        """One harness over the groups of several equally long loops."""
        controllers: Dict[int, List[WeightController]] = {}
        for harness in harnesses:
            controllers.update(harness.controllers)
        return cls(controllers=controllers, rounds=harnesses[0].rounds)

    def transfers_attempted(self) -> Dict[int, int]:
        """Controller transfers attempted, per group index."""
        return {
            index: sum(
                1
                for controller in controllers
                for step in controller.reports
                if step.attempted
            )
            for index, controllers in sorted(self.controllers.items())
        }

    def rounds_completed(self) -> int:
        """Control rounds that actually executed (every live controller steps
        once per round, so the longest report list counts the completed
        rounds — fewer than ``rounds`` when the run ended before the loop
        finished)."""
        return max(
            (
                len(controller.reports)
                for controllers in self.controllers.values()
                for controller in controllers
            ),
            default=0,
        )

    def as_dict(self, sharded: bool = False) -> Dict[str, Any]:
        """JSON-serialisable summary for the run result dict."""
        by_shard = self.transfers_attempted()
        summary: Dict[str, Any] = {
            "rounds": self.rounds,
            "rounds_completed": self.rounds_completed(),
            "transfers_attempted": sum(by_shard.values()),
        }
        if sharded:
            summary["transfers_attempted_by_shard"] = {
                str(index): count for index, count in by_shard.items()
            }
        return summary


def install_monitoring(
    loop: SimLoop,
    network: Network,
    config: SystemConfig,
    groups: Mapping[int, Mapping[ProcessId, Any]],
    *,
    prober: ProcessId,
    rounds: int,
    interval: VirtualTime,
    tolerance: Weight,
    max_step: Weight,
    window: int = 32,
    ewma_alpha: float = 0.3,
    policy: PolicyFn = proportional_inverse_latency_weights,
) -> MonitoringHarness:
    """Start one prober, one monitor and one control task over ``groups``.

    ``config`` names the monitored machines; ``groups`` maps a replica-group
    index to that group's servers, listed in ``config.servers`` order — the
    i-th server of every group is an instance of the i-th machine.  Every
    ``interval`` the prober pings every instance, the monitor records each
    machine's mean round trip, ``policy`` turns the EWMA summary into target
    weights, and the targets — renamed into each group's namespace — drive
    one :class:`WeightController` per server (``tolerance`` dead-bands
    negligible deficits, ``max_step`` caps the weight moved per step).  A
    server that is crashed when its turn comes sits the round out.

    Must be called before the workload starts so the control task's position
    in the event order is deterministic.
    """
    machine_of: Dict[ProcessId, ProcessId] = {}
    controllers: Dict[int, List[WeightController]] = {}
    for index, servers in groups.items():
        machine_of.update(zip(servers, config.servers))
        for server in servers.values():
            install_probe_responder(server)
        controllers[index] = [
            WeightController(server, tolerance=tolerance, max_step=max_step)
            for server in servers.values()
        ]
    prober_process = Process(prober, network)
    monitor = LatencyMonitor(config.servers, window=window, ewma_alpha=ewma_alpha)

    async def control_loop() -> None:
        obs = network.obs
        for round_index in range(rounds):
            await loop.sleep(interval)
            if obs is not None:
                obs.control_round(prober, round_index, loop.now)
            await monitor.probe(prober_process, instances=machine_of)
            targets = policy(monitor.summary(default=1.0), config)
            for index, servers in groups.items():
                group_targets = {pid: targets[machine_of[pid]] for pid in servers}
                for controller in controllers[index]:
                    controller.set_targets(group_targets)
                    try:
                        await controller.step()
                    except CrashedProcessError:
                        pass  # its server is down: it sits the round out

    loop.create_task(control_loop(), name=f"monitoring-control:{prober}")
    return MonitoringHarness(controllers=controllers, rounds=rounds)
