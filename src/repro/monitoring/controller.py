"""Driving ``transfer`` towards policy targets.

The controller closes the loop between monitoring and the paper's protocol:
given target weights (from :mod:`repro.monitoring.policy`), each server
periodically compares its *own* current weight with its target and, if it has
excess weight, transfers the excess to the most under-weighted server —
respecting C1 (a server only gives away its own weight) and C2 (never dip to
the RP-Integrity bound).

Because of the restrictions the paper proves necessary, convergence is only
*eventual and approximate*: a server below its target cannot pull weight from
others; it must wait for over-weighted servers to push.  ``tolerance`` stops
the controller from chasing negligible differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.core.protocol import ReassignmentServer, TransferOutcome
from repro.errors import ConfigurationError
from repro.types import ProcessId, VirtualTime, Weight, exact

__all__ = ["WeightController"]


@dataclass
class ControllerReport:
    """What one controller step did (used by tests and benchmarks)."""

    at: VirtualTime
    attempted: bool
    outcome: Optional[TransferOutcome] = None
    target: Optional[ProcessId] = None
    delta: Weight = exact(0)


class WeightController:
    """Per-server controller issuing RP-Integrity-preserving transfers."""

    def __init__(
        self,
        server: ReassignmentServer,
        tolerance: float = 0.05,
        max_step: Optional[float] = None,
    ) -> None:
        if tolerance <= 0 or (max_step is not None and max_step <= 0):
            raise ConfigurationError("tolerance and max_step must be positive")
        self.server = server
        self.tolerance = exact(tolerance)
        self.max_step = None if max_step is None else exact(max_step)
        self.targets: Dict[ProcessId, Weight] = dict(server.config.initial_weights)
        self.reports: List[ControllerReport] = []

    # -- configuration -----------------------------------------------------------
    def set_targets(self, targets: Mapping[ProcessId, Weight]) -> None:
        """Install new target weights (typically produced by a policy)."""
        if set(targets) != set(self.server.config.servers):
            raise ConfigurationError("targets must cover exactly the server set")
        self.targets = {server: exact(weight) for server, weight in targets.items()}

    # -- one control step ------------------------------------------------------------
    def _excess(self) -> Weight:
        return self.server.weight() - self.targets[self.server.pid]

    def _neediest_server(self) -> Optional[ProcessId]:
        """The server whose locally-known weight is furthest below its target."""
        deficits = []
        weights = self.server.local_weights()
        for server in self.server.config.servers:
            if server == self.server.pid:
                continue
            deficit = self.targets[server] - weights[server]
            if deficit > self.tolerance:
                deficits.append((deficit, server))
        if not deficits:
            return None
        deficits.sort(reverse=True)
        return deficits[0][1]

    async def step(self) -> ControllerReport:
        """Perform at most one transfer towards the targets."""
        excess = self._excess()
        target = self._neediest_server()
        if excess <= self.tolerance or target is None:
            report = ControllerReport(at=self.server.loop.now, attempted=False)
            self.reports.append(report)
            return report

        delta = min(
            excess,
            self.targets[target] - self.server.local_weights()[target],
        )
        if self.max_step is not None:
            delta = min(delta, self.max_step)
        # At most the excess: the issuer stays at or above its target, and a
        # transfer C2 rejects (a target at or below the bound) is reported null.
        outcome = await self.server.transfer(target, delta)
        report = ControllerReport(
            at=self.server.loop.now,
            attempted=True,
            outcome=outcome,
            target=target,
            delta=delta,
        )
        self.reports.append(report)
        return report
