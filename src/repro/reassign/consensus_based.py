"""Consensus-based weight reassignment (the partially-synchronous baseline).

Related work ([10], [22], [27]) reassigns weights by running every request
through consensus (or an equivalent total-order primitive): all replicas apply
the same sequence of requests, each validated against the Integrity property,
so no restriction on *who* may reassign *whose* weight is needed.  This is
exactly what the paper proves cannot be done in a purely asynchronous
failure-prone system — the total-order primitive is where the extra synchrony
hides.

The implementation orders requests with the sequencer-based total-order
broadcast of :mod:`repro.consensus.sequencer` and validates them with the same
:func:`repro.core.spec.check_integrity` predicate used everywhere else.  The
``limitation-vc`` scenario (E10) runs it beside the paper's consensus-free
protocol on the Section V-C example: without the C1 restriction the healthy
servers take over the slow servers' weight, which no RP-legal move can do.
The price is liveness: crash the sequencer and no request completes.
"""

from __future__ import annotations

import itertools
from typing import Dict

from repro.core.spec import SystemConfig, check_integrity
from repro.consensus.sequencer import TotalOrderClient
from repro.errors import ConfigurationError
from repro.net.network import Network
from repro.net.process import Process
from repro.types import ProcessId, Weight, exact

__all__ = ["ConsensusBasedServer"]


class ConsensusBasedServer(Process):
    """A replica applying totally-ordered (pairwise) reassignment requests."""

    _drop_on_close = ("_order",)

    def __init__(
        self,
        pid: ProcessId,
        network: Network,
        config: SystemConfig,
        sequencer: ProcessId,
    ) -> None:
        if pid not in config.servers:
            raise ConfigurationError(f"{pid!r} is not part of the configured server set")
        super().__init__(pid, network)
        self.config = config
        self.weights: Dict[ProcessId, Weight] = dict(config.initial_weights)
        self._order = TotalOrderClient(self, sequencer, self._apply)
        self._counter = itertools.count(1)

    # -- deterministic state machine ---------------------------------------------
    def _apply(self, submitter: ProcessId, command: Dict) -> bool:
        source, target, delta = command["source"], command["target"], command["delta"]
        tentative = dict(self.weights)
        tentative[source] -= delta
        tentative[target] += delta
        if all(weight >= 0 for weight in tentative.values()) and check_integrity(
            tentative, self.config.f
        ):
            self.weights = tentative
            return True
        return False

    # -- client-facing operation ----------------------------------------------------
    async def transfer(self, source: ProcessId, target: ProcessId, delta: Weight) -> bool:
        """Submit a reassignment; resolves once this replica has applied it.

        Unlike the paper's restricted protocol there is no C1 restriction:
        any server may move weight between any pair of servers, because the
        total order resolves conflicts.
        """
        self._ensure_alive()
        if source not in self.config.servers or target not in self.config.servers:
            raise ConfigurationError("source and target must be configured servers")
        if delta == 0:
            raise ConfigurationError("delta must be non-zero")
        command = {
            "source": source,
            "target": target,
            "delta": exact(delta),
            "id": next(self._counter),
        }
        return bool(await self._order.submit(command))

