"""Epoch-based pairwise weight reassignment (synthetic stand-in for [11]).

The paper's related-work section describes an earlier consensus-free,
epoch-based pairwise reassignment protocol [11] and criticises two of its
properties:

1. requests issued during an epoch are only applied at the end of the epoch,
   so completion latency is governed by the epoch length (which is hard to
   tune); and
2. the total weight of the servers may drop below ``W_{S,0}`` over time,
   losing voting power.

We do not have the full text of [11], so this module implements a *synthetic
but behaviour-preserving* stand-in (recorded in
docs/ARCHITECTURE.md ("Modules ↔ paper sections")): a coordinator
closes epochs every ``epoch_length`` time units; a transfer's **decrement** is
applied at the end of the epoch in which it was issued, while its
**increment** is only applied at the end of the *next* epoch and only if the
issuer confirmed it in time — an issuer that crashed (or whose confirmation
is late) leaks the in-flight weight, reproducing deficiency (2).  Deficiency
(1) falls out of the epoch boundaries directly.

The ``epoch-vs-epochless`` scenario (E7) sweeps ``epoch_length`` and reports
completion latency and total weight against the paper's epochless protocol.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List

from repro.core.spec import SystemConfig, c2_holds
from repro.errors import ConfigurationError
from repro.net.message import Message
from repro.net.network import Network
from repro.net.process import Process
from repro.net.simloop import SimFuture
from repro.types import ProcessId, VirtualTime, Weight, exact

__all__ = ["EpochBasedCoordinator", "EpochBasedServer"]

EP_REQUEST = "EP_REQUEST"
EP_CONFIRM = "EP_CONFIRM"
EP_WEIGHTS = "EP_WEIGHTS"


@dataclass
class _PendingIncrement:
    request_id: int
    issuer: ProcessId
    target: ProcessId
    delta: Weight
    confirmed: bool = False


class EpochBasedCoordinator(Process):
    """The process closing epochs and publishing weight vectors."""

    def __init__(
        self,
        pid: ProcessId,
        network: Network,
        config: SystemConfig,
        epoch_length: VirtualTime,
    ) -> None:
        if epoch_length <= 0:
            raise ConfigurationError("epoch_length must be positive")
        super().__init__(pid, network)
        self.config = config
        self.epoch_length = epoch_length
        self.epoch = 0
        self.weights: Dict[ProcessId, Weight] = dict(config.initial_weights)
        self._requests: List[Dict] = []
        self._pending_increments: List[_PendingIncrement] = []
        self.leaked_weight: Weight = exact(0)
        self._stopped = False
        self.register_handler(EP_REQUEST, self._on_request)
        self.register_handler(EP_CONFIRM, self._on_confirm)
        self._ticker = self.loop.create_task(self._run_epochs(), name=f"{pid}.epochs")

    # -- request intake --------------------------------------------------------
    def _on_request(self, message: Message) -> None:
        self._requests.append(
            {
                "issuer": message.sender,
                "target": message.payload["target"],
                "delta": message.payload["delta"],
                "request_id": message.payload["request_id"],
            }
        )

    def _on_confirm(self, message: Message) -> None:
        for pending in self._pending_increments:
            if (
                pending.issuer == message.sender
                and pending.request_id == message.payload["request_id"]
            ):
                pending.confirmed = True

    # -- epoch machinery -----------------------------------------------------------
    def stop(self) -> None:
        """Stop closing epochs (ends the ticker task at the next boundary).

        The ticker otherwise runs forever, so simulations that drain the event
        loop to completion (rather than running ``until`` a bound) should call
        this once the experiment is over.
        """
        self._stopped = True

    async def _run_epochs(self) -> None:
        while not self.crashed and not self._stopped:
            await self.loop.sleep(self.epoch_length)
            if self.crashed or self.network.is_crashed(self.pid) or self._stopped:
                return
            self._close_epoch()

    def _close_epoch(self) -> None:
        self.epoch += 1
        # 1. Increments scheduled at the previous boundary: apply if confirmed,
        #    otherwise the weight leaks (deficiency 2).
        still_pending, matured = [], []
        for pending in self._pending_increments:
            matured.append(pending)
        self._pending_increments = still_pending
        for pending in matured:
            if pending.confirmed:
                self.weights[pending.target] += pending.delta
            else:
                self.leaked_weight += pending.delta

        # 2. Requests issued during the epoch that just closed: apply the
        #    decrement now (if the source can afford it) and schedule the
        #    increment for the next boundary.
        requests, self._requests = self._requests, []
        applied_request_ids: List[tuple] = []
        for request in sorted(
            requests, key=lambda r: (r["issuer"], r["request_id"])
        ):
            source = request["issuer"]
            delta = request["delta"]
            if c2_holds(self.weights[source], delta, self.config.rp_min_weight):
                self.weights[source] -= delta
                self._pending_increments.append(
                    _PendingIncrement(
                        request_id=request["request_id"],
                        issuer=source,
                        target=request["target"],
                        delta=delta,
                    )
                )
                applied_request_ids.append((source, request["request_id"], True))
            else:
                applied_request_ids.append((source, request["request_id"], False))

        # 3. Publish the epoch's weight vector to every server.
        for server in self.config.servers:
            self.send(
                server,
                EP_WEIGHTS,
                {
                    "epoch": self.epoch,
                    "weights": dict(self.weights),
                    "outcomes": list(applied_request_ids),
                    "awaiting_confirm": [
                        (p.issuer, p.request_id) for p in self._pending_increments
                    ],
                },
            )

    def total_weight(self) -> Weight:
        """Total weight currently assigned (excludes leaked, in-flight weight)."""
        return sum(self.weights.values())


class EpochBasedServer(Process):
    """A server participating in the epoch-based protocol."""

    def __init__(
        self,
        pid: ProcessId,
        network: Network,
        config: SystemConfig,
        coordinator: ProcessId,
    ) -> None:
        super().__init__(pid, network)
        self.config = config
        self.coordinator = coordinator
        self.weights: Dict[ProcessId, Weight] = dict(config.initial_weights)
        self.epoch = 0
        self._request_ids = itertools.count(1)
        self._waiters: Dict[int, SimFuture] = {}
        self._effective: Dict[int, bool] = {}
        self.register_handler(EP_WEIGHTS, self._on_weights)

    def _on_weights(self, message: Message) -> None:
        self.epoch = message.payload["epoch"]
        self.weights = dict(message.payload["weights"])
        for issuer, request_id, applied in message.payload["outcomes"]:
            if issuer == self.pid:
                self._effective[request_id] = applied
                waiter = self._waiters.pop(request_id, None)
                if waiter is not None and not waiter.done():
                    waiter.set_result(applied)
        # Confirm increments that await this server's acknowledgement.
        for issuer, request_id in message.payload["awaiting_confirm"]:
            if issuer == self.pid:
                self.send(self.coordinator, EP_CONFIRM, {"request_id": request_id})

    async def transfer(self, target: ProcessId, delta: Weight) -> bool:
        """Request a pairwise transfer; resolves at the closing epoch boundary."""
        self._ensure_alive()
        if target not in self.config.servers or target == self.pid:
            raise ConfigurationError(f"invalid target {target!r}")
        if delta <= 0:
            raise ConfigurationError("delta must be positive")
        delta = exact(delta)
        request_id = next(self._request_ids)
        waiter = SimFuture(name=f"{self.pid}.epoch_transfer[{request_id}]")
        self._waiters[request_id] = waiter
        self.send(
            self.coordinator,
            EP_REQUEST,
            {"target": target, "delta": delta, "request_id": request_id},
        )
        return bool(await waiter)

