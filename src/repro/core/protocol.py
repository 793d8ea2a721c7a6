"""Restricted pairwise weight reassignment (Algorithms 3 and 4).

This module is the heart of the reproduction: the consensus-free protocol
that lets servers transfer voting power between each other in an asynchronous
failure-prone system while preserving RP-Integrity (Definition 5).

Two pieces, mirroring the paper:

* :func:`read_changes` — Algorithm 3.  Any process collects the change sets
  stored by more than ``f`` servers, takes their union ``C``, writes ``C``
  back to at least ``n - f`` servers, and only then returns it.  The
  write-back is what makes RP-Validity-II hold: once a change is returned by
  some ``read_changes``, every later ``read_changes`` intersects the ``n - f``
  servers storing it in its ``f + 1``-server read phase.

* :class:`ReassignmentServer` — Algorithm 4.  Each server keeps a grow-only
  change set ``C``, a local counter, and offers the ``transfer`` operation.
  A transfer is *effective* only if the server's current weight stays above
  the RP-Integrity bound ``W_{S,0} / (2(n-f))`` after giving away ``delta``
  (condition C2); only the server itself may give its weight away (condition
  C1, enforced structurally because ``transfer`` is a method of the source
  server).  Effective transfers are reliably broadcast and acknowledged by
  ``n - f - 1`` other servers before completing.

A note on local counters: the paper reserves counter 1 for the conventional
initial change ``<s, 1, s, w>`` completed at time 0 and states that processes
increment their counter after every invocation; accordingly the first explicit
``transfer`` of a server uses counter 2 (this is also what Algorithms 1 and 2
assume when they look for changes with counter 2).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.change import Change, ChangeSet
from repro.core.spec import SystemConfig, c2_holds
from repro.errors import ConfigurationError, SimulationError
from repro.net.broadcast import ReliableBroadcast
from repro.net.message import Message
from repro.net.network import Network
from repro.net.process import Process
from repro.net.simloop import SimFuture
from repro.types import ProcessId, VirtualTime, Weight, exact

__all__ = ["TransferOutcome", "ReassignmentServer", "read_changes"]

# Message kinds (kept short, matching the paper's names).
RC = "RC"  # read-changes request
RC_ACK = "RC_ACK"
WC = "WC"  # write-changes (the union write-back of Algorithm 3)
WC_ACK = "WC_ACK"
T_RB = "T_RB"  # reliable-broadcast envelope carrying a transfer
T_ACK = "T_ACK"


@dataclass(frozen=True)
class TransferOutcome:
    """The ``<Complete, c>`` message returned by a ``transfer`` invocation.

    ``effective`` transfers carry the negative source change (and its positive
    counterpart); null transfers carry a zero-weight change, as RP-Validity-I
    prescribes.
    """

    effective: bool
    change: Change
    counterpart: Optional[Change]
    started_at: VirtualTime
    completed_at: VirtualTime

    @property
    def latency(self) -> VirtualTime:
        return self.completed_at - self.started_at


class ReassignmentServer(Process):
    """A server running Algorithm 4 (and the server side of Algorithm 3)."""

    _drop_on_close = ("rb",)

    def __init__(
        self,
        pid: ProcessId,
        network: Network,
        config: SystemConfig,
    ) -> None:
        if pid not in config.servers:
            raise ConfigurationError(f"{pid!r} is not part of the configured server set")
        super().__init__(pid, network)
        self.config = config
        #: Local counter; counter 1 is reserved for the initial change.
        self.lc = 2
        #: The grow-only set of changes this server has stored (Algorithm 4, line 2).
        self.changes: ChangeSet = config.initial_change_set()
        self._tack_sent: Set[Tuple[ProcessId, int]] = set()
        self._tack_received: Dict[int, Set[ProcessId]] = defaultdict(set)
        self._tack_waiters: Dict[int, SimFuture] = {}
        self._transfer_in_progress = False
        #: Completed transfer outcomes, in invocation order (for benchmarks).
        self.transfer_log: List[TransferOutcome] = []

        self.rb = ReliableBroadcast(
            self, config.servers, self._on_rb_deliver, kind=T_RB
        )
        self.register_handler(RC, self._on_rc)
        self.register_handler(WC, self._on_wc)
        self.register_handler(T_ACK, self._on_tack)

    # ------------------------------------------------------------------ state
    def get_changes(self, server: ProcessId) -> ChangeSet:
        """Changes stored locally for ``server`` (Algorithm 4, ``get_changes``)."""
        return self.changes.for_server(server)

    def weight(self) -> Weight:
        """This server's current weight according to its local change set."""
        return self.changes.weight_of(self.pid)

    def weight_of(self, server: ProcessId) -> Weight:
        """The locally known weight of any server."""
        return self.changes.weight_of(server)

    def local_weights(self) -> Dict[ProcessId, Weight]:
        """The locally known full weight map."""
        return self.changes.weights(self.config.servers)

    # ------------------------------------------------------- weight-gain hook
    async def on_weight_gained(self, change: Change) -> None:
        """Hook invoked before storing a change that increases this server's weight.

        Algorithm 4 (lines 8-9) requires a server that gains weight to refresh
        its register with a storage-level read before acknowledging the
        transfer; the plain reassignment server has no register, so the
        default is a no-op.  :class:`repro.core.storage.DynamicWeightedStorageServer`
        overrides it.
        """

    # ------------------------------------------------------------ write_changes
    async def write_changes(self, new_changes: Iterable[Change]) -> None:
        """Store changes received from peers, acknowledging their authors.

        Mirrors Algorithm 4, ``write_changes``: for every not-yet-known change
        created for this server, refresh the local register first (the hook),
        then store the change and send a single ``T_ACK`` per (author,
        counter) pair.
        """
        for change in sorted(set(new_changes) - self.changes.as_frozenset()):
            if change.server == self.pid and change.author != self.pid:
                await self.on_weight_gained(change)
            self.changes = self.changes.add(change)
            key = (change.author, change.counter)
            if change.author != self.pid and key not in self._tack_sent:
                self._tack_sent.add(key)
                self.send(change.author, T_ACK, {"counter": change.counter})

    # ----------------------------------------------------------------- handlers
    def _on_rc(self, message: Message) -> None:
        target = message.payload["server"]
        self.reply(message, RC_ACK, {"changes": self.get_changes(target).sorted()})

    async def _on_wc(self, message: Message) -> None:
        await self.write_changes(message.payload["changes"])
        self.reply(message, WC_ACK, {})

    async def _on_rb_deliver(self, origin: ProcessId, payload: Dict) -> None:
        await self.write_changes(payload["changes"])

    def _on_tack(self, message: Message) -> None:
        counter = message.payload["counter"]
        self._tack_received[counter].add(message.sender)
        waiter = self._tack_waiters.get(counter)
        if waiter is not None and not waiter.done():
            needed = self.config.n - self.config.f - 1
            if len(self._tack_received[counter]) >= needed:
                waiter.set_result(None)

    # ----------------------------------------------------------------- transfer
    async def transfer(self, target: ProcessId, delta: Weight) -> TransferOutcome:
        """Transfer ``delta`` of this server's weight to ``target`` (Algorithm 4).

        Returns a :class:`TransferOutcome`; the transfer is *null* (zero-weight
        changes, nothing broadcast) when condition C2 does not hold.
        Raises :class:`ConfigurationError` for malformed invocations
        (non-positive delta, unknown or self target) and
        :class:`SimulationError` if invoked while a previous transfer of this
        server is still in progress (processes are sequential, Section II).
        """
        self._ensure_alive()
        if target not in self.config.servers:
            raise ConfigurationError(f"unknown target server {target!r}")
        if target == self.pid:
            raise ConfigurationError("cannot transfer weight to oneself")
        if delta <= 0:
            raise ConfigurationError(
                f"transfer delta must be positive, got {delta} "
                "(only the source may give weight away: condition C1)"
            )
        delta = exact(delta)
        if self._transfer_in_progress:
            raise SimulationError(
                f"{self.pid} invoked transfer while a previous transfer is pending"
            )

        self._transfer_in_progress = True
        started_at = self.loop.now
        counter = self.lc
        obs = self.network.obs
        if obs is not None:
            obs.transfer_started(self.pid, target, float(delta), started_at)
        try:
            if c2_holds(self.weight(), delta, self.config.rp_min_weight):
                source_change = Change(self.pid, counter, self.pid, -delta)
                target_change = Change(self.pid, counter, target, delta)
                # Store locally first (the server trivially "acknowledges" its
                # own transfer), then reliably broadcast to everyone else.
                self.changes = self.changes.add(source_change, target_change)
                waiter = SimFuture(name=f"{self.pid}.transfer[{counter}]")
                self._tack_waiters[counter] = waiter
                needed = self.config.n - self.config.f - 1
                if len(self._tack_received[counter]) >= needed:
                    waiter.set_result(None)
                self.rb.broadcast({"changes": (source_change, target_change)})
                if needed > 0:
                    await waiter
                outcome = TransferOutcome(
                    effective=True,
                    change=source_change,
                    counterpart=target_change,
                    started_at=started_at,
                    completed_at=self.loop.now,
                )
            else:
                outcome = TransferOutcome(
                    effective=False,
                    change=Change(self.pid, counter, self.pid, 0),
                    counterpart=Change(self.pid, counter, target, 0),
                    started_at=started_at,
                    completed_at=self.loop.now,
                )
        finally:
            self.lc += 1
            self._transfer_in_progress = False
        self.transfer_log.append(outcome)
        if obs is not None:
            obs.transfer_completed(
                self.pid,
                target,
                float(delta),
                outcome.effective,
                outcome.latency,
                outcome.completed_at,
            )
        return outcome


async def read_changes(
    process: Process, server: ProcessId, config: SystemConfig
) -> ChangeSet:
    """Algorithm 3: learn the changes created for ``server``.

    Any process (client or server) may call this.  It gathers ``RC_ACK``
    replies from more than ``f`` servers, unions them, writes the union back
    until ``n - f`` servers acknowledge, and returns the union.
    """
    if server not in config.servers:
        raise ConfigurationError(f"unknown server {server!r}")
    obs = process.network.obs
    if obs is not None:
        obs.read_changes_round(process.pid)

    read_collector = process.request_all(config.servers, RC, {"server": server})
    replies = await read_collector.wait_for_count(config.f + 1)
    union: Set[Change] = set()
    for reply in replies:
        union.update(reply.payload["changes"])
    changes = ChangeSet(union)

    write_collector = process.request_all(
        config.servers, WC, {"changes": changes.sorted()}
    )
    await write_collector.wait_for_count(config.n - config.f)
    return changes


async def weight_of(
    process: Process, server: ProcessId, config: SystemConfig
) -> Weight:
    """Convenience: the weight of ``server`` as observed via ``read_changes``."""
    changes = await read_changes(process, server, config)
    return changes.weight_of(server)
