"""A simplified reconfigurable atomic storage (the Section VIII comparator).

The paper contrasts its dynamic-weighted storage with *reconfigurable* atomic
storage [13]-[17]: both change quorum formation at run time, but their
availability conditions differ fundamentally —

* dynamic-weighted storage stays live as long as at most ``f`` servers crash,
  where ``f`` is static and independent of any reassignment requests;
* reconfigurable storage stays live only while **every pending configuration**
  retains a correct majority (of servers not proposed for removal), i.e. its
  effective fault threshold depends on the reconfiguration requests in flight.

This module implements a deliberately simplified, consensus-free
reconfigurable register that preserves exactly that availability condition
(the property experiment E8 measures), while leaving out the optimisations of
DynaStore/SmartMerge (garbage collection of old configurations, speculating
on config chains):

* configurations are plain server sets, disseminated on a grow-only
  "known configurations" set piggybacked on every reply (like the change sets
  of the dynamic-weighted storage);
* a read/write phase completes only once it holds replies from a majority of
  **each** known configuration;
* a reconfiguration completes once the new configuration is stored by a
  majority of every configuration known to the issuer (old ones and the new
  one), after transferring the register state read from the old
  configurations.

docs/ARCHITECTURE.md ("Modules ↔ paper sections") records this
simplification.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.core.storage import OperationRecord, StoredValue
from repro.errors import ConfigurationError
from repro.net.message import Message
from repro.net.network import Network
from repro.net.process import Process
from repro.types import ProcessId, Tag, VirtualTime

__all__ = ["ReconfigurableStorageServer", "ReconfigurableStorageClient"]

RC_R = "RCFG_R"
RC_R_ACK = "RCFG_R_ACK"
RC_W = "RCFG_W"
RC_W_ACK = "RCFG_W_ACK"

Configuration = FrozenSet[ProcessId]


def _majority_of_every_config(
    senders: Set[ProcessId], configs: Iterable[Configuration]
) -> bool:
    """True when ``senders`` contains a strict majority of every configuration."""
    for config in configs:
        present = len(senders & config)
        if present <= len(config) / 2:
            return False
    return True


class ReconfigurableStorageServer(Process):
    """Server side: tagged register + grow-only set of known configurations."""

    def __init__(
        self, pid: ProcessId, network: Network, initial_config: Sequence[ProcessId]
    ) -> None:
        super().__init__(pid, network)
        self.stored = StoredValue.initial()
        self.known_configs: Set[Configuration] = {frozenset(initial_config)}
        self.register_handler(RC_R, self._on_read_phase)
        self.register_handler(RC_W, self._on_write_phase)

    def _merge_configs(self, configs: Iterable[Tuple[ProcessId, ...]]) -> None:
        for config in configs:
            self.known_configs.add(frozenset(config))

    def _configs_payload(self) -> Tuple[Tuple[ProcessId, ...], ...]:
        return tuple(tuple(sorted(config)) for config in sorted(self.known_configs, key=sorted))

    def _on_read_phase(self, message: Message) -> None:
        self._merge_configs(message.payload.get("configs", ()))
        self.reply(
            message,
            RC_R_ACK,
            {"stored": self.stored, "configs": self._configs_payload()},
        )

    def _on_write_phase(self, message: Message) -> None:
        self._merge_configs(message.payload.get("configs", ()))
        incoming: StoredValue = message.payload["stored"]
        if self.stored.tag < incoming.tag:
            self.stored = incoming
        self.reply(message, RC_W_ACK, {"configs": self._configs_payload()})


class ReconfigurableStorageClient(Process):
    """Reader/writer/reconfigurer side of the simplified reconfigurable store."""

    def __init__(
        self,
        pid: ProcessId,
        network: Network,
        initial_config: Sequence[ProcessId],
        all_servers: Sequence[ProcessId],
    ) -> None:
        super().__init__(pid, network)
        #: Every server that could ever be part of a configuration (the
        #: message fabric needs their addresses even before they join).
        self.all_servers = tuple(all_servers)
        self.known_configs: Set[Configuration] = {frozenset(initial_config)}
        self._op_count = 0
        self.history: List[OperationRecord] = []

    # -- internals -----------------------------------------------------------------
    def _members(self) -> Tuple[ProcessId, ...]:
        members: Set[ProcessId] = set()
        for config in self.known_configs:
            members |= config
        return tuple(sorted(members))

    def _configs_payload(self) -> Tuple[Tuple[ProcessId, ...], ...]:
        return tuple(tuple(sorted(config)) for config in sorted(self.known_configs, key=sorted))

    async def _run_phase(self, kind: str, payload: dict) -> List[Message]:
        """One phase: wait for majorities of every known configuration.

        Restarts (by raising ``_NewConfigs``) when replies reveal
        configurations this client did not know about.
        """
        while True:
            self._op_count += 1
            request_payload = dict(
                payload, cnt=self._op_count, configs=self._configs_payload()
            )
            collector = self.request_all(self._members(), kind, request_payload)
            known_before = set(self.known_configs)

            def done(replies: List[Message]) -> bool:
                if any(
                    frozenset(config) not in known_before
                    for reply in replies
                    for config in reply.payload["configs"]
                ):
                    return True
                senders = {reply.sender for reply in replies}
                return _majority_of_every_config(senders, known_before)

            replies = await collector.wait_until(done, name="reconfig-quorum")
            new_configs = {
                frozenset(config)
                for reply in replies
                for config in reply.payload["configs"]
            } - known_before
            if new_configs:
                self.known_configs |= new_configs
                continue
            return replies

    async def _read_write(self, value: Any, is_write: bool) -> OperationRecord:
        started_at = self.loop.now
        replies = await self._run_phase(RC_R, {})
        max_stored: StoredValue = max(
            (reply.payload["stored"] for reply in replies), key=lambda s: s.tag
        )
        if is_write:
            tag = Tag(ts=max_stored.tag.ts + 1, pid=self.pid)
            value_to_write = value
        else:
            tag = max_stored.tag
            value_to_write = max_stored.value
        replies = await self._run_phase(
            RC_W, {"stored": StoredValue(tag=tag, value=value_to_write)}
        )
        record = OperationRecord(
            kind="write" if is_write else "read",
            value=value_to_write,
            tag=tag,
            started_at=started_at,
            completed_at=self.loop.now,
            restarts=0,
            contacted=len({reply.sender for reply in replies}),
        )
        self.history.append(record)
        return record

    # -- public API -------------------------------------------------------------------
    async def read(self) -> Any:
        """Atomically read the register."""
        record = await self._read_write(None, is_write=False)
        return record.value

    async def write(self, value: Any) -> None:
        """Atomically write ``value``."""
        if value is None:
            raise ConfigurationError("None is reserved as the 'unwritten' value")
        await self._read_write(value, is_write=True)

    async def reconfigure(self, new_config: Sequence[ProcessId]) -> None:
        """Propose ``new_config`` as a new configuration and install it.

        The operation transfers the current register state into the union of
        configurations: it reads (majorities of every known configuration),
        adds the new configuration, and writes the state back until majorities
        of every configuration — including the new one — have stored it.
        """
        members = frozenset(new_config)
        unknown = members - set(self.all_servers)
        if unknown:
            raise ConfigurationError(f"unknown servers in new config: {sorted(unknown)}")
        replies = await self._run_phase(RC_R, {})
        max_stored: StoredValue = max(
            (reply.payload["stored"] for reply in replies), key=lambda s: s.tag
        )
        self.known_configs.add(members)
        await self._run_phase(RC_W, {"stored": max_stored})

    @property
    def pending_config_count(self) -> int:
        return len(self.known_configs)
