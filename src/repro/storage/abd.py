"""Classical multi-writer ABD atomic storage over a static quorum system.

This is the baseline storage of the paper's introduction: the ABD protocol
[26] (two phases, read-then-write-back / read-tag-then-write) running against
a *fixed* quorum system.  Passing a
:class:`~repro.quorum.majority.MajorityQuorumSystem` gives the plain MQS
deployment; passing a static
:class:`~repro.quorum.weighted.WeightedMajorityQuorumSystem` gives the
static-weight WMQS deployment (as in WHEAT [20]).  Contrasting both with the
dynamic-weighted storage of :mod:`repro.core.storage` under run-time
performance variation is experiment E6.
"""

from __future__ import annotations

from typing import Any, List

from repro.core.storage import OperationRecord, StoredValue
from repro.errors import ConfigurationError
from repro.net.message import Message
from repro.net.network import Network
from repro.net.process import Process
from repro.quorum.base import QuorumSystem
from repro.types import ProcessId, Tag

__all__ = ["StaticQuorumStorageServer", "StaticQuorumStorageClient"]

SR = "S_R"  # static-storage phase-1 request
SR_ACK = "S_R_ACK"
SW = "S_W"  # static-storage phase-2 request
SW_ACK = "S_W_ACK"


class StaticQuorumStorageServer(Process):
    """Server side: a tagged register plus the two ABD handlers."""

    def __init__(self, pid: ProcessId, network: Network) -> None:
        super().__init__(pid, network)
        self.stored = StoredValue.initial()
        self.register_handler(SR, self._on_read_phase)
        self.register_handler(SW, self._on_write_phase)

    def _on_read_phase(self, message: Message) -> None:
        self.reply(message, SR_ACK, {"stored": self.stored})

    def _on_write_phase(self, message: Message) -> None:
        incoming: StoredValue = message.payload["stored"]
        if self.stored.tag < incoming.tag:
            self.stored = incoming
        self.reply(message, SW_ACK, {})


class StaticQuorumStorageClient(Process):
    """Reader/writer side, parameterised by a static quorum system."""

    def __init__(
        self, pid: ProcessId, network: Network, quorum_system: QuorumSystem
    ) -> None:
        super().__init__(pid, network)
        self.quorum_system = quorum_system
        self.servers = tuple(quorum_system.servers)
        self._op_count = 0
        self.history: List[OperationRecord] = []

    # -- the two-phase engine -----------------------------------------------------
    async def _run_phase(self, kind: str, payload: dict) -> List[Message]:
        self._op_count += 1
        payload = dict(payload, cnt=self._op_count)
        collector = self.request_all(self.servers, kind, payload)
        return await collector.wait_for_senders(
            self.quorum_system.is_quorum, name="static-quorum"
        )

    async def _read_write(self, value: Any, is_write: bool) -> OperationRecord:
        kind = "write" if is_write else "read"
        started_at = self.loop.now
        obs = self.network.obs
        if obs is not None:
            obs.operation_started("abd", self.pid, kind, started_at)
        replies = await self._run_phase(SR, {})
        if obs is not None:
            obs.quorum_phase(
                "abd",
                self.pid,
                "phase1",
                len({reply.sender for reply in replies}),
                self.loop.now,
            )
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
            SW, {"stored": StoredValue(tag=tag, value=value_to_write)}
        )
        contacted = len({reply.sender for reply in replies})
        if obs is not None:
            obs.quorum_phase("abd", self.pid, "phase2", contacted, self.loop.now)
            obs.operation_completed(
                "abd",
                self.pid,
                kind,
                self.loop.now,
                0,
                contacted,
                self.loop.now - started_at,
            )
        record = OperationRecord(
            kind=kind,
            value=value_to_write,
            tag=tag,
            started_at=started_at,
            completed_at=self.loop.now,
            restarts=0,
            contacted=contacted,
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
