"""Dynamic-weighted atomic storage (Section VII, Algorithms 5 and 6).

A multi-writer multi-reader atomic register whose quorums are *weighted* and
whose weights change at run time through the restricted pairwise weight
reassignment protocol of :mod:`repro.core.protocol`.

The register protocol is the classical ABD algorithm extended in two ways
(both taken from the paper):

1. every server reply carries the server's current change set ``C``; when a
   reader/writer sees changes it did not know about, it merges them into its
   own view and **restarts** the operation, so that the weighted-quorum test
   is always evaluated against an up-to-date weight map;
2. the quorum test ``is_quorum(Q)`` accepts a reply set whose senders' total
   weight (according to the caller's current change set) exceeds
   ``W_{S,0} / 2`` — a constant, because pairwise reassignment preserves the
   total weight.

One refinement over the paper's pseudo-code, recorded here and in
docs/ARCHITECTURE.md ("Modules ↔ paper sections"):
Algorithm 5 restarts whenever a reply's change set *differs* from the
caller's, replacing the caller's set with the reply's.  Replacing can move the
caller's view backwards when it has already merged newer changes from another
server; we therefore merge (set union) instead of replacing, and restart only
when the reply contains changes the caller did not yet know.  Unions only
grow, so the restart loop terminates as soon as reassignments quiesce (the
paper makes the same finite-number-of-transfers assumption in Theorem 6), and
safety is unaffected because the caller's weight view only ever becomes more
up-to-date.

Server side, the weight-gaining hook of Algorithm 4 (lines 8-9) is
implemented: before acknowledging a transfer that increases its weight, a
storage server refreshes its register with a full read.  That read is what
makes new quorums (which may now include the newly heavy server in place of
others) intersect correctly with old ones (Lemma 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Any, Callable, Iterable, List, Set

from repro.core.change import Change, ChangeSet
from repro.core.protocol import ReassignmentServer
from repro.core.spec import SystemConfig
from repro.errors import ConfigurationError
from repro.net.message import Message
from repro.net.network import Network
from repro.net.process import Process
from repro.numerics import strictly_greater
from repro.types import ProcessId, Tag, VirtualTime

__all__ = [
    "StoredValue",
    "DynamicWeightedStorageServer",
    "DynamicWeightedStorageClient",
]

R = "R"  # phase-1 request (read the register + change set)
R_ACK = "R_ACK"
W = "W"  # phase-2 request (write/confirm a tagged value)
W_ACK = "W_ACK"


@dataclass(frozen=True)
class StoredValue:
    """A tagged register value (``register[tag, val]`` in Algorithm 4)."""

    tag: Tag
    value: Any

    @staticmethod
    def initial() -> "StoredValue":
        return StoredValue(tag=Tag.zero(), value=None)


@dataclass
class OperationRecord:
    """Telemetry about one completed read/write (used by the benchmarks)."""

    kind: str
    value: Any
    tag: Tag
    started_at: VirtualTime
    completed_at: VirtualTime
    restarts: int
    contacted: int

    @property
    def latency(self) -> VirtualTime:
        return self.completed_at - self.started_at


class _ChangeView:
    """The change-set view a reader/writer evaluates weighted quorums against."""

    def current_changes(self) -> ChangeSet:  # pragma: no cover - interface
        raise NotImplementedError

    async def merge_changes(self, new_changes: Iterable[Change]) -> None:  # pragma: no cover
        raise NotImplementedError


async def _read_write(
    process: Process,
    config: SystemConfig,
    view: _ChangeView,
    op_counter: List[int],
    value: Any,
    is_write: bool,
) -> OperationRecord:
    """The two-phase ABD engine shared by clients and servers (Algorithm 5)."""
    kind = "write" if is_write else "read"
    started_at = process.loop.now
    restarts = 0
    half_total = config.total_initial_weight / 2
    obs = process.network.obs
    if obs is not None:
        obs.operation_started("storage", process.pid, kind, started_at)

    while True:
        known = view.current_changes()

        # ----------------------------------------------------------- phase 1
        op_counter[0] += 1
        collector = process.request_all(
            config.servers, R, {"cnt": op_counter[0]}
        )
        replies = await collector.wait_until(
            _quorum_or_news(known, half_total), name="phase1"
        )
        news = _collect_news(replies, known)
        if news:
            await view.merge_changes(news)
            restarts += 1
            if obs is not None:
                obs.operation_restarted(
                    "storage", process.pid, kind, process.loop.now
                )
            continue
        if obs is not None:
            obs.quorum_phase(
                "storage",
                process.pid,
                "phase1",
                len({reply.sender for reply in replies}),
                process.loop.now,
            )

        max_reply = max(replies, key=lambda reply: reply.payload["stored"].tag)
        max_stored: StoredValue = max_reply.payload["stored"]
        if is_write:
            tag = Tag(ts=max_stored.tag.ts + 1, pid=process.pid)
            value_to_write = value
        else:
            tag = max_stored.tag
            value_to_write = max_stored.value

        # ----------------------------------------------------------- phase 2
        known = view.current_changes()
        op_counter[0] += 1
        collector = process.request_all(
            config.servers,
            W,
            {"cnt": op_counter[0], "stored": StoredValue(tag=tag, value=value_to_write)},
        )
        replies = await collector.wait_until(
            _quorum_or_news(known, half_total), name="phase2"
        )
        news = _collect_news(replies, known)
        if news:
            await view.merge_changes(news)
            restarts += 1
            if obs is not None:
                obs.operation_restarted(
                    "storage", process.pid, kind, process.loop.now
                )
            continue

        contacted = len({reply.sender for reply in replies})
        if obs is not None:
            obs.quorum_phase(
                "storage", process.pid, "phase2", contacted, process.loop.now
            )
            obs.operation_completed(
                "storage",
                process.pid,
                kind,
                process.loop.now,
                restarts,
                contacted,
                process.loop.now - started_at,
            )
        return OperationRecord(
            kind=kind,
            value=value_to_write,
            tag=tag,
            started_at=started_at,
            completed_at=process.loop.now,
            restarts=restarts,
            contacted=contacted,
        )


def _quorum_or_news(
    known: ChangeSet, half_total: float
) -> Callable[[List[Message]], bool]:
    """The ``wait until`` test of one phase: news for ``known``, or a quorum.

    Holds once some reply carries a change ``known`` lacks (the caller must
    merge and restart), or once the senders' weights under ``known`` exceed
    ``half_total``.  The returned predicate belongs to one collector: each
    call folds in only the replies that arrived since the previous one —
    the earlier ones were found covered then, or the wait would have ended.
    """
    weights = known.weight_map()
    senders: Set[ProcessId] = set()
    seen = 0

    def predicate(replies: List[Message]) -> bool:
        nonlocal seen
        while seen < len(replies):
            reply = replies[seen]
            if not known.covers(reply.payload["changes"]):
                return True  # ``seen`` stays on the news: asked again, same answer
            senders.add(reply.sender)
            seen += 1
        # Sum in sorted order: float addition is order-sensitive and set
        # iteration order varies per process, so an unordered sum would
        # let the quorum test flip on last-ulp ties between runs.
        weight = sum(map(weights.get, sorted(senders), repeat(0)))
        return strictly_greater(weight, half_total)

    return predicate


def _collect_news(replies: List[Message], known: ChangeSet) -> List[Change]:
    news: List[Change] = []
    for reply in replies:
        changes = reply.payload["changes"]
        if known.covers(changes):
            continue
        for change in changes:
            if change not in known:
                news.append(change)
    return news


class DynamicWeightedStorageServer(ReassignmentServer, _ChangeView):
    """Server side of the dynamic-weighted atomic storage (Algorithm 6).

    Extends :class:`~repro.core.protocol.ReassignmentServer` with the tagged
    register and the ``R``/``W`` handlers; every reply piggybacks the server's
    change set so clients can keep their weight view fresh.
    """

    def __init__(self, pid: ProcessId, network: Network, config: SystemConfig) -> None:
        super().__init__(pid, network, config)
        self.stored = StoredValue.initial()
        self._op_counter = [0]
        # Live nesting depth of on_weight_gained refreshes; reported to the
        # observer so the known recursion (see the docstring below) is
        # measurable without hitting the interpreter's stack limit.
        self._refresh_depth = 0
        self.register_handler(R, self._on_read_phase)
        self.register_handler(W, self._on_write_phase)

    # -- Algorithm 6 handlers ---------------------------------------------------
    def _on_read_phase(self, message: Message) -> None:
        self.reply(
            message,
            R_ACK,
            {"stored": self.stored, "changes": self.changes.sorted()},
        )

    def _on_write_phase(self, message: Message) -> None:
        incoming: StoredValue = message.payload["stored"]
        if self.stored.tag < incoming.tag:
            self.stored = incoming
        self.reply(message, W_ACK, {"changes": self.changes.sorted()})

    # -- weight-gain hook (Algorithm 4, lines 8-9) -------------------------------
    async def on_weight_gained(self, change: Change) -> None:
        """Refresh the register with a full read before acknowledging the gain.

        Known limitation (see ROADMAP): a refresh read that discovers yet
        another gain for this server while merging news re-enters
        ``write_changes`` and recurses back here, so sustained transfer churn
        towards one server grows the await chain without bound until the
        interpreter's recursion limit aborts the handler task.  Bounding that
        recursion (e.g. a re-entrancy guard that lets the in-flight read's
        restart cover the nested gain) changes the refresh message pattern
        and therefore every churn-heavy baseline; it is left for a dedicated
        change rather than riding along with a kernel refactor.  The observer
        hook below *measures* the nesting depth (counter
        ``storage.weight_gain_refreshes``, gauge
        ``storage.weight_gain_refresh_depth``) without changing it.
        """
        self._refresh_depth += 1
        obs = self.network.obs
        if obs is not None:
            obs.weight_gain_refresh(self.pid, self._refresh_depth, self.loop.now)
        try:
            record = await _read_write(
                self, self.config, self, self._op_counter, value=None, is_write=False
            )
        finally:
            self._refresh_depth -= 1
        if self.stored.tag < record.tag:
            self.stored = StoredValue(tag=record.tag, value=record.value)

    # -- _ChangeView --------------------------------------------------------------
    def current_changes(self) -> ChangeSet:
        return self.changes

    async def merge_changes(self, new_changes: Iterable[Change]) -> None:
        await self.write_changes(new_changes)

    # -- server-initiated operations (rarely needed, but part of the model) -------
    async def storage_read(self) -> Any:
        """A full atomic read performed by the server itself."""
        record = await _read_write(
            self, self.config, self, self._op_counter, value=None, is_write=False
        )
        return record.value


class DynamicWeightedStorageClient(Process, _ChangeView):
    """Reader/writer side of the storage (Algorithm 5).

    Clients never acknowledge transfers; they simply keep a local change set,
    merge whatever servers report, and restart operations when their weight
    view was stale.
    """

    def __init__(self, pid: ProcessId, network: Network, config: SystemConfig) -> None:
        super().__init__(pid, network)
        self.config = config
        self.changes: ChangeSet = config.initial_change_set()
        self._op_counter = [0]
        #: Completed operations, in order (read by the benchmark harness).
        self.history: List[OperationRecord] = []

    # -- _ChangeView --------------------------------------------------------------
    def current_changes(self) -> ChangeSet:
        return self.changes

    async def merge_changes(self, new_changes: Iterable[Change]) -> None:
        self.changes = self.changes.union(new_changes)

    # -- public API ----------------------------------------------------------------
    async def read(self) -> Any:
        """Atomically read the register value."""
        record = await _read_write(
            self, self.config, self, self._op_counter, value=None, is_write=False
        )
        self.history.append(record)
        return record.value

    async def write(self, value: Any) -> None:
        """Atomically write ``value`` to the register."""
        if value is None:
            raise ConfigurationError("None is reserved as the 'unwritten' value")
        record = await _read_write(
            self, self.config, self, self._op_counter, value=value, is_write=True
        )
        self.history.append(record)

    # -- introspection ---------------------------------------------------------------
    def observed_weights(self) -> dict:
        """The weight map according to the client's current change set."""
        return self.changes.weights(self.config.servers)
