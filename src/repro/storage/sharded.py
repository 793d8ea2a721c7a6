"""Key-sharded storage: N independent registers behind one keyed facade.

The paper's protocols (and every store in this repository) implement a
*single* logical register.  That is the right granularity for studying the
reassignment protocol itself, but the road to "millions of users" runs
through partitioning: real deployments slice the key space into shards, each
served by its own replica group with its own quorum weights.  This module
adds that layer without touching any protocol code:

* :func:`shard_for_key` — a stable FNV-1a hash routing a workload key to a
  shard index.  It is deliberately *not* Python's built-in ``hash`` (which is
  randomised per process): the same key maps to the same shard in every
  process, which is what makes sharded runs deterministic under fixed seeds
  and bit-identical between serial and parallel sweep executions.
* :func:`shard_process_name` / :func:`shard_config` — the names and the
  per-shard config under which :func:`~repro.sim.cluster.build_cluster`
  wires each shard's replica group over a *shared* network, so all shards
  advance in one coherent virtual timeline.
* :class:`ShardedStore` — the per-client facade: ``read(key)`` /
  ``write(value, key)`` route each operation to the register instance owning
  the key's shard.  Because shards are independent registers, atomicity holds
  *per key* (every key lives on exactly one shard), which is the standard
  guarantee of sharded key-value stores.

Each shard carries its own :class:`~repro.core.spec.SystemConfig`, so
per-shard quorum weights and per-shard reassignment state evolve
independently: a hotspot shard can re-point its quorums while cold shards
keep their initial weights.

Shard-local processes share the simulated network, so their ids are
suffixed with the shard index (``s1#0`` is shard 0's first server,
``c2#1`` is client ``c2``'s handle into shard 1); :func:`shard_process_name`
/ :func:`base_process_name` convert between the two namings.  Which
storage flavour a shard runs is :data:`repro.sim.cluster.FLAVOURS`'s
business, not this module's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.spec import SystemConfig
from repro.core.storage import OperationRecord
from repro.errors import ConfigurationError
from repro.obs.observer import current_observer
from repro.types import ProcessId

__all__ = [
    "shard_for_key",
    "shard_process_name",
    "base_process_name",
    "expand_process_names",
    "shard_config",
    "ShardedRecord",
    "ShardedStore",
]

_SHARD_SEPARATOR = "#"


def shard_for_key(key: Optional[str], shards: int) -> int:
    """Route ``key`` to a shard index in ``[0, shards)``.

    The routing is a 32-bit FNV-1a hash with a final avalanche mix, chosen
    because it is stable across processes and Python versions (unlike the
    built-in ``hash``, which is seeded per interpreter).  ``None`` keys (a
    workload that never set one) land on shard 0, preserving the
    single-register behaviour for un-keyed workloads.
    """
    if shards < 1:
        raise ConfigurationError(f"need at least one shard, got {shards}")
    if key is None or shards == 1:
        return 0
    digest = 0x811C9DC5
    for byte in key.encode("utf-8"):
        digest ^= byte
        digest = (digest * 0x01000193) & 0xFFFFFFFF
    # Avalanche the low bits: short keys like "k1".."k64" differ only in a
    # couple of bytes, and plain FNV would correlate them with small moduli.
    digest ^= digest >> 15
    digest = (digest * 0x2C1B3C6D) & 0xFFFFFFFF
    digest ^= digest >> 12
    return digest % shards


def shard_process_name(base: ProcessId, shard: int) -> ProcessId:
    """The network-unique name of ``base`` inside ``shard`` (``s1#2``)."""
    if shard < 0:
        raise ConfigurationError(f"shard indices are 0-based, got {shard}")
    return f"{base}{_SHARD_SEPARATOR}{shard}"


def base_process_name(pid: ProcessId) -> ProcessId:
    """Strip the shard suffix (``s1#2`` -> ``s1``); no-op for unsharded ids."""
    base, _, _ = pid.partition(_SHARD_SEPARATOR)
    return base


def expand_process_names(
    pids: Sequence[ProcessId], shards: int
) -> Tuple[ProcessId, ...]:
    """Resolve process names into the sharded namespace.

    A *canonical* name (no ``#`` suffix, e.g. ``s1``) addresses that
    process's instance in **every** shard — the co-located deployment model
    where shard k's ``s1#k`` all run on the same physical machine ``s1``, so
    crashing or slowing the machine affects all of them.  A *qualified* name
    (``s1#2``) passes through unchanged and targets a single shard's
    instance.  With one shard, names pass through untouched: the one-shard
    cluster of :func:`~repro.sim.cluster.build_cluster` runs under the
    canonical process ids.
    """
    if shards < 1:
        raise ConfigurationError(f"need at least one shard, got {shards}")
    if shards == 1:
        return tuple(pids)
    expanded: List[ProcessId] = []
    for pid in pids:
        if _SHARD_SEPARATOR in pid:
            expanded.append(pid)
        else:
            expanded.extend(shard_process_name(pid, shard) for shard in range(shards))
    return tuple(expanded)


def shard_config(template: SystemConfig, shard: int) -> SystemConfig:
    """``template`` with every server renamed into ``shard``'s namespace.

    Each shard gets its own :class:`SystemConfig` instance, so its change
    sets, weight maps and fault threshold are fully independent of every
    other shard's.
    """
    servers = tuple(shard_process_name(pid, shard) for pid in template.servers)
    weights = {
        shard_process_name(pid, shard): weight
        for pid, weight in template.initial_weights.items()
    }
    return SystemConfig(servers=servers, f=template.f, initial_weights=weights)


# ---------------------------------------------------------------------------
# The keyed client facade
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardedRecord:
    """One completed keyed operation: which shard served it, and its record."""

    shard: int
    key: Optional[str]
    record: OperationRecord


class ShardedStore:
    """One logical client's keyed view over the shard set.

    ``read``/``write`` route on the operation's key via :func:`shard_for_key`
    and delegate to the per-shard client handle (an independent register
    client wired into that shard's replica group).  The facade mirrors the
    unsharded clients' ``history`` attribute so the generic runner
    aggregation keeps working, and additionally keeps a
    :attr:`sharded_history` with shard/key placements for the per-shard
    metrics.

    Like the paper's clients, a logical client is *sequential*: one facade
    supports one operation at a time (the workload runner issues each
    client's operations in order).  Concurrent operations on the same facade
    would make the per-shard record attribution ambiguous, so the facade
    raises instead of silently mis-counting; use one facade per concurrent
    logical client.
    """

    #: Marks the client as key-aware for the workload runner.
    keyed = True

    def __init__(self, pid: ProcessId, shard_clients: Sequence[Any]) -> None:
        if not shard_clients:
            raise ConfigurationError("a sharded store needs at least one shard client")
        self.pid = pid
        self.shard_clients = tuple(shard_clients)
        self.shards = len(self.shard_clients)
        self._in_flight = False
        # Ambient observer captured at construction, like Network/SimLoop do
        # (the facade holds no network reference of its own).
        self.obs = current_observer()
        # key -> shard memo: workloads revisit a small key set thousands of
        # times, so each key pays the FNV-1a hash exactly once per facade.
        self._shard_memo: Dict[Optional[str], int] = {}
        #: Completed operations in issue order (same shape as unsharded clients).
        self.history: List[OperationRecord] = []
        #: Completed operations with their shard/key placement.
        self.sharded_history: List[ShardedRecord] = []

    # -- routing -----------------------------------------------------------------
    def shard_of(self, key: Optional[str]) -> int:
        """The shard index serving ``key`` (memoised :func:`shard_for_key`)."""
        memo = self._shard_memo
        shard = memo.get(key)
        if shard is None:
            shard = memo[key] = shard_for_key(key, self.shards)
        return shard

    def _begin(self) -> None:
        if self._in_flight:
            raise ConfigurationError(
                f"logical client {self.pid!r} issued concurrent operations; "
                "sharded store facades are sequential — use one facade per "
                "concurrent client"
            )
        self._in_flight = True

    def _absorb(self, shard: int, key: Optional[str]) -> OperationRecord:
        # The per-shard sub-client is exclusive to this logical client, and
        # _begin() enforces that the logical client is sequential, so the
        # sub-client's latest history entry is exactly the operation that
        # just completed.
        record = self.shard_clients[shard].history[-1]
        self.history.append(record)
        self.sharded_history.append(ShardedRecord(shard=shard, key=key, record=record))
        if self.obs is not None:
            self.obs.shard_routed(self.pid, shard, record.kind)
        return record

    # -- public API ----------------------------------------------------------------
    async def read(self, key: Optional[str] = None) -> Any:
        """Atomically read the register owning ``key``."""
        shard = self.shard_of(key)
        self._begin()
        try:
            value = await self.shard_clients[shard].read()
            self._absorb(shard, key)
        finally:
            self._in_flight = False
        return value

    async def write(self, value: Any, key: Optional[str] = None) -> None:
        """Atomically write ``value`` to the register owning ``key``."""
        shard = self.shard_of(key)
        self._begin()
        try:
            await self.shard_clients[shard].write(value)
            self._absorb(shard, key)
        finally:
            self._in_flight = False
