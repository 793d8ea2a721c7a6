"""Executable consensus reductions (Algorithms 1 and 2, Theorems 1 and 2).

The paper's impossibility results work by *reduction*: given any solution to
the (unrestricted or pairwise) weight reassignment problem, Algorithms 1 and 2
solve consensus, which is impossible in asynchronous failure-prone systems —
hence no such solution can exist in that model.

To make the reductions executable (and testable) we need *some* implementation
of the two impossible problems.  This module provides **oracle** services:
linearizable, centrally sequenced implementations of Definitions 3 and 4.
They are exactly the kind of "consensus or similar primitive" the paper says
the problems require; running Algorithms 1 and 2 against them demonstrates
that the reduction indeed yields Agreement, Validity and Termination
(Theorems 1 and 2), which is what the ``reduction-alg1`` / ``reduction-alg2``
scenarios report.

Notes on fidelity:

* The paper reserves local counter 1 for the initial changes, so the changes
  created by a server's single ``reassign``/``transfer`` in the reductions
  carry counter 2 — exactly what lines 10 of Algorithm 1 and Algorithm 2 look
  for.
* Algorithm 2, line 3 computes the cyclic successor inside ``F`` as
  ``(i + 1) mod f``, which maps ``i = f-1`` to 0 — an off-by-one in the
  paper's 1-based indexing.  We use ``(i mod f) + 1``, the evidently intended
  cyclic successor ``s2, ..., sf, s1``.
* Algorithm 2, line 10 tests ``<s_j, 2, s_1, 0.4> in read_changes(s_j)``; the
  change created *for* ``s_1`` can only appear in ``read_changes(s_1)``, so we
  test the equivalent condition on the counterpart change
  ``<s_j, 2, s_j, -0.4> in read_changes(s_j)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.change import Change, ChangeSet
from repro.core.spec import SystemConfig, check_integrity
from repro.errors import ConfigurationError
from repro.net.registers import SWMRRegisterArray
from repro.net.simloop import SimLoop
from repro.types import ProcessId, VirtualTime, Weight, server_name, server_set

__all__ = [
    "paper_initial_weights",
    "algorithm_config",
    "ReassignmentRecord",
    "OracleWeightReassignment",
    "OraclePairwiseReassignment",
    "algorithm1_propose",
    "algorithm2_propose",
]


def paper_initial_weights(n: int, f: int) -> Dict[ProcessId, Weight]:
    """The initial weights used by Algorithms 1 and 2.

    Servers ``s1 .. sf`` (the set ``F``) start with ``(n-1)/(2f)`` and the
    remaining servers with ``(n+1)/(2(n-f))``; with these weights Integrity
    holds initially and a single ±0.5 reassignment (or a single 0.4 pairwise
    transfer into ``F``) brings the system exactly to the Integrity boundary.
    """
    if f < 1 or f >= n:
        raise ConfigurationError(f"need 1 <= f < n, got n={n}, f={f}")
    weights: Dict[ProcessId, Weight] = {}
    for index in range(1, n + 1):
        if index <= f:
            weights[server_name(index)] = (n - 1) / (2 * f)
        else:
            weights[server_name(index)] = (n + 1) / (2 * (n - f))
    return weights


@dataclass
class ReassignmentRecord:
    """One completed oracle operation, kept for trace-level spec checking."""

    author: ProcessId
    counter: int
    requested: Tuple
    created: Tuple[Change, ...]
    completed_at: VirtualTime
    weights_after: Dict[ProcessId, Weight] = field(default_factory=dict)


class _OracleBase:
    """Shared plumbing of the two oracle services.

    Operations are applied atomically in invocation order after a configurable
    virtual-time delay (so concurrent proposers genuinely interleave on the
    simulation clock), which makes the service linearizable by construction —
    the "consensus-equivalent power" the impossibility theorems say is
    unavoidable.
    """

    def __init__(
        self, loop: SimLoop, config: SystemConfig, operation_delay: VirtualTime = 1.0
    ) -> None:
        self.loop = loop
        self.config = config
        self.operation_delay = operation_delay
        self.changes: ChangeSet = config.initial_change_set()
        self.trace: List[ReassignmentRecord] = []
        self._counters: Dict[ProcessId, int] = {
            server: 2 for server in config.servers
        }

    # -- shared helpers ------------------------------------------------------
    def _next_counter(self, author: ProcessId) -> int:
        counter = self._counters.setdefault(author, 2)
        self._counters[author] = counter + 1
        return counter

    def current_weights(self) -> Dict[ProcessId, Weight]:
        return self.changes.weights(self.config.servers)

    async def read_changes(self, server: ProcessId) -> ChangeSet:
        """Definition 3/4 ``read_changes``: all completed changes for ``server``."""
        await self.loop.sleep(self.operation_delay)
        return self.changes.for_server(server)

    def _record(self, author: ProcessId, counter: int, requested, created) -> None:
        self.trace.append(
            ReassignmentRecord(
                author=author,
                counter=counter,
                requested=requested,
                created=tuple(created),
                completed_at=self.loop.now,
                weights_after=self.current_weights(),
            )
        )


class OracleWeightReassignment(_OracleBase):
    """A linearizable implementation of the *weight reassignment problem* (Def. 3).

    ``reassign`` atomically checks whether applying the requested delta keeps
    Integrity (Property 1 over the resulting weights); if so it creates the
    requested change, otherwise a zero-weight change — exactly Validity-I.
    """

    async def reassign(
        self, author: ProcessId, server: ProcessId, delta: Weight
    ) -> Change:
        if delta == 0:
            raise ConfigurationError("reassign requires a non-zero delta")
        if server not in self.config.servers:
            raise ConfigurationError(f"unknown server {server!r}")
        await self.loop.sleep(self.operation_delay)
        counter = self._next_counter(author)
        tentative = self.changes.add(Change(author, counter, server, delta))
        if check_integrity(tentative.weights(self.config.servers), self.config.f):
            change = Change(author, counter, server, delta)
        else:
            change = Change(author, counter, server, 0.0)
        self.changes = self.changes.add(change)
        self._record(author, counter, (server, delta), (change,))
        return change


class OraclePairwiseReassignment(_OracleBase):
    """A linearizable implementation of *pairwise weight reassignment* (Def. 4)."""

    async def transfer(
        self, author: ProcessId, source: ProcessId, target: ProcessId, delta: Weight
    ) -> Tuple[Change, Change]:
        if delta == 0:
            raise ConfigurationError("transfer requires a non-zero delta")
        for server in (source, target):
            if server not in self.config.servers:
                raise ConfigurationError(f"unknown server {server!r}")
        if source == target:
            raise ConfigurationError("source and target must differ")
        await self.loop.sleep(self.operation_delay)
        counter = self._next_counter(author)
        tentative = self.changes.add(
            Change(author, counter, source, -delta),
            Change(author, counter, target, delta),
        )
        if check_integrity(tentative.weights(self.config.servers), self.config.f):
            created = (
                Change(author, counter, source, -delta),
                Change(author, counter, target, delta),
            )
        else:
            created = (
                Change(author, counter, source, 0.0),
                Change(author, counter, target, 0.0),
            )
        self.changes = self.changes.union(created)
        self._record(author, counter, (source, target, delta), created)
        return created


# ---------------------------------------------------------------------------
# Algorithm 1 — consensus from (unrestricted) weight reassignment
# ---------------------------------------------------------------------------


def algorithm_config(n: int, f: int) -> SystemConfig:
    """The :class:`SystemConfig` used by both reductions."""
    return SystemConfig(
        servers=server_set(n), f=f, initial_weights=paper_initial_weights(n, f)
    )


async def algorithm1_propose(
    loop: SimLoop,
    config: SystemConfig,
    registers: SWMRRegisterArray,
    service: OracleWeightReassignment,
    server_index: int,
    value,
):
    """Algorithm 1, run by server ``s_{server_index}``: propose ``value``.

    Returns the decided value.  ``F = {s1, ..., sf}`` members reassign
    themselves ``+0.5`` and the others ``-0.5``; Integrity admits exactly one
    of these reassignments, and everyone decides the proposal of its author.
    """
    me = server_name(server_index)
    registers.write(me, value)
    delta = 0.5 if server_index <= config.f else -0.5
    await service.reassign(me, me, delta)

    while True:
        for j in range(1, config.n + 1):
            other = server_name(j)
            changes = await service.read_changes(other)
            for change in changes:
                if change.author == other and change.counter == 2 and change.delta != 0:
                    return registers.read(other)
        # Not decided yet: try again (the paper's repeat/until loop).  The
        # oracle's per-operation delay keeps virtual time advancing.


# ---------------------------------------------------------------------------
# Algorithm 2 — consensus from pairwise weight reassignment
# ---------------------------------------------------------------------------


def _cyclic_successor_in_f(index: int, f: int) -> int:
    """The intended cyclic successor of ``s_index`` inside ``F`` (see module notes)."""
    return (index % f) + 1


async def algorithm2_propose(
    loop: SimLoop,
    config: SystemConfig,
    registers: SWMRRegisterArray,
    service: OraclePairwiseReassignment,
    server_index: int,
    value,
):
    """Algorithm 2, run by server ``s_{server_index}``: propose ``value``.

    ``F`` members shuffle 0.1 of weight cyclically inside ``F`` (which keeps
    ``W_F`` constant); each other server tries to transfer 0.4 to ``s1``.
    P-Integrity admits exactly one of the latter transfers; everyone decides
    the proposal of its author.
    """
    me = server_name(server_index)
    registers.write(me, value)
    if server_index <= config.f:
        if config.f >= 2:
            target = server_name(_cyclic_successor_in_f(server_index, config.f))
            await service.transfer(me, me, target, 0.1)
        # With f = 1 there is no other member of F to shuffle weight with; the
        # member simply skips its transfer, which keeps W_F constant trivially
        # (the only purpose of the intra-F shuffles in Algorithm 2).
    else:
        await service.transfer(me, me, server_name(1), 0.4)

    while True:
        for j in range(config.f + 1, config.n + 1):
            other = server_name(j)
            changes = await service.read_changes(other)
            for change in changes:
                if (
                    change.author == other
                    and change.counter == 2
                    and change.server == other
                    and change.delta == -0.4
                ):
                    return registers.read(other)
