"""Changes and change sets (Section III).

A *change* is the quadruple ``<p_i, lc_i, s, delta>``: process ``p_i`` with
local counter ``lc_i`` changed the weight of server ``s`` by ``delta``.  The
weight of a server at any time is the sum of the deltas of all changes created
for it (including the conventional initial change ``<s, 1, s, w>`` defining
its initial weight).

:class:`ChangeSet` is a grow-only set of changes.  Grow-only is deliberate:
`read_changes` (Algorithm 3) and the storage protocols only ever take unions
of change sets, which is what makes "a set containing ``C_{s,t}``" (Validity-II)
achievable without consensus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Optional, Tuple

from repro.types import ProcessId, Weight

__all__ = ["Change", "ChangeSet", "initial_changes"]


@dataclass(frozen=True, order=True)
class Change:
    """The quadruple ``<author, counter, server, delta>`` of Section III.

    ``author`` is the process that issued the reassignment/transfer,
    ``counter`` its local counter at the time, ``server`` the server whose
    weight is changed, and ``delta`` the (possibly zero) weight change.
    """

    author: ProcessId
    counter: int
    server: ProcessId
    delta: Weight

    def is_null(self) -> bool:
        """True for zero-weight changes (the outcome of aborted operations)."""
        return self.delta == 0

    def is_initial(self) -> bool:
        """True for the conventional initial change ``<s, 1, s, w>``."""
        return self.author == self.server and self.counter == 1


def initial_changes(initial_weights: Mapping[ProcessId, Weight]) -> "ChangeSet":
    """The change set defining the initial weights (completed at ``t = 0``).

    For each server ``s`` with initial weight ``w`` the paper assumes a change
    ``<s, 1, s, w>`` completed at time zero.
    """
    return ChangeSet(
        Change(author=server, counter=1, server=server, delta=weight)
        for server, weight in initial_weights.items()
    )


class ChangeSet:
    """An immutable-by-convention, grow-only set of :class:`Change` objects.

    The class behaves like a frozen set with weight-aware helpers.  Mutating
    operations (:meth:`union`, :meth:`add`) return *new* sets, which keeps the
    protocol code free of aliasing bugs when change sets travel inside
    messages.
    """

    __slots__ = ("_changes", "_sorted", "_weight_map", "_covered")

    def __init__(self, changes: Iterable[Change] = ()) -> None:
        self._changes: FrozenSet[Change] = frozenset(changes)
        # Lazily-built canonical order; reused by every weight query so float
        # sums are independent of set iteration order (PYTHONHASHSEED).
        self._sorted: Optional[Tuple[Change, ...]] = None
        self._weight_map: Optional[Dict[ProcessId, Weight]] = None
        # id(tuple) -> tuple for the tuples covers() has proved to be subsets.
        # Holding the tuple keeps its id from being reused.  Per instance and
        # never copied: a set built by union()/add() starts with none.
        self._covered: Dict[int, Tuple[Change, ...]] = {}

    # -- set behaviour ---------------------------------------------------------
    def __contains__(self, change: Change) -> bool:
        return change in self._changes

    def __iter__(self) -> Iterator[Change]:
        return iter(self._changes)

    def __len__(self) -> int:
        return len(self._changes)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ChangeSet):
            return self._changes == other._changes
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._changes)

    def union(self, other: Iterable[Change]) -> "ChangeSet":
        """Return a new set containing the changes of both operands."""
        return ChangeSet(self._changes | frozenset(other))

    def add(self, *changes: Change) -> "ChangeSet":
        """Return a new set with ``changes`` added."""
        return ChangeSet(self._changes | frozenset(changes))

    def difference(self, other: "ChangeSet") -> FrozenSet[Change]:
        """Changes present here but not in ``other`` (``C' \\ C`` in Alg. 4)."""
        return self._changes - other._changes

    def issubset(self, other: "ChangeSet") -> bool:
        return self._changes <= other._changes

    def issuperset(self, other: "ChangeSet") -> bool:
        return self._changes >= other._changes

    def covers(self, changes: Iterable[Change]) -> bool:
        """Whether every change in ``changes`` belongs to this set.

        Equal to ``ChangeSet(changes).issubset(self)`` without building the
        set.  A *tuple* found covered is remembered by identity, so asking
        again about the same object is one dict lookup: storage servers
        piggyback their cached :meth:`sorted` tuple on every reply, and a
        reader sees the same handful of tuples thousands of times between
        two reassignments.  Only tuples are remembered (they cannot change
        afterwards); the memo holds at most one entry per distinct subset
        the servers ever reported while this set was somebody's view.
        """
        if self._covered.get(id(changes)) is changes:
            return True
        if not self._changes.issuperset(changes):
            return False
        if type(changes) is tuple:
            self._covered[id(changes)] = changes
        return True

    # -- weight queries -----------------------------------------------------------
    def for_server(self, server: ProcessId) -> "ChangeSet":
        """The subset of changes created *for* ``server`` (its weight history)."""
        return ChangeSet(c for c in self._changes if c.server == server)

    def weight_of(self, server: ProcessId) -> Weight:
        """``W_s`` — the sum of the deltas of the changes created for ``server``
        (``0`` for a server no change names); an entry of :meth:`weight_map`.
        """
        return self.weight_map().get(server, 0)

    def weight_map(self) -> Mapping[ProcessId, Weight]:
        """``server -> W_s`` for every server that appears in some change.

        Built once per instance and shared by every caller: read, never
        mutate.  A server without changes is absent (its weight is 0).

        Each sum runs over the canonical :meth:`sorted` order, not raw set
        iteration order: float addition is order-sensitive in the last ulp,
        and set iteration order varies with the interpreter's hash seed, so
        summing the set directly would make the low bits of every reported
        weight depend on ``PYTHONHASHSEED``.
        """
        weight_map = self._weight_map
        if weight_map is None:
            deltas: Dict[ProcessId, list] = {}
            for change in self.sorted():
                deltas.setdefault(change.server, []).append(change.delta)
            weight_map = self._weight_map = {
                server: sum(values) for server, values in deltas.items()
            }
        return weight_map

    def weights(self, servers: Optional[Iterable[ProcessId]] = None) -> Dict[ProcessId, Weight]:
        """A fresh copy of the weight map derived from this change set.

        If ``servers`` is given the result covers exactly those servers, in
        that order (including zero entries); otherwise it covers every
        server that appears in some change.
        """
        weight_map = self.weight_map()
        if servers is None:
            return dict(weight_map)
        return {server: weight_map.get(server, 0) for server in servers}

    def total_weight(self) -> Weight:
        return sum(c.delta for c in self.sorted())

    def by_author(self, author: ProcessId) -> "ChangeSet":
        """Changes issued by ``author`` (useful for completion checks)."""
        return ChangeSet(c for c in self._changes if c.author == author)

    def non_null(self) -> "ChangeSet":
        """Only the effective (non-zero-weight) changes."""
        return ChangeSet(c for c in self._changes if not c.is_null())

    def max_counter(self, author: ProcessId) -> int:
        """The largest counter used by ``author`` in this set (0 if none)."""
        counters = [c.counter for c in self._changes if c.author == author]
        return max(counters) if counters else 0

    # -- misc --------------------------------------------------------------------
    def as_frozenset(self) -> FrozenSet[Change]:
        return self._changes

    def sorted(self) -> Tuple[Change, ...]:
        """Changes in a deterministic order (author, counter, server).

        Cached after the first call: reply payloads and weight queries ask
        for this order once per message on the protocol hot path.
        """
        ordered = self._sorted
        if ordered is None:
            ordered = self._sorted = tuple(sorted(self._changes))
        return ordered

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChangeSet({sorted(self._changes)!r})"
