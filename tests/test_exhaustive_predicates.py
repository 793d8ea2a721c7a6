"""Paper predicates checked over every weight map of a small grid.

Servers are interchangeable for both predicates, so each weight map is
enumerated once, sorted: every non-decreasing vector of positive multiples
of ``1/grid`` that sums to ``n`` (the total of ``n`` unit weights).

* Definition 5 ⇒ Definition 3: every map RP-Integrity accepts satisfies
  Property 1, and where the floor ``n / (2(n - f))`` lies on the grid some
  map *at* the floor violates Property 1 — the bound cannot be lowered.
* The dynamic storage's per-reply quorum test (``core/storage.py``, kept
  inline on the per-message path) equals the one quorum definition,
  :meth:`~repro.quorum.weighted.WeightedMajorityQuorumSystem.is_quorum`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterator, Tuple

import pytest

from repro.core.change import initial_changes
from repro.core.spec import check_integrity, check_rp_integrity
from repro.core.storage import _quorum_or_news
from repro.net.message import Message
from repro.quorum.weighted import WeightedMajorityQuorumSystem
from repro.types import server_set

#: n -> grid: 1/20 for n <= 4, 1/10 for 5 <= n <= 7.
GRIDS = {1: 20, 2: 20, 3: 20, 4: 20, 5: 10, 6: 10, 7: 10}
#: The (n, f) whose floor lies on the grid; (7, 2) is Fig. 1's 0.7.
FLOOR_ON_GRID = {(3, 1), (6, 1), (7, 2)}


def sorted_maps(n: int, grid: int) -> Iterator[Tuple[int, ...]]:
    """Non-decreasing ``n``-tuples of positive grid units summing to ``n * grid``."""

    def fill(total: int, parts: int, low: int) -> Iterator[Tuple[int, ...]]:
        if parts == 1:
            yield (total,)
            return
        for first in range(low, total // parts + 1):
            for rest in fill(total - first, parts - 1, first):
                yield (first, *rest)

    yield from fill(n * grid, n, 1)


@pytest.mark.parametrize("n", sorted(GRIDS))
def test_rp_integrity_implies_integrity_and_the_floor_is_tight(n):
    grid = GRIDS[n]
    servers = server_set(n)
    maps = [
        (units, dict(zip(servers, (Fraction(unit, grid) for unit in units))))
        for units in sorted_maps(n, grid)
    ]
    for f in range(1, (n - 1) // 2 + 1):
        floor_units = Fraction(n, 2 * (n - f)) * grid
        on_grid = floor_units.denominator == 1
        assert on_grid == ((n, f) in FLOOR_ON_GRID)
        tight = False
        for units, weights in maps:
            if check_rp_integrity(weights, n, f):
                assert check_integrity(weights, f), (n, f, units)
            elif units[0] == floor_units and not check_integrity(weights, f):
                tight = True
        assert tight == on_grid, (n, f)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_the_per_reply_quorum_copy_equals_is_quorum(n):
    servers = server_set(n)
    for units in sorted_maps(n, 10):
        weights = dict(zip(servers, (Fraction(unit, 10) for unit in units)))
        known = initial_changes(weights)
        wmqs = WeightedMajorityQuorumSystem(weights)
        # A reply whose change set ``known`` covers; msg_id=0 leaves the
        # process-wide message counter alone.
        reply = {
            server: Message(server, "c1", "R_ACK", {"changes": known.sorted()}, msg_id=0)
            for server in servers
        }
        for size in range(n + 1):
            for senders in combinations(servers, size):
                replies = [reply[sender] for sender in senders]
                per_reply = _quorum_or_news(known, Fraction(n))(replies)
                assert per_reply == wmqs.is_quorum(senders), (units, senders)
