"""Shared helpers for the benchmark harness.

Each ``bench_*`` module regenerates one experiment of the E1-E11 index (the
README's scenario catalogue names the registered ones).  Because the paper
reports no absolute numbers, every benchmark runs its experiment once and

* prints the rows/series it regenerates (visible with ``pytest -s``), and
* asserts the *shape* of the result — who wins, by roughly what factor,
  where the crossover falls — so a regression in the reproduction fails the
  benchmark suite, not just changes a number.

Nothing here is timed, so plain ``pytest`` runs it (CI passes
``-p no:benchmark`` to keep it that way); wall-clock measurement belongs to
``benchmarks/perf``.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def print_table(title: str, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Print a fixed-width table (the benchmark harness's 'paper row' format)."""
    rows = [tuple(str(cell) for cell in row) for row in rows]
    header = tuple(str(cell) for cell in header)
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(header))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
