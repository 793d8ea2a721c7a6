#!/usr/bin/env python3
"""Compare two result files of ``run.py --json``, metric by metric, noise-aware.

    python3 benchmarks/perf/compare.py A.json B.json

``A`` is the baseline, ``B`` the candidate.  Each workload gets its own
rows.  An end-to-end metric is judged against its bound (``perf_metrics``,
which ``BENCHMARK.json`` mirrors): ``worse`` / ``better`` when the median
moved by more than the bound, ``same`` when it did not, and ``unresolved``
when either side's own inter-quartile spread exceeds the bound while the two
sides' quartile ranges overlap — the noise is wider than the ruler's mark,
so nothing may be concluded.  Exact metrics (simulated time, counts) are
compared exactly.  Other per-layer metrics are listed without a verdict:
they have no bound.  Exit status 1 when any row reads ``worse``.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from perf_metrics import END_TO_END, EXACT, PER_LAYER  # noqa: E402

BOUNDED = {name: (better, bound) for name, _, better, bound in END_TO_END}
DIRECTION = {name: better for name, _, better in PER_LAYER}

Row = Tuple[str, str, str, str, str, str]


def worsening(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (negative: better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return -change if better == "higher" else change


def spread(entry: Dict[str, Any]) -> float:
    if "q1" not in entry or not entry["value"]:
        return 0.0
    return (entry["q3"] - entry["q1"]) / abs(entry["value"])


def overlap(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    low_a, high_a = a.get("q1", a["value"]), a.get("q3", a["value"])
    low_b, high_b = b.get("q1", b["value"]), b.get("q3", b["value"])
    return low_a <= high_b and low_b <= high_a


def judge_bounded(a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float) -> str:
    if max(spread(a), spread(b)) > bound and overlap(a, b):
        return "unresolved"
    amount = worsening(a["value"], b["value"], better)
    if amount > bound:
        return "worse"
    if amount < -bound:
        return "better"
    return "same"


def judge_exact(a: Dict[str, Any], b: Dict[str, Any], better: str) -> str:
    if a["value"] == b["value"]:
        return "same"
    return "worse" if worsening(a["value"], b["value"], better) > 0 else "better"


def cell(entry: Dict[str, Any]) -> str:
    text = f"{entry['value']:.6g}"
    if "q1" in entry:
        text += f" [{entry['q1']:.4g}..{entry['q3']:.4g}]"
    return text


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[List[Row], bool]:
    """Rows ``(workload, metric, A, B, change, verdict)`` and whether any is worse."""
    rows: List[Row] = []
    worse = False
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        side_a, side_b = a["workloads"][name], b["workloads"][name]
        if side_b["failed"] > side_a["failed"]:
            rows.append((name, "failed", str(side_a["failed"]), str(side_b["failed"]),
                         "", "worse"))
            worse = True
        for group in ("end_to_end", "per_layer"):
            for metric, entry_a in side_a[group].items():
                entry_b = side_b[group].get(metric)
                if entry_b is None:
                    continue
                if group == "per_layer" and not (entry_a["value"] or entry_b["value"]):
                    continue  # a layer neither side entered
                if metric in BOUNDED:
                    verdict = judge_bounded(entry_a, entry_b, *BOUNDED[metric])
                elif metric in EXACT:
                    verdict = judge_exact(entry_a, entry_b, DIRECTION[metric])
                else:
                    verdict = ""
                change = ""
                if entry_a["value"]:
                    change = f"{(entry_b['value'] - entry_a['value']) / abs(entry_a['value']):+.1%}"
                rows.append((name, metric, cell(entry_a), cell(entry_b), change, verdict))
                worse = worse or verdict == "worse"
    return rows, worse


def render(rows: List[Row]) -> str:
    header: Row = ("workload", "metric", "A", "B", "change", "verdict")
    widths = [max(len(row[i]) for row in [header] + rows) for i in range(len(header))]
    lines = []
    for row in [header] + rows:
        lines.append("  ".join(value.ljust(widths[i]) for i, value in enumerate(row)).rstrip())
    lines.insert(1, "-" * len(lines[0]))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    documents = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            documents.append(json.load(handle))
    rows, worse = compare(*documents)
    print(render(rows))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
