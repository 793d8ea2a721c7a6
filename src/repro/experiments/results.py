"""Result sinks (JSON / JSONL / CSV) and baseline comparison.

The canonical interchange format is the *payload*: one object per run
(``run_id``, ``scenario``, ``params``, ``result``), stored either as a JSON
array or as JSONL (one object per line, the streaming sink's format —
appendable run-by-run without holding a sweep in memory).  Payloads contain
no wall-clock timestamps — only virtual-time quantities and seeds — so two
executions of the same sweep are byte-identical, which makes them usable as
checked-in baselines: run a sweep, save the JSON, and later ``python -m
repro compare`` a fresh run against it.  :func:`load_payload` sniffs the
format, and :func:`compare_payloads` matches runs by ``run_id``, so array
and JSONL payloads compare interchangeably regardless of completion order.

The CSV sink flattens nested result dicts into dotted/indexed columns
(``result.read_latency.median``, ``result.rows[2].speedup``) for
spreadsheet-style analysis.
"""

from __future__ import annotations

import json
import math
import os
from numbers import Number
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Sequence,
    TextIO,
)

if TYPE_CHECKING:  # annotations only: `compare` must not load the executor
    from repro.experiments.executor import RunResult

__all__ = [
    "payload_entry",
    "to_payload",
    "dumps_json",
    "write_json",
    "write_jsonl_line",
    "load_payload",
    "load_quarantine",
    "write_csv",
    "flatten_values",
    "compare_payloads",
]

Payload = List[Dict[str, Any]]


def payload_entry(result: RunResult) -> Dict[str, Any]:
    """The canonical payload object for one run."""
    return {
        "run_id": result.run_id,
        "scenario": result.scenario,
        "params": dict(result.params),
        "result": result.result,
    }


def to_payload(results: Iterable[RunResult]) -> Payload:
    """The canonical payload (one object per run) for a result collection."""
    return [payload_entry(result) for result in results]


def dumps_json(results: Iterable[RunResult]) -> str:
    """Serialise results as a stable (indented, key-sorted) JSON array."""
    return json.dumps(to_payload(results), indent=2, sort_keys=True)


def write_json(results: Iterable[RunResult], path: str) -> None:
    """Write the JSON-array payload to ``path`` (the ``--json`` sink)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_json(results))
        handle.write("\n")


def write_jsonl_line(result: RunResult, handle: TextIO) -> None:
    """Append one run to an open JSONL sink and flush (chunked streaming)."""
    handle.write(json.dumps(payload_entry(result), sort_keys=True))
    handle.write("\n")
    handle.flush()


def load_payload(path: str) -> Payload:
    """Load a payload, sniffing JSON-array vs JSONL from the first character."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    stripped = text.lstrip()
    if not stripped or stripped.startswith("["):
        return json.loads(text)
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def load_quarantine(path: str) -> Payload:
    """Load a quarantine sidecar written by a resilient sweep or campaign.

    Each record carries ``index``, ``run_id``, ``scenario``, ``attempts``,
    the final ``error``, an optional ``traceback`` and a ``spec`` block
    (``scenario`` plus the exact parameter overrides) — everything needed
    to re-run the poisoned configuration by hand.  A missing file is an
    empty quarantine (the sidecar is only created when something fails
    every attempt).
    """
    if not os.path.exists(path):
        return []
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def flatten_values(value: Any, prefix: str = "") -> Dict[str, Any]:
    """Flatten nested dicts/lists into dotted / ``[i]``-indexed scalar leaves."""
    flat: Dict[str, Any] = {}
    if isinstance(value, Mapping):
        for key in sorted(value):
            child_prefix = f"{prefix}.{key}" if prefix else str(key)
            flat.update(flatten_values(value[key], child_prefix))
    elif isinstance(value, Sequence) and not isinstance(value, (str, bytes)):
        for index, item in enumerate(value):
            flat.update(flatten_values(item, f"{prefix}[{index}]"))
    else:
        flat[prefix] = value
    return flat


def write_csv(results: Iterable[RunResult], path: str) -> None:
    """One row per run; params and flattened scalar result leaves as columns."""
    import csv  # only --csv pays for it

    rows: List[Dict[str, Any]] = []
    for result in results:
        row: Dict[str, Any] = {"run_id": result.run_id, "scenario": result.scenario}
        for key, value in result.params:
            row[f"param.{key}"] = value
        for key, value in flatten_values(result.result, "result").items():
            row[key] = value
        rows.append(row)
    columns: List[str] = ["run_id", "scenario"]
    seen = set(columns)
    for row in rows:
        for key in row:
            if key not in seen:
                seen.add(key)
                columns.append(key)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns, restval="")
        writer.writeheader()
        writer.writerows(rows)


def _values_differ(current: Any, baseline: Any, rel_tol: float, abs_tol: float) -> bool:
    if isinstance(current, bool) or isinstance(baseline, bool):
        return current is not baseline
    if isinstance(current, Number) and isinstance(baseline, Number):
        if math.isnan(float(current)) and math.isnan(float(baseline)):
            return False
        return not math.isclose(
            float(current), float(baseline), rel_tol=rel_tol, abs_tol=abs_tol
        )
    return current != baseline


def compare_payloads(
    current: Payload,
    baseline: Payload,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-12,
) -> List[Dict[str, Any]]:
    """Diff two payloads run-by-run, field-by-field.

    Runs are matched on ``run_id``.  Returns one dict per difference:
    ``{"run_id", "kind", ...}`` where ``kind`` is ``missing-run`` /
    ``extra-run`` / ``field`` (with ``field``, ``current``, ``baseline``).
    An empty list means the payloads agree within tolerance.
    """
    current_by_id = {entry["run_id"]: entry for entry in current}
    baseline_by_id = {entry["run_id"]: entry for entry in baseline}
    diffs: List[Dict[str, Any]] = []
    for run_id in sorted(baseline_by_id.keys() - current_by_id.keys()):
        diffs.append({"run_id": run_id, "kind": "missing-run"})
    for run_id in sorted(current_by_id.keys() - baseline_by_id.keys()):
        diffs.append({"run_id": run_id, "kind": "extra-run"})
    for run_id in sorted(current_by_id.keys() & baseline_by_id.keys()):
        current_flat = flatten_values(current_by_id[run_id]["result"], "result")
        baseline_flat = flatten_values(baseline_by_id[run_id]["result"], "result")
        for field in sorted(current_flat.keys() | baseline_flat.keys()):
            marker = object()
            current_value = current_flat.get(field, marker)
            baseline_value = baseline_flat.get(field, marker)
            if current_value is marker or baseline_value is marker:
                diffs.append(
                    {
                        "run_id": run_id,
                        "kind": "field",
                        "field": field,
                        "current": None if current_value is marker else current_value,
                        "baseline": None if baseline_value is marker else baseline_value,
                    }
                )
            elif _values_differ(current_value, baseline_value, rel_tol, abs_tol):
                diffs.append(
                    {
                        "run_id": run_id,
                        "kind": "field",
                        "field": field,
                        "current": current_value,
                        "baseline": baseline_value,
                    }
                )
    return diffs
