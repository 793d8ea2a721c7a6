#!/usr/bin/env python3
"""The trace regression gate (the CI trace job).

Runs the ``fig1-walkthrough`` scenario with tracing enabled, then asserts
four things about the trace file it produced:

* **schema** — every JSONL line validates against the record schema in
  :mod:`repro.obs.trace` (closed category/phase sets, ordered ``seq``,
  flow records carry ids);
* **invariants** — the structural and semantic checks in
  :mod:`repro.obs.analysis` hold (balanced spans, paired flows, quorum
  nesting, weight conservation) — the same verdict as
  ``python -m repro trace check``;
* **digest** — the SHA-256 of the file matches the golden digest committed
  in ``benchmarks/baselines/fig1-walkthrough.trace.sha256``.  Because the
  digest is defined over the canonical JSONL bytes, this pins the *exact*
  artifact bytes, not just record count or shape.  The digest the run
  itself reported and ``trace_digest`` of the records read back must both
  equal it: "bytes written" and "bytes hashed" may not drift apart;
* **exporter** — the Chrome ``trace_event`` conversion succeeds and yields
  one event per record plus thread-name metadata (the file Perfetto loads).

A digest mismatch means event ordering or instrumentation changed.  To
reproduce the digest gate locally with one command::

    PYTHONPATH=src python -m repro run fig1-walkthrough --trace out.jsonl --quiet
    PYTHONPATH=src python -m repro trace digest out.jsonl \
        --check benchmarks/baselines/fig1-walkthrough.trace.sha256

If the change is intentional, regenerate the golden file::

    sha256sum out.jsonl | cut -d' ' -f1 > benchmarks/baselines/fig1-walkthrough.trace.sha256

Run from anywhere: ``python tools/check_trace.py [--keep PATH]``.  With
``--keep`` the trace file is written to PATH (CI uploads it as an artifact);
otherwise a temporary directory is used.  Exit status 0 means the gate holds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

GOLDEN_FILE = os.path.join(
    REPO_ROOT, "benchmarks", "baselines", "fig1-walkthrough.trace.sha256"
)
SCENARIO = "fig1-walkthrough"


def check_trace(trace_path: str) -> int:
    from repro.experiments.cli import main as repro_main
    from repro.obs import (
        check_trace_invariants,
        read_trace,
        to_chrome_trace,
        trace_digest,
    )

    with tempfile.TemporaryDirectory() as tmp:
        result_path = os.path.join(tmp, "result.json")
        status = repro_main(["run", SCENARIO, "--trace", trace_path,
                             "--quiet", "--json", result_path])
        if status != 0:
            print(f"error: `repro run {SCENARIO} --trace` exited {status}",
                  file=sys.stderr)
            return 1
        with open(result_path, "r", encoding="utf-8") as handle:
            reported = json.load(handle)[0]["result"]["trace"]["digest"]

    # Schema: read_trace validates every record and raises on the first bad
    # line with its line number.
    records = read_trace(trace_path)
    if not records:
        print(f"error: {trace_path} contains no trace records", file=sys.stderr)
        return 1

    # Invariants: the structural/semantic checks behind `repro trace check`.
    report = check_trace_invariants(records)
    if not report.ok:
        for finding in report.errors:
            print(f"error: invariant [{finding.check}] seq {finding.seq}: "
                  f"{finding.message}", file=sys.stderr)
        return 1

    with open(GOLDEN_FILE, "r", encoding="utf-8") as handle:
        golden = handle.read().strip()
    with open(trace_path, "rb") as handle:
        actual = hashlib.sha256(handle.read()).hexdigest()
    # The run reports the digest ``write_trace`` took of the bytes it wrote
    # and never encodes the records a second time, so hold it against both
    # the file and a fresh encoding of the records read back.
    recomputed = trace_digest(records)
    if not reported == recomputed == actual:
        print(
            f"error: three digests of one {SCENARIO} trace disagree:\n"
            f"  reported by the run          {reported}\n"
            f"  trace_digest(read_trace())   {recomputed}\n"
            f"  sha256 of the file           {actual}\n"
            "The bytes written and the bytes hashed have diverged "
            "(repro.obs.trace: write_trace / trace_digest).",
            file=sys.stderr,
        )
        return 1
    if actual != golden:
        print(
            f"error: trace digest mismatch for {SCENARIO}:\n"
            f"  got      {actual}\n"
            f"  expected {golden} (from {os.path.relpath(GOLDEN_FILE, REPO_ROOT)})\n"
            "If the change is intentional, regenerate the golden file "
            "(see this script's docstring).",
            file=sys.stderr,
        )
        return 1

    chrome = to_chrome_trace(records)
    events = chrome["traceEvents"]
    metadata = [event for event in events if event["ph"] == "M"]
    if len(events) != len(records) + len(metadata):
        print(
            f"error: exporter produced {len(events)} events for "
            f"{len(records)} records + {len(metadata)} metadata entries",
            file=sys.stderr,
        )
        return 1

    print(
        f"trace ok: {SCENARIO} produced {len(records)} schema-valid records "
        f"({len(report.warnings)} invariant warning(s), 0 errors), digest "
        f"{actual[:12]}... matches golden, exporter emits "
        f"{len(events)} Chrome events"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--keep", metavar="PATH", default=None,
        help="write the trace file to PATH instead of a temporary directory",
    )
    args = parser.parse_args(argv)
    if args.keep:
        keep_dir = os.path.dirname(os.path.abspath(args.keep))
        os.makedirs(keep_dir, exist_ok=True)
        return check_trace(args.keep)
    with tempfile.TemporaryDirectory() as tmp:
        return check_trace(os.path.join(tmp, f"{SCENARIO}.jsonl"))


if __name__ == "__main__":
    raise SystemExit(main())
