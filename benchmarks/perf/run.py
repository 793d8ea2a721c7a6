#!/usr/bin/env python3
"""The lab's macro benchmark: six workloads, end to end and layer by layer.

Run from the repository root::

    python3 benchmarks/perf/run.py --all                      # every metric, every workload
    python3 benchmarks/perf/run.py --workload serve-jobs --json out.json
    python3 benchmarks/perf/run.py --workload cli-cold --seed 2 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics only (tracing off), ``--trace
1`` runs the traced pass only (per-layer metrics), and without ``--trace``
both passes run.  Every metric is printed by name with its unit; the last
line of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  The exit code is non-zero when an output check
fails.  See README.md in this directory for what each number means.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import io
import json
import os
import pstats
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import perf_harness as harness  # noqa: E402
from perf_metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from perf_spans import SpanRecorder  # noqa: E402

if harness.SRC not in sys.path:
    sys.path.insert(0, harness.SRC)

_SETUP_PROBES = 5
_SELF_TIME_TOLERANCE = 0.05
_PROFILE_ROWS = 25


def make_workload(name: str, seed: int, smoke: bool, scratch: str) -> Any:
    module, cls, _ = WORKLOADS[name]
    return getattr(importlib.import_module(module), cls)(seed, smoke, scratch)


# -- set-up time ---------------------------------------------------------------


def setup_probe(name: str, seed: int, smoke: bool) -> int:
    """Child side of ``setup_s``: prepare the workload, say so, clean up."""
    with harness.work_dir() as scratch:
        workload = make_workload(name, seed, smoke, scratch)
        try:
            workload.prepare()
            print("ready", flush=True)
        finally:
            workload.teardown()
    return 0


def measure_setup(name: str, seed: int, smoke: bool) -> List[float]:
    """Normalised seconds from spawning a fresh interpreter to a prepared workload."""
    argv = [sys.executable, os.path.join(HERE, "run.py"),
            "--setup-probe", name, "--seed", str(seed)]
    if smoke:
        argv.append("--smoke")
    samples = []
    before = harness.calibrate()
    # The very first interpreter in a checkout compiles every module it
    # imports; that is the build, not the set-up.
    timed = 1 if smoke else _SETUP_PROBES
    probes = timed + (0 if os.path.isdir(harness.PYCACHE) else 1)
    for probe in range(probes):
        started = time.perf_counter()
        child = subprocess.Popen(
            argv, env=harness.child_env(), cwd=harness.ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert child.stdout is not None
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        _, errors = child.communicate()
        after = harness.calibrate()
        if line.strip() != b"ready" or child.returncode != 0:
            raise RuntimeError(
                f"set-up probe for {name} failed:\n{errors.decode(errors='replace')}"
            )
        if probe >= probes - timed:
            samples.append(harness.scaled(elapsed, (before + after) / 2.0))
        before = after
    return samples


# -- the two passes ------------------------------------------------------------


def end_to_end_pass(workload: Any, seconds: float, smoke: bool) -> Dict[str, Any]:
    samples = harness.measure(
        workload.run_once, workload.check, seconds, min_repetitions=1 if smoke else 3
    )
    p_tail = harness.supported_percentile(len(samples.latencies))
    return {
        "samples": samples,
        "values": {
            "work_per_s": statistics.median(samples.rates),
            "latency_p50_ms": statistics.median(samples.latencies) * 1000.0,
        },
        "spread": {
            "work_per_s": harness.summarise(samples.rates),
            "latency_p50_ms": harness.summarise(
                [value * 1000.0 for value in samples.latencies]
            ),
        },
        "extras": {
            "repetitions": len(samples.walls),
            "repetition_wall_s": harness.summarise(samples.walls),
            "repetition_wall_raw_s": harness.summarise(samples.raw_walls),
            "work_per_s_raw": statistics.median(samples.raw_rates),
            "latency_p50_ms_raw": statistics.median(samples.raw_latencies) * 1000.0,
            "latency_tail_ms": {
                "percentile": p_tail,
                "value": harness.percentile(samples.latencies, p_tail) * 1000.0,
                "n": len(samples.latencies),
            },
            "host.calib_s": harness.summarise(samples.calibrations),
            "failed_share": samples.failed / max(1, samples.attempted),
            # Every sample as measured, for anyone re-deriving the statistics.
            "samples": {
                "repetition_wall_raw_s": samples.raw_walls,
                "calibration_s": samples.calibrations,
                "work_per_s": samples.rates,
            },
        },
    }


def traced_pass(workload: Any) -> Dict[str, Any]:
    """One untraced and one traced repetition; every per-layer metric."""
    calibration = harness.calibrate()
    with harness.GcWatch() as watch:
        started = time.perf_counter()
        output = workload.run_once()
        untraced_wall = time.perf_counter() - started
    outcome = workload.check(output)

    recorder = SpanRecorder()
    root, traced_wall, traced_output = workload.run_traced(recorder)
    own = recorder.self_times(root)
    accounted = sum(own.values())
    notes = list(outcome.notes)
    failed = outcome.failed
    if abs(accounted - traced_wall) > _SELF_TIME_TOLERANCE * traced_wall:
        failed = outcome.attempted
        notes.append(
            f"{workload.name}: span self times sum to {accounted:.4f}s, "
            f"the traced repetition took {traced_wall:.4f}s"
        )

    values = {name: 0.0 for name, _, _ in PER_LAYER}
    values.update({
        "gc.pause_share": watch.pause_s / untraced_wall,
        "gc.collections": watch.collections,
        "host.calib_s": calibration,
        "host.speed_index": harness.CAL_REF / calibration,
        "trace.overhead_ratio": traced_wall / untraced_wall,
        "trace.unattributed_share": own.get("repetition", 0.0) / traced_wall,
    })
    values.update(workload.layers(recorder, root, traced_wall, untraced_wall, traced_output))
    return {
        "values": values,
        "attempted": outcome.attempted,
        "failed": failed,
        "notes": notes,
        "recorder": recorder,
        "self_times_s": dict(sorted(own.items(), key=lambda item: -item[1])),
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
    }


def profile_pass(workload: Any) -> Dict[str, List[str]]:
    """Top rows of one repetition under cProfile — never timed, never compared."""
    profiler = cProfile.Profile()
    # Stable-stack runs execute on a thread of their own while this one waits:
    # have every thread the repetition starts join the same profile.
    threading.setprofile(lambda *event: profiler.enable())
    profiler.enable()
    try:
        workload.run_once()
    finally:
        profiler.disable()
        threading.setprofile(None)
    rows = {}
    for key in ("cumulative", "tottime"):
        text = io.StringIO()
        pstats.Stats(profiler, stream=text).strip_dirs().sort_stats(key).print_stats(
            _PROFILE_ROWS
        )
        lines = text.getvalue().splitlines()
        start = next(i for i, line in enumerate(lines) if "ncalls" in line)
        rows[key] = [line for line in lines[start:] if line.strip()]
    return rows


def run_workload(name: str, args: argparse.Namespace) -> Dict[str, Any]:
    """Everything asked of one workload; returns its section of the result file."""
    want_end_to_end = args.trace in (None, 0)
    want_layers = args.trace in (None, 1)
    section: Dict[str, Any] = {
        "end_to_end": {}, "per_layer": {}, "attempted": 0, "failed": 0, "notes": [],
    }
    setup = measure_setup(name, args.seed, args.smoke) if want_end_to_end else []
    with harness.work_dir() as scratch:
        workload = make_workload(name, args.seed, args.smoke, scratch)
        traced = None
        try:
            workload.prepare()
            workload.reference()
            if want_end_to_end:
                measured = end_to_end_pass(workload, args.seconds, args.smoke)
            if want_layers:
                traced = traced_pass(workload)
            if args.profile:
                section["profile"] = profile_pass(workload)
        finally:
            workload.teardown()

        if want_end_to_end:
            samples = measured["samples"]
            values = dict(measured["values"], setup_s=statistics.median(setup),
                          peak_rss_mb=workload.peak_rss_mb())
            spread = dict(measured["spread"], setup_s=harness.summarise(setup))
            for metric, unit, _, _ in END_TO_END:
                entry = {"value": values[metric], "unit": unit}
                entry.update(spread.get(metric, {}))
                section["end_to_end"][metric] = entry
            section["extras"] = measured["extras"]
            section["attempted"] += samples.attempted
            section["failed"] += samples.failed
            section["notes"] += samples.notes
        if traced is not None:
            for metric, unit, _ in PER_LAYER:
                section["per_layer"][metric] = {
                    "value": traced["values"][metric], "unit": unit,
                }
            section["trace"] = {
                "self_times_s": traced["self_times_s"],
                "traced_wall_s": traced["traced_wall_s"],
                "untraced_wall_s": traced["untraced_wall_s"],
            }
            section["attempted"] += traced["attempted"]
            section["failed"] += traced["failed"]
            section["notes"] += traced["notes"]
            if args.json:
                harness.write_json(
                    f"{os.path.splitext(args.json)[0]}.{name}.trace.json",
                    traced["recorder"].chrome_trace(),
                )
    section["correct"] = section["failed"] == 0
    section["unit_of_work"] = workload.unit
    return section


# -- reporting -----------------------------------------------------------------


def print_section(name: str, section: Dict[str, Any]) -> None:
    print(f"\n=== {name} — {WORKLOADS[name][2]}")
    bounds = {metric: (better, bound) for metric, _, better, bound in END_TO_END}
    for metric, entry in section["end_to_end"].items():
        better, bound = bounds[metric]
        detail = ""
        if "n" in entry:
            detail = f"  q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}  n {entry['n']}"
        print(f"  {metric:<34} {entry['value']:>14.6g} {entry['unit']:<6}"
              f"{detail}  [{better} is better, bound {bound:g}]")
    for label, extra in section.get("extras", {}).items():
        if label != "samples":  # in the result file only
            print(f"  ({label}: {json.dumps(extra, sort_keys=True)})")
    measured = {metric for metric, entry in section["per_layer"].items() if entry["value"]}
    for metric, entry in section["per_layer"].items():
        if metric in measured:
            print(f"  {metric:<34} {entry['value']:>14.6g} {entry['unit']}")
    if section["per_layer"]:
        idle = sorted(set(section["per_layer"]) - measured)
        print(f"  (layers not entered, reading 0: {', '.join(idle) or 'none'})")
        print("  self time per span, traced repetition: " + ", ".join(
            f"{span} {seconds * 1000:.1f}ms"
            for span, seconds in section["trace"]["self_times_s"].items()
        ))
    for key, rows in section.get("profile", {}).items():
        print(f"  cProfile, top {_PROFILE_ROWS} by {key}:")
        for row in rows:
            print(f"    {row}")
    for note in section["notes"]:
        print(f"  CHECK FAILED: {note}")
    print(f"  {name}: attempted {section['attempted']} ({section['unit_of_work']}), "
          f"failed {section['failed']}, correct {section['correct']}")


def contract_line(sections: Dict[str, Dict[str, Any]]) -> str:
    """The last line of stdout: one workload flat, several keyed by workload."""

    def flat(section: Dict[str, Any]) -> Dict[str, Any]:
        merged = dict(section["end_to_end"], **section["per_layer"])
        return {metric: {"value": entry["value"], "unit": entry["unit"]}
                for metric, entry in merged.items()}

    if len(sections) == 1:
        metrics: Dict[str, Any] = flat(next(iter(sections.values())))
    else:
        metrics = {name: flat(section) for name, section in sections.items()}
    return json.dumps({
        "correct": all(section["correct"] for section in sections.values()),
        "attempted": sum(section["attempted"] for section in sections.values()),
        "failed": sum(section["failed"] for section in sections.values()),
        "metrics": metrics,
    })


def run_each_in_a_child(args: argparse.Namespace) -> Dict[str, Dict[str, Any]]:
    """``--all``: one fresh interpreter per workload, as the driver runs them.

    A shared process would hand later workloads the earlier ones' heap, warm
    pools and — since ``ru_maxrss`` never goes down — their peak RSS.
    """
    sections = {}
    stem = os.path.splitext(args.json)[0] if args.json else None
    with harness.work_dir() as scratch:
        for name in WORKLOADS:
            part = os.path.join(scratch, f"{name}.json")
            argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--json", part]
            if args.trace is not None:
                argv += ["--trace", str(args.trace)]
            argv += [flag for flag, on in (("--smoke", args.smoke),
                                           ("--profile", args.profile)) if on]
            child = subprocess.run(argv, env=harness.child_env(), cwd=harness.ROOT,
                                   stdout=subprocess.PIPE, text=True)
            if child.returncode not in (0, 1):
                raise RuntimeError(f"{name}: run.py exited {child.returncode}")
            print("\n".join(child.stdout.splitlines()[:-1]))  # all but its result line
            with open(part, "r", encoding="utf-8") as handle:
                sections[name] = json.load(handle)["workloads"][name]
            trace = os.path.join(scratch, f"{name}.{name}.trace.json")
            if stem and os.path.exists(trace):
                os.replace(trace, f"{stem}.{name}.trace.json")
    return sections


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true", help="every workload in turn")
    which.add_argument("--setup-probe", choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, default=1,
                        help="feeds every spec, sweep, campaign and job seed")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the end-to-end pass measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end pass only; 1: traced pass only; "
                        "omitted: both")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one repetition (the test-suite's scale)")
    parser.add_argument("--profile", action="store_true",
                        help="add an untimed cProfile pass (top rows per workload)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the result file (and PATH-stem.<workload>.trace.json)")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(harness.SRC, "repro")):
        print(f"error: no program to measure: {harness.SRC}/repro is missing",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.setup_probe, args.seed, args.smoke)
    if args.smoke:
        args.seconds = 0.0
    if args.all:
        sections = run_each_in_a_child(args)
    else:
        sections = {args.workload: run_workload(args.workload, args)}
        print_section(args.workload, sections[args.workload])
    if args.json:
        calibration = harness.calibrate()
        harness.write_json(args.json, {
            "provenance": dict(
                harness.provenance(args.seed, calibration),
                seconds=args.seconds, smoke=args.smoke,
            ),
            "workloads": sections,
            "claim": None,
        })
    print(contract_line(sections))
    return 0 if all(section["correct"] for section in sections.values()) else 1


if __name__ == "__main__":
    harness.use_bytecode_cache()
    sys.exit(main())
