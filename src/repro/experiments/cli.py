"""The ``python -m repro`` command line interface.

Subcommands:

* ``list``     — show the registered scenarios (name, tags, parameters).
* ``run``      — execute one scenario — a registered name, or a JSON spec
  file via ``--spec path.json`` (see ``examples/specs/``) — optionally
  overriding parameters.
* ``sweep``    — expand a parameter grid (or ``--sample`` N points from it,
  uniform or Latin-hypercube via ``--sample-method lhs``, or explicit
  ``--point``s) and execute it, serially or across worker processes;
  results are identical either way.  ``--spec path.json`` sweeps a spec
  file instead of a registered scenario.  Progress is reported per run on
  stderr, and ``--jsonl`` streams results to a chunked sink as they
  complete instead of holding the whole sweep in memory.  The resilience
  flags (``--journal``/``--resume``/``--run-timeout``/``--retry``/
  ``--quarantine``, shared with ``chaos``) add journaled resume, a
  per-run watchdog and bounded worker retry — see
  :mod:`repro.experiments.resilience`.
* ``chaos``    — run a chaos campaign over a declarative scenario: LHS-
  sample its fault space (outages, partitions, gray failures), execute
  every sampled configuration with tracing enabled, judge each run with
  the oracle stack (trace invariants, result accounting, latency
  degradation vs baseline), and emit a deterministic ranked JSONL report;
  ``--out-dir`` writes the worst configurations as ready-to-run spec files.
* ``serve``    — run the experiment lab as a multi-user HTTP service
  (:mod:`repro.serve`): job submission, status, chunked JSONL results
  byte-identical to ``run``/``sweep --jsonl``, spec validation, metrics;
  jobs execute on the resilient executor with per-job journals, so
  restarting the server on the same ``--jobs-dir`` resumes them.
* ``compare``  — diff a result JSON/JSONL against a baseline (runs are
  matched by ``run_id``, so completion order does not matter).
* ``trace``    — trace analytics over a recorded JSONL trace:
  ``summary`` (aggregates + digest + Chrome export), ``digest``
  (``--check`` gates against a committed sha256 file), ``check``
  (structural/semantic invariants), ``critical-path`` (causal-graph
  latency attribution), ``diff`` (first-divergence finder between two
  traces), ``series`` (windowed virtual-time counters).  ``trace FILE``
  without a subcommand is shorthand for ``trace summary FILE``.

Parameter values (``-p key=value`` and grid axis values) are parsed with
``ast.literal_eval`` and fall back to plain strings, so ``-p seed=3``,
``-p workload.mix.read_ratio=0.9`` and ``-p cluster.flavour=static-majority``
all do what they look like.

Module-level imports stop at the standard library and :mod:`repro.errors`:
each ``_cmd_*`` imports the machinery it runs when it is chosen, so
``--help``, ``compare`` and ``trace`` never load the simulator and ``run``
never loads the worker pool's dependencies (ARCHITECTURE "Cold start").
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import sys
from contextlib import nullcontext
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.errors import INTERRUPT_EXIT_CODE, GracefulInterrupt, ReproError

if TYPE_CHECKING:
    from repro.experiments.executor import (
        ResiliencePolicy,
        RunResult,
        StreamTelemetry,
    )
    from repro.experiments.plan import JobRequest
    from repro.experiments.registry import Scenario
    from repro.experiments.resilience import RunJournal
    from repro.experiments.sweep import RunSpec

__all__ = ["main", "parse_value", "parse_params", "parse_grid"]


# The three argv parsers below are also `python -m repro.serve.client`'s, so
# both front ends accept and reject the same text; they need only the stdlib.


def parse_value(text: str) -> Any:
    """A Python literal when ``text`` is one, else ``text`` itself."""
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def parse_params(pairs: Sequence[str]) -> Dict[str, Any]:
    """``["key=value", ...]`` (``-p``) as a parameter mapping."""
    params: Dict[str, Any] = {}
    for pair in pairs:
        key, separator, value = pair.partition("=")
        if not separator or not key:
            raise ReproError(f"expected key=value, got {pair!r}")
        params[key] = parse_value(value)
    return params


def parse_grid(axes: Sequence[str]) -> Dict[str, List[Any]]:
    """``["axis=v1,v2,...", ...]`` (``-g``) as axis -> values; empty items drop."""
    grid: Dict[str, List[Any]] = {}
    for axis in axes:
        key, separator, values = axis.partition("=")
        if not separator or not key:
            raise ReproError(f"expected axis=v1,v2,..., got {axis!r}")
        grid[key] = [parse_value(value) for value in values.split(",") if value != ""]
    return grid


def _print_table(header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    cells = [tuple(str(cell) for cell in row) for row in rows]
    names = tuple(str(cell) for cell in header)
    widths = [
        max(len(names[i]), *(len(row[i]) for row in cells)) if cells else len(names[i])
        for i in range(len(names))
    ]
    print("  ".join(name.ljust(widths[i]) for i, name in enumerate(names)))
    print("-" * (sum(widths) + 2 * (len(widths) - 1)))
    for row in cells:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))


def _emit(results: List[RunResult], args: argparse.Namespace) -> None:
    from repro.experiments.results import dumps_json, write_csv, write_json

    if getattr(args, "json", None):
        write_json(results, args.json)
    if getattr(args, "csv", None):
        write_csv(results, args.csv)
    if not getattr(args, "quiet", False):
        print(dumps_json(results))


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.experiments.registry import all_scenarios, catalogue_payload

    entries = all_scenarios()
    if args.tag:
        entries = [entry for entry in entries if args.tag in entry.tags]
    if args.as_json:
        # The same payload `GET /scenarios` serves, so tooling can consume
        # the CLI and the serving layer interchangeably.
        print(json.dumps(catalogue_payload(entries), indent=2, sort_keys=True))
        return 0
    _print_table(
        ["scenario", "kind", "tags", "description"],
        [
            (entry.name, entry.kind, ",".join(entry.tags), entry.description)
            for entry in entries
        ],
    )
    print(f"\n{len(entries)} scenario(s); `run <name>` executes one, "
          "`sweep <name> -g axis=v1,v2` sweeps a grid")
    return 0


def _job_request(args: argparse.Namespace, **fields: Any) -> JobRequest:
    """``argv`` as the request a ``POST /jobs`` body would carry.

    ``--spec FILE`` becomes ``spec=<the file's object>``: the planner parses
    and validates it like an uploaded spec, and nothing is registered.
    """
    from repro.experiments.plan import JobRequest
    from repro.experiments.spec import read_spec_file

    spec = read_spec_file(args.spec_path) if args.spec_path else None
    return JobRequest(scenario=args.scenario, spec=spec, **fields)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.executor import execute_many
    from repro.experiments.plan import plan

    planned = plan(_job_request(args, params=parse_params(args.param)))
    if not args.trace and not args.metrics:
        results = execute_many(planned.runs, workers=1, entry=planned.entry)
        _emit(results, args)
        return 0

    # Ambient observer around the in-process executor: works uniformly for
    # declarative *and* function scenarios (the components capture it while
    # the scenario builds its world).  Declarative scenarios can alternatively
    # enable observability through their spec (-p observability.enabled=True).
    from repro.obs import Observer, TraceEvent, observing, write_trace

    observer = Observer(metrics=bool(args.metrics), trace=bool(args.trace))
    with observing(observer):
        results = execute_many(planned.runs, workers=1, entry=planned.entry)
    payload = results[0].result
    if observer.metrics is not None and isinstance(payload, dict):
        payload.setdefault("metrics", observer.metrics.as_dict())
    if observer.trace is not None:  # exactly when --trace PATH was given
        events = observer.trace.events
        digest = write_trace(map(TraceEvent.as_record, events), args.trace)
        if isinstance(payload, dict):
            payload.setdefault("trace", {"records": len(events), "digest": digest})
        print(f"trace: {args.trace}", file=sys.stderr)
    _emit(results, args)
    return 0


def _sweep_request(args: argparse.Namespace) -> JobRequest:
    seeds = tuple(parse_grid([f"seed={args.seeds}"])["seed"]) if args.seeds else None
    return _job_request(
        args, kind="sweep", params=parse_params(args.param),
        grid=parse_grid(args.grid), seeds=seeds, sample=args.sample,
        sample_seed=args.sample_seed, sample_method=args.sample_method,
    )


def _traced_runs(
    runs: List[RunSpec], trace_dir: str, entry: Scenario
) -> List[RunSpec]:
    """Rewrite each run to trace itself into ``trace_dir/<nnnn>-<run_id>.jsonl``.

    File names derive from the run's *pre-observability* identity and its
    (deterministic) position in the expanded sweep, so serial and parallel
    executions produce the identical file set.  The trace is written inside
    the worker process by :func:`~repro.experiments.spec.run_spec`, which is
    what makes per-run files compose with the multiprocessing executor.
    """
    from repro.experiments.sweep import RunSpec

    if entry.kind != "spec":
        raise ReproError(
            "--trace-dir requires a declarative (spec) scenario; "
            f"{entry.name!r} is a {entry.kind} scenario — use "
            "`run <name> --trace PATH` for single function-scenario traces"
        )
    os.makedirs(trace_dir, exist_ok=True)
    traced = []
    for index, run in enumerate(runs):
        slug = re.sub(r"[^A-Za-z0-9._-]+", "_", run.run_id)
        params = run.params_dict
        params["observability.enabled"] = True
        params["observability.trace"] = True
        params["observability.trace_path"] = os.path.join(
            trace_dir, f"{index:04d}-{slug}.jsonl"
        )
        traced.append(
            RunSpec(scenario=run.scenario, params=tuple(sorted(params.items())))
        )
    return traced


def _resilience_options(
    args: argparse.Namespace,
) -> "tuple[ResiliencePolicy, Optional[str], bool, Optional[str]]":
    """Resolve the shared resilience flags into concrete settings.

    ``--resume PATH`` implies journaling to PATH; giving both ``--journal``
    and ``--resume`` is only valid when they agree.  The quarantine sidecar
    defaults to ``<journal>.quarantine.jsonl`` next to the journal (the
    file is only created if something is actually quarantined).
    """
    from repro.experiments.executor import ResiliencePolicy

    journal_path = args.resume or args.journal
    if args.resume and args.journal and args.resume != args.journal:
        raise ReproError(
            "--journal and --resume point at different files; give one path"
        )
    quarantine_path = args.quarantine
    if quarantine_path is None and journal_path is not None:
        quarantine_path = journal_path + ".quarantine.jsonl"
    policy = ResiliencePolicy(
        run_timeout=args.run_timeout, max_attempts=args.retry
    )
    policy.validate()
    return policy, journal_path, args.resume is not None, quarantine_path


def _print_resilience_summary(
    telemetry: StreamTelemetry, journal_path: Optional[str],
    quarantine_path: Optional[str],
) -> None:
    """One stderr line when a journal was active or anything went wrong —
    a killed worker in a plain ``--workers N`` execution is never silent."""
    if journal_path is None and not telemetry.suffix():
        return
    counts = telemetry.as_dict()
    line = (f"resilience: resumed {telemetry.resumed}, "
            f"retries {counts['retries']}, timeouts {counts['timeouts']}, "
            f"quarantined {counts['quarantined']}")
    if counts["quarantined"] and quarantine_path:
        line += f" (see {quarantine_path})"
    print(line, file=sys.stderr)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.executor import execute_stream
    from repro.experiments.plan import plan
    from repro.experiments.resilience import (
        Quarantine,
        RunJournal,
        StreamTelemetry,
        interruptible,
    )
    from repro.experiments.results import write_jsonl_line
    from repro.experiments.sweep import expand_points

    policy, journal_path, resume, quarantine_path = _resilience_options(args)
    request = _sweep_request(args)
    scenario, entry, runs = plan(request)
    # --point and --trace-dir have no request field: steps over the plan.
    if args.point:
        if request.grid or request.seeds is not None or request.sample is not None:
            raise ReproError("--point cannot be combined with -g/--seeds/--sample")
        points = [parse_params(point.split()) for point in args.point]
        runs = expand_points(scenario, points, base=request.params)
    if args.trace_dir:
        runs = _traced_runs(runs, args.trace_dir, entry)
    total = len(runs)
    telemetry = StreamTelemetry()
    quarantine = Quarantine(quarantine_path)
    journal: Optional[RunJournal] = None
    if journal_path is not None:
        journal = RunJournal(
            journal_path,
            {"kind": "sweep", "version": 1, "scenario": scenario},
            resume=resume,
        )
    # Buffer results only for sinks that need the complete, input-ordered
    # list; a --jsonl-only sweep streams in constant memory.
    need_buffer = bool(args.json or args.csv) or not args.quiet
    buffer: Optional[List[Optional[RunResult]]] = [None] * total if need_buffer else None
    jsonl_handle = open(args.jsonl, "w", encoding="utf-8") if args.jsonl else None
    done = 0
    try:
        # SIGINT/SIGTERM flush the journal (it flushes per line) and exit
        # with the distinct "interrupted, resumable" status — but only when
        # a journal is active; plain sweeps keep KeyboardInterrupt.
        with interruptible() if journal is not None else nullcontext():
            for index, result in execute_stream(
                runs, workers=args.workers, policy=policy, journal=journal,
                quarantine=quarantine, telemetry=telemetry, entry=entry,
            ):
                done += 1
                if jsonl_handle is not None:
                    write_jsonl_line(result, jsonl_handle)
                if buffer is not None:
                    buffer[index] = result
                if not args.no_progress:
                    print(f"[{done}/{total}] {result.run_id}"
                          f"{telemetry.suffix()}", file=sys.stderr)
        if journal is not None:
            journal.record_summary({
                "completed": done, "total": total,
                "resumed": telemetry.resumed, **telemetry.as_dict(),
            })
    except GracefulInterrupt as interrupt:
        print(
            f"interrupted ({interrupt.signal_name}): {done}/{total} run(s) "
            f"journaled to {journal.path}; resume with "  # type: ignore[union-attr]
            f"--resume {journal.path}",  # type: ignore[union-attr]
            file=sys.stderr,
        )
        return INTERRUPT_EXIT_CODE
    finally:
        if jsonl_handle is not None:
            jsonl_handle.close()
        quarantine.close()
        if journal is not None:
            journal.close()
    _print_resilience_summary(telemetry, journal_path, quarantine_path)
    if buffer is not None:
        _emit([result for result in buffer if result is not None], args)
    if getattr(args, "quiet", False):
        print(f"{done} run(s) completed")
    return 0


def _cmd_trace_summary(args: argparse.Namespace) -> int:
    from repro.obs import (
        read_trace,
        summarize_trace,
        trace_digest,
        write_chrome_trace,
    )

    records = read_trace(args.trace_file)  # validates every record
    if args.export:
        write_chrome_trace(records, args.export)
        print(
            f"chrome trace: {args.export} (open at https://ui.perfetto.dev "
            "or chrome://tracing)",
            file=sys.stderr,
        )
    summary = summarize_trace(records)
    summary["digest"] = trace_digest(records)
    if not args.quiet:
        print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_trace_digest(args: argparse.Namespace) -> int:
    """Print the trace digest; with --check, gate it against a .sha256 file."""
    from repro.obs import read_trace, trace_digest

    digest = trace_digest(read_trace(args.trace_file))
    if not args.check:
        print(digest)
        return 0
    with open(args.check, "r", encoding="utf-8") as handle:
        expected = handle.read().strip()
    if digest == expected:
        print(f"digest ok: {args.trace_file} matches {args.check} "
              f"({digest[:12]}...)")
        return 0
    print(
        f"digest mismatch for {args.trace_file}:\n"
        f"  got      {digest}\n"
        f"  expected {expected} (from {args.check})\n"
        "Use `python -m repro trace diff` against a trace of the golden "
        "run to find the first diverging record.",
        file=sys.stderr,
    )
    return 1


def _cmd_trace_check(args: argparse.Namespace) -> int:
    from repro.obs import check_trace_invariants, read_trace

    records = read_trace(args.trace_file)
    report = check_trace_invariants(records, min_quorum=args.min_quorum)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    shown = report.errors if args.quiet else report.findings
    for finding in shown:
        print(f"{finding.severity}: [{finding.check}] "
              + (f"seq {finding.seq}: " if finding.seq is not None else "")
              + finding.message,
              file=sys.stderr if finding.severity == "error" else sys.stdout)
    verdict = "ok" if report.ok else "FAILED"
    print(f"trace check {verdict}: {report.counters['records']} record(s), "
          f"{len(report.errors)} error(s), {len(report.warnings)} warning(s)")
    return 0 if report.ok else 1


def _cmd_trace_critical_path(args: argparse.Namespace) -> int:
    from repro.obs import critical_path_report, read_trace

    report = critical_path_report(read_trace(args.trace_file))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.quiet:
        return 0
    if not report["by_kind"]:
        print(f"no completed operation spans in {report['records']} record(s)")
        return 0
    categories = list(report["categories"])
    _print_table(
        ["kind", "count", "mean_duration"] + categories,
        [
            (
                kind,
                entry["count"],
                f"{entry['mean_duration']:.4f}",
                *(f"{entry['attribution'][c]:.4f}" for c in categories),
            )
            for kind, entry in report["by_kind"].items()
        ],
    )
    total = sum(report["categories"].values()) or 1.0
    shares = "  ".join(
        f"{category}={report['categories'][category] / total:.1%}"
        for category in categories
    )
    print(f"\n{len(report['operations'])} operation(s); "
          f"critical-path time split: {shares}")
    return 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    from repro.obs import diff_traces, format_divergence, read_trace

    divergence = diff_traces(
        read_trace(args.trace_a),
        read_trace(args.trace_b),
        context=args.context,
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(divergence, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(format_divergence(divergence))
    return 0 if divergence is None else 1


def _cmd_trace_series(args: argparse.Namespace) -> int:
    from repro.obs import read_trace, trace_series

    series = trace_series(
        read_trace(args.trace_file),
        window=args.window,
        buckets=args.buckets,
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(series, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.quiet:
        return 0
    if not series["series"]:
        print("empty trace: no series")
        return 0
    _print_table(
        ["start", "events", "ops_started", "ops_completed", "in_flight"],
        [
            (
                f"{row['start']:.3f}",
                row["events"],
                row["ops_started"],
                row["ops_completed"],
                row["in_flight"],
            )
            for row in series["series"]
        ],
    )
    print(f"\n{series['records']} record(s) over "
          f"[{series['start']:.3f}, {series['end']:.3f}] in windows of "
          f"{series['window']:.3f} virtual time units")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import run_campaign
    from repro.experiments.plan import plan
    from repro.experiments.resilience import StreamTelemetry, interruptible

    policy, journal_path, resume, quarantine_path = _resilience_options(args)
    scenario, entry, _ = plan(_job_request(args))
    times = tuple(
        parse_value(value) for value in args.times.split(",") if value != ""
    )
    telemetry = StreamTelemetry()
    progress = None
    if not args.no_progress:
        def progress(done: int, total: int) -> None:
            print(f"[{done}/{total}] chaos runs completed"
                  f"{telemetry.suffix()}", file=sys.stderr)
    try:
        # As in sweep: with a journal active, SIGINT/SIGTERM become a
        # flushed, resumable exit with a distinct status.
        with interruptible() if journal_path is not None else nullcontext():
            campaign = run_campaign(
                scenario,
                sample=args.sample,
                seed=args.seed,
                workers=args.workers,
                benign=args.benign,
                times=times,
                outage_length=args.outage_length,
                window_length=args.window_length,
                min_quorum=args.min_quorum,
                degradation_threshold=args.threshold,
                keep_traces=args.keep_traces,
                progress=progress,
                policy=policy,
                journal_path=journal_path,
                resume=resume,
                quarantine_path=quarantine_path,
                telemetry=telemetry,
                entry=entry,
            )
    except GracefulInterrupt as interrupt:
        print(
            f"interrupted ({interrupt.signal_name}): judged runs journaled "
            f"to {journal_path}; resume with --resume {journal_path}",
            file=sys.stderr,
        )
        return INTERRUPT_EXIT_CODE
    _print_resilience_summary(telemetry, journal_path, quarantine_path)
    if args.report:
        campaign.write(args.report)
        print(f"report: {args.report}", file=sys.stderr)
    elif not args.quiet:
        for line in campaign.jsonl_lines():
            print(line)
    if args.out_dir:
        for path in campaign.write_worst_specs(args.out_dir, top=args.top):
            print(f"spec: {path}", file=sys.stderr)
    meta = campaign.header["campaign"]
    print(
        f"campaign over {scenario!r}: {meta['runs']} run(s), "
        f"{meta['violations']} violation(s), {meta['degraded']} degraded "
        f"(>= {meta['degradation_threshold']}x p99), {meta['failed']} failed",
        file=sys.stderr,
    )
    for rank, severity, violations, degradation, run_id in campaign.summary_rows(
        top=min(args.top, len(campaign.entries))
    ):
        print(
            f"  #{rank} severity={severity} violations={violations} "
            f"degradation={degradation} {run_id}",
            file=sys.stderr,
        )
    if args.fail_on_violations and campaign.violations:
        return 1
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments.results import compare_payloads, load_payload

    diffs = compare_payloads(
        load_payload(args.current),
        load_payload(args.baseline),
        rel_tol=args.rel_tol,
    )
    if not diffs:
        print(f"results match: {args.current} == {args.baseline} "
              f"(rel_tol={args.rel_tol})")
        return 0
    for diff in diffs:
        if diff["kind"] == "field":
            print(f"{diff['run_id']}: {diff['field']}: "
                  f"current={diff['current']!r} baseline={diff['baseline']!r}")
        else:
            print(f"{diff['run_id']}: {diff['kind']}")
    print(f"{len(diffs)} difference(s) found")
    return 1


def _add_resilience_args(parser: argparse.ArgumentParser, noun: str) -> None:
    """The shared resilience flags (sweep and chaos take the same set)."""
    group = parser.add_argument_group("resilience")
    group.add_argument("--journal", metavar="PATH",
                       help=f"journal completed {noun} to an append-only "
                       "JSONL file as they land (overwrites PATH); an "
                       "interrupted invocation can then --resume it")
    group.add_argument("--resume", metavar="PATH",
                       help="resume from a journal written by --journal: "
                       "journaled configurations are skipped (results are "
                       "deterministic, so the final report is byte-identical "
                       "to an uninterrupted run) and new completions are "
                       "appended; a missing file starts fresh")
    group.add_argument("--run-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-run wall-clock watchdog: a run exceeding "
                       "this is killed and recorded as a WatchdogTimeout "
                       "error while the rest keep going")
    group.add_argument("--retry", type=int, default=1, metavar="N",
                       help="dispatch a run whose worker process died up to "
                       "N times total (exponential backoff between "
                       "attempts); default 1 = no retry")
    group.add_argument("--quarantine", metavar="PATH",
                       help="JSONL sidecar for configurations that failed "
                       "every --retry attempt (default: "
                       "<journal>.quarantine.jsonl when journaling; the "
                       "file is only created when something is quarantined)")


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported lazily: the serving layer is a leaf subsystem and the rest of
    # the CLI must not pay for (or depend on) it.
    from repro.serve.app import serve
    from repro.serve.service import ExperimentService

    service = ExperimentService(
        jobs_dir=args.jobs_dir,
        workers=args.workers,
        job_concurrency=args.job_concurrency,
        queue_limit=args.queue_limit,
        run_timeout=args.run_timeout,
        retry=args.retry,
    )
    return serve(args.host, args.port, service, quiet=args.quiet)


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser (exposed for the test-suite)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the repro experiment catalogue: registered scenarios, "
        "parameter sweeps, and baseline comparisons.  Every run is "
        "deterministic in virtual time, so results are reproducible "
        "bit-for-bit and parallel sweeps equal serial ones.",
        epilog="quickstart:\n"
        "  python -m repro list\n"
        "  python -m repro run quickstart -p cluster.n=7 -p seed=3\n"
        "  python -m repro run quickstart -p cluster.shards=4\n"
        "  python -m repro run --spec examples/specs/hotspot-shift-monitoring.json\n"
        "  python -m repro sweep quickstart -g cluster.shards=1,2,4 "
        "--seeds 0,1,2 --workers 4\n"
        "  python -m repro sweep --spec examples/specs/hotspot-shift-monitoring.json "
        "\\\n      -g monitoring.policy.threshold=0.05,0.1,0.2\n"
        "  python -m repro compare results.json benchmarks/baselines/quickstart.json\n"
        "\n"
        "declarative scenarios take dotted spec paths (cluster.n, "
        "workload.keys.zipf_s, ...);\nfunction scenarios take their keyword "
        "arguments — `list` shows each scenario's kind\nand parameters, the "
        "README documents every dotted path.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser(
        "list",
        help="list registered scenarios",
        description="Show every registered scenario with its kind "
        "(declarative spec vs function), tags and description; --json adds "
        "the full parameter/default map per scenario.",
    )
    p_list.add_argument("--tag", help="only scenarios carrying this tag")
    p_list.add_argument("--json", dest="as_json", action="store_true",
                        help="emit the catalogue as JSON")
    p_list.set_defaults(fn=_cmd_list)

    p_run = sub.add_parser(
        "run",
        help="execute one scenario",
        description="Execute one scenario and print its JSON result. "
        "Parameters: -p cluster.n=7 (spec paths) or -p n=7 (function "
        "kwargs); values parse as Python literals and fall back to strings.",
    )
    p_run.add_argument("scenario", nargs="?",
                       help="registered scenario name (or use --spec)")
    p_run.add_argument("--spec", dest="spec_path", metavar="PATH",
                       help="run a JSON spec file instead of a registered "
                       "scenario (see examples/specs/)")
    p_run.add_argument("-p", "--param", action="append", default=[],
                       metavar="KEY=VALUE", help="override a scenario parameter")
    p_run.add_argument("--json", metavar="PATH", help="write results to a JSON file")
    p_run.add_argument("--csv", metavar="PATH", help="write results to a CSV file")
    p_run.add_argument("--trace", metavar="PATH",
                       help="record a deterministic JSONL trace of the run "
                       "(summarise/export it with `python -m repro trace`)")
    p_run.add_argument("--metrics", action="store_true",
                       help="attach the observability metrics snapshot to the "
                       "result JSON")
    p_run.add_argument("--quiet", action="store_true", help="suppress stdout JSON")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser(
        "sweep",
        help="expand and execute a parameter grid",
        description="Expand a parameter grid (-g axis=v1,v2 per axis, full "
        "cartesian product), or --sample N seeded-random points of it, or "
        "explicit --point lists, and execute every run — serially or across "
        "--workers processes (results are identical either way).",
    )
    p_sweep.add_argument("scenario", nargs="?",
                         help="registered scenario name (or use --spec)")
    p_sweep.add_argument("--spec", dest="spec_path", metavar="PATH",
                         help="sweep a JSON spec file instead of a registered "
                         "scenario (see examples/specs/)")
    p_sweep.add_argument("-g", "--grid", action="append", default=[],
                         metavar="AXIS=V1,V2,...", help="add a sweep axis")
    p_sweep.add_argument("--seeds", metavar="S1,S2,...",
                         help="shorthand for a seed axis (-g seed=S1,S2,...)")
    p_sweep.add_argument("-p", "--param", action="append", default=[],
                         metavar="KEY=VALUE", help="fix a parameter across the sweep")
    p_sweep.add_argument("--sample", type=int, metavar="N",
                         help="run N seeded-random grid points instead "
                         "of the full cartesian product")
    p_sweep.add_argument("--sample-seed", type=int, default=0, metavar="SEED",
                         help="seed for --sample (default 0)")
    p_sweep.add_argument("--sample-method", choices=("uniform", "lhs"),
                         default="uniform",
                         help="--sample design: uniform without replacement, "
                         "or lhs (Latin hypercube: every axis's values "
                         "covered as evenly as N allows)")
    p_sweep.add_argument("--point", action="append", default=[],
                         metavar='"K=V K2=V2"',
                         help="explicit parameter point, space-separated pairs "
                         "(repeatable; replaces the grid)")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="worker processes (results are identical for any count)")
    p_sweep.add_argument("--json", metavar="PATH", help="write results to a JSON file")
    p_sweep.add_argument("--csv", metavar="PATH", help="write results to a CSV file")
    p_sweep.add_argument("--jsonl", metavar="PATH",
                         help="stream results to a JSONL file as runs complete "
                         "(constant memory with --quiet and no --json/--csv)")
    p_sweep.add_argument("--trace-dir", metavar="DIR",
                         help="write one deterministic JSONL trace per run "
                         "into DIR (declarative scenarios only; identical "
                         "files for any --workers count)")
    p_sweep.add_argument("--no-progress", action="store_true",
                         help="suppress per-run progress lines on stderr")
    p_sweep.add_argument("--quiet", action="store_true", help="suppress stdout JSON")
    _add_resilience_args(p_sweep, "runs")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_chaos = sub.add_parser(
        "chaos",
        help="LHS fault-space search with trace-invariant oracles",
        description="Run a chaos campaign over a declarative scenario: "
        "Latin-hypercube sample its fault space (crash/recover outages, "
        "partition windows, gray slow-but-alive nodes), execute every "
        "sampled configuration with tracing enabled, judge each run with "
        "the oracle stack (trace invariants, result accounting, latency "
        "degradation against the scenario's own baseline), and print a "
        "ranked JSONL report.  The report is deterministic: same scenario, "
        "sample size and seed produce byte-identical output for any "
        "--workers count and any PYTHONHASHSEED.",
        epilog="quickstart:\n"
        "  python -m repro chaos --scenario quickstart --sample 16 --seed 0\n"
        "  python -m repro chaos --scenario quickstart --sample 32 "
        "--workers 4 \\\n      --report campaign.jsonl --out-dir specs/ --top 3\n"
        "  python -m repro chaos --spec examples/specs/fig1-walkthrough.json "
        "\\\n      --benign --times 30,40,50 --fail-on-violations\n"
        "  python -m repro run --spec specs/quickstart-chaos-1.json\n",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_chaos.add_argument("--scenario", dest="scenario",
                         help="registered declarative scenario to campaign "
                         "over (or use --spec)")
    p_chaos.add_argument("--spec", dest="spec_path", metavar="PATH",
                         help="campaign over a JSON spec file instead of a "
                         "registered scenario")
    p_chaos.add_argument("--sample", type=int, default=16, metavar="N",
                         help="Latin-hypercube sample size (default 16)")
    p_chaos.add_argument("--seed", type=int, default=0,
                         help="sampling seed (default 0); the whole report "
                         "is deterministic in it")
    p_chaos.add_argument("--workers", type=int, default=1,
                         help="worker processes (report is byte-identical "
                         "for any count)")
    p_chaos.add_argument("--benign", action="store_true",
                         help="restrict the fault space to the benign "
                         "region (every fault recovers within budget); a "
                         "correct build must pass it with zero violations")
    p_chaos.add_argument("--times", default="4,8,12", metavar="T1,T2,...",
                         help="candidate injection instants in virtual time "
                         "(default 4,8,12); move them past the scenario's "
                         "own scheduled events")
    p_chaos.add_argument("--outage-length", type=float, default=8.0,
                         metavar="T", help="crash-to-recovery window length "
                         "(default 8)")
    p_chaos.add_argument("--window-length", type=float, default=8.0,
                         metavar="T", help="partition window length "
                         "(default 8)")
    p_chaos.add_argument("--min-quorum", type=int, default=1, metavar="N",
                         help="smallest quorum size the configuration "
                         "allows, for the trace-invariant oracle (default 1)")
    p_chaos.add_argument("--threshold", type=float, default=2.0, metavar="X",
                         help="p99 ratio counted as degraded (default 2.0)")
    p_chaos.add_argument("--report", metavar="PATH",
                         help="write the JSONL report here instead of stdout")
    p_chaos.add_argument("--out-dir", metavar="DIR",
                         help="emit the --top worst configurations as "
                         "ready-to-run spec files into DIR")
    p_chaos.add_argument("--top", type=int, default=3, metavar="K",
                         help="how many worst configurations to emit/show "
                         "(default 3)")
    p_chaos.add_argument("--keep-traces", metavar="DIR",
                         help="also write each run's trace to DIR "
                         "(baseline.jsonl, then NNNN.jsonl by sample index)")
    p_chaos.add_argument("--fail-on-violations", action="store_true",
                         help="exit 1 if any sampled run violates an oracle "
                         "(the CI smoke gate for --benign campaigns)")
    p_chaos.add_argument("--no-progress", action="store_true",
                         help="suppress per-run progress lines on stderr")
    p_chaos.add_argument("--quiet", action="store_true",
                         help="suppress the stdout JSONL report")
    _add_resilience_args(p_chaos, "judged runs")
    p_chaos.set_defaults(fn=_cmd_chaos)

    p_serve = sub.add_parser(
        "serve",
        help="run the experiment lab as an HTTP service",
        description="Serve the experiment lab over HTTP (stdlib only): "
        "submit runs and sweeps as jobs, stream their results as JSONL "
        "(byte-identical to `run`/`sweep --jsonl`), validate specs, and "
        "export metrics.  Jobs execute on the resilient executor with "
        "per-job journals; restarting the server on the same --jobs-dir "
        "resumes interrupted jobs.  `python -m repro.serve.client` is the "
        "matching command-line client.",
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8123,
                         help="bind port (default 8123; 0 picks a free port)")
    p_serve.add_argument("--jobs-dir", default="serve-jobs", metavar="DIR",
                         help="job journals and results live here "
                         "(default serve-jobs/); reuse it to resume")
    p_serve.add_argument("--workers", type=int, default=1,
                         help="default per-job executor workers")
    p_serve.add_argument("--job-concurrency", type=int, default=1,
                         help="jobs simulating at once, each on its own "
                         "long-lived worker processes (default 1)")
    p_serve.add_argument("--queue-limit", type=int, default=64,
                         help="queued-job bound; submissions beyond it get 503")
    p_serve.add_argument("--run-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="default per-run watchdog for jobs")
    p_serve.add_argument("--retry", type=int, default=1, metavar="N",
                         help="default per-run attempt budget for jobs")
    p_serve.add_argument("--quiet", action="store_true",
                         help="suppress per-request access logging")
    p_serve.set_defaults(fn=_cmd_serve)

    p_compare = sub.add_parser(
        "compare",
        help="diff a result JSON against a baseline",
        description="Diff two result payloads (JSON array or JSONL) "
        "run-by-run, field-by-field; runs are matched by run_id, so "
        "completion order does not matter.  Exit status 1 means they differ.",
    )
    p_compare.add_argument("current", help="result JSON produced by run/sweep --json")
    p_compare.add_argument("baseline", help="baseline JSON to compare against")
    p_compare.add_argument("--rel-tol", type=float, default=1e-9,
                           help="relative tolerance for numeric fields")
    p_compare.set_defaults(fn=_cmd_compare)

    p_trace = sub.add_parser(
        "trace",
        help="analyse a trace JSONL: summary, check, critical-path, diff, "
        "series, digest",
        description="Analyse a JSONL trace written by `run --trace` or "
        "`sweep --trace-dir`.  Every subcommand validates each record "
        "against the schema first; all of them return clean empty results "
        "on an empty trace.",
        epilog="quickstart:\n"
        "  python -m repro run quickstart --trace out.jsonl --quiet\n"
        "  python -m repro trace summary out.jsonl\n"
        "  python -m repro trace check out.jsonl\n"
        "  python -m repro trace critical-path out.jsonl\n"
        "  python -m repro trace diff out.jsonl other.jsonl\n"
        "  python -m repro trace series out.jsonl --buckets 10\n"
        "  python -m repro trace digest out.jsonl --check golden.sha256\n",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)

    p_summary = trace_sub.add_parser(
        "summary",
        help="aggregate summary + digest (optionally export to Chrome)",
        description="Print an aggregate summary (per-category/per-name "
        "counts, span totals, digest), optionally exporting the trace to "
        "the Chrome trace_event format for https://ui.perfetto.dev.  "
        "`python -m repro trace FILE` is shorthand for this subcommand.",
    )
    p_summary.add_argument("trace_file", help="JSONL trace to summarise")
    p_summary.add_argument("--export", metavar="PATH",
                           help="also write a Chrome/Perfetto trace_event JSON")
    p_summary.add_argument("--quiet", action="store_true",
                           help="suppress the stdout summary "
                           "(validate/export only)")
    p_summary.set_defaults(fn=_cmd_trace_summary)

    p_digest = trace_sub.add_parser(
        "digest",
        help="print the trace digest, or gate it against a .sha256 file",
        description="Print the SHA-256 trace digest (identical to the "
        "digest of the canonical file bytes).  With --check, compare "
        "against a committed digest file and exit 1 on mismatch — the "
        "one-command local reproduction of the CI trace gate.",
    )
    p_digest.add_argument("trace_file", help="JSONL trace to digest")
    p_digest.add_argument("--check", metavar="SHA256_FILE",
                          help="compare against this golden digest file "
                          "(e.g. benchmarks/baselines/"
                          "fig1-walkthrough.trace.sha256)")
    p_digest.set_defaults(fn=_cmd_trace_digest)

    p_check = trace_sub.add_parser(
        "check",
        help="run structural + semantic invariant checks",
        description="Check trace invariants: monotone seq/ts, balanced "
        "B/E spans, paired s/f flows, quorum phases nested in operation "
        "spans with ordered phases and sufficient sizes, and weight "
        "conservation across transfers.  Warnings (spans/flows still open "
        "at end of trace) do not fail the check; errors exit 1.",
    )
    p_check.add_argument("trace_file", help="JSONL trace to check")
    p_check.add_argument("--min-quorum", type=int, default=1, metavar="N",
                         help="smallest quorum size the configuration "
                         "allows (default 1)")
    p_check.add_argument("--json", metavar="PATH",
                         help="write the full report (findings + counters) "
                         "as JSON")
    p_check.add_argument("--quiet", action="store_true",
                         help="print errors and the verdict only "
                         "(suppress warnings)")
    p_check.set_defaults(fn=_cmd_trace_check)

    p_cpath = trace_sub.add_parser(
        "critical-path",
        help="per-operation latency attribution along the causal graph",
        description="Link flow records and span nesting into a causal "
        "graph, walk each completed operation's gating chain, and "
        "attribute its latency to queue / network / quorum / restart time "
        "(the categories sum to the operation's duration).  Prints a "
        "per-kind aggregate table; --json writes the full per-operation "
        "report.",
    )
    p_cpath.add_argument("trace_file", help="JSONL trace to attribute")
    p_cpath.add_argument("--json", metavar="PATH",
                         help="write the full report as JSON")
    p_cpath.add_argument("--quiet", action="store_true",
                         help="suppress the stdout table (use with --json)")
    p_cpath.set_defaults(fn=_cmd_trace_critical_path)

    p_diff = trace_sub.add_parser(
        "diff",
        help="find the first diverging record between two traces",
        description="Walk two traces in lockstep and report the earliest "
        "record where they differ: its seq, a field-level delta, and the "
        "shared-prefix context.  Exit 0 when identical, 1 on divergence.",
    )
    p_diff.add_argument("trace_a", help="first JSONL trace")
    p_diff.add_argument("trace_b", help="second JSONL trace")
    p_diff.add_argument("--context", type=int, default=3, metavar="N",
                        help="shared-prefix records to show before the "
                        "divergence (default 3)")
    p_diff.add_argument("--json", metavar="PATH",
                        help="write the divergence (or null) as JSON")
    p_diff.set_defaults(fn=_cmd_trace_diff)

    p_series = trace_sub.add_parser(
        "series",
        help="windowed virtual-time series (events, in-flight ops, shards)",
        description="Derive windowed counter series from the trace: "
        "records per window by category, operations started/completed, "
        "open operations (concurrency), and per-shard activity for "
        "sharded traces.",
    )
    p_series.add_argument("trace_file", help="JSONL trace to window")
    p_series.add_argument("--window", type=float, default=0.0, metavar="W",
                          help="window width in virtual-time units "
                          "(default: span/buckets)")
    p_series.add_argument("--buckets", type=int, default=20, metavar="N",
                          help="number of windows when --window is unset "
                          "(default 20)")
    p_series.add_argument("--json", metavar="PATH",
                          help="write the series as JSON")
    p_series.add_argument("--quiet", action="store_true",
                          help="suppress the stdout table (use with --json)")
    p_series.set_defaults(fn=_cmd_trace_series)
    return parser


#: ``trace`` subcommand names, used by the backwards-compatibility shim in
#: :func:`main` — ``python -m repro trace FILE`` predates the subcommands
#: and still works as shorthand for ``trace summary FILE``.
_TRACE_SUBCOMMANDS = frozenset(
    {"summary", "digest", "check", "critical-path", "diff", "series"}
)


def _normalise_argv(argv: Sequence[str]) -> List[str]:
    """Insert ``summary`` into legacy ``trace FILE`` invocations."""
    argv = list(argv)
    if (
        len(argv) >= 2
        and argv[0] == "trace"
        and argv[1] not in _TRACE_SUBCOMMANDS
        and not argv[1].startswith("-")
    ):
        argv.insert(1, "summary")
    return argv


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit status.

    0 = ok, 1 = diff/violations, 2 = error, 3 = interrupted but resumable
    (:data:`~repro.experiments.resilience.INTERRUPT_EXIT_CODE`: a journal
    was flushed, rerun with ``--resume`` to continue).
    """
    parser = build_parser()
    args = parser.parse_args(_normalise_argv(sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    except GracefulInterrupt as interrupt:
        # Commands with an active journal handle this themselves (with a
        # resume hint); this is the backstop for every other code path.
        print(f"interrupted: {interrupt.signal_name}", file=sys.stderr)
        return INTERRUPT_EXIT_CODE
    except (ReproError, OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        path = getattr(error, "path", None)
        if path:
            print(f"  at: {path}", file=sys.stderr)
        return 2
