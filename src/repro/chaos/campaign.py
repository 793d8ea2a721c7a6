"""The campaign engine: sample the fault space, run it, rank the damage.

:func:`run_campaign` takes a registered *declarative* scenario, derives its
fault axes (:func:`~repro.chaos.space.fault_axes`), Latin-hypercube samples
``sample`` configurations, executes them — traced — through the existing
serial/parallel executor with run errors captured, and judges every run
with the oracle stack (:mod:`repro.chaos.oracles`).  The result is a
:class:`Campaign`: a ranked, deterministic report whose JSONL form is
byte-identical for any worker count and any ``PYTHONHASHSEED`` (the same
guarantee the sweep executor makes), plus ready-to-run spec files for the
worst configurations (:meth:`Campaign.write_worst_specs`).

Severity is ``100 x violations + p99-degradation`` — violations dominate
(each is worth more than any latency ratio, which is capped), degradation
breaks ties among correct-but-slow configurations, and remaining ties
resolve by sample index, so the ranking is total and stable.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.chaos.oracles import RunOutcome, default_oracles
from repro.chaos.space import fault_axes
from repro.errors import ConfigurationError, ReproError
from repro.experiments.executor import run_with_stable_stack
from repro.experiments.executor import execute_run
from repro.experiments.registry import Scenario, get_scenario
from repro.experiments.resilience import (
    Quarantine,
    ResiliencePolicy,
    RunJournal,
    StreamTelemetry,
    execute_stream_resilient,
    journalable,
    run_digest,
)
from repro.experiments.spec import ScenarioSpec
from repro.experiments.sweep import RunSpec, Sweep
from repro.obs import read_trace
from repro.types import VirtualTime

__all__ = ["Campaign", "run_campaign"]

ProgressCallback = Any  # (done, total) -> None, matching the executor's


@dataclass
class Campaign:
    """A finished campaign: header, ranked entries, and the base spec."""

    header: Dict[str, Any]
    entries: List[Dict[str, Any]] = field(default_factory=list)
    base_spec: Optional[ScenarioSpec] = None

    @property
    def violations(self) -> int:
        """Total oracle violations across every sampled run."""
        return sum(len(entry["violations"]) for entry in self.entries)

    @property
    def worst(self) -> Optional[Dict[str, Any]]:
        """The rank-1 entry, or ``None`` for an empty campaign."""
        return self.entries[0] if self.entries else None

    def jsonl_lines(self) -> Iterator[str]:
        """The report: one header line, then one line per entry, by rank."""
        yield json.dumps(self.header, sort_keys=True)
        for entry in self.entries:
            yield json.dumps(entry, sort_keys=True)

    def write(self, path: str) -> None:
        """Write the JSONL report to ``path`` (canonical bytes)."""
        with open(path, "w", encoding="utf-8") as handle:
            for line in self.jsonl_lines():
                handle.write(line + "\n")

    def worst_spec(self, entry: Dict[str, Any], name: str) -> ScenarioSpec:
        """The ready-to-run spec reproducing ``entry``, renamed to ``name``."""
        if self.base_spec is None:
            raise ConfigurationError("campaign carries no base spec")
        spec = self.base_spec.with_overrides(dict(entry["params"]))
        scenario = self.header["campaign"]["scenario"]
        return dataclasses.replace(
            spec,
            name=name,
            description=(
                f"chaos worst #{entry['rank']} of scenario {scenario!r} "
                f"(severity {entry['severity']:.3f}, "
                f"{len(entry['violations'])} violation(s)); "
                f"emitted by `python -m repro chaos`"
            ),
        )

    def write_worst_specs(self, out_dir: str, top: int = 3) -> List[str]:
        """Emit the ``top`` worst configurations as runnable spec files.

        Files are named ``<scenario>-chaos-<rank>.json`` with matching spec
        names, so they satisfy the example-spec convention (name == stem)
        and re-run with ``python -m repro run --spec <file>``.
        """
        os.makedirs(out_dir, exist_ok=True)
        scenario = self.header["campaign"]["scenario"]
        paths = []
        for entry in self.entries[:top]:
            name = f"{scenario}-chaos-{entry['rank']}"
            spec = self.worst_spec(entry, name)
            path = os.path.join(out_dir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(spec.to_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
            paths.append(path)
        return paths

    def summary_rows(self, top: int = 10) -> List[Tuple[Any, ...]]:
        """Human-readable top rows: (rank, severity, violations, degr, id)."""
        rows = []
        for entry in self.entries[:top]:
            degradation = entry["oracles"]["latency"]["degradation"]
            rows.append((
                entry["rank"],
                f"{entry['severity']:.2f}",
                len(entry["violations"]),
                "-" if degradation is None else f"{degradation:.2f}x",
                entry["run_id"],
            ))
        return rows


def _base_spec(scenario: str, entry: Optional[Scenario]) -> ScenarioSpec:
    if entry is None or entry.name != scenario:
        entry = get_scenario(scenario)
    if entry.kind != "spec":
        raise ConfigurationError(
            f"chaos campaigns need a declarative (spec) scenario; "
            f"{scenario!r} is a {entry.kind} scenario — load a spec file "
            "via --spec, or pick one of the spec scenarios in `list`"
        )
    return entry.spec


def _traced(run: RunSpec, trace_path: str) -> RunSpec:
    params = run.params_dict
    params["observability.enabled"] = True
    params["observability.trace"] = True
    params["observability.trace_path"] = trace_path
    return RunSpec(scenario=run.scenario, params=tuple(sorted(params.items())))


def _read_trace_if_any(
    path: str, tolerant: bool = False
) -> Optional[List[Dict[str, Any]]]:
    # A run that died raised before run_spec wrote its trace; an absent file
    # simply means "nothing to check" for the trace oracle.  ``tolerant``
    # additionally swallows unreadable files: a worker can be SIGKILLed
    # *while* it writes its trace, and the truncated file must judge as
    # "no trace" rather than kill the campaign.
    if not os.path.exists(path):
        return None
    try:
        return read_trace(path)
    except (ReproError, ValueError):
        if tolerant:
            return None
        raise


def _judge(
    index: int, run: RunSpec, result: Dict[str, Any],
    records: Optional[List[Dict[str, Any]]], oracles: Sequence[Any],
    baseline: Optional[Dict[str, Any]],
) -> Dict[str, Any]:
    """One run's report entry: every oracle's verdict, and a severity."""
    outcome = RunOutcome(
        index=index,
        run_id=run.run_id,
        params=run.params_dict,
        result=result,
        trace_records=records,
        baseline=baseline,
    )
    violations = []
    oracle_details: Dict[str, Any] = {}
    for oracle in oracles:
        report = oracle.judge(outcome)
        violations.extend(report.violations)
        oracle_details[oracle.name] = report.details
    degradation = oracle_details["latency"]["degradation"]
    severity = 100.0 * len(violations) + (degradation or 0.0)
    return {
        "index": index,
        "run_id": run.run_id,
        "params": run.params_dict,
        "severity": severity,
        "violations": [v.as_dict() for v in violations],
        "oracles": oracle_details,
    }


def _journal_header(
    scenario: str, sample: int, seed: int, benign: bool,
    times: Sequence[VirtualTime], outage_length: VirtualTime,
    window_length: VirtualTime, min_quorum: int,
    degradation_threshold: float,
) -> Dict[str, Any]:
    """The chaos journal header: every knob the report bytes depend on.

    A resumed campaign validates its knobs against this record, so a
    journal written by one configuration cannot silently poison the
    report of another.
    """
    return {
        "kind": "chaos",
        "version": 1,
        "campaign": {
            "scenario": scenario,
            "sample": sample,
            "seed": seed,
            "benign": benign,
            "times": list(times),
            "outage_length": outage_length,
            "window_length": window_length,
            "min_quorum": min_quorum,
            "degradation_threshold": degradation_threshold,
        },
    }


def run_campaign(
    scenario: str,
    sample: int = 16,
    seed: int = 0,
    workers: int = 1,
    benign: bool = False,
    times: Sequence[VirtualTime] = (4.0, 8.0, 12.0),
    outage_length: VirtualTime = 8.0,
    window_length: VirtualTime = 8.0,
    min_quorum: int = 1,
    degradation_threshold: float = 2.0,
    keep_traces: Optional[str] = None,
    progress: Optional[ProgressCallback] = None,
    policy: Optional[ResiliencePolicy] = None,
    journal_path: Optional[str] = None,
    resume: bool = False,
    quarantine_path: Optional[str] = None,
    telemetry: Optional[StreamTelemetry] = None,
    entry: Optional[Scenario] = None,
) -> Campaign:
    """LHS-sample ``scenario``'s fault space, execute it, and rank the runs.

    The report is deterministic in (scenario, sample, seed, benign, times,
    window sizes, thresholds): worker count, trace directory and hash seed
    leave its bytes unchanged.  ``keep_traces`` preserves the per-run trace
    files in the given directory (by sample index); without it they go to a
    temporary directory and each is deleted as soon as it has been read back
    for judging.  ``progress`` is called with global ``(done, total)`` counts.

    ``journal_path`` journals *judged* entries (keyed by the digest of the
    untraced run spec) as they land — per-run traces live in a temporary
    directory and do not survive an interruption, so the journal records
    the oracle verdicts, not the raw traces.  ``resume=True`` reloads an
    existing journal and skips its runs (and the baseline); because every
    run and every oracle is deterministic, the resumed report is
    byte-identical to an uninterrupted one.  ``policy`` adds the per-run
    watchdog and worker retry of :mod:`repro.experiments.resilience`;
    watchdog/quarantine outcomes are reported but never journaled, so a
    resume retries them.  ``entry`` is the planned scenario named
    ``scenario`` (:func:`repro.experiments.plan.plan`), used in place of the
    registry's — how ``chaos --spec`` campaigns over an unregistered spec.
    """
    base = _base_spec(scenario, entry)
    axes = fault_axes(
        base,
        benign=benign,
        times=times,
        outage_length=outage_length,
        window_length=window_length,
    )
    runs = Sweep.of(scenario, grid=axes).sample_lhs(sample, seed=seed)
    config = base.cluster.system_config()
    expected_weight = (
        sum(config.initial_weights.values())
        if base.cluster.flavour == "dynamic-weighted" else None
    )
    oracles = default_oracles(
        min_quorum=min_quorum,
        expected_weight=expected_weight,
        degradation_threshold=degradation_threshold,
    )

    policy = policy or ResiliencePolicy()
    policy.validate()
    telemetry = telemetry if telemetry is not None else StreamTelemetry()
    quarantine = Quarantine(quarantine_path)
    journal: Optional[RunJournal] = None
    if journal_path is not None:
        journal = RunJournal(
            journal_path,
            _journal_header(
                scenario, sample, seed, benign, times, outage_length,
                window_length, min_quorum, degradation_threshold,
            ),
            resume=resume,
        )
    resilient = journal is not None or policy.needs_pool
    total = len(runs)
    done = 0

    def tick() -> None:
        nonlocal done
        done += 1
        if progress is not None:
            progress(done, total)

    trace_dir = keep_traces or tempfile.mkdtemp(prefix="repro-chaos-")
    os.makedirs(trace_dir, exist_ok=True)
    try:
        # -- baseline: the un-faulted scenario, traced and judged -----------
        baseline_record = journal.get("baseline") if journal else None
        if baseline_record is not None:
            baseline_result = baseline_record["result"]
            baseline_violations = baseline_record["violations"]
            baseline_trace_records = baseline_record["trace_records"]
        else:
            baseline_path = os.path.join(trace_dir, "baseline.jsonl")
            # Stable-stack execution everywhere: recursion-limited trace
            # tails (weight-gain refresh churn) otherwise depend on the
            # caller's stack depth, which would break the serial==parallel
            # byte-identity of the report and its reproducibility from
            # tests vs the CLI.
            baseline_run = RunSpec(scenario=scenario)
            baseline_result = run_with_stable_stack(
                execute_run, _traced(baseline_run, baseline_path), entry
            ).result
            baseline_records = _read_trace_if_any(baseline_path)
            baseline_trace_records = len(baseline_records or ())
            baseline_violations = _judge(
                -1, baseline_run, baseline_result, baseline_records,
                oracles, None,
            )["violations"]
            del baseline_records  # else it lives as long as the campaign
            if journal is not None:
                journal.record("baseline", {
                    "result": baseline_result,
                    "violations": baseline_violations,
                    "trace_records": baseline_trace_records,
                })

        # -- the sampled fault space, traced, errors captured ---------------
        # Journaled runs are skipped (their judged entries are replayed);
        # fresh runs execute through the resilient stream and are judged —
        # and journaled — as each one completes, so an interruption at any
        # point loses at most the in-flight runs.
        entries = []
        pending: List[Tuple[int, RunSpec]] = []
        for index, run in enumerate(runs):
            record = journal.get(run_digest(run)) if journal else None
            if record is not None:
                telemetry.resumed += 1
                entries.append(record["entry"])
                tick()
            else:
                pending.append((index, run))

        index_map = [index for index, _ in pending]
        traced_pending = [
            _traced(run, os.path.join(trace_dir, f"{index:04d}.jsonl"))
            for index, run in pending
        ]
        for sub_index, result in execute_stream_resilient(
            traced_pending, workers=workers,
            capture_errors=True, stable_stack=True,
            policy=policy, quarantine=quarantine, telemetry=telemetry,
            entry=entry,
        ):
            index = index_map[sub_index]
            run = runs[index]
            trace_path = os.path.join(trace_dir, f"{index:04d}.jsonl")
            # A killed worker (watchdog, crash) can leave a trace truncated
            # mid-write; judge that run as "no trace" instead of failing the
            # whole campaign.  Every run that completed is read strictly.
            completed = journalable(result)
            # The records are bound nowhere in this frame: a judged trace is
            # garbage before the stream starts the next run.
            judged = _judge(
                index, run, result.result,
                _read_trace_if_any(trace_path, tolerant=not completed),
                oracles, baseline_result,
            )
            if keep_traces is None:
                # A campaign's disk footprint stays at the runs in flight,
                # not the whole sample.
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(trace_path)
            entries.append(judged)
            if journal is not None and completed:
                journal.record(run_digest(run), {"entry": judged})
            tick()
    finally:
        if keep_traces is None:
            shutil.rmtree(trace_dir, ignore_errors=True)
        quarantine.close()
        if journal is not None:
            journal.close()

    entries.sort(key=lambda entry: (-entry["severity"], entry["index"]))
    for rank, judged in enumerate(entries, 1):
        judged["rank"] = rank

    degraded = sum(
        1 for entry in entries if entry["oracles"]["latency"]["degraded"]
    )
    failed = sum(
        1 for entry in entries if not entry["oracles"]["result"]["completed"]
    )
    campaign_block = {
        "scenario": scenario,
        "sample": sample,
        "seed": seed,
        "benign": benign,
        "times": list(times),
        "outage_length": outage_length,
        "window_length": window_length,
        "min_quorum": min_quorum,
        "degradation_threshold": degradation_threshold,
        "axes": {path: list(values) for path, values in axes.items()},
        "runs": len(entries),
        "violations": sum(len(entry["violations"]) for entry in entries),
        "degraded": degraded,
        "failed": failed,
    }
    if resilient:
        # Only when resilience is active, so legacy reports keep their
        # bytes.  ``telemetry.as_dict()`` excludes the resumed count: a
        # resumed report must be byte-identical to an uninterrupted one.
        campaign_block["resilience"] = {
            **policy.as_dict(), **telemetry.as_dict(),
        }
    header = {
        "campaign": campaign_block,
        "baseline": {
            "run_id": scenario,
            "read_p99": (baseline_result.get("read_latency") or {}).get("p99"),
            "write_p99": (baseline_result.get("write_latency") or {}).get("p99"),
            "operations": baseline_result.get("operations"),
            "violations": baseline_violations,
            "trace_records": baseline_trace_records,
        },
    }
    return Campaign(header=header, entries=entries, base_spec=base)
