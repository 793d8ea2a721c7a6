"""The campaign engine: sample the fault space, run it, rank the damage.

:func:`run_campaign` takes a registered *declarative* scenario, derives its
fault axes (:func:`~repro.chaos.space.fault_axes`), Latin-hypercube samples
``sample`` configurations, executes them — traced — through the existing
serial/parallel executor with run errors captured, and judges every run
with the oracle stack (:mod:`repro.chaos.oracles`) in the process that
recorded its trace, from the recorder's live events.  The result is a
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

import dataclasses
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.chaos.oracles import RunOutcome, default_oracles
from repro.chaos.space import fault_axes
from repro.errors import ConfigurationError
from repro.experiments.executor import RunResult, run_with_stable_stack
from repro.experiments.executor import execute_run
from repro.experiments.registry import Scenario, SpecScenario, get_scenario
from repro.experiments.resilience import (
    Quarantine,
    ResiliencePolicy,
    RunJournal,
    StreamTelemetry,
    execute_stream_resilient,
    journalable,
    run_digest,
)
from repro.experiments.spec import ObservabilitySpec, ScenarioSpec
from repro.experiments.sweep import RunSpec, Sweep
from repro.obs import Observer, TraceEvent, observing, write_trace
# Unused: a campaign reads no trace back.  Kept, like ``shutdown_pool()``,
# because the frozen ``benchmarks/perf`` binds ``campaign.read_trace`` by name.
from repro.obs import read_trace  # noqa: F401
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


@dataclass(frozen=True)
class _JudgedResult(RunResult):
    """A run's result plus its report entry: all that leaves the worker."""

    judged: Dict[str, Any]


@dataclass(frozen=True)
class _Judge:
    """A campaign's oracle stack, and what its stream applies to each run
    where it executes (``dispatch``'s ``around``; a plain value, so it pickles
    to spawned workers).  ``indices`` maps the stream's positions to sample
    indices: a resumed stream has gaps, and -1 is the baseline."""

    oracles: Sequence[Any]
    baseline: Optional[Dict[str, Any]]
    indices: Sequence[int]
    keep_traces: Optional[str]

    def verdict(
        self, index: int, run: RunSpec, result: Dict[str, Any],
        events: Optional[List[TraceEvent]],
    ) -> Dict[str, Any]:
        """One run's report entry: every oracle's verdict, and a severity."""
        outcome = RunOutcome(
            index=index,
            run_id=run.run_id,
            params=run.params_dict,
            result=result,
            trace_records=events,
            baseline=self.baseline,
        )
        violations = []
        oracle_details: Dict[str, Any] = {}
        for oracle in self.oracles:
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

    def __call__(
        self, execute: Callable[..., RunResult], position: int, run: RunSpec,
        entry: Optional[Scenario],
    ) -> _JudgedResult:
        index = self.indices[position]
        # On a stable stack: recursion-limited trace tails (weight-gain
        # refresh churn) otherwise depend on the caller's stack depth, and the
        # report's serial == parallel == tests == CLI bytes on those tails.
        observer = Observer(metrics=False)
        with observing(observer):
            result = run_with_stable_stack(execute, run, entry)
        assert observer.trace is not None
        # A run that died is judged with no trace, as a worker's that died is.
        events = None if "error" in result.result else observer.trace.events
        if events is not None and self.keep_traces is not None:
            stem = "baseline" if index < 0 else f"{index:04d}"
            write_trace(
                observer.trace.records,
                os.path.join(self.keep_traces, f"{stem}.jsonl"),
            )
        judged = self.verdict(index, run, result.result, events)
        observer.trace.events.clear()  # the run's cyclic world outlives this
        return _JudgedResult(result.scenario, result.params, result.result, judged)


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
    leave its bytes unchanged.  Every run executes under an observer the
    campaign installs (the spec's own ``observability`` section is switched
    off for it) and is judged from the live trace events by the process
    that recorded them — a worker sends back its verdict, not its trace.
    ``keep_traces`` additionally writes each completed run's trace to the
    given directory (``baseline.jsonl``, then ``NNNN.jsonl`` by sample
    index); without it no trace is encoded and no file is created.
    ``progress`` is called with global ``(done, total)`` counts.

    ``journal_path`` journals *judged* entries (keyed by the digest of the
    run spec) as they land — the oracle verdicts, not the raw traces, which
    never leave the run that recorded them.  ``resume=True`` reloads an
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
    # The campaign holds the only observer of its runs: one the spec switched
    # on itself would be installed over it by ``run_spec``, and every run
    # judged on an empty trace.
    entry = SpecScenario(
        dataclasses.replace(base, observability=ObservabilitySpec())
    )
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

    if keep_traces is not None:
        os.makedirs(keep_traces, exist_ok=True)
    try:
        # -- baseline: the un-faulted scenario, traced and judged -----------
        baseline = journal.get("baseline") if journal else None
        if baseline is None:
            ran = _Judge(oracles, None, (-1,), keep_traces)(
                execute_run, 0, RunSpec(scenario=scenario), entry
            )
            trace_oracle = ran.judged["oracles"]["trace-invariants"]
            baseline = {
                "result": ran.result,
                "violations": ran.judged["violations"],
                "trace_records": trace_oracle["records"],
            }
            if journal is not None:
                journal.record("baseline", baseline)
        baseline_result = baseline["result"]

        # -- the sampled fault space, traced, errors captured ---------------
        # Journaled runs are skipped (their judged entries are replayed);
        # fresh runs execute through the resilient stream, are judged where
        # they ran and journaled as each one lands, so an interruption at
        # any point loses at most the in-flight runs.
        entries = []
        pending: List[int] = []
        for index, run in enumerate(runs):
            record = journal.get(run_digest(run)) if journal else None
            if record is not None:
                telemetry.resumed += 1
                entries.append(record["entry"])
                tick()
            else:
                pending.append(index)

        judge = _Judge(oracles, baseline_result, pending, keep_traces)
        for position, result in execute_stream_resilient(
            [runs[index] for index in pending], workers=workers,
            capture_errors=True, policy=policy, quarantine=quarantine,
            telemetry=telemetry, entry=entry, around=judge,
        ):
            index = pending[position]
            run = runs[index]
            if isinstance(result, _JudgedResult):
                judged = result.judged
            else:
                # Made by the parent for a worker it killed (watchdog) or
                # lost (crash): whatever that worker recorded died with it.
                judged = judge.verdict(index, run, result.result, None)
            entries.append(judged)
            if journal is not None and journalable(result):
                journal.record(run_digest(run), {"entry": judged})
            tick()
    finally:
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
            "violations": baseline["violations"],
            "trace_records": baseline["trace_records"],
        },
    }
    return Campaign(header=header, entries=entries, base_spec=base)
