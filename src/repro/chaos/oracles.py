"""The pluggable oracle stack that judges every campaign run.

An *oracle* looks at one finished run — its result dict, its recorded
trace, the scenario's baseline — and reports :class:`OracleViolation`\\ s
(things that must never happen) plus a details dict (measurements worth
ranking on).  Three oracles ship by default:

* :class:`TraceInvariantOracle` — the structural and semantic trace
  invariants of :func:`repro.obs.analysis.check_trace_invariants` (span
  balance, flow pairing, quorum nesting/size, weight conservation along
  transfer spans).  Error findings are violations; warnings are not (spans
  legitimately in flight when a run stops).
* :class:`ResultOracle` — result-level accounting: a captured run error is
  a violation, completed runs must report every generated operation, the
  surviving weight map must still sum to the configured total with no
  negative entries, and a monitored run must have completed every control
  round it was configured with.
* :class:`LatencyDegradationOracle` — read/write p99 against the
  scenario's baseline.  Degradation is *ranked*, not flagged as a
  violation: a slow-but-correct system under injected faults is the
  expected finding, not a bug — campaigns surface it through the severity
  score instead.

Oracles are plain objects with a ``name`` and a ``judge(outcome)`` method,
so scenario-specific stacks can add their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.analysis import Record, check_trace_invariants

__all__ = [
    "RunOutcome",
    "OracleViolation",
    "OracleReport",
    "TraceInvariantOracle",
    "ResultOracle",
    "LatencyDegradationOracle",
    "default_oracles",
]

#: Cap on the reported p99 ratio, so a stalled run cannot produce an
#: unbounded severity and the ranking stays dominated by violation counts.
MAX_DEGRADATION = 99.0


@dataclass(frozen=True)
class RunOutcome:
    """Everything the oracles may look at for one campaign run."""

    index: int
    run_id: str
    params: Mapping[str, Any]
    result: Mapping[str, Any]
    #: The recorder's live events, or the flat records of a trace file.
    trace_records: Optional[Sequence[Record]] = None
    baseline: Optional[Mapping[str, Any]] = None

    @property
    def failed(self) -> bool:
        """Whether the run died (its result is a captured error)."""
        return "error" in self.result


@dataclass(frozen=True)
class OracleViolation:
    """One thing that must never happen, observed in one run."""

    oracle: str
    check: str
    message: str

    def as_dict(self) -> Dict[str, Any]:
        return {"oracle": self.oracle, "check": self.check, "message": self.message}


@dataclass
class OracleReport:
    """One oracle's verdict on one run: violations plus measurements."""

    violations: List[OracleViolation] = field(default_factory=list)
    details: Dict[str, Any] = field(default_factory=dict)


class TraceInvariantOracle:
    """Trace-invariant errors are violations; an absent trace is recorded."""

    name = "trace-invariants"

    def __init__(self, min_quorum: int = 1) -> None:
        self.min_quorum = min_quorum

    def judge(self, outcome: RunOutcome) -> OracleReport:
        report = OracleReport()
        if outcome.trace_records is None:
            report.details = {"checked": False}
            return report
        invariants = check_trace_invariants(
            outcome.trace_records, min_quorum=self.min_quorum
        )
        report.details = {
            "checked": True,
            "records": invariants.counters["records"],
            "errors": len(invariants.errors),
            "warnings": len(invariants.warnings),
        }
        report.violations = [
            OracleViolation(self.name, finding.check, finding.message)
            for finding in invariants.errors
        ]
        return report


#: How far a weight read back from a result (a float) may sit from exact.
WEIGHT_TOLERANCE = 1e-6


class ResultOracle:
    """Result-level accounting: run failures, lost operations, lost weight,
    lost control rounds.

    ``expected_weight`` is the configured total weight of one replica group
    (``None`` skips the conservation check, e.g. for static flavours whose
    results carry no weight map).
    """

    name = "result"

    def __init__(self, expected_weight: Optional[float] = None) -> None:
        self.expected_weight = expected_weight

    def _check_weights(
        self,
        report: OracleReport,
        label: str,
        weights: Mapping[str, float],
    ) -> None:
        for pid, weight in sorted(weights.items()):
            if weight < -WEIGHT_TOLERANCE:
                report.violations.append(OracleViolation(
                    self.name, "negative-weight",
                    f"{label}: {pid} holds negative weight {weight!r}",
                ))
        if self.expected_weight is None:
            return
        total = sum(weights.values())
        if abs(total - self.expected_weight) > WEIGHT_TOLERANCE:
            report.violations.append(OracleViolation(
                self.name, "weight-conservation",
                f"{label}: weights sum to {total!r}, "
                f"expected {self.expected_weight!r}",
            ))

    def judge(self, outcome: RunOutcome) -> OracleReport:
        report = OracleReport()
        result = outcome.result
        if outcome.failed:
            error = result["error"]
            # Resilience-layer outcomes get their own accounting: a watchdog
            # kill or a quarantined worker death is a harness event, not a
            # protocol failure, and campaign readers need to tell them apart.
            # Plain failures keep the exact legacy details/check shape.
            check = "run-failure"
            details: Dict[str, Any] = {"completed": False}
            if error.get("type") == "WatchdogTimeout":
                check = "run-timeout"
                details["timed_out"] = True
            elif error.get("quarantined"):
                check = "run-quarantined"
                details["quarantined"] = True
            elif error.get("unexpected"):
                details["unexpected"] = True
            report.violations.append(OracleViolation(
                self.name, check,
                f"{error.get('type', 'Error')}: {error.get('message', '')}",
            ))
            report.details = details
            return report
        completed = result.get("operations")
        generated = (result.get("workload") or {}).get("operations")
        report.details = {
            "completed": True,
            "operations": completed,
            "generated": generated,
        }
        if (isinstance(completed, int) and isinstance(generated, int)
                and completed != generated):
            report.violations.append(OracleViolation(
                self.name, "ops-unaccounted",
                f"run completed {completed} of {generated} generated "
                "operation(s) without reporting an error",
            ))
        weights = result.get("weights")
        if isinstance(weights, Mapping):
            self._check_weights(report, "weights", weights)
        shard_weights = result.get("shard_weights")
        if isinstance(shard_weights, Mapping):
            for shard, shard_map in sorted(shard_weights.items()):
                if isinstance(shard_map, Mapping):
                    self._check_weights(
                        report, f"shard_weights[{shard}]", shard_map
                    )
        monitoring = result.get("monitoring")
        if isinstance(monitoring, Mapping):
            # The post-workload settle drains every trailing round, so a
            # completed run that reports fewer means the control loop died.
            rounds_completed = monitoring.get("rounds_completed")
            report.details["monitoring_rounds_completed"] = rounds_completed
            if rounds_completed != monitoring.get("rounds"):
                report.violations.append(OracleViolation(
                    self.name, "monitoring-rounds",
                    f"the control loop completed {rounds_completed} of "
                    f"{monitoring.get('rounds')} round(s)",
                ))
        return report


def _p99(result: Mapping[str, Any], kind: str) -> Optional[float]:
    summary = result.get(kind)
    if isinstance(summary, Mapping):
        value = summary.get("p99")
        if isinstance(value, (int, float)):
            return float(value)
    return None


class LatencyDegradationOracle:
    """p99 against the baseline run: ranked, never a violation."""

    name = "latency"

    def __init__(self, threshold: float = 2.0) -> None:
        self.threshold = threshold

    def judge(self, outcome: RunOutcome) -> OracleReport:
        report = OracleReport()
        details: Dict[str, Any] = {
            "read_p99": _p99(outcome.result, "read_latency"),
            "write_p99": _p99(outcome.result, "write_latency"),
            "degradation": None,
            "degraded": False,
        }
        report.details = details
        if outcome.failed or outcome.baseline is None:
            return report
        ratios = []
        for kind in ("read_latency", "write_latency"):
            base = _p99(outcome.baseline, kind)
            observed = _p99(outcome.result, kind)
            if base and base > 0 and observed is not None:
                ratios.append(observed / base)
        if ratios:
            degradation = min(max(ratios), MAX_DEGRADATION)
            details["degradation"] = degradation
            details["degraded"] = degradation >= self.threshold
        return report


def default_oracles(
    min_quorum: int = 1,
    expected_weight: Optional[float] = None,
    degradation_threshold: float = 2.0,
) -> Tuple[Any, ...]:
    """The standard stack: trace invariants, result accounting, latency."""
    return (
        TraceInvariantOracle(min_quorum=min_quorum),
        ResultOracle(expected_weight=expected_weight),
        LatencyDegradationOracle(threshold=degradation_threshold),
    )
