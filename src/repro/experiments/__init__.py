"""Declarative experiment subsystem: scenarios, sweeps, runners, results.

* :mod:`repro.experiments.sections` — the uniform :class:`SpecSection`
  protocol every spec section implements (``to_dict`` / ``from_dict`` /
  ``flatten`` / ``validate`` / ``build``).
* :mod:`repro.experiments.spec` — :class:`ScenarioSpec` and friends: a
  declarative description of cluster, workload, latency, monitoring, faults,
  transfers and seed, plus the generic driver :func:`run_spec` and the
  spec-file loader :func:`load_spec_file`.
* :mod:`repro.experiments.registry` — the global scenario registry, the
  :func:`scenario` decorator and :func:`register_spec`.
* :mod:`repro.experiments.sweep` — parameter-grid expansion into
  :class:`RunSpec` lists (seed lists are just another axis).
* :mod:`repro.experiments.plan` — the front door: the strict
  :class:`~repro.experiments.plan.JobRequest` schema and the one
  :func:`~repro.experiments.plan.plan` the CLI and the service both call.
* :mod:`repro.experiments.executor` — the one execution stream: in-process,
  or on a worker pool (per-run wall-clock watchdog, bounded worker retry),
  replaying and appending to a run journal when given one; results are
  identical for any worker count because every run is deterministic in
  virtual time.
* :mod:`repro.experiments.resilience` — the run journal, the quarantine
  sidecar, and graceful SIGINT/SIGTERM handling for long executions.
* :mod:`repro.experiments.results` — JSON/CSV sinks and baseline comparison.
* :mod:`repro.experiments.catalogue` — the built-in scenarios (the paper's
  headline experiments plus declarative storage workloads).
* :mod:`repro.experiments.cli` — the ``python -m repro`` entry point.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "sections": ("SpecSection", "unflatten"),
    "spec": (
        "ScenarioSpec", "ClusterSpec", "WorkloadSpec", "KeySpec", "ArrivalSpec",
        "MixSpec", "PhaseSpec", "LatencySpec", "MonitoringSpec", "PolicySpec",
        "FaultSpec", "OutageSpec", "PartitionSpec", "TransferEvent",
        "run_spec", "load_spec_file",
    ),
    "registry": (
        "Scenario", "FunctionScenario", "SpecScenario", "scenario", "register",
        "register_spec", "get_scenario", "scenario_names",
        "all_scenarios",
    ),
    "sweep": ("RunSpec", "Sweep", "expand_grid", "expand_points"),
    "executor": (
        "RunResult", "execute_run", "execute_run_captured", "execute_many",
        "execute_stream", "journalable",
    ),
    "resilience": (
        "INTERRUPT_EXIT_CODE", "GracefulInterrupt", "Quarantine", "ResiliencePolicy",
        "RunJournal", "StreamTelemetry", "execute_stream_resilient", "interruptible",
        "run_digest",
    ),
    "results": (
        "payload_entry", "dumps_json", "write_json", "write_jsonl_line",
        "write_csv", "load_payload", "compare_payloads",
    ),
})
