"""Chaos campaigns: automated worst-case search over the fault space.

The campaign engine composes three layers this repository already has into
an automated robustness tester:

* the **fault space** — every ``faults.*`` knob of a declarative scenario
  (crash/recover outages, partition windows) plus the gray-failure knobs on
  ``latency.*`` (slow-but-alive nodes), enumerated by
  :func:`~repro.chaos.space.fault_axes` as ordinary sweep axes;
* the **sweep/executor machinery** — configurations are Latin-hypercube
  sampled (:meth:`~repro.experiments.sweep.Sweep.sample_lhs`) and executed
  through :func:`~repro.experiments.executor.execute_stream_resilient`
  with tracing enabled, each run judged where it ran (the stream's
  ``around``), serially or across worker processes, with identical results;
* the **oracle stack** (:mod:`repro.chaos.oracles`) — trace invariants from
  :mod:`repro.obs.analysis`, result-level assertions (operations accounted
  for, weights conserved), and a latency-degradation detector against the
  scenario's own baseline run.

:func:`~repro.chaos.campaign.run_campaign` ties them together and ranks
every sampled configuration by severity into a deterministic JSONL report;
the worst configurations are emitted as ready-to-run ``--spec`` files.
``python -m repro chaos --scenario quickstart --sample 16 --seed 0`` is the
CLI entry point.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "campaign": ("Campaign", "run_campaign"),
    "space": ("fault_axes",),
    "oracles": (
        "RunOutcome", "OracleViolation", "TraceInvariantOracle", "ResultOracle",
        "LatencyDegradationOracle", "default_oracles",
    ),
})
