"""The benchmark's vocabulary: workloads, end-to-end metrics, per-layer metrics.

``BENCHMARK.json`` at the repository root names exactly these (the smoke
test compares the two).  Every workload reports every metric: an end-to-end
metric has a meaning on each workload (the ``unit of work`` and ``request``
columns of the README table), and a per-layer metric reads 0 on a workload
that never enters that layer.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: name -> (module, class, why the workload exists)
WORKLOADS: Dict[str, Tuple[str, str, str]] = {
    "storage-steady": (
        "perf_wl_storage", "StorageSteady",
        "steady reads, no transfers: >90 % of the wall is simloop/network/storage, "
        "so kernel work shows here and reassignment work must not",
    ),
    "reassign-churn": (
        "perf_wl_storage", "ReassignChurn",
        "sharded writes beside scheduled and monitoring-driven transfers: protocol, "
        "monitoring, sharding and the weight-gain refresh recursion dominate",
    ),
    "sweep-fanout": (
        "perf_wl_sweep", "SweepFanout",
        "192 runs of a few ms each through a freshly forked pool: expand, validate, "
        "dispatch, pickle and serialise dominate, simulation does not",
    ),
    "chaos-campaign": (
        "perf_wl_chaos", "ChaosCampaign",
        "fault-injected, traced and judged runs: the only workload where obs "
        "recording, trace I/O, invariant checks and oracles do most of the work",
    ),
    "serve-jobs": (
        "perf_wl_serve", "ServeJobs",
        "2 closed-loop tenants of the HTTP service: validation, fsynced jobs log, "
        "per-job journal, thread hand-off and chunked transport dominate",
    ),
    "cli-cold": (
        "perf_wl_cli", "CliCold",
        "a fresh interpreter per run: imports are most of the wall, so lazy "
        "subcommand imports show here and nowhere else",
    ),
}

#: (name, unit, better, bound)
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

#: (name, unit, better) in layer order; the README says which end-to-end
#: metric each should move, and where.
PER_LAYER: List[Tuple[str, str, str]] = [
    # experiments.cli
    ("cli.interpreter_s", "s", "lower"),
    ("cli.import_repro_s", "s", "lower"),
    ("cli.import_cli_s", "s", "lower"),
    ("cli.list_s", "s", "lower"),
    ("cli.command_body_s", "s", "lower"),
    ("cli.child_rss_mb", "MB", "lower"),
    # experiments.spec / workloads / results
    ("spec.load_validate_ms", "ms", "lower"),
    ("spec.build_world_ms", "ms", "lower"),
    ("workloads.generate_ms", "ms", "lower"),
    ("spec.summarise_ms", "ms", "lower"),
    ("results.serialise_ms", "ms", "lower"),
    # sim.runner / net.simloop / net.network
    ("runner.run_workload_s", "s", "lower"),
    ("runner.share", "ratio", "lower"),
    ("simloop.events", "count", "lower"),
    ("simloop.events_per_s", "1/s", "higher"),
    ("simloop.events_per_op", "count", "lower"),
    ("simloop.ready_share", "ratio", "higher"),
    ("simloop.max_queue_depth", "count", "lower"),
    ("network.msgs_per_op", "count", "lower"),
    ("network.msgs_per_s", "1/s", "higher"),
    # core.storage / storage.abd
    ("storage.restarts_per_op", "count", "lower"),
    ("storage.quorum_size_mean", "count", "lower"),
    ("storage.dynamic_overhead_ratio", "ratio", "lower"),
    ("storage.read_p99_vt", "vt", "lower"),
    ("storage.write_p99_vt", "vt", "lower"),
    # core.protocol / monitoring / storage.sharded
    ("protocol.transfers_attempted", "count", "lower"),
    ("protocol.effective_share", "ratio", "higher"),
    ("protocol.transfer_mean_vt", "vt", "lower"),
    ("protocol.refresh_calls", "count", "lower"),
    ("protocol.refresh_depth_max", "count", "lower"),
    ("monitoring.rounds_completed", "count", "higher"),
    ("monitoring.transfers_attempted", "count", "lower"),
    ("sharded.hottest_share", "ratio", "lower"),
    # experiments.executor
    ("executor.serial_runs_per_s", "1/s", "higher"),
    ("executor.inner_run_ms", "ms", "lower"),
    ("executor.parallel_efficiency", "ratio", "higher"),
    ("executor.pool_start_ms", "ms", "lower"),
    # experiments.resilience
    ("resilience.journaled_runs_per_s", "1/s", "higher"),
    ("resilience.pool_efficiency", "ratio", "higher"),
    ("resilience.journal_ms_per_run", "ms", "lower"),
    ("resilience.journal_bytes_per_run", "B", "lower"),
    # chaos / obs
    ("chaos.baseline_s", "s", "lower"),
    ("chaos.run_ms", "ms", "lower"),
    ("chaos.judge_share", "ratio", "lower"),
    ("chaos.violations", "count", "lower"),
    ("chaos.error_runs", "count", "lower"),
    ("obs.trace_records_per_run", "count", "lower"),
    ("obs.record_overhead_ratio", "ratio", "lower"),
    ("obs.check_records_per_s", "1/s", "higher"),
    # serve
    ("serve.boot_s", "s", "lower"),
    ("serve.submit_ms_p50", "ms", "lower"),
    ("serve.job_wall_ms_mean", "ms", "lower"),
    ("serve.transport_queue_ms_mean", "ms", "lower"),
    ("serve.job_latency_p90_ms", "ms", "lower"),
    ("serve.job_latency_p95_ms", "ms", "lower"),
    ("serve.sweep_first_byte_p50_ms", "ms", "lower"),
    ("serve.jobs_log_bytes_per_job", "B", "lower"),
    ("serve.rejected", "count", "lower"),
    # host runtime and the tracer itself
    ("gc.pause_share", "ratio", "lower"),
    ("gc.collections", "count", "lower"),
    ("host.calib_s", "s", "lower"),
    ("host.speed_index", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
]

#: Metrics that are exact given the seed (simulated time and counts): two
#: runs of one commit must agree to the last digit, and ``compare.py``
#: compares them exactly instead of against a noise bound.
EXACT = frozenset({
    "simloop.events", "simloop.events_per_op", "simloop.ready_share",
    "simloop.max_queue_depth", "network.msgs_per_op",
    "storage.restarts_per_op", "storage.quorum_size_mean",
    "storage.read_p99_vt", "storage.write_p99_vt",
    "protocol.transfers_attempted", "protocol.effective_share",
    "protocol.transfer_mean_vt", "protocol.refresh_calls",
    "protocol.refresh_depth_max", "monitoring.rounds_completed",
    "monitoring.transfers_attempted", "sharded.hottest_share",
    "resilience.journal_bytes_per_run", "chaos.violations", "chaos.error_runs",
    "obs.trace_records_per_run", "serve.rejected",
})


def manifest(command: List[str], paths: List[str], run_seconds: int) -> Dict[str, object]:
    """The document ``BENCHMARK.json`` holds."""
    return {
        "command": command,
        "paths": paths,
        "run_seconds": run_seconds,
        "workloads": [
            {"name": name, "why": why} for name, (_, _, why) in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
