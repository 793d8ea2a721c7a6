"""``repro.obs`` — deterministic tracing and metrics for the simulation kernel.

Three small modules behind one facade:

* :mod:`repro.obs.metrics` — counters, gauges, virtual-time histograms in a
  :class:`MetricsRegistry` with a sorted, JSON-serialisable snapshot.
* :mod:`repro.obs.trace` — the :class:`TraceRecorder` span/event model, the
  canonical JSONL serialisation, and the trace digest used as a golden
  regression gate.
* :mod:`repro.obs.export` — Chrome/Perfetto ``trace_event`` export and
  trace summaries (the ``python -m repro trace`` subcommand).

Plus the trace-analytics layer on top of the recorder (the
``python -m repro trace check | critical-path | diff | series``
subcommands):

* :mod:`repro.obs.analysis` — typed event stream + structural/semantic
  invariant checking;
* :mod:`repro.obs.causal` — causal graph, per-operation critical path,
  latency attribution by category;
* :mod:`repro.obs.diff` — cross-run first-divergence finder;
* :mod:`repro.obs.series` — windowed virtual-time counter series.

Everything hangs off :class:`Observer` (see :mod:`repro.obs.observer`):
install one with :func:`observing` *before* building a cluster and the
kernel, network, protocols, and shards record into it; install nothing and
every instrumentation site is a single ``None`` check.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "observer": ("Observer", "current_observer", "install_observer", "observing"),
    "metrics": (
        "MetricsRegistry", "MetricCounter", "MetricGauge", "MetricHistogram",
        "DEFAULT_TIME_BOUNDS",
    ),
    "trace": (
        "TraceEvent", "TraceRecorder", "TRACE_PHASES", "TRACE_CATEGORIES",
        "trace_digest", "write_trace", "read_trace",
        "ValidatedTrace", "validate_record",
    ),
    "export": ("to_chrome_trace", "write_chrome_trace", "summarize_trace"),
    "analysis": (
        "Finding", "InvariantReport", "parse_events", "check_trace_invariants",
    ),
    "causal": (
        "ATTRIBUTION_CATEGORIES", "Operation", "PathStep", "extract_operations",
        "critical_path", "critical_path_report",
    ),
    "diff": ("diff_traces", "format_divergence"),
    "series": ("trace_series",),
})
