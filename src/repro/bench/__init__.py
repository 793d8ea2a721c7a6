"""Continuous microbenchmarking of the simulation stack.

``python -m repro bench`` runs the registered microbenchmarks (kernel
dispatch, ABD protocol rounds, the sharded data plane, the sweep layer),
reports events/sec, ops/sec and wall time, appends per-benchmark
``BENCH_<name>.json`` trajectory files, and can compare against a prior
result dump (``--compare``) or assert its deterministic counters against
committed expectations (``--check``, the CI determinism gate).

See :mod:`repro.bench.core` for the measurement contract (wall time is
noise, counters are invariants), :mod:`repro.bench.suite` for the built-in
benchmarks, and :mod:`repro.bench.runner` for the file formats.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "core": (
        "BenchResult", "Benchmark", "all_benchmarks", "benchmark", "benchmark_names",
        "get_benchmark", "register_benchmark", "run_benchmark",
    ),
    "runner": (
        "run_benchmarks", "trajectory_path", "append_trajectory", "write_results_json",
        "load_results_json", "compare_results", "expectations_payload",
        "check_expectations",
    ),
})
