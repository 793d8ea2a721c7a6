"""The determinism gate behind ``python -m repro bench``.

Six fixed, seeded micro-workloads run once each; their exact event / op /
message counts are compared with ``benchmarks/bench_expectations.json``
(``--check``, a CI gate).  See :mod:`repro.bench.suite`.  Nothing here
reads a clock: performance is measured by ``benchmarks/perf`` alone.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "suite": ("WORKLOADS", "run_benchmarks", "check_expectations"),
})
