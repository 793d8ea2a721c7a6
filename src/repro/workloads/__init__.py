"""Composable workload generation.

Workloads are assembled from four independent axes, each swappable without
touching the others:

* :mod:`repro.workloads.keys` — key-popularity distributions (uniform,
  zipfian, hotspot with rotation);
* :mod:`repro.workloads.arrivals` — arrival processes (closed-loop think
  time, open-loop Poisson, bursty on/off);
* :mod:`repro.workloads.mix` — operation mixes (read ratio, multi-key
  fan-out);
* :mod:`repro.workloads.phases` — phase schedules flipping any axis at a
  virtual time (ramp-ups, mid-run skew shifts).

:class:`~repro.workloads.generator.WorkloadGenerator` combines them into a
deterministic :class:`~repro.sim.workload.Workload`;
:func:`~repro.workloads.stats.workload_stats` reports the *achieved*
skew/arrival statistics; :mod:`repro.workloads.trace` records and replays
workloads as JSONL.  The declarative experiment layer
(:class:`repro.experiments.WorkloadSpec`) exposes every axis as sweepable
dotted paths (``workload.keys.zipf_s``, ``workload.arrivals.rate`` ...).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "keys": (
        "KeyDistribution", "UniformKeys", "ZipfianKeys", "HotspotKeys", "key_name",
    ),
    "arrivals": (
        "ArrivalProcess", "ClosedLoopArrivals", "PoissonArrivals", "OnOffArrivals",
    ),
    "mix": ("OperationMix",),
    "phases": ("Phase", "PhaseSchedule"),
    "generator": ("WorkloadGenerator",),
    "stats": ("workload_stats",),
    "trace": ("write_trace", "read_trace"),
})
