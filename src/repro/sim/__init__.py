"""Simulation and experiment harness.

* :mod:`repro.sim.cluster` — wire up a world (a loop, a network, servers and
  clients, closed by its ``with``) in one call; ``build_cluster(...,
  shards=N)`` scales any flavour out across key-hashed shards behind keyed
  clients.
* :mod:`repro.sim.workload` — seeded read/write workload generators.
* :mod:`repro.sim.metrics` — latency summaries (mean, percentiles) and
  per-shard load/imbalance statistics.
* :mod:`repro.sim.runner` — run a workload against a cluster and collect a
  :class:`~repro.sim.runner.RunReport` (with a per-shard breakdown when the
  cluster is sharded).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "cluster": (
        "Cluster", "ReassignmentFleet", "ShardGroup", "World", "build_cluster",
        "build_dynamic_cluster", "build_reassignment_fleet", "build_world",
    ),
    "workload": ("Operation", "Workload"),
    "metrics": (
        "ImbalanceSummary", "LatencySummary", "ShardLoadSummary", "imbalance_summary",
        "summarize", "summarize_shard_loads",
    ),
    "runner": ("RunReport", "run_workload"),
})
