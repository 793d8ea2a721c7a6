"""The built-in scenario catalogue, one module per scenario family.

The paper's experiments E1–E11 (README "Scenario catalogue" has the index) —
the Fig. 1 walkthrough, Example 1 and the two consensus reductions,
WMQS-vs-MQS, epoch-vs-epochless reassignment, the Section V-C limitation,
dynamic-storage-vs-reconfiguration, asset transfer, protocol costs — and
the declarative storage workloads each live in a family module that
registers its scenarios on import:

* :mod:`~repro.experiments.catalogue.reassignment` — E1 ``fig1-walkthrough``,
  E7 ``epoch-vs-epochless``, E10 ``limitation-vc``, E11 ``protocol-costs``;
* :mod:`~repro.experiments.catalogue.reductions` — E2 ``example1-semantics``,
  E3 ``reduction-alg1``, E4 ``reduction-alg2``;
* :mod:`~repro.experiments.catalogue.quorums` — E5 ``wmqs-vs-mqs``;
* :mod:`~repro.experiments.catalogue.case_studies` — E8
  ``storage-vs-reconfig``, E6 ``dynamic-storage-adaptation``;
* :mod:`~repro.experiments.catalogue.declarative` — ``quickstart``, the
  static baselines, ``crash-resilience`` and the workload-driven specs;
* :mod:`~repro.experiments.catalogue.sharded` — the two key-sharded
  scenarios;
* :mod:`~repro.experiments.catalogue.monitoring` —
  ``hotspot-shift-monitoring``;
* :mod:`~repro.experiments.catalogue.assets` — E9 ``asset-transfer``.

Nothing imports them all up front:
:data:`repro.experiments.registry.BUILTIN_FAMILIES` maps each scenario name
to its family, ``get_scenario`` imports that one module, and this package
re-exports the scenario functions lazily.  A registered scenario is the only
way an experiment runs: ``benchmarks/baselines/<name>.json`` gates its bytes
and ``tests/test_paper_claims.py`` asserts the paper's shape claims on its
result dict.  Everything a scenario returns is JSON-serialisable, so the
sweep engine, the result sinks and the CLI can all consume it unchanged.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "reassignment": (
        "fig1_walkthrough", "epoch_vs_epochless", "limitation_vc", "protocol_costs",
    ),
    "reductions": ("example1_semantics", "reduction_alg1", "reduction_alg2"),
    "quorums": ("wmqs_vs_mqs",),
    "case_studies": ("storage_vs_reconfig", "dynamic_storage_adaptation"),
    "monitoring": ("hotspot_shift_monitoring",),
    "sharded": ("sharded_zipfian_imbalance", "sharded_hotspot_reassignment"),
    "assets": ("AssetTransferSpec", "asset_transfer"),
})
