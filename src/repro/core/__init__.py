"""The paper's primary contribution.

* :mod:`repro.core.change` — the ``change`` quadruples and grow-only change
  sets of Section III.
* :mod:`repro.core.spec` — executable versions of Definitions 3-5, each
  defined once: Integrity / P-Integrity (Property 1), RP-Integrity, condition
  C2 and the Validity properties, plus the
  :class:`~repro.core.spec.SystemConfig` describing a deployment.
* :mod:`repro.core.protocol` — Algorithms 3 and 4: the ``read_changes`` and
  ``transfer`` operations implementing *restricted pairwise weight
  reassignment* in asynchronous failure-prone systems.
* :mod:`repro.core.storage` — Algorithms 5 and 6: the dynamic-weighted atomic
  storage built on top of the protocol (Section VII).
* :mod:`repro.core.reductions` — Algorithms 1 and 2: the executable consensus
  reductions behind Theorems 1 and 2 (Sections IV and V).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "change": ("Change", "ChangeSet", "initial_changes"),
    "spec": (
        "SystemConfig", "check_integrity", "check_rp_integrity", "c2_holds",
    ),
    "protocol": ("ReassignmentServer", "TransferOutcome", "read_changes"),
    "storage": ("DynamicWeightedStorageServer", "DynamicWeightedStorageClient"),
    "reductions": (
        "OracleWeightReassignment", "OraclePairwiseReassignment", "algorithm1_propose",
        "algorithm2_propose", "paper_initial_weights",
    ),
})
