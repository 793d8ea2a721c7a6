"""Quorum systems.

The paper's storage protocols are parameterised by a quorum system.  This
package provides:

* :class:`~repro.quorum.majority.MajorityQuorumSystem` — the regular MQS the
  paper uses as its baseline.
* :class:`~repro.quorum.weighted.WeightedMajorityQuorumSystem` — the WMQS of
  Definition 1, whose weights the reassignment protocols mutate.
* :mod:`~repro.quorum.availability` — Property 1 (availability of a WMQS) and
  related analysis helpers.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "base": ("QuorumSystem",),
    "majority": ("MajorityQuorumSystem",),
    "weighted": ("WeightedMajorityQuorumSystem",),
    "availability": (
        "wmqs_is_available", "max_tolerable_failures", "assert_wmqs_available",
        "minimum_quorum_cardinality",
    ),
})
