"""Quorum systems.

The paper's storage protocols are parameterised by a quorum system.  This
package provides:

* :class:`~repro.quorum.majority.MajorityQuorumSystem` — the regular MQS the
  paper uses as its baseline.
* :class:`~repro.quorum.weighted.WeightedMajorityQuorumSystem` — the WMQS of
  Definition 1, whose weights the reassignment protocols mutate, and
  :func:`~repro.quorum.weighted.smallest_quorum_size`, the cardinality of its
  smallest quorum (optionally avoiding some servers).

Property 1 (availability of a WMQS) is Integrity itself, so it is
:func:`repro.core.spec.check_integrity`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "base": ("QuorumSystem",),
    "majority": ("MajorityQuorumSystem",),
    "weighted": ("WeightedMajorityQuorumSystem", "smallest_quorum_size"),
})
