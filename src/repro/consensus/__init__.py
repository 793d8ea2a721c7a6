"""Consensus substrate.

The paper's negative results say weight reassignment *requires* consensus; the
positive baseline protocols from related work ([10], [22], [27]) therefore
need a consensus (or total-order) primitive to run on.  This package provides:

* :mod:`repro.consensus.spec` — the consensus properties (Agreement, Validity,
  Termination) as checkers over per-process decisions; the reduction
  scenarios (``reduction-alg1``, ``reduction-alg2``) report through them.
* :mod:`repro.consensus.sequencer` — a total-order broadcast built around a
  sequencer process, the simplest consensus-equivalent primitive; the
  consensus-based reassignment baseline and the k-owner asset transfer are
  built on it.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "spec": ("ConsensusResult",),
    "sequencer": ("Sequencer", "TotalOrderClient"),
})
