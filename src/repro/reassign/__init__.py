"""The reassignment baselines of the paper's related-work discussion (Section VIII).

The paper's own consensus-free, epochless *restricted pairwise* protocol is
:class:`repro.core.protocol.ReassignmentServer`; this package holds the two
protocols it is compared against:

* :mod:`repro.reassign.epoch_based` — an epoch-based pairwise protocol in the
  spirit of related work [11]: requests issued during an epoch are applied at
  the epoch boundary, and increments whose epoch closed before they were
  confirmed are dropped, which is why the total weight can shrink over time
  (the ``epoch-vs-epochless`` scenario, E7).
* :mod:`repro.reassign.consensus_based` — the unrestricted weight
  reassignment problem solved with a total-order primitive, as done for
  partially synchronous systems in [10], [22], [27]: the "reassignment ≤
  consensus" half of *as hard as* (the ``limitation-vc`` scenario, E10).

Each scenario drives the servers' own ``transfer`` coroutine and builds its
rows from what it returns; there is no common adapter layer.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "epoch_based": ("EpochBasedCoordinator", "EpochBasedServer"),
    "consensus_based": ("ConsensusBasedServer",),
})
