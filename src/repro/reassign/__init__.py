"""Weight-reassignment protocols under a common interface.

Three protocols, matching the comparison the paper draws in its related-work
discussion (Section VIII):

* :mod:`repro.reassign.restricted` — the paper's consensus-free, epochless
  *restricted pairwise* protocol (a thin adapter over
  :class:`repro.core.protocol.ReassignmentServer`).
* :mod:`repro.reassign.epoch_based` — an epoch-based pairwise protocol in the
  spirit of related work [11]: requests issued during an epoch are applied at
  the epoch boundary, and increments whose epoch closed before they were
  confirmed are dropped, which is why the total weight can shrink over time.
* :mod:`repro.reassign.consensus_based` — the unrestricted weight
  reassignment problem solved with a total-order primitive, as done for
  partially synchronous systems in [10], [22], [27].

The shared :class:`~repro.reassign.base.ReassignmentEndpoint` interface lets
the E7 benchmark drive all of them with the same workload.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "base": ("ReassignmentEndpoint", "ReassignmentResult"),
    "restricted": ("RestrictedPairwiseEndpoint",),
    "epoch_based": ("EpochBasedServer", "EpochBasedEndpoint"),
    "consensus_based": ("ConsensusBasedServer", "ConsensusBasedEndpoint"),
})
