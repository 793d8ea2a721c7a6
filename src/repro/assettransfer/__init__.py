"""The asset-transfer problem (Guerraoui et al. [12]), Section VIII's comparator.

The paper relates pairwise weight reassignment to asset transfer: weights play
the role of account balances, and the restricted variant's condition C1 ("only
``s`` may give ``s``'s weight away") mirrors 1-asset transfer's single-owner
accounts.  To make the comparison executable this package implements both
sides of [12]'s dichotomy:

* :mod:`repro.assettransfer.one_asset` — consensus-free 1-owner asset
  transfer over reliable broadcast (implementable in asynchronous
  failure-prone systems);
* :mod:`repro.assettransfer.k_asset` — k-owner accounts, which require
  ordering the owners' conflicting withdrawals and are therefore built on the
  total-order (sequencer) primitive.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "accounts": ("AccountBook",),
    "one_asset": ("OneAssetServer",),
    "k_asset": ("KAssetReplica",),
})
