"""Atomic-storage baselines.

* :mod:`repro.storage.abd` — the classical multi-writer ABD register [26]
  parameterised by a static quorum system; instantiated with
  :class:`~repro.quorum.majority.MajorityQuorumSystem` it is the MQS baseline
  of the paper's introduction, with a static
  :class:`~repro.quorum.weighted.WeightedMajorityQuorumSystem` it is the
  static-weight WMQS storage (WHEAT-style) the dynamic variant improves on.
* :mod:`repro.storage.reconfigurable` — a simplified reconfigurable atomic
  storage used for the Section VIII availability comparison (E8).
* :mod:`repro.storage.sharded` — key-sharded composition: N independent
  register instances (any of the flavours above, via a common factory)
  behind a keyed ``read(key)``/``write(value, key)`` facade, each shard
  carrying its own quorum weights and reassignment state.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "abd": ("StaticQuorumStorageServer", "StaticQuorumStorageClient"),
    "reconfigurable": ("ReconfigurableStorageServer", "ReconfigurableStorageClient"),
    "sharded": (
        "ShardFactory", "DynamicWeightedShardFactory", "StaticQuorumShardFactory",
        "ReconfigurableShardFactory", "ShardedRecord", "ShardedStore",
        "base_process_name", "expand_process_names", "shard_config", "shard_factory",
        "shard_for_key", "shard_process_name",
    ),
})
