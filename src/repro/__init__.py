"""repro — a reproduction of "How Hard is Asynchronous Weight Reassignment?" (ICDCS 2023).

The package implements the paper's restricted pairwise weight reassignment
protocol and the dynamic-weighted atomic storage built on it, together with
every substrate they need (a deterministic asynchronous simulation, quorum
systems, reliable broadcast, consensus and total-order baselines, asset
transfer, monitoring) and the baselines the paper compares against.

Quick start::

    from repro import SystemConfig, build_dynamic_cluster

    config = SystemConfig.uniform(5, f=1)
    cluster = build_dynamic_cluster(config)
    client = cluster.any_client()

    async def demo():
        await client.write("hello")
        await cluster.servers["s1"].transfer("s2", 0.25)   # reassign voting power
        return await client.read()

    print(cluster.loop.run_until_complete(demo()))

See ``docs/ARCHITECTURE.md`` ("Modules ↔ paper sections") for the full system
inventory and the README's scenario catalogue for every experiment.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "core.change": ("Change", "ChangeSet", "initial_changes"),
    "core.spec": (
        "SystemConfig", "check_integrity", "check_p_integrity", "check_rp_integrity",
    ),
    "core.protocol": ("ReassignmentServer", "TransferOutcome", "read_changes"),
    "core.storage": ("DynamicWeightedStorageServer", "DynamicWeightedStorageClient"),
    "core.reductions": (
        "OracleWeightReassignment", "OraclePairwiseReassignment", "algorithm1_propose",
        "algorithm2_propose", "paper_initial_weights",
    ),
    "net.simloop": ("SimLoop", "gather"),
    "net.network": ("Network",),
    "net.process": ("Process",),
    "net.latency": (
        "ConstantLatency", "UniformLatency", "LogNormalLatency", "PerLinkLatency",
        "WanMatrixLatency", "SlowdownLatency",
    ),
    "quorum.majority": ("MajorityQuorumSystem",),
    "quorum.weighted": ("WeightedMajorityQuorumSystem",),
    "quorum.availability": ("wmqs_is_available",),
    "sim.cluster": ("build_dynamic_cluster", "build_static_cluster"),
    "sim.workload": ("uniform_workload",),
    "workloads.generator": ("WorkloadGenerator",),
    "workloads.stats": ("workload_stats",),
    "sim.runner": ("run_workload",),
})
__all__.insert(0, "__version__")
