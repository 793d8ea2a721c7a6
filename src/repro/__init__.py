"""repro — a reproduction of "How Hard is Asynchronous Weight Reassignment?" (ICDCS 2023).

The package implements the paper's restricted pairwise weight reassignment
protocol and the dynamic-weighted atomic storage built on it, together with
every substrate they need (a deterministic asynchronous simulation, quorum
systems, reliable broadcast, consensus and total-order baselines, asset
transfer, monitoring) and the baselines the paper compares against.

Quick start::

    from repro import SystemConfig, build_dynamic_cluster

    config = SystemConfig.uniform(5, f=1)
    with build_dynamic_cluster(config) as cluster:   # leaving it frees the world
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
        "SystemConfig", "check_integrity", "check_rp_integrity", "c2_holds",
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
        "SlowdownLatency",
    ),
    "quorum.majority": ("MajorityQuorumSystem",),
    "quorum.weighted": ("WeightedMajorityQuorumSystem", "smallest_quorum_size"),
    "sim.cluster": ("build_dynamic_cluster",),
    "workloads.generator": ("WorkloadGenerator",),
    "workloads.stats": ("workload_stats",),
    "sim.runner": ("run_workload",),
})
__all__.insert(0, "__version__")
