"""Tests for key-sharded storage: routing, metrics, spec integration, scenarios.

The satellite requirements this file pins down:

* shard routing is deterministic under fixed seeds (stable hash, identical
  results run-to-run and across serial/parallel executions);
* zipfian keys yield measurably higher shard-load variance than uniform keys
  at equal operation counts;
* per-shard state is genuinely independent (weights, transfers, atomicity).
"""

from __future__ import annotations

import pytest

from tests.conftest import check_atomic_history, history_from_records
from repro.core.spec import SystemConfig
from repro.core.storage import DynamicWeightedStorageClient
from repro.errors import ConfigurationError
from repro.experiments import (
    ClusterSpec,
    KeySpec,
    LatencySpec,
    ScenarioSpec,
    TransferEvent,
    WorkloadSpec,
    execute_many,
    expand_grid,
    get_scenario,
    run_spec,
)
from repro.sim.cluster import FLAVOURS, build_cluster
from repro.sim.metrics import imbalance_summary, summarize_shard_loads
from repro.sim.runner import run_workload
from repro.storage.abd import StaticQuorumStorageClient
from repro.storage.sharded import (
    ShardedStore,
    base_process_name,
    expand_process_names,
    shard_config,
    shard_for_key,
    shard_process_name,
)
from repro.workloads.arrivals import ClosedLoopArrivals
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.keys import UniformKeys, ZipfianKeys


# ---------------------------------------------------------------------------
# Routing: stable, deterministic, total
# ---------------------------------------------------------------------------


def test_shard_for_key_is_stable_across_runs():
    # Golden values: the FNV-1a routing must never drift between versions or
    # processes, otherwise checked-in baselines and replayed traces break.
    assert shard_for_key("k1", 4) == 3
    assert shard_for_key("k2", 4) == 2
    assert shard_for_key("k1", 2) == 1
    assert [shard_for_key(f"k{i}", 2) for i in (9, 10, 11, 12)] == [0, 1, 1, 1]


def test_shard_for_key_none_and_single_shard():
    assert shard_for_key(None, 8) == 0
    assert shard_for_key("anything", 1) == 0


def test_shard_for_key_range_and_errors():
    for shards in (2, 3, 5, 16):
        for i in range(1, 200):
            assert 0 <= shard_for_key(f"k{i}", shards) < shards
    with pytest.raises(ConfigurationError):
        shard_for_key("k1", 0)


def test_shard_process_names_round_trip():
    assert shard_process_name("s1", 3) == "s1#3"
    assert base_process_name("s1#3") == "s1"
    assert base_process_name("s1") == "s1"
    with pytest.raises(ConfigurationError):
        shard_process_name("s1", -1)


def test_shard_config_renames_and_isolates():
    template = SystemConfig.uniform(3, f=1)
    renamed = shard_config(template, 2)
    assert renamed.servers == ("s1#2", "s2#2", "s3#2")
    assert renamed.f == template.f
    assert renamed.total_initial_weight == template.total_initial_weight
    # The template itself is untouched.
    assert template.servers == ("s1", "s2", "s3")


@pytest.mark.parametrize("flavour", ClusterSpec._bounds["flavour"])
def test_every_admitted_flavour_builds(flavour):
    # One list of flavours: what the spec admits is what the builder builds.
    assert ClusterSpec._bounds["flavour"] == tuple(FLAVOURS)
    ClusterSpec(flavour=flavour).validate()
    with build_cluster(SystemConfig.uniform(3, f=1), flavour) as cluster:
        assert (cluster.flavour, list(cluster.servers)) == (flavour, ["s1", "s2", "s3"])


@pytest.mark.parametrize("flavour", ["reconfigurable", "paxos-flavoured"])
def test_a_flavour_outside_the_table_is_refused_by_spec_and_builder(flavour):
    with pytest.raises(ConfigurationError, match="cluster.flavour"):
        ClusterSpec(flavour=flavour).validate("cluster.")
    with pytest.raises(ConfigurationError, match=f"unknown storage flavour '{flavour}'"):
        build_cluster(SystemConfig.uniform(3, f=1), flavour)


# ---------------------------------------------------------------------------
# The keyed facade: per-key reads/writes land on the owning shard
# ---------------------------------------------------------------------------


def _keys_on_distinct_shards(shards: int):
    """Two key names living on different shards (search is deterministic)."""
    first = "k1"
    target = shard_for_key(first, shards)
    for i in range(2, 100):
        candidate = f"k{i}"
        if shard_for_key(candidate, shards) != target:
            return first, candidate
    raise AssertionError("no key pair on distinct shards found")


@pytest.mark.parametrize(
    "flavour",
    ["dynamic-weighted", "static-majority", "static-weighted"],
)
def test_sharded_store_isolates_keys_per_flavour(flavour):
    cluster = build_cluster(
        SystemConfig.uniform(3, f=1), flavour, client_count=1, shards=3
    )
    client = cluster.any_client()
    key_a, key_b = _keys_on_distinct_shards(3)

    async def run():
        await client.write("alpha", key=key_a)
        await client.write("beta", key=key_b)
        return await client.read(key=key_a), await client.read(key=key_b)

    value_a, value_b = cluster.loop.run_until_complete(run())
    assert (value_a, value_b) == ("alpha", "beta")
    # The placements recorded by the facade match the routing function.
    assert [entry.shard for entry in client.sharded_history] == [
        shard_for_key(key, 3) for key in (key_a, key_b, key_a, key_b)
    ]


def test_shards_are_independent_registers():
    # A write through one shard must be invisible to the other shard's
    # register: reading a key of an untouched shard returns the initial None.
    cluster = build_cluster(
        SystemConfig.uniform(3, f=1), "dynamic-weighted", client_count=1, shards=2
    )
    client = cluster.any_client()
    key_a, key_b = _keys_on_distinct_shards(2)

    async def run():
        await client.write("only-here", key=key_a)
        return await client.read(key=key_b)

    assert cluster.loop.run_until_complete(run()) is None


def test_sharded_store_rejects_concurrent_operations():
    # A logical client is sequential (the paper's model and the runner's
    # contract); concurrent ops on one facade would make per-shard record
    # attribution ambiguous, so the facade refuses loudly.
    cluster = build_cluster(
        SystemConfig.uniform(3, f=1), "dynamic-weighted", client_count=1, shards=2
    )
    client = cluster.any_client()

    async def run():
        first = cluster.loop.create_task(client.write("a", key="k1"))
        await cluster.loop.sleep(0.1)  # let the write begin its phases
        with pytest.raises(ConfigurationError):
            await client.read(key="k2")
        await first

    cluster.loop.run_until_complete(run())
    # The completed write was recorded; the rejected read was not.
    assert [entry.record.kind for entry in client.sharded_history] == ["write"]


def test_sharded_history_per_shard_is_atomic():
    cluster = build_cluster(
        SystemConfig.uniform(3, f=1), "dynamic-weighted", client_count=3, shards=2
    )
    generator = WorkloadGenerator(
        keys=ZipfianKeys(space=32, s=1.1), arrivals=ClosedLoopArrivals(0.5)
    )
    workload = generator.generate(tuple(cluster.clients), 15, seed=5)
    run_workload(cluster, workload)
    for shard in range(2):
        records = [
            entry.record
            for client in cluster.clients.values()
            for entry in client.sharded_history
            if entry.shard == shard
        ]
        assert records, f"shard {shard} served nothing"
        assert check_atomic_history(history_from_records(records)) == []


# ---------------------------------------------------------------------------
# One cluster shape: a single register is the one-shard cluster
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "flavour, client_class",
    [
        ("dynamic-weighted", DynamicWeightedStorageClient),
        ("static-majority", StaticQuorumStorageClient),
    ],
)
def test_one_shard_is_one_group_under_canonical_names(flavour, client_class):
    config = SystemConfig.uniform(3, f=1)
    with build_cluster(config, flavour, client_count=2) as cluster:
        assert sorted(cluster.network.process_ids()) == ["c1", "c2", "s1", "s2", "s3"]
        [group] = cluster.shards
        assert (group.index, group.config) == (0, config)
        assert group.servers is cluster.servers
        assert list(cluster.servers) == ["s1", "s2", "s3"]
        assert all(type(client) is client_class for client in cluster.clients.values())


def test_more_shards_are_renamed_groups_behind_keyed_clients():
    with build_cluster(
        SystemConfig.uniform(3, f=1), "static-weighted", client_count=2, shards=3
    ) as cluster:
        assert [group.index for group in cluster.shards] == [0, 1, 2]
        for group in cluster.shards:
            assert list(group.servers) == [f"s{i}#{group.index}" for i in (1, 2, 3)]
        assert len(cluster.servers) == 3 * 3
        assert cluster.servers == {
            pid: server for group in cluster.shards
            for pid, server in group.servers.items()
        }
        assert list(cluster.clients) == ["c1", "c2"]
        assert all(type(client) is ShardedStore for client in cluster.clients.values())
        assert "c1#2" in cluster.network.process_ids()


@pytest.mark.parametrize("shards", [1, 3])
def test_a_server_resolves_by_canonical_or_qualified_name(shards):
    with build_cluster(
        SystemConfig.uniform(3, f=1), "dynamic-weighted", shards=shards
    ) as cluster:
        for index, group in enumerate(cluster.shards):
            server = cluster.server(index, "s2")
            assert server is cluster.server(index, f"s2#{index}")
            assert server in group.servers.values()
            assert server.pid == ("s2" if shards == 1 else f"s2#{index}")
        # A name qualified into another shard is not this shard's server.
        with pytest.raises(KeyError):
            cluster.server(0, "s2#1")


# ---------------------------------------------------------------------------
# Imbalance metrics
# ---------------------------------------------------------------------------


def test_imbalance_summary_math():
    summary = imbalance_summary([30, 10, 10, 10])
    assert summary.shards == 4
    assert summary.total_operations == 60
    assert summary.max_load == 30
    assert summary.hottest_shard == 0
    assert summary.hottest_share == pytest.approx(0.5)
    assert summary.fair_share == pytest.approx(0.25)
    assert summary.imbalance_ratio == pytest.approx(2.0)
    assert summary.load_variance == pytest.approx(75.0)


def test_imbalance_summary_tie_breaks_to_lowest_index():
    # Equal maxima resolve to the smallest shard id — the (load, -index)
    # key documented on imbalance_summary.
    assert imbalance_summary([7, 9, 9, 3]).hottest_shard == 1
    assert imbalance_summary([5, 5, 5]).hottest_shard == 0
    assert imbalance_summary([0, 0]).hottest_shard == 0
    # A strictly larger load at a higher index still wins outright.
    assert imbalance_summary([1, 2, 8]).hottest_shard == 2


def test_imbalance_summary_handles_zero_operations():
    summary = imbalance_summary([0, 0])
    assert summary.hottest_share == 0.0
    assert summary.imbalance_ratio == 1.0
    assert summary.load_cv == 0.0


def test_summarize_shard_loads_lists_idle_shards_and_validates():
    summaries, imbalance = summarize_shard_loads(
        [(0, "read", 2.0), (0, "write", 3.0)], shards=3
    )
    assert [s.operations for s in summaries] == [2, 0, 0]
    assert summaries[1].read_latency is None
    assert imbalance.hottest_shard == 0
    with pytest.raises(ConfigurationError):
        summarize_shard_loads([(5, "read", 1.0)], shards=2)


def test_zipfian_routes_more_variance_than_uniform_at_equal_op_counts():
    # Pure routing statistics, no simulation: at identical operation counts
    # the zipfian key stream must concentrate shard load measurably harder
    # than the uniform stream — on every seed we try.
    shards = 4
    for seed in (0, 1, 2):
        variances = {}
        for name, keys in (
            ("zipfian", ZipfianKeys(space=256, s=1.2)),
            ("uniform", UniformKeys(space=256)),
        ):
            generator = WorkloadGenerator(keys=keys, arrivals=ClosedLoopArrivals(1.0))
            workload = generator.generate(("c1", "c2", "c3"), 40, seed=seed)
            loads = [0] * shards
            for op in workload.operations:
                loads[shard_for_key(op.key, shards)] += 1
            assert sum(loads) == 120
            variances[name] = imbalance_summary(loads).load_variance
        assert variances["zipfian"] > 2.0 * variances["uniform"], (seed, variances)


# ---------------------------------------------------------------------------
# Spec integration: the cluster.shards knob
# ---------------------------------------------------------------------------


def _sharded_spec(shards: int = 3, kind: str = "zipfian") -> ScenarioSpec:
    return ScenarioSpec(
        name="sharded-test",
        cluster=ClusterSpec(n=3, f=1, client_count=2, shards=shards),
        workload=WorkloadSpec(
            operations_per_client=10, keys=KeySpec(kind=kind, space=64, zipf_s=1.3)
        ),
        seed=9,
    )


def test_run_spec_sharded_reports_breakdown_and_weights():
    result = run_spec(_sharded_spec())
    assert len(result["shards"]) == 3
    assert sum(entry["operations"] for entry in result["shards"]) == result["operations"]
    assert result["imbalance"]["shards"] == 3
    assert set(result["shard_weights"]) == {"0", "1", "2"}
    for weights in result["shard_weights"].values():
        assert set(weights) == {"s1", "s2", "s3"}
    # Unsharded runs keep the flat result shape (no per-shard blocks).
    flat = run_spec(_sharded_spec(shards=1))
    assert "shards" not in flat and "imbalance" not in flat and "weights" in flat


def test_run_spec_sharded_routing_is_deterministic():
    first = run_spec(_sharded_spec())
    second = run_spec(_sharded_spec())
    assert first == second


def test_cluster_shards_is_sweepable_and_parallel_safe():
    runs = expand_grid(
        "quickstart",
        grid={"cluster.shards": [1, 2]},
        base={"workload.operations_per_client": 3},
    )
    serial = execute_many(runs, workers=1)
    parallel = execute_many(runs, workers=2)
    assert [r.result for r in serial] == [r.result for r in parallel]
    sharded = next(
        r.result for r in serial if dict(r.params)["cluster.shards"] == 2
    )
    assert sharded["imbalance"]["shards"] == 2


def test_sharded_transfer_targets_one_shard_only():
    spec = _sharded_spec(shards=2)
    spec = ScenarioSpec(
        name=spec.name,
        cluster=spec.cluster,
        workload=spec.workload,
        transfers=(TransferEvent(at=2.0, source="s1", target="s2", delta=0.2, shard=1),),
        seed=spec.seed,
    )
    result = run_spec(spec)
    assert result["transfers"][0]["effective"] is True
    assert result["transfers"][0]["shard"] == 1
    assert result["shard_weights"]["1"]["s1"] == pytest.approx(0.8)
    assert result["shard_weights"]["1"]["s2"] == pytest.approx(1.2)
    # The untouched shard keeps its initial weights.
    assert result["shard_weights"]["0"] == {"s1": 1.0, "s2": 1.0, "s3": 1.0}


def test_sharded_transfer_out_of_range_rejected():
    spec = _sharded_spec(shards=2)
    spec = ScenarioSpec(
        name=spec.name,
        cluster=spec.cluster,
        workload=spec.workload,
        transfers=(TransferEvent(at=2.0, source="s1", target="s2", delta=0.2, shard=5),),
    )
    with pytest.raises(ConfigurationError):
        run_spec(spec)


def test_expand_process_names_canonical_vs_qualified():
    # Canonical names fan out to every shard (co-located machine model);
    # qualified names pass through and target one shard's instance.
    assert expand_process_names(("s1",), 3) == ("s1#0", "s1#1", "s1#2")
    assert expand_process_names(("s1#2", "s4"), 2) == ("s1#2", "s4#0", "s4#1")
    assert expand_process_names(("s1", "c2"), 1) == ("s1", "c2")
    with pytest.raises(ConfigurationError):
        expand_process_names(("s1",), 0)


def test_sharded_crash_schedule_with_canonical_names():
    # Regression: `faults.crashes` naming canonical servers must keep
    # working when the scenario is swept over cluster.shards — the crash
    # takes that server's instance in every shard, and the store stays live
    # as long as each shard loses at most f servers.
    result = get_scenario("crash-resilience").execute(
        {"cluster.shards": 2, "workload.operations_per_client": 5}
    )
    assert result["operations"] == 10
    assert result["imbalance"]["shards"] == 2
    # Both crashed machines are gone from every shard's surviving view, so
    # the weight report comes from a surviving server of each shard.
    for weights in result["shard_weights"].values():
        assert set(weights) == {"s1", "s2", "s3", "s4", "s5"}


def test_sharded_latency_slow_with_canonical_names_degrades():
    # Regression: latency.slow=("s1",...) must not silently stop degrading
    # when the cluster shards — canonical names expand to every shard.
    def median_read(slow):
        spec = ScenarioSpec(
            name="slow-test",
            cluster=ClusterSpec(n=3, f=1, client_count=2, shards=2),
            workload=WorkloadSpec(operations_per_client=6),
            latency=LatencySpec(kind="constant", value=1.0, slow=slow,
                                slow_factor=10.0),
            seed=4,
        )
        return run_spec(spec)["read_latency"]["median"]

    degraded = median_read(("s1", "s2"))
    healthy = median_read(())
    assert degraded > 2.0 * healthy


def test_sharded_latency_slow_qualified_name_targets_one_shard():
    model = LatencySpec(
        kind="constant", value=1.0, slow=("s1#0",), slow_factor=8.0
    ).build(shards=4)
    assert model.slow == frozenset({"s1#0"})
    expanded = LatencySpec(
        kind="constant", value=1.0, slow=("s1",), slow_factor=8.0
    ).build(shards=2)
    assert expanded.slow == frozenset({"s1#0", "s1#1"})


def test_invalid_shard_counts_rejected():
    with pytest.raises(ConfigurationError):
        run_spec(_sharded_spec(shards=0))
    with pytest.raises(ConfigurationError):
        build_cluster(SystemConfig.uniform(3, f=1), "dynamic-weighted", shards=0)


# ---------------------------------------------------------------------------
# The catalogue scenarios (the acceptance claims, pinned as tests)
# ---------------------------------------------------------------------------


def test_sharded_zipfian_imbalance_scenario_claims():
    result = get_scenario("sharded-zipfian-imbalance").execute()
    fair = result["fair_share"]
    rows = {row["keys"]: row for row in result["rows"]}
    # Equal op counts in both runs.
    assert sum(rows["zipfian"]["shard_loads"]) == sum(rows["uniform"]["shard_loads"])
    # Zipfian keys concentrate load well above the fair share ...
    assert rows["zipfian"]["hottest_share"] > 1.5 * fair
    # ... while uniform keys stay close to it ...
    assert rows["uniform"]["hottest_share"] < 1.35 * fair
    # ... and the skewed run is strictly more imbalanced on every axis.
    assert rows["zipfian"]["hottest_share"] > rows["uniform"]["hottest_share"]
    assert rows["zipfian"]["load_variance"] > rows["uniform"]["load_variance"]


def test_sharded_hotspot_reassignment_scenario_claims():
    result = get_scenario("sharded-hotspot-reassignment").execute()
    hot_before = result["hot_shard_before"]
    hot_after = result["hot_shard_after"]
    # The hotspot really moves to a different shard ...
    assert hot_before != hot_after
    loads_after = result["shard_loads_after_shift"]
    assert loads_after[hot_after] == max(loads_after)
    # ... and only the newly-hot (and slowed) shard's controllers act:
    transfers = result["transfers_attempted_by_shard"]
    assert transfers[str(hot_after)] > 0
    cold_shards = [s for s in transfers if s != str(hot_after)]
    for shard in cold_shards:
        assert transfers[shard] == 0
        assert all(
            weight == pytest.approx(1.0)
            for weight in result["shard_weights"][shard].values()
        )
    # The slowed servers shed weight to their healthy shard-mates.
    assert result["slowed_servers_weight"] < 2.0
    total = sum(result["shard_weights"][str(hot_after)].values())
    assert total == pytest.approx(5.0)
