"""Spec v2: the uniform section protocol, MonitoringSpec/FaultSpec, spec files.

Covers the acceptance surface of the Spec v2 redesign:

* per-section serialization round trips (``to_dict``/``from_dict`` inverses),
* unknown-key rejection, the removed ``failures`` spelling of ``faults``
  included,
* dotted-path flatten/expand inverses shared by every section,
* ``validate()`` catching semantic problems without building anything,
* the declarative :class:`MonitoringSpec` reproducing the registered
  ``hotspot-shift-monitoring`` scenario result-for-result, and each monitored
  catalogue scenario running the spec its ``examples/specs/`` file spells,
* :class:`FaultSpec` crash/recover schedules and partition windows,
* the checked-in ``examples/specs/*.json`` files and the CLI ``--spec`` path.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.experiments.catalogue.case_studies import dynamic_storage_adaptation_spec
from repro.experiments.catalogue.monitoring import hotspot_shift_monitoring_spec
from repro.experiments.catalogue.sharded import sharded_hotspot_reassignment_spec
from repro.experiments.cli import main
from repro.experiments.registry import get_scenario, register
from repro.experiments.sections import SpecSection, unflatten
from repro.experiments.spec import (
    ArrivalSpec,
    ClusterSpec,
    FaultSpec,
    KeySpec,
    LatencySpec,
    MixSpec,
    MonitoringSpec,
    PartitionSpec,
    PhaseSpec,
    PolicySpec,
    ScenarioSpec,
    TransferEvent,
    WorkloadSpec,
    load_spec_file,
    run_spec,
)
from repro.net.latency import PerLinkLatency
from tests.conftest import pending_events

REPO_ROOT = Path(__file__).resolve().parent.parent
SPEC_DIR = REPO_ROOT / "examples" / "specs"

# One non-default instance per section: every field departs from its default
# where practical, so a broken field round-trip cannot hide behind defaults.
SECTION_SAMPLES = (
    LatencySpec(kind="lognormal", median=2.0, sigma=0.5, slow=("s1", "s2#1"),
                slow_factor=4.0, slow_start=3.0, slow_end=9.0,
                delays=(("s1", 1.0), ("s5#1", 30.0))),
    ClusterSpec(flavour="static-weighted", n=3, f=1, client_count=4,
                initial_weights=(("s1", 1.2), ("s2", 1.0), ("s3", 0.8)), shards=2),
    KeySpec(kind="hotspot", space=64, zipf_s=1.4, hot_fraction=0.25,
            hot_weight=0.8, offset=8),
    ArrivalSpec(kind="onoff", mean_think_time=2.0, rate=3.0, burst_rate=8.0,
                burst_length=2.0, idle_time=4.0),
    MixSpec(read_ratio=0.9, keys_per_op=3),
    PhaseSpec(at=12.0, overrides=(("keys.offset", 8), ("mix.read_ratio", 1.0))),
    WorkloadSpec(operations_per_client=7,
                 keys=KeySpec(kind="zipfian", space=32),
                 arrivals=ArrivalSpec(kind="poisson", rate=2.0),
                 mix=MixSpec(read_ratio=0.25),
                 phases=(PhaseSpec(at=5.0, overrides=(("keys.space", 8),)),)),
    PolicySpec(kind="wheat", threshold=0.1, margin=0.02),
    MonitoringSpec(enabled=True, interval=3.0, rounds=4, window=16,
                   ewma_alpha=0.5, policy=PolicySpec(threshold=0.2),
                   gain=0.2, scope="global", prober="probe"),
    PartitionSpec(at=4.0, groups=(("s1", "s2"), ("s3",)), heal_at=9.0),
    FaultSpec(crashes=(("s4", 10.0),), recoveries=(("s4", 20.0),),
              partitions=(PartitionSpec(at=4.0, groups=(("s1", "s2"),),
                                        heal_at=9.0),)),
    TransferEvent(at=5.0, source="s1", target="s2", delta=0.25, shard=1),
    ScenarioSpec(name="v2-sample", description="round-trip sample",
                 cluster=ClusterSpec(n=7, f=2),
                 workload=WorkloadSpec(operations_per_client=3),
                 latency=LatencySpec(kind="uniform", low=0.2, high=0.8),
                 monitoring=MonitoringSpec(enabled=True, rounds=2),
                 faults=FaultSpec(crashes=(("s7", 6.0),)),
                 transfers=(TransferEvent(at=2.0, source="s1", target="s2",
                                          delta=0.1),),
                 seed=11, max_time=500.0),
)


class TestSectionProtocol:
    @pytest.mark.parametrize("section", SECTION_SAMPLES,
                             ids=lambda s: type(s).__name__)
    def test_from_dict_inverts_to_dict(self, section):
        assert type(section).from_dict(section.to_dict()) == section

    @pytest.mark.parametrize("section", SECTION_SAMPLES,
                             ids=lambda s: type(s).__name__)
    def test_to_dict_inverts_from_dict(self, section):
        payload = section.to_dict()
        assert type(section).from_dict(payload).to_dict() == payload

    @pytest.mark.parametrize("section", SECTION_SAMPLES,
                             ids=lambda s: type(s).__name__)
    def test_to_dict_is_json_serialisable(self, section):
        rehydrated = type(section).from_dict(
            json.loads(json.dumps(section.to_dict()))
        )
        assert rehydrated == section

    @pytest.mark.parametrize("section", SECTION_SAMPLES,
                             ids=lambda s: type(s).__name__)
    def test_samples_validate(self, section):
        assert section.validate() is section

    @pytest.mark.parametrize("section", SECTION_SAMPLES,
                             ids=lambda s: type(s).__name__)
    def test_unknown_keys_rejected(self, section):
        payload = section.to_dict()
        payload["bogus_key"] = 1
        with pytest.raises(ConfigurationError, match="unknown key 'bogus_key'"):
            type(section).from_dict(payload)

    def test_nested_unknown_keys_rejected(self):
        payload = ScenarioSpec(name="t").to_dict()
        payload["workload"]["keys"]["bogus"] = 1
        with pytest.raises(ConfigurationError, match="unknown key 'bogus'"):
            ScenarioSpec.from_dict(payload)

    def test_the_retired_wheat_surplus_is_an_unknown_key(self):
        # monitoring.policy.extra_servers never reached the WHEAT policy.
        payload = ScenarioSpec(name="t").to_dict()
        payload["monitoring"]["policy"]["extra_servers"] = 1
        with pytest.raises(ConfigurationError, match="unknown key 'extra_servers'"):
            ScenarioSpec.from_dict(payload)

    def test_every_section_implements_the_protocol(self):
        for section in SECTION_SAMPLES:
            assert isinstance(section, SpecSection)
            assert dataclasses.is_dataclass(section)


class TestFlattenExpand:
    SPEC = SECTION_SAMPLES[-1]

    def test_with_overrides_of_flatten_is_identity(self):
        # flatten() and with_overrides() are inverses: re-applying a spec's
        # own flat parameters reproduces the spec exactly.
        flat = self.SPEC.flatten()
        assert self.SPEC.with_overrides(flat) == self.SPEC

    def test_unflatten_inverts_flatten_nesting(self):
        flat = {"cluster.n": 5, "workload.keys.zipf_s": 1.2, "seed": 3}
        assert unflatten(flat) == {
            "cluster": {"n": 5},
            "workload": {"keys": {"zipf_s": 1.2}},
            "seed": 3,
        }

    def test_unflatten_rejects_leaf_collisions(self):
        with pytest.raises(ConfigurationError, match="leaf"):
            unflatten({"cluster": 1, "cluster.n": 5})

    def test_flatten_exposes_monitoring_and_faults_paths(self):
        flat = ScenarioSpec(name="t").flatten()
        for path in ("monitoring.enabled", "monitoring.interval",
                     "monitoring.policy.kind", "monitoring.policy.threshold",
                     "monitoring.gain", "monitoring.scope",
                     "faults.crashes", "faults.recoveries", "faults.partitions"):
            assert path in flat

    def test_registered_spec_defaults_carry_new_paths(self):
        defaults = get_scenario("quickstart").defaults
        assert "monitoring.policy.threshold" in defaults
        assert "faults.crashes" in defaults


class TestTheFailuresSpellingIsGone:
    """``failures`` was a legacy alias of ``faults``; it is now an unknown
    name like any other, in a spec file, an override and on the CLI."""

    def test_a_spec_file_with_a_failures_key_is_refused(self, tmp_path):
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(
            {"name": "t", "failures": {"crashes": [["s5", 4.0]]}}))
        with pytest.raises(ConfigurationError, match="unknown key 'failures'"):
            load_spec_file(str(path))

    def test_a_failures_override_is_refused(self):
        with pytest.raises(ConfigurationError,
                           match="unknown parameter 'failures.crashes'"):
            ScenarioSpec(name="t").with_overrides({"failures.crashes": []})

    def test_the_cli_exits_2_on_a_failures_param(self, capsys):
        assert main(["run", "crash-resilience", "-p", "failures.crashes=[]"]) == 2
        assert "unknown parameter 'failures.crashes'" in capsys.readouterr().err

    def test_the_facade_exports_no_failure_spec(self):
        import repro.experiments

        assert "FailureSpec" not in repro.experiments.__all__
        with pytest.raises(ImportError):
            from repro.experiments import FailureSpec  # noqa: F401


class TestValidate:
    def test_validate_catches_bad_kinds_without_building(self):
        for spec, match in (
            (ScenarioSpec(name="t", latency=LatencySpec(kind="bogus")),
             "latency.kind must be one of"),
            (ScenarioSpec(name="t", workload=WorkloadSpec(keys=KeySpec(kind="no"))),
             "workload.keys.kind must be one of"),
            (ScenarioSpec(name="t",
                          monitoring=MonitoringSpec(policy=PolicySpec(kind="x"))),
             "monitoring.policy.kind must be one of"),
            (ScenarioSpec(name="t", monitoring=MonitoringSpec(scope="everywhere")),
             "monitoring.scope must be one of"),
            (ScenarioSpec(name="t", faults=FaultSpec(crashes=(("s1", -1.0),))),
             "a finite number >= 0"),
        ):
            with pytest.raises(ConfigurationError, match=match):
                spec.validate()

    def test_validate_rejects_overlapping_partition_windows(self):
        faults = FaultSpec(partitions=(
            PartitionSpec(at=1.0, groups=(("s1",),), heal_at=5.0),
            PartitionSpec(at=4.0, groups=(("s2",),), heal_at=8.0),
        ))
        with pytest.raises(ConfigurationError, match="overlap"):
            faults.validate()

    def test_validate_rejects_bad_policy_threshold(self):
        with pytest.raises(ConfigurationError, match="threshold"):
            PolicySpec(threshold=0.0).validate()

    def test_monitoring_requires_dynamic_flavour(self):
        spec = ScenarioSpec(
            name="t",
            cluster=ClusterSpec(flavour="static-majority", n=4, client_count=1),
            monitoring=MonitoringSpec(enabled=True),
        )
        with pytest.raises(ConfigurationError, match="dynamic-weighted"):
            run_spec(spec)

    @pytest.mark.parametrize("max_time", [0, -1, 0.0, float("nan"),
                                          float("inf"), "abc", True])
    def test_max_time_is_none_or_a_finite_positive_number(self, max_time):
        spec = ScenarioSpec(name="t", max_time=max_time)
        with pytest.raises(ConfigurationError, match="max_time") as excinfo:
            spec.validate()
        assert excinfo.value.path == "max_time"
        for fine in (None, 1, 0.5, 10_000.0):
            ScenarioSpec(name="t", max_time=fine).validate()


#: The processes of E6's world, and the table it once built by hand: each
#: server's one-way delay written on its links to every other process,
#: server by server, so a link between two servers kept the later server's
#: (the larger) delay; unlisted links, a process's own included, took 1.0.
CASE_STUDY_PROCESSES = ("c1", "c2", "s1", "s2", "s3", "s4", "s5")


def _hand_built_case_study_table():
    table = {}
    for server, one_way in {"s1": 1.0, "s2": 1.0, "s3": 4.0, "s4": 5.0,
                            "s5": 30.0}.items():
        for peer in CASE_STUDY_PROCESSES:
            if peer != server:
                table[(peer, server)] = one_way
                table[(server, peer)] = one_way
    return table


class TestPerLinkLatency:
    def test_per_link_is_the_case_studys_hand_built_table(self):
        spec = dynamic_storage_adaptation_spec("dynamic-weighted", 150.0, 8.0, 60, 11)
        assert spec.latency.kind == "per-link"
        flat = dataclasses.replace(spec.latency, slow=()).build(seed=11)
        flat.jitter = 0.0
        table = _hand_built_case_study_table()
        for sender in CASE_STUDY_PROCESSES:
            for receiver in CASE_STUDY_PROCESSES:
                assert flat.delay(sender, receiver, 0.0) == table.get(
                    (sender, receiver), 1.0), (sender, receiver)

    def test_jitter_draws_as_the_hand_built_model_drew(self):
        spec = dynamic_storage_adaptation_spec("dynamic-weighted", 150.0, 8.0, 60, 11)
        model = dataclasses.replace(spec.latency, slow=()).build(seed=11)
        reference = PerLinkLatency(
            _hand_built_case_study_table(), default=1.0, jitter=0.02, seed=11)
        links = [(a, b) for a in CASE_STUDY_PROCESSES for b in CASE_STUDY_PROCESSES]
        for sender, receiver in links * 3:
            assert model.delay(sender, receiver, 0.0) == reference.delay(
                sender, receiver, 0.0)

    def test_canonical_names_resolve_per_shard_as_slow_does(self):
        latency = LatencySpec(kind="per-link", value=0.5,
                              delays=(("s1", 3.0), ("s2#1", 5.0)))
        model = latency.validate().build(shards=2)
        model.jitter = 0.0
        assert model.delay("c1", "s1#0", 0.0) == 3.0
        assert model.delay("s1#1", "c1", 0.0) == 3.0
        assert model.delay("c1", "s2#1", 0.0) == 5.0
        assert model.delay("c1", "s2#0", 0.0) == 0.5
        assert model.delay("s1#1", "s2#1", 0.0) == 5.0

    @pytest.mark.parametrize("delays", [
        (("s1", -1.0),), (("s1", float("nan")),), (("s1", "far"),), (("s1",),),
    ])
    def test_bad_delays_fail_validation(self, delays):
        latency = LatencySpec(kind="per-link", delays=delays)
        with pytest.raises(ConfigurationError, match="latency.delays") as excinfo:
            ScenarioSpec(name="t", latency=latency).validate()
        assert excinfo.value.path == "latency.delays[0]"


class TestDegradationWindows:
    """``slow`` and ``degraded`` each wrap the model once, slow inside."""

    LATENCY = LatencySpec(
        kind="constant", value=1.0, slow=("s1",), slow_factor=2.0,
        degraded=("s1", "s2"), degraded_factor=3.0, degraded_stall=0.5,
        degraded_start=5.0,
    )

    def test_both_windows_compose_in_closed_form(self):
        model = self.LATENCY.validate().build()
        assert model.delay("s1", "c1", 4.0) == 2.0
        assert model.delay("s1", "c1", 5.0) == 2.0 * 3.0 + 0.5
        assert model.delay("s2", "c1", 4.0) == 1.0
        assert model.delay("s2", "c1", 5.0) == 3.5
        assert model.delay("s3", "c1", 5.0) == 1.0

    def test_canonical_degraded_names_hit_every_shard(self):
        model = self.LATENCY.validate().build(shards=2)
        for shard in ("s1#0", "s1#1"):
            assert model.delay(shard, "c1", 4.0) == 2.0
            assert model.delay("c1", shard, 6.0) == 6.5
        assert model.delay("s2#1", "c1", 6.0) == 3.5
        assert model.delay("s3#0", "c1", 6.0) == 1.0


class TestMonitoringSpec:
    def test_spec_run_reproduces_hotspot_shift_monitoring_exactly(self):
        # The acceptance bar for the MonitoringSpec section: the declarative
        # form runs the *same simulation* as the registered scenario.
        fn_result = get_scenario("hotspot-shift-monitoring").execute()
        spec_result = run_spec(
            load_spec_file(str(SPEC_DIR / "hotspot-shift-monitoring.json"))
        )
        for key in ("operations", "duration", "messages", "weights", "workload"):
            assert spec_result[key] == fn_result[key], key
        assert (spec_result["monitoring"]["transfers_attempted"]
                == fn_result["transfers_attempted"])

    def test_monitoring_block_absent_when_disabled(self):
        result = run_spec(ScenarioSpec(
            name="t", cluster=ClusterSpec(n=4, f=1, client_count=1),
            workload=WorkloadSpec(operations_per_client=2),
        ))
        assert "monitoring" not in result

    def test_threshold_is_sweepable(self):
        spec = load_spec_file(str(SPEC_DIR / "hotspot-shift-monitoring.json"))
        spec = spec.with_overrides({"workload.operations_per_client": 4})
        tight = run_spec(spec.with_overrides({"monitoring.policy.threshold": 0.05}))
        loose = run_spec(spec.with_overrides({"monitoring.policy.threshold": 5.0}))
        assert loose["monitoring"]["transfers_attempted"] == 0
        assert (tight["monitoring"]["transfers_attempted"]
                >= loose["monitoring"]["transfers_attempted"])

    def test_sharded_global_scope_moves_weight_in_every_shard(self):
        result = run_spec(
            load_spec_file(str(SPEC_DIR / "sharded-global-monitoring.json"))
        )
        by_shard = result["monitoring"]["transfers_attempted_by_shard"]
        assert set(by_shard) == {"0", "1"}
        assert all(count > 0 for count in by_shard.values())
        for weights in result["shard_weights"].values():
            # The globally-degraded machine s1 lost weight in every shard.
            assert weights["s1"] < 1.0


class TestCatalogueScenariosAreSpecs:
    """A storage scenario is a spec plus a row: the spec it runs (for E6,
    its dynamic arm) is the one in ``examples/specs/``, so ``run --spec``
    runs the same world."""

    BUILDERS = {
        "dynamic-storage-adaptation": functools.partial(
            dynamic_storage_adaptation_spec, "dynamic-weighted"),
        "hotspot-shift-monitoring": hotspot_shift_monitoring_spec,
        "sharded-hotspot-reassignment": sharded_hotspot_reassignment_spec,
    }

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_one_spec_two_spellings(self, name):
        def body(spec):
            data = spec.to_dict()
            del data["name"], data["description"]
            return data

        built = self.BUILDERS[name](**get_scenario(name).defaults)
        spelled = load_spec_file(str(SPEC_DIR / f"{name}.json"))
        assert body(spelled) == body(built)

    def test_the_sharded_spec_baseline_is_the_function_baseline(self):
        def result(path):
            return json.loads(path.read_text(encoding="utf-8"))[0]["result"]

        baselines = REPO_ROOT / "benchmarks" / "baselines"
        name = "sharded-hotspot-reassignment.json"
        by_spec = result(baselines / "specs" / name)
        by_function = result(baselines / name)
        for key in ("operations", "duration", "messages", "shard_weights", "workload"):
            assert by_spec[key] == by_function[key], key

    def test_bad_parameters_fail_before_a_run(self):
        with pytest.raises(ConfigurationError, match="at least 2 shards"):
            get_scenario("sharded-hotspot-reassignment").execute({"shards": 1})
        with pytest.raises(ConfigurationError, match="monitoring.rounds"):
            get_scenario("hotspot-shift-monitoring").execute({"control_rounds": 0})
        with pytest.raises(ConfigurationError, match="operations_per_client"):
            get_scenario("sharded-hotspot-reassignment").execute({"operations": 0})


class TestFaultSpec:
    def test_crash_and_recover_round_trip_on_the_network(self):
        spec = ScenarioSpec(
            name="t",
            cluster=ClusterSpec(n=5, f=2, client_count=1),
            workload=WorkloadSpec(operations_per_client=8,
                                  arrivals=ArrivalSpec(mean_think_time=3.0)),
            faults=FaultSpec(crashes=(("s4", 2.0),), recoveries=(("s4", 12.0),)),
            max_time=10_000.0,
        )
        result = run_spec(spec)
        assert result["operations"] == 8
        # The recovered server answers again: its weight view is readable
        # via the run's weights block (s4 is back among the surviving).
        assert "s4" in result["weights"]

    def test_partition_window_holds_and_releases(self):
        # Partition a server off mid-run; the window heals and the run
        # completes with every operation served.
        result = run_spec(
            load_spec_file(str(SPEC_DIR / "crash-recover-partition.json"))
        )
        assert result["operations"] == 24
        assert result["duration"] > 20.0  # the run outlives the heal

    def test_spec_level_partition_expands_canonical_names(self):
        # s1 names the machine: every shard's s1 instance joins the one group.
        from repro.core.spec import SystemConfig
        from repro.sim.cluster import build_cluster
        cluster = build_cluster(
            SystemConfig.uniform(3, f=1), "dynamic-weighted", shards=2
        )
        FaultSpec(
            partitions=(PartitionSpec(at=1.0, groups=(("s1",),), heal_at=2.0),)
        ).arm(cluster)
        cluster.loop.run(until=1.5)
        network = cluster.network
        assert not network._crosses_partition("s1#0", "s1#1")
        for shard in ("#0", "#1"):
            assert network._crosses_partition("s1" + shard, "s2" + shard)
        cluster.loop.run(until=2.0)
        assert not network._crosses_partition("s1#0", "s2#0")

    def test_overlapping_windows_rejected_whatever_their_order(self):
        # Listed later-window first: the overlap is of times, not of positions.
        with pytest.raises(ConfigurationError, match="overlap"):
            FaultSpec(partitions=(
                PartitionSpec(at=3.0, groups=(("s2",),), heal_at=7.0),
                PartitionSpec(at=1.0, groups=(("s1",),), heal_at=5.0),
            )).validate()

    def test_network_recover_unit(self):
        from repro.core.spec import SystemConfig
        from repro.sim.cluster import build_dynamic_cluster
        cluster = build_dynamic_cluster(SystemConfig.uniform(3, f=1))
        cluster.network.crash("s2")
        assert cluster.network.is_crashed("s2")
        cluster.network.recover("s2")
        assert not cluster.network.is_crashed("s2")

    def test_crash_recover_crash_replays_in_time_order(self):
        from repro.core.spec import SystemConfig
        from repro.sim.cluster import build_dynamic_cluster
        faults = FaultSpec(crashes=(("s1", 1.0), ("s1", 3.0)),
                           recoveries=(("s1", 2.0),)).validate()
        cluster = build_dynamic_cluster(SystemConfig.uniform(3, f=1))
        faults.arm(cluster)
        cluster.loop.run(until=2.5)
        assert not cluster.network.is_crashed("s1")
        cluster.loop.run(until=4.0)
        assert cluster.network.is_crashed("s1")  # re-crashed: still down

    def test_back_to_back_windows_listed_out_of_order_arm_correctly(self):
        # A window healing at the instant the next one starts must not tear
        # the new partition down, regardless of the order windows were
        # declared in (heal events schedule before same-time partitions).
        from repro.core.spec import SystemConfig
        from repro.sim.cluster import build_dynamic_cluster
        cluster = build_dynamic_cluster(SystemConfig.uniform(3, f=1))
        FaultSpec(partitions=(
            PartitionSpec(at=20.0, groups=(("s1",),), heal_at=30.0),
            PartitionSpec(at=10.0, groups=(("s2",),), heal_at=20.0),
        )).validate().arm(cluster)
        cluster.loop.run(until=25.0)
        assert cluster.network._crosses_partition("s1", "s3")  # window live
        cluster.loop.run(until=31.0)
        assert not cluster.network._crosses_partition("s1", "s3")

    def test_same_instant_crash_and_recover_resolve_alike_everywhere(self):
        # Validation's replay and arm()'s scheduling must agree: a crash at
        # the same instant as a recovery wins in both, so validation refuses
        # the recovery (it would land on an up process) and an armed run
        # leaves the process down.
        from repro.core.spec import SystemConfig
        from repro.sim.cluster import build_dynamic_cluster
        faults = FaultSpec(crashes=(("s1", 5.0),), recoveries=(("s1", 5.0),))
        with pytest.raises(ConfigurationError, match="not down then"):
            faults.validate()
        cluster = build_dynamic_cluster(SystemConfig.uniform(3, f=1))
        faults.arm(cluster)
        cluster.loop.run(until=6.0)
        assert cluster.network.is_crashed("s1")

    def test_monitoring_survives_a_mid_probe_crash(self):
        # A crash landing while a PING is in flight must not stall the loop:
        # the probe's alive count is re-evaluated on every reply.
        spec = ScenarioSpec(
            name="t",
            cluster=ClusterSpec(n=5, f=2, client_count=1),
            workload=WorkloadSpec(operations_per_client=8,
                                  arrivals=ArrivalSpec(mean_think_time=4.0)),
            latency=LatencySpec(kind="constant", value=1.0),
            monitoring=MonitoringSpec(enabled=True, interval=5.0, rounds=4),
            faults=FaultSpec(crashes=(("s5", 5.5),)),  # probe sent at t=5.0
            max_time=10_000.0,
        )
        result = run_spec(spec)
        assert result["monitoring"]["rounds_completed"] == 4

    def test_monitoring_survives_a_crashed_server(self):
        # A crashed server's probe replies never arrive; the loop must wait
        # only for the live ones and keep running every configured round.
        spec = ScenarioSpec(
            name="t",
            cluster=ClusterSpec(n=5, f=2, client_count=1),
            workload=WorkloadSpec(operations_per_client=10,
                                  arrivals=ArrivalSpec(mean_think_time=4.0)),
            monitoring=MonitoringSpec(enabled=True, interval=4.0, rounds=4),
            faults=FaultSpec(crashes=(("s5", 1.0),)),
            max_time=10_000.0,
        )
        result = run_spec(spec)
        assert result["monitoring"]["rounds_completed"] == 4


class TestFaultWindowValidation:
    """Impossible fault schedules fail at build time with the dotted path."""

    def test_recovery_before_crash_rejected(self):
        faults = FaultSpec(crashes=(("s2", 10.0),), recoveries=(("s2", 4.0),))
        with pytest.raises(ConfigurationError,
                           match=r"faults\.recoveries\[0\] recovers 's2'"):
            faults.validate()

    def test_recovery_without_any_crash_rejected(self):
        faults = FaultSpec(recoveries=(("s3", 4.0),))
        with pytest.raises(ConfigurationError,
                           match=r"faults\.recoveries\[0\]"):
            faults.validate()

    def test_recovery_at_crash_instant_rejected(self):
        # Recoveries resolve before crashes at equal times, so a same-instant
        # pair means the recovery fires on an up process.
        faults = FaultSpec(crashes=(("s2", 5.0),), recoveries=(("s2", 5.0),))
        with pytest.raises(ConfigurationError, match="strictly earlier"):
            faults.validate()

    def test_double_crash_same_node_is_allowed(self):
        # Crashing a crashed node is idempotent on the network; the schedule
        # is valid (and exercised end-to-end in test_fault_schedules).
        FaultSpec(crashes=(("s2", 1.0), ("s2", 3.0))).validate()

    def test_outage_recovering_at_or_before_crash_rejected(self):
        # The outage checks its own window; validate() locates it by path.
        for until in (2.0, 1.0):
            spec = ScenarioSpec(name="t", faults=FaultSpec(
                outages=(("s2", 0.5), ("s1", 2.0, until)),
            ))
            with pytest.raises(
                ConfigurationError,
                match=rf"outage recovers at until={until}, at or before its "
                      r"crash at=2\.0",
            ) as caught:
                spec.validate()
            assert caught.value.path == "faults.outages[1].until"

    def test_negative_outage_time_rejected_with_its_path(self):
        with pytest.raises(ConfigurationError, match="a finite number >= 0") as caught:
            ScenarioSpec(name="t", faults=FaultSpec(
                outages=(("s1", -1.0, 2.0),),
            )).validate()
        assert caught.value.path == "faults.outages[0].at"

    def test_outage_without_recovery_is_valid(self):
        FaultSpec(outages=(("s1", 2.0),)).validate()
        FaultSpec(outages=(("s1", 2.0, None),)).validate()

    def test_malformed_outage_entry_rejected(self):
        for bad in ("s1", ("s1",), ("s1", 1.0, 2.0, 3.0)):
            with pytest.raises(
                ConfigurationError,
                match=r"outages\[0\]: cannot build OutageSpec.*\(process, at\[, until\]\)",
            ):
                FaultSpec(outages=(bad,))

    def test_partition_heal_before_start_rejected(self):
        faults = FaultSpec(
            partitions=(PartitionSpec(at=5.0, groups=(("s1",),), heal_at=3.0),)
        )
        with pytest.raises(ConfigurationError,
                           match=r"heal_at=3.0 must be after at=5.0"):
            faults.validate()

    def test_overlapping_partition_windows_name_both_paths(self):
        faults = FaultSpec(partitions=(
            PartitionSpec(at=1.0, groups=(("s1",),), heal_at=5.0),
            PartitionSpec(at=4.0, groups=(("s2",),), heal_at=8.0),
        ))
        with pytest.raises(
            ConfigurationError,
            match=r"faults\.partitions\[0\] and faults\.partitions\[1\] overlap",
        ):
            faults.validate()

    def test_crash_of_unknown_node_fails_before_the_run(self):
        spec = ScenarioSpec(
            name="t",
            cluster=ClusterSpec(n=3, f=1, client_count=1),
            workload=WorkloadSpec(operations_per_client=2),
            faults=FaultSpec(crashes=(("s9", 1.0),)),
        )
        with pytest.raises(
            ConfigurationError,
            match=r"faults\.crashes\[0\] targets unknown process 's9'",
        ):
            run_spec(spec)

    @pytest.mark.parametrize(
        "refused", ["fault target", "trace client", "monitoring trace client"])
    def test_a_refused_run_leaves_no_transfer_unstarted(self, refused, tmp_path):
        # The transfer tasks (and the monitoring control loop) exist when
        # arm() refuses a fault target, or run_workload() a replayed trace's
        # client: closing the world's loop closes their coroutines, so none
        # warns that it was never awaited.
        import gc
        import warnings

        trace = tmp_path / "trace.jsonl"
        trace.write_text('{"client": "c9", "kind": "read"}\n', encoding="utf-8")
        name, params = {
            "fault target": ("quickstart", {"faults.crashes": (("s9", 1.0),)}),
            "trace client": ("quickstart", {"workload.trace": str(trace)}),
            "monitoring trace client": ("hotspot-shift-monitoring",
                                        {"workload.trace": str(trace), "transfers": ()}),
        }[refused]
        spec = load_spec_file(str(SPEC_DIR / f"{name}.json"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ConfigurationError, match="unknown"):
                run_spec(spec.with_overrides(params))
            gc.collect()
        assert [str(warning.message) for warning in caught] == []

    @staticmethod
    def cluster(shards=1):
        from repro.core.spec import SystemConfig
        from repro.sim.cluster import build_cluster
        return build_cluster(
            SystemConfig.uniform(3, f=1), "dynamic-weighted", client_count=1,
            shards=shards,
        )

    def test_unknown_outage_and_partition_targets_named_by_path(self):
        cluster = self.cluster()
        with pytest.raises(ConfigurationError,
                           match=r"faults\.outages\[0\].*'ghost'"):
            FaultSpec(outages=(("ghost", 1.0),)).arm(cluster)
        with pytest.raises(
            ConfigurationError,
            match=r"faults\.partitions\[0\]\.groups\[1\].*'gone'",
        ):
            FaultSpec(partitions=(
                PartitionSpec(at=1.0, groups=(("s1",), ("gone",)), heal_at=2.0),
            )).arm(cluster)
        assert pending_events(cluster.loop) == 0  # refused whole

    def test_arm_expands_sharded_names(self):
        # The shard count is the cluster's: a canonical name crashes the
        # machine, its instance in every shard, and one no shard has fails.
        cluster = self.cluster(shards=2)
        with pytest.raises(ConfigurationError, match="unknown process"):
            FaultSpec(crashes=(("s4", 1.0),)).arm(cluster)
        FaultSpec(crashes=(("s1", 1.0),)).arm(cluster)
        cluster.loop.run(until=2.0)
        network = cluster.network
        assert network.is_crashed("s1#0") and network.is_crashed("s1#1")
        assert not network.is_crashed("s2#0")

    @staticmethod
    def armed(faults):
        from repro.core.spec import SystemConfig
        from repro.sim.cluster import build_dynamic_cluster
        cluster = build_dynamic_cluster(SystemConfig.uniform(3, f=1))
        faults.validate().arm(cluster)
        return cluster

    def test_outage_arms_a_crash_recover_pair(self):
        cluster = self.armed(FaultSpec(outages=(("s2", 3.0, 9.0),)))
        cluster.loop.run(until=4.0)
        assert cluster.network.is_crashed("s2")
        cluster.loop.run(until=10.0)
        assert not cluster.network.is_crashed("s2")

    def test_permanent_outage_never_recovers(self):
        cluster = self.armed(FaultSpec(outages=(("s2", 3.0),)))
        cluster.loop.run(until=1e9)
        assert cluster.network.is_crashed("s2")

    def test_process_in_two_groups_of_one_window_rejected(self):
        faults = FaultSpec(partitions=(
            PartitionSpec(at=1.0, groups=(("s1", "s2"), ("s2", "s3")),
                          heal_at=3.0),
        ))
        with pytest.raises(ConfigurationError, match="'s2', already in groups"
                           r"\[0\]") as caught:
            faults.validate()
        assert caught.value.path == "faults.partitions[0].groups[1]"

    def test_machine_and_its_instance_in_two_groups_rejected_when_sharded(self):
        # s1 and s1#0 are distinct names as given, so validation passes; at
        # two shards s1 expands to s1#0 too, and the target check refuses it.
        faults = FaultSpec(partitions=(
            PartitionSpec(at=1.0, groups=(("s1",), ("s1#0", "s2")),
                          heal_at=3.0),
        )).validate()
        with pytest.raises(ConfigurationError, match="'s1#0', already in "
                           r"groups\[0\]") as caught:
            faults.arm(self.cluster(shards=2))
        assert caught.value.path == "faults.partitions[0].groups[1]"


class TestScheduledTransfersAreReported:
    """Every scheduled transfer has one ``transfers`` entry: finished, raised
    (``error``) or still running after the settle (two nulls)."""

    @staticmethod
    def transfers(**params):
        spec = load_spec_file(str(SPEC_DIR / "quickstart.json"))
        result = run_spec(spec.with_overrides(params))
        assert result["operations"] == 20
        return result["transfers"]

    def test_an_overlapping_transfer_reports_its_error_when_it_raises(self):
        first, second = self.transfers(transfers=(
            (5.0, "s1", "s2", 0.1), (5.1, "s1", "s3", 0.1),
        ))
        assert second["at"] == 5.0 and second["effective"] is True
        assert second["latency"] > 0 and "error" not in second
        assert first == {
            "at": 5.1, "source": "s1", "target": "s3", "delta": 0.1,
            "effective": None, "latency": None,
            "error": "SimulationError: s1 invoked transfer while a previous "
                     "transfer is pending",
        }

    def test_a_crashed_source_reports_its_error(self):
        (entry,) = self.transfers(**{"faults.crashes": (("s1", 1.0),)})
        assert entry["effective"] is None and entry["latency"] is None
        assert entry["error"] == "CrashedProcessError: process s1 has crashed"

    def test_an_unfinished_transfer_is_reported_after_the_settle(self):
        # With s3 and s4 down, s1 hears 2 of the n - f - 1 = 3 acks it needs.
        (entry,) = self.transfers(**{"faults.crashes": (
            ("s3", 4.0), ("s4", 4.0),
        )})
        assert entry == {"at": 5.0, "source": "s1", "target": "s2",
                         "delta": 0.25, "effective": None, "latency": None}

    def test_unfinished_transfers_are_reported_in_schedule_order(self):
        entries = self.transfers(**{
            "faults.crashes": (("s3", 4.0), ("s4", 4.0)),
            "transfers": ((5.0, "s1", "s2", 0.1), (4.5, "s2", "s5", 0.1)),
        })
        assert [(entry["at"], entry["effective"]) for entry in entries] == [
            (5.0, None), (4.5, None),
        ]

    def test_a_sharded_entry_names_its_shard_whatever_its_outcome(self):
        entries = self.transfers(**{
            "cluster.shards": 2,
            "transfers": ((5.0, "s1", "s2", 0.1, 1), (5.1, "s1", "s3", 0.1, 1)),
        })
        assert [(entry["shard"], entry.get("error", "")[:15])
                for entry in entries] == [(1, "SimulationError"), (1, "")]


class TestSpecFiles:
    @staticmethod
    def check_specs_tool():
        import importlib.util
        spec = importlib.util.spec_from_file_location(
            "check_specs", REPO_ROOT / "tools" / "check_specs.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_all_example_spec_files_load_build_and_step(self):
        module = self.check_specs_tool()
        problems = []
        files = sorted(SPEC_DIR.glob("*.json"))
        assert files, "no example spec files found"
        for path in files:
            problems.extend(module.check_spec_file(path))
        assert problems == []

    def test_the_tool_checks_the_files_and_directories_it_is_given(
        self, tmp_path, capsys
    ):
        # How the chaos CI job checks the specs a campaign just emitted.
        module = self.check_specs_tool()
        emitted = tmp_path / "out"
        emitted.mkdir()
        for name in ("quickstart.json", "quickstart-chaos-1.json"):
            (emitted / name).write_bytes((SPEC_DIR / name).read_bytes())
        assert module.main([str(emitted)]) == 0
        assert "2 spec file(s)" in capsys.readouterr().out
        assert module.main([str(emitted / "quickstart.json")]) == 0
        (emitted / "renamed.json").write_bytes(
            (SPEC_DIR / "quickstart.json").read_bytes())
        assert module.main([str(emitted)]) == 1
        assert "renamed.json: spec name 'quickstart'" in capsys.readouterr().err

    def test_quickstart_spec_file_matches_registered_scenario(self):
        spec_result = run_spec(load_spec_file(str(SPEC_DIR / "quickstart.json")))
        assert spec_result == get_scenario("quickstart").execute()

    def test_load_rejects_unknown_keys_and_bad_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x", "bogus": 1}')
        with pytest.raises(ConfigurationError, match="unknown key"):
            load_spec_file(str(bad))
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_spec_file(str(broken))
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_spec_file(str(tmp_path / "missing.json"))


@pytest.fixture
def restore_catalogue_entry():
    """Put a catalogue entry back after a --spec run shadowed its name.

    The CLI registers a spec file under its own name with ``replace=True``;
    simply unregistering afterwards would delete the name for the rest of
    the process (the built-in catalogue only loads once), so the original
    entry is captured up front and re-registered.
    """
    originals = {}

    def capture(name):
        originals[name] = get_scenario(name)

    yield capture
    for entry in originals.values():
        register(entry, replace=True)


class TestCliSpecFiles:
    def test_run_spec_file(self, tmp_path, capsys, restore_catalogue_entry):
        restore_catalogue_entry("quickstart")
        out = tmp_path / "out.json"
        assert main(["run", "--spec", str(SPEC_DIR / "quickstart.json"),
                     "-p", "workload.operations_per_client=2",
                     "--json", str(out), "--quiet"]) == 0
        payload = json.loads(out.read_text())
        assert payload[0]["scenario"] == "quickstart"
        assert payload[0]["result"]["operations"] == 4

    def test_sweep_spec_file_over_monitoring_threshold(
        self, tmp_path, capsys, restore_catalogue_entry
    ):
        restore_catalogue_entry("hotspot-shift-monitoring")
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--spec",
                     str(SPEC_DIR / "hotspot-shift-monitoring.json"),
                     "-g", "monitoring.policy.threshold=0.05,5.0",
                     "-p", "workload.operations_per_client=3",
                     "--json", str(out), "--quiet", "--no-progress"]) == 0
        payload = json.loads(out.read_text())
        thresholds = [entry["params"]["monitoring.policy.threshold"]
                      for entry in payload]
        assert thresholds == [0.05, 5.0]
        assert all("monitoring" in entry["result"] for entry in payload)

    def test_spec_and_scenario_name_are_mutually_exclusive(self, capsys):
        assert main(["run", "quickstart", "--spec",
                     str(SPEC_DIR / "quickstart.json")]) == 2
        assert "not both" in capsys.readouterr().err

    def test_run_without_scenario_or_spec_fails(self, capsys):
        assert main(["run"]) == 2
        assert "required" in capsys.readouterr().err


class TestAssetTransferScenario:
    def test_registered_and_reproduces_section_viii_claims(self):
        result = get_scenario("asset-transfer").execute()
        one, k, pairwise = (result["one_asset"], result["k_asset"],
                            result["pairwise"])
        # 1-owner transfers all apply without an ordering service.
        assert one["applied"] == 3 and one["total_conserved"]
        # Conflicting k-owner overdraws: exactly one wins, everywhere alike.
        assert k["applied"] == 1 and k["consistent"]
        # Pairwise reassignment rejects the second transfer although no
        # balance went negative: the P-Integrity distribution constraint.
        assert pairwise["first_effective"] and not pairwise["second_effective"]
        assert pairwise["balances_non_negative"]

    def test_parameters_are_spec_section_backed(self):
        from repro.experiments.catalogue import AssetTransferSpec
        section = AssetTransferSpec(n=4)
        assert AssetTransferSpec.from_dict(section.to_dict()) == section
        assert "ring_amount" in section.flatten()
        with pytest.raises(ConfigurationError, match="n must be an integer >= 3"):
            AssetTransferSpec(n=2).validate()

    def test_invalid_amounts_rejected(self):
        with pytest.raises(ConfigurationError,
                           match="ring_amount must be a finite number > 0"):
            get_scenario("asset-transfer").execute({"ring_amount": -1.0})
