"""Tests for the simulation harness (workloads, faults, runner) and analysis."""

from __future__ import annotations

import pytest

from repro.analysis import expected_quorum_latency, fastest_quorum
from repro.core.spec import SystemConfig, check_integrity
from repro.errors import ConfigurationError
from repro.experiments.spec import FaultSpec
from repro.monitoring.policy import inverse_latency_weights
from repro.net.latency import ConstantLatency, UniformLatency
from repro.quorum.majority import MajorityQuorumSystem
from repro.quorum.weighted import WeightedMajorityQuorumSystem, smallest_quorum_size
from repro.sim import build_cluster, build_dynamic_cluster, run_workload, summarize
from repro.sim.metrics import percentile
from repro.types import server_set
from tests.conftest import uniform_workload


class TestWorkloadGeneration:
    def test_counts_and_first_write(self):
        workload = uniform_workload(["c1", "c2"], 10, read_ratio=0.5, seed=1)
        counts = workload.counts()
        assert counts["total"] == 20
        assert workload.for_client("c1")[0].kind == "write"

    def test_read_ratio_extremes(self):
        all_reads = uniform_workload(["c1"], 10, read_ratio=1.0, seed=2)
        # The forced first write is the only write.
        assert all_reads.counts()["writes"] == 1
        all_writes = uniform_workload(["c1"], 10, read_ratio=0.0, seed=2)
        assert all_writes.counts()["reads"] == 0

    def test_deterministic_for_same_seed(self):
        a = uniform_workload(["c1", "c2"], 5, seed=7)
        b = uniform_workload(["c1", "c2"], 5, seed=7)
        assert a.operations == b.operations

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            uniform_workload([], 5)
        with pytest.raises(ConfigurationError):
            uniform_workload(["c1"], 0)
        with pytest.raises(ConfigurationError):
            uniform_workload(["c1"], 5, read_ratio=2.0)

    def test_clients_listed_in_order(self):
        workload = uniform_workload(["c2", "c1"], 2, seed=0)
        assert workload.clients() == ("c2", "c1")


class TestMetrics:
    def test_percentile_interpolation(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 1.0) == 4.0
        assert percentile(samples, 0.5) == pytest.approx(2.5)

    def test_percentile_validation(self):
        with pytest.raises(ConfigurationError):
            percentile([], 0.5)
        with pytest.raises(ConfigurationError):
            percentile([1.0], 1.5)

    def test_summary_fields(self):
        summary = summarize([1.0, 2.0, 3.0, 10.0])
        assert summary.count == 4
        assert summary.mean == pytest.approx(4.0)
        assert summary.maximum == 10.0
        assert "mean" in summary.as_row()

    def test_summary_of_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize([])


class TestFaultSchedule:
    def test_crash_events_fire_at_time(self):
        config = SystemConfig.uniform(5, f=2)
        cluster = build_dynamic_cluster(config)
        FaultSpec(crashes=(("s5", 3.0),)).arm(cluster)
        cluster.loop.run(until=2.9)
        assert not cluster.network.is_crashed("s5")
        cluster.loop.run(until=10.0)
        assert cluster.network.is_crashed("s5")

    def test_crashes_accumulate_in_time_order(self):
        cluster = build_dynamic_cluster(SystemConfig.uniform(5, f=2))
        FaultSpec(crashes=(("s1", 5.0), ("s2", 10.0))).arm(cluster)
        cluster.loop.run(until=6.0)
        down = [pid for pid in ("s1", "s2") if cluster.network.is_crashed(pid)]
        assert down == ["s1"]
        cluster.loop.run(until=10.0)  # an event at the horizon fires
        assert all(cluster.network.is_crashed(pid) for pid in ("s1", "s2"))

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError, match="a finite number >= 0"):
            FaultSpec(crashes=(("s1", -1.0),)).validate()


class TestClusterBuilders:
    def test_dynamic_cluster_shape(self):
        config = SystemConfig.uniform(5, f=1)
        cluster = build_dynamic_cluster(config, client_count=3)
        assert len(cluster.servers) == 5
        assert len(cluster.clients) == 3
        assert cluster.flavour == "dynamic-weighted"
        assert cluster.any_client() is cluster.client("c1")

    def test_static_cluster_flavours(self):
        config = SystemConfig.uniform(5, f=1)
        for flavour in ("static-majority", "static-weighted"):
            assert build_cluster(config, flavour).flavour == flavour

    def test_zero_clients_rejected(self):
        config = SystemConfig.uniform(3, f=1)
        with pytest.raises(ConfigurationError):
            build_dynamic_cluster(config, client_count=0)
        with pytest.raises(ConfigurationError):
            build_cluster(config, "static-majority", client_count=0)


class TestRunWorkload:
    def test_dynamic_run_produces_report(self):
        config = SystemConfig.uniform(5, f=2)
        cluster = build_dynamic_cluster(config, latency=UniformLatency(0.5, 1.5, seed=3))
        workload = uniform_workload(list(cluster.clients), 5, read_ratio=0.5, seed=3)
        report = run_workload(cluster, workload)
        assert report.operations == 10
        assert report.messages_sent > 0
        assert report.write_latency is not None
        assert "cluster flavour" in report.describe()

    def test_static_run_with_failures(self):
        config = SystemConfig.uniform(5, f=2)
        cluster = build_cluster(config, "static-majority", latency=ConstantLatency(1.0))
        workload = uniform_workload(list(cluster.clients), 4, read_ratio=0.5, seed=5)
        FaultSpec(crashes=(("s5", 2.0),)).arm(cluster)
        report = run_workload(cluster, workload)
        assert report.operations == 8
        assert cluster.network.is_crashed("s5")

    def test_unknown_client_rejected(self):
        config = SystemConfig.uniform(3, f=1)
        cluster = build_dynamic_cluster(config, client_count=1)
        workload = uniform_workload(["c9"], 2, seed=0)
        with pytest.raises(ConfigurationError):
            run_workload(cluster, workload)

    def test_non_positive_max_time_rejected(self):
        config = SystemConfig.uniform(3, f=1)
        cluster = build_dynamic_cluster(config, client_count=1)
        workload = uniform_workload(list(cluster.clients), 2, seed=0)
        for max_time in (0.0, -1.0):
            with pytest.raises(ConfigurationError, match="max_time"):
                run_workload(cluster, workload, max_time=max_time)

    def test_describe_renders_zero_operation_runs(self):
        from repro.sim.runner import RunReport

        report = RunReport(
            flavour="dynamic-weighted",
            duration=0.0,
            read_latency=None,
            write_latency=None,
            messages_sent=0,
            restarts=0,
            operations=0,
        )
        text = report.describe()
        assert "no completed operations" in text
        assert "read  latency" not in text and "write latency" not in text


class TestQuorumLatencyAnalysis:
    def wan_rtt(self):
        # One fast continent (s1-s3 close to the client) and two far replicas.
        return {"s1": 10.0, "s2": 12.0, "s3": 15.0, "s4": 80.0, "s5": 95.0}

    def test_fastest_quorum_prefers_low_latency_servers(self):
        weights = {"s1": 1.5, "s2": 1.5, "s3": 1.5, "s4": 0.75, "s5": 0.75}
        wmqs = WeightedMajorityQuorumSystem(weights)
        assert fastest_quorum(wmqs, self.wan_rtt()) == ("s1", "s2", "s3")

    def test_wmqs_latency_beats_mqs_on_heterogeneous_rtt(self):
        """The paper's motivating claim (Section I).

        With enough weight on the two nearest servers (still satisfying
        Property 1 for f=1), a two-server weighted quorum beats the
        three-server majority quorum.
        """
        rtt = self.wan_rtt()
        mqs = MajorityQuorumSystem(server_set(5))
        weights = {"s1": 2.0, "s2": 2.0, "s3": 1.0, "s4": 0.5, "s5": 0.5}
        wmqs = WeightedMajorityQuorumSystem(weights)
        assert expected_quorum_latency(wmqs, rtt) < expected_quorum_latency(mqs, rtt)

    def test_equal_rtt_makes_both_equal(self):
        rtt = {s: 10.0 for s in server_set(5)}
        mqs = MajorityQuorumSystem(server_set(5))
        wmqs = WeightedMajorityQuorumSystem.uniform(server_set(5))
        assert expected_quorum_latency(wmqs, rtt) == expected_quorum_latency(mqs, rtt)

    def test_each_client_waits_for_its_own_slowest_quorum_member(self):
        mqs = MajorityQuorumSystem(server_set(5))
        near_s1 = self.wan_rtt()
        near_s5 = {server: 100.0 - rtt for server, rtt in near_s1.items()}
        assert expected_quorum_latency(mqs, near_s1) == 15.0
        assert expected_quorum_latency(mqs, near_s5) == 85.0

    def test_missing_rtt_rejected(self):
        mqs = MajorityQuorumSystem(server_set(3))
        with pytest.raises(ConfigurationError):
            expected_quorum_latency(mqs, {"s1": 1.0})


class TestWeightPlanning:
    def test_inverse_latency_weights_available(self):
        rtt = {"s1": 10.0, "s2": 12.0, "s3": 15.0, "s4": 80.0, "s5": 95.0}
        weights = inverse_latency_weights(rtt, 5.0, floor=0.5)
        assert sum(weights.values()) == pytest.approx(5.0)
        assert weights["s1"] > weights["s4"]
        assert min(weights.values()) >= 0.5
        assert check_integrity(weights, 1)

    def test_a_zero_floor_can_break_property_1(self):
        rtt = {"s1": 1.0, "s2": 1000.0, "s3": 1000.0}
        weights = inverse_latency_weights(rtt, 3.0, floor=0.0)
        assert not check_integrity(weights, 1)
        assert check_integrity(inverse_latency_weights(rtt, 3.0, floor=0.9), 1)

    def test_quorum_size_shrinks_with_skewed_weights(self):
        uniform = {s: 1.0 for s in server_set(7)}
        skewed = {"s1": 1.2, "s2": 1.2, "s3": 1.2, "s4": 0.8, "s5": 0.8, "s6": 0.8, "s7": 1.0}
        assert smallest_quorum_size(skewed) < smallest_quorum_size(uniform)

    def test_empty_latency_map_rejected(self):
        with pytest.raises(ConfigurationError):
            inverse_latency_weights({}, 1.0, floor=0.0)
