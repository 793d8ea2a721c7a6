"""Tests for the composable workload subsystem: keys, arrivals, mixes,
phases, the generator, statistical self-description, traces, and the
open-loop runner integration."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core.spec import SystemConfig
from repro.errors import ConfigurationError
from repro.sim.cluster import build_dynamic_cluster
from repro.sim.runner import run_workload
from repro.sim.workload import Operation, Workload
from repro.workloads import (
    ClosedLoopArrivals,
    HotspotKeys,
    OnOffArrivals,
    OperationMix,
    Phase,
    PoissonArrivals,
    UniformKeys,
    WorkloadGenerator,
    ZipfianKeys,
    key_name,
    read_trace,
    workload_stats,
    write_trace,
)


# ---------------------------------------------------------------------------
# Key distributions
# ---------------------------------------------------------------------------


class TestKeyDistributions:
    def test_zipfian_frequency_ranking(self):
        """Rank-i keys come out in popularity order: k1 hottest, then k2, ..."""
        keys = ZipfianKeys(space=8, s=1.2)
        rng = random.Random(42)
        counts = Counter(keys.sample(rng) for _ in range(4000))
        assert counts["k1"] > counts["k2"] > counts["k3"]
        # s=1.2 over 8 keys gives k1 ~40% of the mass; uniform would be 12.5%.
        assert counts["k1"] / 4000 > 0.3

    def test_zipfian_more_skewed_with_larger_s(self):
        rng_a, rng_b = random.Random(1), random.Random(1)
        mild = Counter(ZipfianKeys(8, s=0.5).sample(rng_a) for _ in range(3000))
        steep = Counter(ZipfianKeys(8, s=2.0).sample(rng_b) for _ in range(3000))
        assert steep["k1"] > mild["k1"]

    def test_uniform_covers_the_space_evenly(self):
        keys = UniformKeys(space=4)
        rng = random.Random(7)
        counts = Counter(keys.sample(rng) for _ in range(4000))
        assert set(counts) == {"k1", "k2", "k3", "k4"}
        assert max(counts.values()) < 1.2 * min(counts.values())

    def test_hotspot_concentrates_traffic(self):
        keys = HotspotKeys(space=16, hot_fraction=0.25, hot_weight=0.9)
        rng = random.Random(3)
        counts = Counter(keys.sample(rng) for _ in range(2000))
        hot = sum(counts[key] for key in keys.hot_keys())
        assert keys.hot_keys() == ("k1", "k2", "k3", "k4")
        assert hot / 2000 == pytest.approx(0.9, abs=0.03)

    def test_hotspot_covering_whole_space_is_uniform(self):
        """hot_fraction=1.0 degenerates to uniform regardless of hot_weight."""
        keys = HotspotKeys(space=4, hot_fraction=1.0, hot_weight=0.5)
        rng = random.Random(13)
        counts = Counter(keys.sample(rng) for _ in range(4000))
        assert set(counts) == {"k1", "k2", "k3", "k4"}
        assert max(counts.values()) < 1.2 * min(counts.values())

    def test_hotspot_shift_rotates_the_hot_set(self):
        keys = HotspotKeys(space=16, hot_fraction=0.25, hot_weight=0.9)
        shifted = HotspotKeys(space=16, hot_fraction=0.25, hot_weight=0.9, offset=8)
        assert shifted.hot_keys() == ("k9", "k10", "k11", "k12")
        assert set(keys.hot_keys()).isdisjoint(shifted.hot_keys())

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            UniformKeys(space=0)
        with pytest.raises(ConfigurationError):
            ZipfianKeys(space=8, s=0.0)
        with pytest.raises(ConfigurationError):
            HotspotKeys(space=8, hot_fraction=0.0)
        with pytest.raises(ConfigurationError):
            HotspotKeys(space=8, hot_weight=1.5)
        with pytest.raises(ConfigurationError):
            key_name(0)


# ---------------------------------------------------------------------------
# Arrival processes
# ---------------------------------------------------------------------------


class TestArrivalProcesses:
    def test_poisson_interarrival_mean(self):
        """Open-loop Poisson gaps average 1/rate."""
        arrivals = PoissonArrivals(rate=2.0)
        rng = random.Random(11)
        now, gaps = 0.0, []
        for _ in range(3000):
            _, at = arrivals.next_event(rng, now)
            gaps.append(at - now)
            now = at
        assert sum(gaps) / len(gaps) == pytest.approx(0.5, rel=0.05)

    def test_closed_loop_returns_relative_think_times(self):
        arrivals = ClosedLoopArrivals(mean_think_time=2.0)
        rng = random.Random(5)
        thinks = []
        for _ in range(2000):
            after, at = arrivals.next_event(rng, 0.0)
            assert at is None
            thinks.append(after)
        assert sum(thinks) / len(thinks) == pytest.approx(2.0, rel=0.1)

    def test_zero_think_time_degenerates_to_back_to_back(self):
        assert ClosedLoopArrivals(0.0).next_event(random.Random(0), 5.0) == (0.0, None)

    def test_onoff_arrivals_land_inside_bursts(self):
        arrivals = OnOffArrivals(burst_rate=4.0, burst_length=5.0, idle_time=10.0)
        rng = random.Random(9)
        now = 0.0
        for _ in range(500):
            _, at = arrivals.next_event(rng, now)
            assert at > now
            assert at % 15.0 < 5.0  # inside the on-window of its cycle
            now = at

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            ClosedLoopArrivals(-1.0)
        with pytest.raises(ConfigurationError):
            PoissonArrivals(0.0)
        with pytest.raises(ConfigurationError):
            OnOffArrivals(burst_rate=0.0)
        with pytest.raises(ConfigurationError):
            OperationMix(read_ratio=1.5)
        with pytest.raises(ConfigurationError):
            OperationMix(keys_per_op=0)


# ---------------------------------------------------------------------------
# Generator: determinism, phases, multi-key
# ---------------------------------------------------------------------------


class TestWorkloadGenerator:
    def _generator(self):
        return WorkloadGenerator(
            keys=ZipfianKeys(space=16, s=1.1),
            arrivals=PoissonArrivals(rate=1.0),
            mix=OperationMix(read_ratio=0.6),
        )

    def test_same_seed_produces_identical_trace(self):
        a = self._generator().generate(["c1", "c2"], 50, seed=4)
        b = self._generator().generate(["c1", "c2"], 50, seed=4)
        assert a.operations == b.operations

    def test_different_seeds_differ(self):
        a = self._generator().generate(["c1"], 50, seed=4)
        b = self._generator().generate(["c1"], 50, seed=5)
        assert a.operations != b.operations

    def test_client_stream_independent_of_other_clients(self):
        """A client's sequence depends only on the seed and its own name.

        (The forced first write of the first client is the single exception,
        so compare clients that are not first.)
        """
        together = self._generator().generate(["c1", "c2"], 20, seed=1)
        more = self._generator().generate(["c1", "c2", "c3"], 20, seed=1)
        assert together.for_client("c2") == more.for_client("c2")
        assert together.for_client("c1") == more.for_client("c1")

    def test_first_operation_of_first_client_is_a_write(self):
        workload = self._generator().generate(["c1", "c2"], 10, seed=0)
        assert workload.for_client("c1")[0].kind == "write"

    def test_open_loop_issue_times_are_absolute_and_monotone(self):
        workload = self._generator().generate(["c1"], 30, seed=2)
        times = [op.issue_at for op in workload.operations]
        assert all(at is not None for at in times)
        assert times == sorted(times)

    def test_closed_loop_operations_have_no_issue_at(self):
        generator = WorkloadGenerator(arrivals=ClosedLoopArrivals(1.0))
        workload = generator.generate(["c1"], 10, seed=0)
        assert all(op.issue_at is None for op in workload.operations)
        assert all(op.key is not None for op in workload.operations)

    def test_phase_flips_the_key_distribution(self):
        generator = WorkloadGenerator(
            keys=HotspotKeys(space=16, hot_fraction=0.25, hot_weight=1.0),
            arrivals=PoissonArrivals(rate=1.0),
            phases=(
                Phase(start=100.0,
                      keys=HotspotKeys(space=16, hot_fraction=0.25,
                                       hot_weight=1.0, offset=8)),
            ),
        )
        workload = generator.generate(["c1"], 300, seed=6)
        early = {op.key for op in workload.operations if op.issue_at < 100.0}
        late = {op.key for op in workload.operations if op.issue_at >= 100.0}
        assert early <= {"k1", "k2", "k3", "k4"}
        assert late <= {"k9", "k10", "k11", "k12"}

    def test_multi_key_operations_share_kind_and_timing(self):
        generator = WorkloadGenerator(
            arrivals=PoissonArrivals(rate=1.0),
            mix=OperationMix(read_ratio=0.5, keys_per_op=3),
        )
        workload = generator.generate(["c1"], 10, seed=1)
        assert len(workload.operations) == 30
        for index in range(0, 30, 3):
            batch = workload.operations[index:index + 3]
            assert len({op.kind for op in batch}) == 1
            assert batch[0].issue_at is not None
            assert all(op.issue_at is None for op in batch[1:])

    def test_describe_reports_the_configured_axes(self):
        description = self._generator().describe()
        assert description["keys"]["kind"] == "zipfian"
        assert description["arrivals"] == {"kind": "poisson", "rate": 1.0}
        assert description["mix"]["read_ratio"] == 0.6

    def test_empty_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            self._generator().generate([], 10)
        with pytest.raises(ConfigurationError):
            self._generator().generate(["c1"], 0)


# ---------------------------------------------------------------------------
# Statistical self-description
# ---------------------------------------------------------------------------


class TestWorkloadStats:
    def test_stats_report_achieved_skew_and_rate(self):
        generator = WorkloadGenerator(
            keys=ZipfianKeys(space=32, s=1.5),
            arrivals=PoissonArrivals(rate=2.0),
            mix=OperationMix(read_ratio=0.75),
        )
        workload = generator.generate(["c1", "c2"], 400, seed=8)
        stats = workload_stats(workload)
        assert stats["operations"] == 800
        assert stats["clients"] == 2
        assert stats["read_fraction"] == pytest.approx(0.75, abs=0.05)
        assert stats["keys"]["top1_share"] > 1.5 / 32  # well above uniform
        assert stats["arrivals"]["open_loop_fraction"] == 1.0
        assert stats["arrivals"]["mean_interarrival"] == pytest.approx(0.5, rel=0.1)
        # Two clients at rate 2.0 each offer ~4 ops per unit of virtual time.
        assert stats["arrivals"]["offered_rate"] == pytest.approx(4.0, rel=0.15)

    def test_stats_for_closed_loop_workload(self):
        generator = WorkloadGenerator(arrivals=ClosedLoopArrivals(1.5))
        stats = workload_stats(generator.generate(["c1"], 300, seed=0))
        assert stats["arrivals"]["open_loop_fraction"] == 0.0
        assert stats["arrivals"]["offered_rate"] is None
        assert stats["arrivals"]["mean_think_time"] == pytest.approx(1.5, rel=0.15)

    def test_single_key_workloads_report_no_batching_block(self):
        generator = WorkloadGenerator(arrivals=ClosedLoopArrivals(1.0))
        stats = workload_stats(generator.generate(["c1"], 50, seed=0))
        assert "batching" not in stats

    def test_batch_remainders_group_into_logical_operations(self):
        # keys_per_op=4 expands each logical op into 4 physical ops; the
        # remainders must not be counted as zero-think closed-loop arrivals.
        generator = WorkloadGenerator(
            arrivals=ClosedLoopArrivals(2.0),
            mix=OperationMix(keys_per_op=4),
        )
        workload = generator.generate(["c1"], 200, seed=1)
        stats = workload_stats(workload)
        assert stats["operations"] == 800
        assert stats["batching"] == {
            "logical_operations": 200,
            "physical_operations": 800,
            "mean_batch_size": 4.0,
        }
        # Before the batch fix the three zero-think remainders per batch
        # dragged this towards 2.0 / 4 = 0.5.
        assert stats["arrivals"]["mean_think_time"] == pytest.approx(2.0, rel=0.15)

    def test_open_loop_batches_count_once_per_logical_operation(self):
        generator = WorkloadGenerator(
            arrivals=PoissonArrivals(rate=1.0),
            mix=OperationMix(keys_per_op=3),
        )
        workload = generator.generate(["c1", "c2"], 100, seed=2)
        stats = workload_stats(workload)
        # Every logical operation is open-loop; the remainders (issue_at is
        # None) used to deflate this to 1/3.
        assert stats["arrivals"]["open_loop_fraction"] == 1.0
        assert stats["batching"]["logical_operations"] == 200

    def test_generator_tags_batch_membership(self):
        generator = WorkloadGenerator(mix=OperationMix(keys_per_op=2))
        workload = generator.generate(["c1"], 5, seed=0)
        batches = {}
        for op in workload.operations:
            assert op.batch_id is not None
            batches.setdefault(op.batch_id, []).append(op.batch_index)
        assert len(batches) == 5
        assert all(indices == [0, 1] for indices in batches.values())

    def test_arrival_stats_are_independent_of_operation_list_order(self):
        # Regression: arrival gaps/makespan trusted the operation list order,
        # so a merged or hand-edited trace with issue_at ties (phases flipping
        # mid-batch) produced negative gaps and a wrong makespan.  Stats now
        # sort per client on the stable (issue_at, batch_id, batch_index) key.
        def op(batch_id, issue_at, batch_index=0):
            return Operation(client="c1", kind="read", value=None,
                             issue_at=issue_at, key="k1",
                             batch_id=batch_id, batch_index=batch_index)

        ordered = [op(0, 1.0), op(1, 3.0), op(2, 3.0), op(3, 8.0)]
        # The same logical workload, interleaved out of list order with an
        # issue_at tie between batches 1 and 2.
        shuffled = [ordered[3], ordered[2], ordered[0], ordered[1]]
        expected = workload_stats(Workload(operations=list(ordered)))
        scrambled = workload_stats(Workload(operations=shuffled))
        assert scrambled["arrivals"] == expected["arrivals"]
        assert scrambled["arrivals"]["mean_interarrival"] == pytest.approx(7.0 / 3)
        # Makespan (and thus offered rate) uses the true last arrival.
        assert scrambled["arrivals"]["offered_rate"] == pytest.approx(4 / 8.0)

    def test_issue_at_ties_keep_stable_batch_order(self):
        # Equal issue_at values must order by (batch_id, batch_index), so the
        # gap sequence is deterministic regardless of how ties entered the
        # list.
        def op(batch_id, issue_at):
            return Operation(client="c1", kind="read", value=None,
                             issue_at=issue_at, key="k1", batch_id=batch_id)

        tied = [op(1, 5.0), op(0, 5.0), op(2, 6.0)]
        stats = workload_stats(Workload(operations=tied))
        assert stats["arrivals"]["mean_interarrival"] == pytest.approx(0.5)
        assert stats["arrivals"]["offered_rate"] == pytest.approx(3 / 6.0)


# ---------------------------------------------------------------------------
# Trace record / replay
# ---------------------------------------------------------------------------


class TestTrace:
    def test_round_trip_is_exact(self, tmp_path):
        generator = WorkloadGenerator(
            keys=ZipfianKeys(space=8, s=1.1),
            arrivals=PoissonArrivals(rate=3.0),
            mix=OperationMix(keys_per_op=2),  # batch tags must round-trip too
        )
        workload = generator.generate(["c1", "c2"], 25, seed=3)
        path = tmp_path / "trace.jsonl"
        assert write_trace(workload, str(path)) == 100
        replayed = read_trace(str(path))
        assert replayed.operations == workload.operations

    def test_malformed_lines_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"client": "c1", "kind": "read"}\nnot json\n')
        with pytest.raises(ConfigurationError, match="malformed"):
            read_trace(str(path))

    def test_unknown_and_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"client": "c1", "kind": "read", "bogus": 1}\n')
        with pytest.raises(ConfigurationError, match="unknown fields"):
            read_trace(str(path))
        path.write_text('{"client": "c1"}\n')
        with pytest.raises(ConfigurationError, match="missing fields"):
            read_trace(str(path))
        path.write_text('{"client": "c1", "kind": "scan"}\n')
        with pytest.raises(ConfigurationError, match="invalid kind"):
            read_trace(str(path))
        path.write_text("\n")
        with pytest.raises(ConfigurationError, match="no operations"):
            read_trace(str(path))


# ---------------------------------------------------------------------------
# Workload index (single-pass for_client / clients)
# ---------------------------------------------------------------------------


class TestWorkloadIndex:
    def test_clients_in_first_seen_order(self):
        workload = Workload(operations=[
            Operation("c2", "write", "v1"),
            Operation("c1", "read", None),
            Operation("c2", "read", None),
        ])
        assert workload.clients() == ("c2", "c1")
        assert [op.kind for op in workload.for_client("c2")] == ["write", "read"]
        assert workload.for_client("c9") == []

    def test_index_refreshes_after_mutation(self):
        workload = Workload(operations=[Operation("c1", "read", None)])
        assert workload.clients() == ("c1",)
        workload.operations.append(Operation("c2", "write", "v"))
        assert workload.clients() == ("c1", "c2")
        assert len(workload.for_client("c2")) == 1


# ---------------------------------------------------------------------------
# Runner integration: open-loop arrivals drive a real cluster
# ---------------------------------------------------------------------------


class TestOpenLoopRunner:
    def test_open_loop_workload_completes_and_respects_schedule(self):
        config = SystemConfig.uniform(4, f=1)
        cluster = build_dynamic_cluster(config, client_count=2)
        generator = WorkloadGenerator(
            keys=UniformKeys(8),
            arrivals=PoissonArrivals(rate=0.4),
            mix=OperationMix(read_ratio=0.5),
        )
        workload = generator.generate(tuple(cluster.clients), 6, seed=2)
        report = run_workload(cluster, workload, max_time=10_000.0)
        assert report.operations == 12
        # The run cannot finish before the last scheduled arrival.
        last_arrival = max(op.issue_at for op in workload.operations)
        assert report.duration >= last_arrival
