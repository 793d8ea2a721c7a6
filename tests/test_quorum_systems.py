"""Tests for the quorum-system substrate, including property-based checks."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.spec import check_integrity
from repro.errors import ConfigurationError
from repro.quorum import (
    MajorityQuorumSystem,
    WeightedMajorityQuorumSystem,
    smallest_quorum_size,
)
from repro.types import server_set


class TestMajorityQuorumSystem:
    def test_majority_is_quorum(self):
        mqs = MajorityQuorumSystem(server_set(5))
        assert mqs.is_quorum(["s1", "s2", "s3"])

    def test_minority_is_not_quorum(self):
        mqs = MajorityQuorumSystem(server_set(5))
        assert not mqs.is_quorum(["s1", "s2"])

    def test_exact_half_is_not_quorum_even_n(self):
        mqs = MajorityQuorumSystem(server_set(6))
        assert not mqs.is_quorum(["s1", "s2", "s3"])
        assert mqs.is_quorum(["s1", "s2", "s3", "s4"])

    def test_quorum_size_formula(self):
        assert MajorityQuorumSystem(server_set(5)).quorum_size() == 3
        assert MajorityQuorumSystem(server_set(6)).quorum_size() == 4

    @pytest.mark.parametrize("n, tolerated", [(5, 2), (6, 2), (7, 3)])
    def test_a_minority_of_crashes_leaves_a_quorum(self, n, tolerated):
        """Up to ``tolerated`` crashed servers leave a quorum of survivors;
        one more crash can leave none."""
        servers = server_set(n)
        mqs = MajorityQuorumSystem(servers)
        assert all(
            mqs.is_quorum(survivors)
            for survivors in itertools.combinations(servers, n - tolerated)
        )
        assert not mqs.is_quorum(servers[: n - tolerated - 1])

    def test_the_minimal_quorums_are_the_majorities(self):
        servers = server_set(4)
        mqs = MajorityQuorumSystem(servers)
        assert all(mqs.is_quorum(q) for q in itertools.combinations(servers, 3))
        assert not any(mqs.is_quorum(q) for q in itertools.combinations(servers, 2))

    def test_any_two_majorities_intersect(self):
        servers = server_set(5)
        mqs = MajorityQuorumSystem(servers)
        quorums = [
            set(subset)
            for size in range(1, 6)
            for subset in itertools.combinations(servers, size)
            if mqs.is_quorum(subset)
        ]
        assert len(quorums) == 16  # C(5,3) + C(5,4) + C(5,5)
        for first, second in itertools.combinations(quorums, 2):
            assert first & second

    def test_unknown_member_rejected(self):
        mqs = MajorityQuorumSystem(server_set(3))
        with pytest.raises(ConfigurationError):
            mqs.is_quorum(["s1", "ghost"])

    @pytest.mark.parametrize("system", [
        MajorityQuorumSystem(server_set(3)),
        WeightedMajorityQuorumSystem.uniform(server_set(3)),
    ])
    def test_unknown_members_are_named_sorted_in_the_message(self, system):
        # The universe is a frozenset built once; the message is the one the
        # per-call ``set(self.servers)`` gave.
        for subset in (["ghost", "s1", "c1"], iter(["c1", "ghost"]),
                       frozenset({"ghost", "c1", "s3"})):
            with pytest.raises(ConfigurationError) as raised:
                system.is_quorum(subset)
            assert str(raised.value) == "unknown servers in subset: ['c1', 'ghost']"
        assert system.is_quorum(iter(["s1", "s2"]))

    def test_empty_system_rejected(self):
        with pytest.raises(ConfigurationError):
            MajorityQuorumSystem([])

    def test_duplicate_servers_rejected(self):
        with pytest.raises(ConfigurationError):
            MajorityQuorumSystem(["s1", "s1"])


class TestWeightedMajorityQuorumSystem:
    def test_example2_minority_quorum(self):
        """The Fig. 1 outcome: after reassignment, {s1,s2,s3} is a quorum of 3/7."""
        weights = {
            "s1": 1.2, "s2": 1.2, "s3": 1.2, "s4": 0.8, "s5": 0.8, "s6": 0.8, "s7": 1.0,
        }
        wmqs = WeightedMajorityQuorumSystem(weights)
        assert wmqs.is_quorum(["s1", "s2", "s3"])
        assert smallest_quorum_size(weights) == 3

    def test_uniform_weights_match_majority(self):
        servers = server_set(5)
        wmqs = WeightedMajorityQuorumSystem.uniform(servers)
        mqs = MajorityQuorumSystem(servers)
        for subset in (["s1"], ["s1", "s2"], ["s1", "s2", "s3"], list(servers)):
            assert wmqs.is_quorum(subset) == mqs.is_quorum(subset)

    def test_exactly_half_weight_is_not_quorum(self):
        wmqs = WeightedMajorityQuorumSystem({"s1": 1.0, "s2": 1.0})
        assert not wmqs.is_quorum(["s1"])
        assert wmqs.is_quorum(["s1", "s2"])

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            WeightedMajorityQuorumSystem({"s1": -1.0, "s2": 1.0})

    def test_new_weights_change_which_sets_are_quorums(self):
        servers = ("s1", "s2", "s3")
        uniform = WeightedMajorityQuorumSystem.uniform(servers)
        heavy = WeightedMajorityQuorumSystem({"s1": 3.0, "s2": 1.0, "s3": 1.0})
        assert not uniform.is_quorum(["s1"]) and heavy.is_quorum(["s1"])
        assert uniform.is_quorum(["s2", "s3"]) and not heavy.is_quorum(["s2", "s3"])

    def test_weighted_unknown_member_rejected(self):
        wmqs = WeightedMajorityQuorumSystem({"s1": 1.0, "s2": 1.0})
        with pytest.raises(ConfigurationError):
            wmqs.is_quorum(["s1", "s3"])

    def test_smallest_quorum_greedy(self):
        assert smallest_quorum_size({"s1": 5.0, "s2": 1.0, "s3": 1.0, "s4": 1.0}) == 1

    def test_weight_of_subset(self):
        wmqs = WeightedMajorityQuorumSystem({"s1": 1.5, "s2": 2.5})
        assert wmqs.weight_of(["s1", "s2"]) == pytest.approx(4.0)

    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.lists(
            st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
            min_size=2,
            max_size=7,
        )
    )
    def test_any_two_quorums_intersect(self, weights):
        """The defining property of quorum systems holds for arbitrary weights:
        every subset ``is_quorum`` accepts meets every other one."""
        weight_map = {f"s{i+1}": w for i, w in enumerate(weights)}
        wmqs = WeightedMajorityQuorumSystem(weight_map)
        quorums = [
            set(subset)
            for size in range(1, len(weight_map) + 1)
            for subset in itertools.combinations(weight_map, size)
            if wmqs.is_quorum(subset)
        ]
        assert quorums  # the whole server set, at least
        for first, second in itertools.combinations(quorums, 2):
            assert first & second, (first, second, weight_map)

    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.lists(
            st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
            min_size=3,
            max_size=8,
        )
    )
    def test_complement_of_quorum_is_not_quorum(self, weights):
        weight_map = {f"s{i+1}": w for i, w in enumerate(weights)}
        wmqs = WeightedMajorityQuorumSystem(weight_map)
        ranked = sorted(weight_map, key=lambda s: (-weight_map[s], s))
        quorum = set(ranked[: smallest_quorum_size(weight_map)])
        assert wmqs.is_quorum(quorum)
        complement = set(weight_map) - quorum
        if complement:
            assert not wmqs.is_quorum(complement)


class TestAvailabilityProperty:
    def test_uniform_weights_available_up_to_minority(self):
        weights = {f"s{i}": 1.0 for i in range(1, 6)}
        assert check_integrity(weights, 2)
        assert not check_integrity(weights, 3)

    def test_heavy_single_server_breaks_availability(self):
        weights = {"s1": 10.0, "s2": 1.0, "s3": 1.0, "s4": 1.0, "s5": 1.0}
        assert not check_integrity(weights, 1)

    def test_f_zero_always_available(self):
        assert check_integrity({"s1": 1.0}, 0)

    def test_f_at_least_n_unavailable(self):
        assert not check_integrity({"s1": 1.0, "s2": 1.0}, 2)

    def test_negative_f_rejected(self):
        with pytest.raises(ValueError):
            check_integrity({"s1": 1.0}, -1)

    def test_minimum_quorum_cardinality(self):
        weights = {"s1": 1.2, "s2": 1.2, "s3": 1.2, "s4": 0.8, "s5": 0.8, "s6": 0.8, "s7": 1.0}
        assert smallest_quorum_size(weights) == 3
        uniform = {f"s{i}": 1.0 for i in range(1, 8)}
        assert smallest_quorum_size(uniform) == 4

    def test_smallest_quorum_avoiding_servers(self):
        weights = {"s1": 1.6, "s2": 1.4, "s3": 0.8, "s4": 0.8, "s5": 0.8, "s6": 0.8, "s7": 0.8}
        assert smallest_quorum_size(weights) == 3
        assert smallest_quorum_size(weights, avoid=("s1", "s2")) == 5
        assert smallest_quorum_size(weights, avoid=("s1", "s2", "s3")) is None

    def test_zero_total_weight_has_no_quorum(self):
        assert smallest_quorum_size({"s1": 0.0, "s2": 0.0}) is None

    @settings(max_examples=80, deadline=None)
    @given(
        weights=st.lists(
            st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
            min_size=3,
            max_size=9,
        ),
        f=st.integers(min_value=1, max_value=4),
    )
    def test_availability_implies_correct_quorum_exists(self, weights, f):
        """Property 1 ⇒ any n-f servers hold more than half the weight."""
        weight_map = {f"s{i+1}": w for i, w in enumerate(weights)}
        if f >= len(weight_map):
            return
        if not check_integrity(weight_map, f):
            return
        total = sum(weight_map.values())
        ranked = sorted(weight_map.values())  # the n-f *lightest* servers: worst case
        survivors = ranked[: len(ranked) - f]
        assert sum(survivors) > total / 2 - 1e-6


class TestReadWriteIntersection:
    """The defining safety property, across every implemented quorum system.

    An atomic register is linearizable only if every read quorum intersects
    every write quorum.  Both systems here are symmetric (reads and
    writes use the same quorums), so the property reduces to: any two
    subsets the system accepts as quorums share at least one server.  The
    weight vectors are randomized but *seeded* — hypothesis drives the seed,
    so failures replay exactly.
    """

    @staticmethod
    def _systems(n, weights):
        return [
            MajorityQuorumSystem(server_set(n)),
            WeightedMajorityQuorumSystem(weights),
        ]

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=9),
        seed=st.integers(min_value=0, max_value=9999),
        read_bits=st.integers(min_value=1, max_value=511),
        write_bits=st.integers(min_value=1, max_value=511),
    )
    def test_read_quorum_intersects_write_quorum(
        self, n, seed, read_bits, write_bits
    ):
        servers = server_set(n)
        rng = random.Random(seed)
        weights = {pid: rng.uniform(0.1, 5.0) for pid in servers}
        read = [pid for i, pid in enumerate(servers) if read_bits >> i & 1]
        write = [pid for i, pid in enumerate(servers) if write_bits >> i & 1]
        for system in self._systems(n, weights):
            if system.is_quorum(read) and system.is_quorum(write):
                assert set(read) & set(write), (
                    f"{type(system).__name__}: disjoint read quorum {read} "
                    f"and write quorum {write} (weights {weights})"
                )

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=8),
        seed=st.integers(min_value=0, max_value=9999),
        subset_bits=st.integers(min_value=1, max_value=255),
        source_index=st.integers(min_value=0, max_value=7),
        target_index=st.integers(min_value=0, max_value=7),
        fraction=st.floats(min_value=0.1, max_value=0.9, allow_nan=False),
    )
    def test_weighted_threshold_monotone_under_transfer(
        self, n, seed, subset_bits, source_index, target_index, fraction
    ):
        """Weight transfer moves the threshold monotonically.

        Transfers preserve the total weight, so the quorum threshold
        (half the total) is constant: a subset that gains weight from the
        outside can only stay a quorum, and a subset that leaks weight to
        the outside can only stay a non-quorum.
        """
        servers = server_set(n)
        rng = random.Random(seed)
        weights = {pid: rng.uniform(0.5, 5.0) for pid in servers}
        wmqs = WeightedMajorityQuorumSystem(weights)
        subset = {pid for i, pid in enumerate(servers) if subset_bits >> i & 1}
        outside = [pid for pid in servers if pid not in subset]
        if not subset or not outside:
            return
        inside = sorted(subset)[source_index % len(subset)]
        external = outside[target_index % len(outside)]

        if wmqs.is_quorum(subset):
            # outside -> inside: the quorum's share only grows.
            delta = fraction * weights[external]
            gained = dict(weights)
            gained[external] -= delta
            gained[inside] += delta
            assert WeightedMajorityQuorumSystem(gained).is_quorum(subset)
        else:
            # inside -> outside: the non-quorum's share only shrinks.
            delta = fraction * weights[inside]
            leaked = dict(weights)
            leaked[inside] -= delta
            leaked[external] += delta
            assert not WeightedMajorityQuorumSystem(leaked).is_quorum(subset)
