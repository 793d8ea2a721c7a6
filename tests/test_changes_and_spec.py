"""Tests for the change data structures and the executable specifications."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.change import Change, ChangeSet, initial_changes
from repro.core.spec import (
    SystemConfig,
    check_integrity,
    check_rp_integrity,
    check_rp_validity_one,
    check_validity_one,
    rp_minimum_weight,
    weights_from_changes,
)
from repro.errors import ConfigurationError, IntegrityViolation
from repro.types import server_set


class TestChange:
    def test_null_change(self):
        assert Change("s1", 2, "s1", 0.0).is_null()
        assert not Change("s1", 2, "s1", 0.5).is_null()

    def test_initial_change_detection(self):
        assert Change("s1", 1, "s1", 1.0).is_initial()
        assert not Change("s1", 2, "s1", 1.0).is_initial()
        assert not Change("s2", 1, "s1", 1.0).is_initial()

    def test_changes_are_hashable_and_comparable(self):
        a = Change("s1", 2, "s2", 0.5)
        b = Change("s1", 2, "s2", 0.5)
        assert a == b
        assert len({a, b}) == 1


class TestChangeSet:
    def test_initial_changes_carry_weights(self):
        changes = initial_changes({"s1": 1.5, "s2": 0.5})
        assert changes.weight_of("s1") == 1.5
        assert changes.weight_of("s2") == 0.5
        assert changes.total_weight() == 2.0

    def test_union_is_grow_only_and_idempotent(self):
        base = initial_changes({"s1": 1.0})
        extra = base.add(Change("s1", 2, "s1", 0.5))
        assert base.issubset(extra)
        assert extra.union(extra) == extra
        assert len(base) == 1  # the original set is untouched

    def test_weight_sums_all_deltas_for_server(self):
        changes = ChangeSet(
            [
                Change("s1", 1, "s1", 1.0),
                Change("s2", 2, "s1", 0.25),
                Change("s1", 2, "s1", -0.5),
            ]
        )
        assert changes.weight_of("s1") == pytest.approx(0.75)

    def test_for_server_filters(self):
        changes = ChangeSet(
            [Change("s1", 1, "s1", 1.0), Change("s2", 1, "s2", 1.0)]
        )
        assert len(changes.for_server("s1")) == 1

    def test_by_author_and_max_counter(self):
        changes = ChangeSet(
            [
                Change("s1", 1, "s1", 1.0),
                Change("s1", 2, "s2", 0.5),
                Change("s2", 7, "s2", 1.0),
            ]
        )
        assert len(changes.by_author("s1")) == 2
        assert changes.max_counter("s1") == 2
        assert changes.max_counter("s2") == 7
        assert changes.max_counter("s9") == 0

    def test_non_null_filter(self):
        changes = ChangeSet(
            [Change("s1", 2, "s1", 0.0), Change("s1", 3, "s1", 0.5)]
        )
        assert len(changes.non_null()) == 1

    def test_difference(self):
        small = ChangeSet([Change("s1", 1, "s1", 1.0)])
        big = small.add(Change("s2", 1, "s2", 1.0))
        assert big.difference(small) == frozenset({Change("s2", 1, "s2", 1.0)})

    def test_weights_over_explicit_server_list(self):
        changes = initial_changes({"s1": 1.0})
        weights = changes.weights(["s1", "s2"])
        assert weights == {"s1": 1.0, "s2": 0.0}

    def test_sorted_is_deterministic(self):
        changes = ChangeSet(
            [Change("s2", 1, "s2", 1.0), Change("s1", 1, "s1", 1.0)]
        )
        assert changes.sorted() == tuple(sorted(changes))

    @settings(max_examples=60, deadline=None)
    @given(
        deltas=st.lists(
            st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), min_size=1, max_size=12
        )
    )
    def test_weight_is_sum_of_deltas(self, deltas):
        changes = ChangeSet(
            Change("author", i + 2, "s1", d) for i, d in enumerate(deltas)
        )
        assert changes.weight_of("s1") == pytest.approx(sum(deltas))

    @settings(max_examples=40, deadline=None)
    @given(
        first=st.sets(st.integers(min_value=0, max_value=30), max_size=10),
        second=st.sets(st.integers(min_value=0, max_value=30), max_size=10),
    )
    def test_union_commutative_and_supersets(self, first, second):
        a = ChangeSet(Change("s1", i + 2, "s1", 0.1) for i in first)
        b = ChangeSet(Change("s1", i + 2, "s1", 0.1) for i in second)
        assert a.union(b) == b.union(a)
        assert a.issubset(a.union(b))
        assert b.issubset(a.union(b))

    @settings(max_examples=80, deadline=None)
    @given(
        known=st.sets(st.integers(min_value=0, max_value=12), max_size=10),
        asked=st.lists(st.integers(min_value=0, max_value=12), max_size=10),
    )
    def test_covers_is_the_subset_test(self, known, asked):
        change = lambda i: Change(f"s{i % 3}", i + 2, f"s{i % 4}", 0.1)  # noqa: E731
        known_set = ChangeSet(change(i) for i in known)
        as_tuple = tuple(change(i) for i in asked)
        expected = ChangeSet(as_tuple).issubset(known_set)
        # Twice: the second answer about a covered tuple comes from the memo.
        assert known_set.covers(as_tuple) is expected
        assert known_set.covers(as_tuple) is expected
        # An equal but distinct tuple, and a list (never remembered: it
        # could change afterwards), get the same answer.
        assert known_set.covers(tuple(list(as_tuple))) is expected
        as_list = list(as_tuple)
        assert known_set.covers(as_list) is expected
        as_list.append(Change("intruder", 99, "s0", 1.0))
        assert known_set.covers(as_list) is False

    def test_covered_memo_is_per_instance(self):
        base = initial_changes({"s1": 1.0, "s2": 1.0})
        reported = base.sorted()
        assert base.covers(reported)
        assert base._covered == {id(reported): reported}
        extra = Change("s1", 2, "s2", 0.25)
        grown, merged = base.add(extra), base.union([extra])
        assert grown._covered == {} and merged._covered == {}
        # ... and the fresh sets still answer correctly in both directions.
        assert grown.covers(reported) and merged.covers(reported)
        assert not base.covers(grown.sorted())
        assert base._covered == {id(reported): reported}  # only proven subsets

    @settings(max_examples=80, deadline=None)
    @given(
        deltas=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=4),
                st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
            ),
            max_size=16,
        )
    )
    def test_weight_map_is_bit_identical_to_weight_of(self, deltas):
        changes = ChangeSet(
            Change(f"a{i % 3}", i + 2, f"s{server}", delta)
            for i, (server, delta) in enumerate(deltas)
        )
        appearing = {f"s{server}" for server, _ in deltas}
        weight_map = changes.weight_map()
        assert set(weight_map) == appearing
        for server in sorted(appearing) + ["s9"]:  # s9: in no change
            assert repr(changes.weight_of(server)) == repr(
                weight_of_as_it_was(changes, server)
            )
        assert repr(changes.weight_of("s9")) == "0"
        # servers=None: exactly the servers that appear, each time a copy.
        everything = changes.weights()
        assert set(everything) == appearing
        assert _reprs(everything) == _reprs(weights_as_it_was(changes))
        assert everything is not weight_map and changes.weights() is not everything
        # An explicit list keeps its order and its zero entries.
        asked = ["s9", "s4", "s1", "s3"]
        explicit = changes.weights(asked)
        assert list(explicit) == asked
        assert _reprs(explicit) == _reprs(weights_as_it_was(changes, asked))
        assert changes.weight_map() is weight_map  # built once per instance
        grown = changes.add(Change("late", 99, "s1", 0.1))
        assert repr(grown.weight_of("s1")) == repr(weight_of_as_it_was(grown, "s1"))
        assert grown.weight_map() is not weight_map


def weight_of_as_it_was(self, server):
    """``ChangeSet.weight_of`` before it read ``weight_map()`` (body verbatim)."""
    return sum(c.delta for c in self.sorted() if c.server == server)


def weights_as_it_was(self, servers=None):
    """``ChangeSet.weights`` before it read ``weight_map()`` (body verbatim,
    with the ``weight_of`` above)."""
    if servers is None:
        servers = {c.server for c in self._changes}
    return {server: weight_of_as_it_was(self, server) for server in servers}


def _reprs(weights):
    return {server: repr(weight) for server, weight in weights.items()}


class TestIntegrityCheckers:
    def test_integrity_equivalent_to_property_one(self):
        weights = {"s1": 1.0, "s2": 1.0, "s3": 1.0, "s4": 1.0, "s5": 1.0}
        assert check_integrity(weights, 2)
        assert not check_integrity(weights, 3)

    def test_integrity_fails_when_f_heaviest_reach_half(self):
        weights = {"s1": 2.5, "s2": 0.5, "s3": 1.0, "s4": 1.0}
        assert not check_integrity(weights, 1)

    def test_rp_minimum_weight_formula(self):
        assert rp_minimum_weight(7.0, 7, 2) == pytest.approx(0.7)
        assert rp_minimum_weight(5.0, 5, 1) == pytest.approx(0.625)

    def test_rp_minimum_requires_n_greater_than_f(self):
        with pytest.raises(ConfigurationError):
            rp_minimum_weight(5.0, 3, 3)

    def test_rp_integrity_checker(self):
        weights = {"s1": 1.2, "s2": 1.2, "s3": 1.2, "s4": 0.8, "s5": 0.8, "s6": 0.8, "s7": 1.0}
        assert check_rp_integrity(weights, total_initial_weight=7.0, f=2)
        weights["s4"] = 0.7  # exactly the bound: strictly-greater fails
        assert not check_rp_integrity(weights, total_initial_weight=7.0, f=2)

    def test_rp_integrity_implies_integrity(self):
        """Lemma 1: per-server floors imply Property 1 for the same f."""
        weights = {"s1": 2.0, "s2": 1.5, "s3": 1.2, "s4": 0.8, "s5": 0.75, "s6": 0.75}
        total0 = sum(weights.values())
        if check_rp_integrity(weights, total0, f=2):
            assert check_integrity(weights, 2)


class TestValidityCheckers:
    def test_validity_one_effective(self):
        assert check_validity_one(0.5, 0.5, integrity_would_hold=True)
        assert not check_validity_one(0.5, 0.0, integrity_would_hold=True)

    def test_validity_one_aborted(self):
        assert check_validity_one(0.5, 0.0, integrity_would_hold=False)
        assert not check_validity_one(0.5, 0.5, integrity_would_hold=False)

    def test_validity_one_rejects_zero_request(self):
        assert not check_validity_one(0.0, 0.0, integrity_would_hold=True)

    def test_rp_validity_requires_c1(self):
        assert not check_rp_validity_one(
            source="s1", author="s2", requested_delta=0.5,
            created_source_delta=-0.5, created_target_delta=0.5,
            rp_integrity_would_hold=True,
        )

    def test_rp_validity_effective_shape(self):
        assert check_rp_validity_one(
            source="s1", author="s1", requested_delta=0.5,
            created_source_delta=-0.5, created_target_delta=0.5,
            rp_integrity_would_hold=True,
        )

    def test_rp_validity_null_shape(self):
        assert check_rp_validity_one(
            source="s1", author="s1", requested_delta=0.5,
            created_source_delta=0.0, created_target_delta=0.0,
            rp_integrity_would_hold=False,
        )


class TestSystemConfig:
    def test_uniform_defaults(self):
        config = SystemConfig.uniform(7)
        assert config.n == 7
        assert config.f == 3
        assert config.total_initial_weight == pytest.approx(7.0)

    def test_explicit_f(self):
        config = SystemConfig.uniform(7, f=2)
        assert config.f == 2
        assert config.rp_min_weight == pytest.approx(0.7)

    def test_initial_change_set_matches_weights(self):
        config = SystemConfig.uniform(3, f=1)
        changes = config.initial_change_set()
        assert weights_from_changes(changes, config.servers) == config.initial_weights

    def test_invalid_f_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(servers=server_set(3), f=3)
        with pytest.raises(ConfigurationError):
            SystemConfig(servers=server_set(3), f=-1)

    def test_duplicate_servers_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(servers=("s1", "s1"), f=0)

    def test_initial_weights_must_cover_server_set(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(servers=server_set(3), f=1, initial_weights={"s1": 1.0})

    def test_unavailable_initial_weights_rejected(self):
        with pytest.raises(IntegrityViolation):
            SystemConfig(
                servers=server_set(3),
                f=1,
                initial_weights={"s1": 5.0, "s2": 1.0, "s3": 1.0},
            )

    def test_validate_rp_initial_weights(self):
        config = SystemConfig(
            servers=server_set(4),
            f=1,
            initial_weights={"s1": 1.3, "s2": 1.3, "s3": 0.7, "s4": 0.7},
        )
        config.validate_rp_initial_weights()  # 4/(2*3) = 0.666.. < 0.7: fine
        tight = SystemConfig(
            servers=server_set(4),
            f=1,
            initial_weights={"s1": 1.4, "s2": 1.3, "s3": 0.65, "s4": 0.65},
        )
        with pytest.raises(IntegrityViolation):
            tight.validate_rp_initial_weights()

    def test_paper_example1_weights(self):
        """Example 1's setting is a legal configuration."""
        config = SystemConfig.uniform(4, f=1)
        assert config.rp_min_weight == pytest.approx(4.0 / 6.0)
