"""Tests for the consensus reductions (Algorithms 1, 2) and the oracle services.

These tests execute the paper's impossibility arguments: given a linearizable
("oracle") solution of the unrestricted / pairwise weight reassignment
problems, Algorithms 1 and 2 solve consensus — Agreement, Validity and
Termination all hold.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.core.change import Change
from repro.core.reductions import (
    OraclePairwiseReassignment,
    OracleWeightReassignment,
    algorithm1_propose,
    algorithm2_propose,
    algorithm_config,
    paper_initial_weights,
)
from repro.core.spec import SystemConfig, check_integrity
from repro.errors import ConfigurationError
from repro.net.registers import SWMRRegisterArray
from repro.net.simloop import SimLoop, gather
from repro.types import server_name, server_set


class TestPaperInitialWeights:
    def test_formulas(self):
        weights = paper_initial_weights(7, 2)
        assert weights["s1"] == Fraction(6, 4)
        assert weights["s3"] == Fraction(8, 10)
        assert sum(weights.values()) == 7

    def test_integrity_holds_initially(self):
        for n, f in [(4, 1), (7, 2), (10, 3), (13, 4)]:
            weights = paper_initial_weights(n, f)
            assert check_integrity(weights, f), (n, f)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            paper_initial_weights(3, 0)
        with pytest.raises(ConfigurationError):
            paper_initial_weights(3, 3)


class TestOracleWeightReassignment:
    def test_single_reassignment_is_effective(self):
        loop = SimLoop()
        config = algorithm_config(7, 2)
        oracle = OracleWeightReassignment(loop, config)

        change = loop.run_until_complete(oracle.reassign("s1", "s1", 0.5))
        assert change.delta == 0.5

    @pytest.mark.parametrize("n, f", [(4, 1), (7, 2), (10, 3), (13, 4)])
    def test_the_second_reassignment_lands_exactly_on_the_boundary(self, n, f):
        """Theorem 1's construction: after F gains 0.5, a -0.5 on a server
        outside F would make W_F equal W/2 *exactly* (the weights are
        (n-1)/(2f) and (n+1)/(2(n-f)), e.g. 11/14 and 7/9), so Integrity's
        strict inequality rejects it with no tolerance to lean on."""
        loop = SimLoop()
        oracle = OracleWeightReassignment(loop, algorithm_config(n, f))
        last = server_name(n)

        async def go():
            first = await oracle.reassign("s1", "s1", 0.5)
            second = await oracle.reassign(last, last, -0.5)
            return first, second

        first, second = loop.run_until_complete(go())
        assert (first.delta, second.delta) == (Fraction(1, 2), 0)
        weights = oracle.current_weights()
        weights[last] -= Fraction(1, 2)
        w_f = sum(weights[server_name(i)] for i in range(1, f + 1))
        assert 2 * w_f == sum(weights.values()) == n
        assert not check_integrity(weights, f)

    def test_integrity_violating_reassignment_is_aborted(self):
        loop = SimLoop()
        config = algorithm_config(7, 2)
        oracle = OracleWeightReassignment(loop, config)

        async def go():
            first = await oracle.reassign("s1", "s1", 0.5)
            second = await oracle.reassign("s2", "s2", 0.5)
            return first, second

        first, second = loop.run_until_complete(go())
        assert first.delta == 0.5
        assert second.delta == 0.0  # aborted: two non-null changes would break Integrity

    def test_integrity_invariant_over_trace(self):
        loop = SimLoop()
        config = algorithm_config(7, 2)
        oracle = OracleWeightReassignment(loop, config)

        async def go():
            for index in range(1, 8):
                delta = 0.5 if index <= 2 else -0.5
                await oracle.reassign(server_name(index), server_name(index), delta)

        loop.run_until_complete(go())
        for record in oracle.trace:
            assert check_integrity(record.weights_after, config.f)

    def test_zero_delta_rejected(self):
        loop = SimLoop()
        oracle = OracleWeightReassignment(loop, algorithm_config(4, 1))

        async def go():
            await oracle.reassign("s1", "s1", 0.0)

        with pytest.raises(ConfigurationError):
            loop.run_until_complete(go())

    def test_read_changes_contains_initial_change(self):
        loop = SimLoop()
        config = algorithm_config(4, 1)
        oracle = OracleWeightReassignment(loop, config)
        changes = loop.run_until_complete(oracle.read_changes("s1"))
        assert Change("s1", 1, "s1", config.initial_weights["s1"]) in changes

    def test_example1_semantics(self):
        """The exact sequence of Example 1 (Section III)."""
        loop = SimLoop()
        config = SystemConfig.uniform(4, f=1)
        oracle = OracleWeightReassignment(loop, config)

        async def go():
            created = await oracle.reassign("s1", "s1", 1.5)
            assert created.delta == 1.5
            after_first = await oracle.read_changes("s1")
            assert after_first.weight_of("s1") == Fraction(5, 2)
            # s3 tries to take 0.5 from s2: the f=1 heaviest (s1 at 2.5) would
            # reach half of the new total (5.0 - 0.5)/2 = 2.25 < 2.5 -> abort.
            aborted = await oracle.reassign("s3", "s2", -0.5)
            assert aborted.delta == 0.0
            final = await oracle.read_changes("s2")
            return final

        final = loop.run_until_complete(go())
        assert final.weight_of("s2") == 1
        assert Change("s3", 2, "s2", 0.0) in final


class TestOraclePairwiseReassignment:
    def test_total_weight_is_conserved(self):
        loop = SimLoop()
        config = algorithm_config(7, 2)
        oracle = OraclePairwiseReassignment(loop, config)

        async def go():
            await oracle.transfer("s3", "s3", "s1", 0.4)
            await oracle.transfer("s4", "s4", "s1", 0.4)
            await oracle.transfer("s1", "s1", "s2", 0.1)

        loop.run_until_complete(go())
        for record in oracle.trace:
            assert sum(record.weights_after.values()) == config.total_initial_weight

    def test_second_conflicting_transfer_is_null(self):
        loop = SimLoop()
        config = algorithm_config(7, 2)
        oracle = OraclePairwiseReassignment(loop, config)

        async def go():
            first = await oracle.transfer("s3", "s3", "s1", 0.4)
            second = await oracle.transfer("s4", "s4", "s1", 0.4)
            return first, second

        first, second = loop.run_until_complete(go())
        assert first[0].delta == Fraction(-2, 5)
        assert second[0].delta == 0

    def test_invalid_transfers_rejected(self):
        loop = SimLoop()
        oracle = OraclePairwiseReassignment(loop, algorithm_config(4, 1))

        async def zero():
            await oracle.transfer("s1", "s1", "s2", 0.0)

        async def same():
            await oracle.transfer("s1", "s1", "s1", 0.5)

        for bad in (zero, same):
            with pytest.raises(ConfigurationError):
                loop.run_until_complete(bad())


class TestAlgorithm1Reduction:
    @pytest.mark.parametrize("n,f", [(4, 1), (7, 2), (10, 3)])
    def test_consensus_properties(self, n, f):
        loop = SimLoop()
        config = algorithm_config(n, f)
        registers = SWMRRegisterArray(config.servers)
        oracle = OracleWeightReassignment(loop, config)
        proposals = {i: f"value-{i}" for i in range(1, n + 1)}

        decisions = loop.run_until_complete(
            gather(
                loop,
                [
                    algorithm1_propose(loop, config, registers, oracle, i, proposals[i])
                    for i in range(1, n + 1)
                ],
            )
        )
        # Termination: every server decided.  Agreement: all the same value.
        assert len(decisions) == n
        assert len(set(decisions)) == 1
        # Validity: the decision is one of the proposals.
        assert decisions[0] in proposals.values()

    def test_exactly_one_non_null_change_exists(self):
        loop = SimLoop()
        config = algorithm_config(7, 2)
        registers = SWMRRegisterArray(config.servers)
        oracle = OracleWeightReassignment(loop, config)

        loop.run_until_complete(
            gather(
                loop,
                [
                    algorithm1_propose(loop, config, registers, oracle, i, i)
                    for i in range(1, 8)
                ],
            )
        )
        non_null = [
            record
            for record in oracle.trace
            if any(change.delta != 0 for change in record.created)
        ]
        assert len(non_null) == 1

    def test_decision_matches_winner_register(self):
        loop = SimLoop()
        config = algorithm_config(4, 1)
        registers = SWMRRegisterArray(config.servers)
        oracle = OracleWeightReassignment(loop, config)

        decisions = loop.run_until_complete(
            gather(
                loop,
                [
                    algorithm1_propose(loop, config, registers, oracle, i, f"p{i}")
                    for i in range(1, 5)
                ],
            )
        )
        winner = next(
            record.author
            for record in oracle.trace
            if any(change.delta != 0 for change in record.created)
        )
        assert decisions[0] == registers.read(winner)


class TestAlgorithm2Reduction:
    @pytest.mark.parametrize("n,f", [(4, 1), (7, 2), (10, 3)])
    def test_consensus_properties(self, n, f):
        loop = SimLoop()
        config = algorithm_config(n, f)
        registers = SWMRRegisterArray(config.servers)
        oracle = OraclePairwiseReassignment(loop, config)
        proposals = {i: f"value-{i}" for i in range(1, n + 1)}

        decisions = loop.run_until_complete(
            gather(
                loop,
                [
                    algorithm2_propose(loop, config, registers, oracle, i, proposals[i])
                    for i in range(1, n + 1)
                ],
            )
        )
        assert len(decisions) == n
        assert len(set(decisions)) == 1
        assert decisions[0] in proposals.values()

    def test_decided_value_comes_from_outside_f(self):
        """Algorithm 2 decides a proposal of a server outside F = {s1..sf}."""
        loop = SimLoop()
        config = algorithm_config(7, 2)
        registers = SWMRRegisterArray(config.servers)
        oracle = OraclePairwiseReassignment(loop, config)

        decisions = loop.run_until_complete(
            gather(
                loop,
                [
                    algorithm2_propose(loop, config, registers, oracle, i, f"p{i}")
                    for i in range(1, 8)
                ],
            )
        )
        decided = decisions[0]
        assert decided in {f"p{i}" for i in range(3, 8)}  # s3..s7 are outside F

    def test_f_internal_shuffles_keep_f_total_constant(self):
        loop = SimLoop()
        config = algorithm_config(7, 2)
        registers = SWMRRegisterArray(config.servers)
        oracle = OraclePairwiseReassignment(loop, config)

        loop.run_until_complete(
            gather(
                loop,
                [
                    algorithm2_propose(loop, config, registers, oracle, i, i)
                    for i in range(1, 8)
                ],
            )
        )
        final_weights = oracle.current_weights()
        f_total = sum(final_weights[server_name(i)] for i in range(1, 3))
        # F's internal 0.1-shuffles cancel out; the one effective 0.4 transfer
        # into s1 is the only net change.
        assert f_total == Fraction(7 - 1, 2) + Fraction(2, 5)

    def test_total_weight_never_changes(self):
        loop = SimLoop()
        config = algorithm_config(10, 3)
        registers = SWMRRegisterArray(config.servers)
        oracle = OraclePairwiseReassignment(loop, config)

        loop.run_until_complete(
            gather(
                loop,
                [
                    algorithm2_propose(loop, config, registers, oracle, i, i)
                    for i in range(1, 11)
                ],
            )
        )
        for record in oracle.trace:
            assert sum(record.weights_after.values()) == 10
