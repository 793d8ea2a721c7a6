"""E2 — Example 1 (Section III): unrestricted weight-reassignment semantics.

Replays the exact operation sequence of Example 1 against the oracle
implementation of the (consensus-requiring) weight reassignment problem and
checks every outcome the example states: the effective +1.5 reassignment, the
read that must contain it, and the aborted -0.5 reassignment that would have
violated Integrity.
"""

from __future__ import annotations

from repro.core.change import Change
from repro.core.reductions import OracleWeightReassignment
from repro.core.spec import SystemConfig, check_integrity
from repro.net.simloop import SimLoop

from benchmarks.conftest import print_table


def run_example1():
    config = SystemConfig.uniform(4, f=1)
    loop = SimLoop()
    oracle = OracleWeightReassignment(loop, config)

    async def scenario():
        steps = []
        first = await oracle.reassign("s1", "s1", 1.5)
        steps.append(("reassign(s1, +1.5) by s1", first.delta))
        read_s1 = await oracle.read_changes("s1")
        steps.append(("read_changes(s1) by c1 -> W(s1)", read_s1.weight_of("s1")))
        second = await oracle.reassign("s3", "s2", -0.5)
        steps.append(("reassign(s2, -0.5) by s3", second.delta))
        read_s2 = await oracle.read_changes("s2")
        steps.append(("read_changes(s2) by c2 -> W(s2)", read_s2.weight_of("s2")))
        return steps, read_s1, read_s2

    steps, read_s1, read_s2 = loop.run_until_complete(scenario())
    return config, oracle, steps, read_s1, read_s2


def test_example1_semantics():
    config, oracle, steps, read_s1, read_s2 = run_example1()

    paper_expectations = ["1.5 (effective)", "2.5", "0.0 (aborted)", "1.0"]
    print_table(
        "E2 / Example 1: operation outcomes (n=4, f=1)",
        ["operation", "paper", "measured"],
        [
            (name, paper_expectations[index], f"{value:.1f}")
            for index, (name, value) in enumerate(steps)
        ],
    )

    # Shape assertions straight from the example's text.
    assert steps[0][1] == 1.5
    assert steps[1][1] == 2.5
    assert steps[2][1] == 0.0
    assert steps[3][1] == 1.0
    assert Change("s1", 2, "s1", 1.5) in read_s1
    assert Change("s3", 2, "s2", 0.0) in read_s2
    for record in oracle.trace:
        assert check_integrity(record.weights_after, config.f)
