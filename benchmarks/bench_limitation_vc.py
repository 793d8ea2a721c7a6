"""E9 — Section V-C: the restricted protocol cannot always shrink quorums.

Reproduces the discussion's example: n = 7, f = 2, initial weights
(1.6, 1.4, 0.8, 0.8, 0.8, 0.8, 0.8), and the two heavy servers s1, s2 become
slow/failed.  Under the *unrestricted* problem the remaining servers could
take over their weight; under the restricted pairwise problem nobody but
s1/s2 themselves may move that weight, so the smallest quorum that avoids
them stays at five servers.
"""

from __future__ import annotations

from repro.core.protocol import ReassignmentServer
from repro.core.spec import SystemConfig
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.net.simloop import SimLoop
from repro.quorum.weighted import WeightedMajorityQuorumSystem

from benchmarks.conftest import print_table

WEIGHTS = {"s1": 1.6, "s2": 1.4, "s3": 0.8, "s4": 0.8, "s5": 0.8, "s6": 0.8, "s7": 0.8}


def smallest_quorum_avoiding(weights, avoid):
    usable = {server: weight for server, weight in weights.items() if server not in avoid}
    total = sum(weights.values())
    accumulated, count = 0.0, 0
    for weight in sorted(usable.values(), reverse=True):
        accumulated += weight
        count += 1
        if accumulated > total / 2:
            return count
    return None  # no quorum without the avoided servers


def run_scenario():
    config = SystemConfig(servers=tuple(sorted(WEIGHTS, key=lambda s: int(s[1:]))),
                          f=2, initial_weights=dict(WEIGHTS))
    loop = SimLoop()
    network = Network(loop, ConstantLatency(1.0))
    servers = {pid: ReassignmentServer(pid, network, config) for pid in config.servers}

    before = smallest_quorum_avoiding(WEIGHTS, avoid={"s1", "s2"})

    async def try_to_shrink():
        # The healthy servers try every RP-legal move they have: they can only
        # shuffle their *own* 0.8 weights among themselves, never touch s1/s2.
        attempts = []
        attempts.append(await servers["s3"].transfer("s4", 0.05))
        attempts.append(await servers["s5"].transfer("s6", 0.05))
        # They cannot take weight from s1/s2 (C1 forbids it by construction:
        # there is no operation for it), and they cannot give much of their own
        # away (C2 caps them at the 0.7 bound), so attempts to concentrate
        # weight are mostly rejected.
        attempts.append(await servers["s4"].transfer("s3", 0.2))
        return attempts

    attempts = loop.run_until_complete(try_to_shrink())
    loop.run()
    after_weights = servers["s3"].local_weights()
    after = smallest_quorum_avoiding(after_weights, avoid={"s1", "s2"})
    return config, attempts, before, after, after_weights


def test_limitation_with_slow_heavy_servers():
    config, attempts, before, after, after_weights = run_scenario()

    print_table(
        "E9 / Sec. V-C: smallest quorum avoiding the slow servers s1, s2",
        ["stage", "smallest quorum without {s1,s2}"],
        [
            ("initial weights (paper: 5)", before),
            ("after every RP-legal reassignment attempt", after),
        ],
    )
    full_quorum = WeightedMajorityQuorumSystem(after_weights)
    print(f"for comparison, the smallest quorum *using* s1/s2 has "
          f"{full_quorum.smallest_quorum_size()} servers")
    print("paper claim (Sec. V-C): with the restricted problem, servers cannot form "
          "smaller quorums by reassigning weights when the heavy servers are slow/failed")

    assert before == 5
    assert after == 5  # the restriction prevents any improvement
