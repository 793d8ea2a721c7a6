#!/usr/bin/env python3
"""A step-by-step walkthrough of the paper's Fig. 1 / Example 2 scenario.

Seven servers, f = 2, everyone starts with weight 1.  Three transfers move
weight onto s1, s2 and s3 until those three servers alone form a weighted
quorum; two further transfers (the red box in Fig. 1) would push their
sources to the RP-Integrity bound and are therefore rejected as null
transfers.

Run with:  python examples/fig1_walkthrough.py
"""

from repro import SystemConfig
from repro.core.protocol import read_changes
from repro.net.process import Process
from repro.quorum.weighted import WeightedMajorityQuorumSystem, smallest_quorum_size
from repro.sim.cluster import build_reassignment_fleet
from repro.types import float_weights


def show_weights(title, weights, bound):
    # Weights are exact fractions; they print as floats.
    formatted = ", ".join(f"{server}={weight:.1f}" for server, weight in float_weights(weights).items())
    print(f"  {title:<28}: {formatted}   (bound {float(bound):.2f})")


def main() -> None:
    config = SystemConfig.uniform(7, f=2)
    with build_reassignment_fleet(config) as fleet:
        loop, servers = fleet.loop, fleet.servers
        observer = Process("observer", fleet.network)

        print("=== Fig. 1 / Example 2: restricted pairwise weight reassignment ===")
        print(f"n = {config.n}, f = {config.f}, RP-Integrity bound = {float(config.rp_min_weight):.2f}\n")

        async def scenario():
            initial = servers["s1"].local_weights()
            show_weights("initial weights", initial, config.rp_min_weight)
            print(f"  smallest quorum size        : {smallest_quorum_size(initial)}\n")

            plan = [("s4", "s1", 0.2), ("s5", "s2", 0.2), ("s6", "s3", 0.2)]
            for source, target, delta in plan:
                outcome = await servers[source].transfer(target, delta)
                print(f"  transfer({source} -> {target}, {delta}): "
                      f"{'effective' if outcome.effective else 'REJECTED'}")
            await loop.sleep(5.0)

            weights = servers["s1"].local_weights()
            show_weights("weights at t1", weights, config.rp_min_weight)
            quorum = WeightedMajorityQuorumSystem(weights)
            print(f"  smallest quorum size        : {smallest_quorum_size(weights)}")
            print(f"  {{s1,s2,s3}} is a quorum      : {quorum.is_quorum(['s1', 's2', 's3'])}\n")

            print("  -- the red box of Fig. 1 (rejected by RP-Integrity) --")
            for source, target, delta in [("s6", "s2", 0.2), ("s7", "s3", 0.3)]:
                outcome = await servers[source].transfer(target, delta)
                print(f"  transfer({source} -> {target}, {delta}): "
                      f"{'effective' if outcome.effective else 'REJECTED (null change)'}")

            # A client can audit every change with read_changes (Algorithm 3).
            changes = await read_changes(observer, "s1", config)
            print(f"\n  observer's view of s1's changes: "
                  f"{sorted((c.author, c.counter, round(float(c.delta), 2)) for c in changes)}")
            print(f"  observer computes W(s1) = {float(changes.weight_of('s1')):.1f}")

        loop.run_until_complete(scenario())


if __name__ == "__main__":
    main()
