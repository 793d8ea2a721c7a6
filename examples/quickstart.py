#!/usr/bin/env python3
"""Quickstart: a dynamic-weighted atomic register in a few lines.

Builds a 5-server cluster (tolerating f = 1 crash), writes and reads the
register, reassigns voting power with the paper's restricted pairwise
protocol, and shows that the client's view of the weights follows along.

Run with:  python examples/quickstart.py
"""

from repro import SystemConfig, build_dynamic_cluster
from repro.net.latency import UniformLatency
from repro.types import float_weights


def main() -> None:
    config = SystemConfig.uniform(5, f=1)
    latency = UniformLatency(0.5, 1.5, seed=7)
    # Leaving the block closes the world, so reference counting frees it.
    with build_dynamic_cluster(config, latency=latency, client_count=2) as cluster:
        writer = cluster.client("c1")
        reader = cluster.client("c2")
        servers = cluster.servers

        async def scenario() -> None:
            # Weights are exact fractions; they print as floats.
            print(f"initial weights       : {float_weights(config.initial_weights)}")
            print(f"RP-Integrity bound    : {float(config.rp_min_weight):.3f}")

            await writer.write("hello, weighted world")
            print(f"reader sees           : {await reader.read()!r}")

            # s1 hands a quarter of its voting power to s2 (Algorithm 4).
            outcome = await servers["s1"].transfer("s2", 0.25)
            print(f"transfer effective?   : {outcome.effective} "
                  f"(took {outcome.latency:.2f} time units)")

            # A rejected transfer: s1 cannot dip below the RP-Integrity bound.
            rejected = await servers["s1"].transfer("s3", 5.0)
            print(f"oversized transfer    : effective={rejected.effective} (null change)")

            await writer.write("value after reweighting")
            print(f"reader sees           : {await reader.read()!r}")
            print(f"reader's weight view  : {float_weights(reader.observed_weights())}")

        cluster.loop.run_until_complete(scenario())
        print(f"virtual time elapsed  : {cluster.loop.now:.2f}")
        print(f"messages exchanged    : {cluster.network.messages_sent}")


if __name__ == "__main__":
    main()
