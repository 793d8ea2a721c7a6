#!/usr/bin/env python3
"""Adaptive geo-replicated storage: monitoring-driven weight reassignment.

The scenario the paper's introduction motivates: a storage system replicated
across heterogeneous wide-area sites.  A latency monitor probes the servers,
a policy computes inverse-latency target weights, and per-server controllers
move voting power towards the targets using the paper's consensus-free
``transfer`` operation — all while clients keep reading and writing.

Halfway through the run the fastest site slows down by 10x; the monitor picks
it up, the controllers shift the weight away from it, and client latency
recovers without any reconfiguration or consensus.

Run with:  python examples/wan_adaptive_storage.py
"""

from repro import SystemConfig, build_dynamic_cluster
from repro.monitoring import (
    LatencyMonitor,
    WeightController,
    install_probe_responder,
    proportional_inverse_latency_weights,
)
from repro.net.latency import PerLinkLatency, SlowdownLatency
from repro.net.process import Process
from repro.sim.metrics import summarize
from repro.types import float_weights


SITES = {
    "s1": "frankfurt",
    "s2": "frankfurt",
    "s3": "london",
    "s4": "paris",
    "s5": "sydney",
}

# One-way latencies from the client's site (Frankfurt) to each server.
# London (s3) and Paris (s4) are moderately close; Sydney (s5) is far away.
CLIENT_RTT_ONE_WAY = {"s1": 1.0, "s2": 1.0, "s3": 5.0, "s4": 6.0, "s5": 40.0}


def build_latency_model():
    table = {}
    for server, one_way in CLIENT_RTT_ONE_WAY.items():
        for client in ("c1", "monitor"):
            table[(client, server)] = one_way
            table[(server, client)] = one_way
    # Server-to-server latencies: symmetric, derived from the same geography.
    for a, la in CLIENT_RTT_ONE_WAY.items():
        for b, lb in CLIENT_RTT_ONE_WAY.items():
            if a != b:
                table[(a, b)] = max(abs(la - lb), 1.0)
    base = PerLinkLatency(table, default=1.0, jitter=0.05, seed=3)
    # After t=300, the Frankfurt servers degrade by 10x (e.g. an overloaded AZ).
    return SlowdownLatency(base, slow=["s1", "s2"], factor=10.0, start_at=300.0)


def main() -> None:
    config = SystemConfig.uniform(5, f=1)
    latency = build_latency_model()
    with build_dynamic_cluster(config, latency=latency, client_count=1) as cluster:
        client = cluster.client("c1")
        loop, network = cluster.loop, cluster.network

        for server in cluster.servers.values():
            install_probe_responder(server)
        monitor_process = Process("monitor", network)
        monitor = LatencyMonitor(config.servers)
        controllers = {
            pid: WeightController(server, tolerance=0.05)
            for pid, server in cluster.servers.items()
        }

        phases = {"healthy (t<300)": [], "degraded, adapting (300-700)": [], "adapted (t>700)": []}

        def phase_bucket():
            if loop.now < 300.0:
                return phases["healthy (t<300)"]
            if loop.now < 700.0:
                return phases["degraded, adapting (300-700)"]
            return phases["adapted (t>700)"]

        async def client_loop() -> None:
            await client.write("initial")
            for index in range(140):
                bucket = phase_bucket()
                if index % 3 == 0:
                    await client.write(f"v{index}")
                else:
                    await client.read()
                bucket.append(client.history[-1].latency)
                await loop.sleep(4.0)

        async def adaptation_loop() -> None:
            for _ in range(70):
                await loop.sleep(15.0)
                observed = await monitor.probe(monitor_process, timeout=500.0)
                if len(observed) < len(config.servers):
                    continue
                targets = proportional_inverse_latency_weights(monitor.summary(), config)
                for controller in controllers.values():
                    controller.set_targets(targets)
                    await controller.step()

        from repro.net.simloop import gather

        loop.run_until_complete(gather(loop, [client_loop(), adaptation_loop()]))

        print("=== adaptive geo-replicated storage ===")
        final_weights = cluster.servers["s3"].local_weights()
        print("final weights (server view of s3):")
        for server, weight in float_weights(final_weights).items():
            marker = "  <- slowed at t=300" if server in ("s1", "s2") else ""
            print(f"    {server}: {weight:.3f}{marker}")
        for phase, samples in phases.items():
            if samples:
                print(f"client latency, {phase:<30}: {summarize(samples).as_row()}")
        print("(the controllers move voting power away from the degraded Frankfurt "
              "servers using only the consensus-free transfer operation)")


if __name__ == "__main__":
    main()
