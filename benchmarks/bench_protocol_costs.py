"""E11 — Protocol micro-costs: message complexity and latency vs. n.

The paper gives Algorithms 3 and 4 without a cost analysis; this benchmark
fills in the constants a practitioner would ask about.  For a sweep of
cluster sizes it measures, in the constant-latency model (delay = 1):

* ``transfer``: completion latency (paper: one reliable broadcast plus one
  acknowledgement round, i.e. a small constant number of delays) and the
  number of protocol messages (O(n^2) due to the echo-based reliable
  broadcast);
* ``read_changes``: completion latency (two request/reply rounds = 4 delays)
  and its O(n) message count.
"""

from __future__ import annotations

from repro.core.protocol import read_changes
from repro.core.spec import SystemConfig
from repro.net.process import Process
from repro.sim.cluster import build_reassignment_fleet

from benchmarks.conftest import print_table

SWEEP = [4, 7, 10, 16, 25]


def run_sweep():
    rows = []
    for n in SWEEP:
        f = (n - 1) // 3
        fleet = build_reassignment_fleet(SystemConfig.uniform(n, f=f))
        loop, network, config, servers = fleet.loop, fleet.network, fleet.config, fleet.servers
        client = Process("c1", network)

        async def one_transfer():
            network.reset_stats()
            outcome = await servers["s1"].transfer("s2", 0.05)
            return outcome

        outcome = loop.run_until_complete(one_transfer())
        loop.run()  # let the broadcast echo finish for an honest message count
        transfer_messages = network.messages_sent
        transfer_latency = outcome.latency

        async def one_read():
            network.reset_stats()
            started = loop.now
            await read_changes(client, "s2", config)
            return loop.now - started

        read_latency = loop.run_until_complete(one_read())
        read_messages = network.messages_sent
        rows.append(
            {
                "n": n,
                "f": f,
                "transfer_latency": transfer_latency,
                "transfer_messages": transfer_messages,
                "read_latency": read_latency,
                "read_messages": read_messages,
            }
        )
    return rows


def test_protocol_costs():
    rows = run_sweep()

    print_table(
        "E11: cost of transfer and read_changes vs. cluster size (unit link delay)",
        ["n", "f", "transfer latency", "transfer msgs", "read_changes latency", "read_changes msgs"],
        [
            (
                row["n"],
                row["f"],
                f"{row['transfer_latency']:.1f}",
                row["transfer_messages"],
                f"{row['read_latency']:.1f}",
                row["read_messages"],
            )
            for row in rows
        ],
    )
    print("expected shape: latencies stay constant (a fixed number of message delays) "
          "while message counts grow ~n^2 for transfer (echo broadcast) and ~n for "
          "read_changes")

    latencies = [row["transfer_latency"] for row in rows]
    # Constant number of message delays, independent of n.
    assert max(latencies) - min(latencies) < 1e-9
    read_latencies = [row["read_latency"] for row in rows]
    assert max(read_latencies) - min(read_latencies) < 1e-9
    # Message complexity grows superlinearly for transfer, linearly for reads.
    assert rows[-1]["transfer_messages"] > rows[0]["transfer_messages"] * 4
    assert rows[-1]["read_messages"] < rows[0]["read_messages"] * 12
