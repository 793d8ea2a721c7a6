"""Tests for Algorithms 3 and 4: restricted pairwise weight reassignment."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.change import Change
from repro.core.protocol import ReassignmentServer, read_changes
from repro.core.spec import SystemConfig, check_integrity, check_rp_integrity
from repro.errors import ConfigurationError, SimulationError
from repro.net.latency import ConstantLatency, UniformLatency
from repro.net.network import Network
from repro.net.process import Process
from repro.net.simloop import SimLoop, gather

from tests.conftest import make_net


def build_protocol_cluster(n, f, latency=None, weights=None):
    loop = SimLoop()
    network = Network(loop, latency or ConstantLatency(1.0))
    config = (
        SystemConfig.uniform(n, f=f)
        if weights is None
        else SystemConfig(servers=tuple(sorted(weights, key=lambda s: int(s[1:]))), f=f, initial_weights=weights)
    )
    servers = {pid: ReassignmentServer(pid, network, config) for pid in config.servers}
    return loop, network, config, servers


class TestTransferBasics:
    def test_effective_transfer_moves_weight(self):
        loop, _, config, servers = build_protocol_cluster(5, 1)

        async def go():
            return await servers["s1"].transfer("s2", 0.25)

        outcome = loop.run_until_complete(go())
        assert outcome.effective
        assert servers["s1"].weight() == pytest.approx(0.75)
        loop.run()
        assert servers["s3"].weight_of("s2") == pytest.approx(1.25)

    def test_null_transfer_when_c2_fails(self):
        loop, _, config, servers = build_protocol_cluster(5, 2)
        # rp bound = 5/(2*3) = 0.8333..; giving 0.25 away would land below it.

        async def go():
            return await servers["s1"].transfer("s2", 0.25)

        outcome = loop.run_until_complete(go())
        assert not outcome.effective
        assert outcome.change.delta == 0
        assert servers["s1"].weight() == pytest.approx(1.0)

    def test_null_transfer_does_not_broadcast(self):
        loop, network, config, servers = build_protocol_cluster(5, 2)

        async def go():
            return await servers["s1"].transfer("s2", 0.25)

        loop.run_until_complete(go())
        loop.run()
        assert network.sent_by_kind["T_RB"] == 0

    def test_an_effective_transfer_creates_the_pairwise_shape(self):
        """RP-Validity-I: ``-delta`` for the source, ``+delta`` for the
        target, both authored by the source under one counter."""
        loop, _, config, servers = build_protocol_cluster(5, 1)
        outcome = loop.run_until_complete(servers["s1"].transfer("s2", 0.25))
        assert outcome.change == Change("s1", 2, "s1", -0.25)
        assert outcome.counterpart == Change("s1", 2, "s2", 0.25)
        assert outcome.change.delta == -0.25 and outcome.counterpart.delta == 0.25

    def test_a_null_transfer_creates_zero_changes_for_both(self):
        loop, _, config, servers = build_protocol_cluster(5, 2)
        outcome = loop.run_until_complete(servers["s1"].transfer("s2", 0.25))
        assert (outcome.change.author, outcome.counterpart.author) == ("s1", "s1")
        assert outcome.change.delta == 0 and outcome.counterpart.delta == 0
        assert outcome.counterpart.server == "s2"

    def test_only_the_source_gives_weight_away(self):
        """C1 over a whole run: every negative change any server learns of
        lowers its author's own weight."""
        loop, _, config, servers = build_protocol_cluster(5, 1)

        async def go():
            await gather(loop, [
                servers["s1"].transfer("s2", 0.1),
                servers["s3"].transfer("s1", 0.05),
                servers["s4"].transfer("s5", 0.1),
            ])

        loop.run_until_complete(go())
        loop.run()
        for server in servers.values():
            negative = [c for c in server.changes if c.delta < 0]
            assert len(negative) == 3
            assert all(c.server == c.author for c in negative)

    def test_boundary_transfer_is_rejected(self):
        """Giving away exactly down to the bound violates the strict inequality."""
        loop, _, config, servers = build_protocol_cluster(7, 2)
        # bound = 0.7; transferring 0.3 leaves exactly 0.7 -> must be null.

        async def go():
            return await servers["s7"].transfer("s3", 0.3)

        assert not loop.run_until_complete(go()).effective

    def test_local_counter_increments_even_for_null_transfers(self):
        loop, _, config, servers = build_protocol_cluster(5, 2)

        async def go():
            await servers["s1"].transfer("s2", 0.25)   # null
            await servers["s1"].transfer("s2", 0.01)   # effective
            return servers["s1"].lc

        assert loop.run_until_complete(go()) == 4  # started at 2, two invocations

    def test_counters_distinguish_transfers(self):
        loop, _, config, servers = build_protocol_cluster(5, 1)

        async def go():
            first = await servers["s1"].transfer("s2", 0.1)
            second = await servers["s1"].transfer("s3", 0.1)
            return first, second

        first, second = loop.run_until_complete(go())
        assert first.change.counter == 2
        assert second.change.counter == 3

    def test_transfer_log_records_outcomes(self):
        loop, _, config, servers = build_protocol_cluster(5, 1)

        async def go():
            await servers["s1"].transfer("s2", 0.1)
            await servers["s1"].transfer("s2", 5.0)  # far too much: null
            return servers["s1"].transfer_log

        log = loop.run_until_complete(go())
        assert [entry.effective for entry in log] == [True, False]

    def test_invalid_invocations_rejected(self):
        loop, _, config, servers = build_protocol_cluster(5, 1)

        async def zero():
            await servers["s1"].transfer("s2", 0.0)

        async def negative():
            await servers["s1"].transfer("s2", -0.5)

        async def to_self():
            await servers["s1"].transfer("s1", 0.1)

        async def unknown():
            await servers["s1"].transfer("s99", 0.1)

        for bad in (zero, negative, to_self, unknown):
            with pytest.raises(ConfigurationError):
                loop.run_until_complete(bad())

    def test_concurrent_invocations_by_same_server_rejected(self):
        """Processes are sequential (Section II)."""
        loop, _, config, servers = build_protocol_cluster(5, 1)

        async def go():
            first = loop.create_task(servers["s1"].transfer("s2", 0.1))
            await loop.sleep(0.1)
            with pytest.raises(SimulationError):
                await servers["s1"].transfer("s3", 0.1)
            await first

        loop.run_until_complete(go())

    def test_server_outside_config_rejected(self):
        loop, network, config, servers = build_protocol_cluster(3, 1)
        with pytest.raises(ConfigurationError):
            ReassignmentServer("s9", network, config)


class TestTransferFaultTolerance:
    def test_transfer_completes_with_f_servers_crashed(self):
        loop, network, config, servers = build_protocol_cluster(7, 2)
        network.crash("s6")
        network.crash("s7")

        async def go():
            return await servers["s1"].transfer("s2", 0.2)

        outcome = loop.run_until_complete(go())
        assert outcome.effective
        # All surviving servers eventually learn the change.
        loop.run()
        for pid in ("s1", "s2", "s3", "s4", "s5"):
            assert servers[pid].weight_of("s2") == pytest.approx(1.2)

    def test_transfer_blocks_with_more_than_f_crashes(self):
        """With f+1 crashes the n-f-1 acknowledgements never arrive.

        In the deterministic simulation this surfaces as a deadlock (the event
        heap drains while the transfer is still waiting for acknowledgements).
        """
        from repro.errors import DeadlockError

        loop, network, config, servers = build_protocol_cluster(5, 1)
        network.crash("s4")
        network.crash("s5")

        async def go():
            return await servers["s1"].transfer("s2", 0.2)

        with pytest.raises(DeadlockError):
            loop.run_until_complete(go(), max_time=500.0)

    def test_concurrent_transfers_by_different_servers(self):
        loop, _, config, servers = build_protocol_cluster(7, 2)

        async def one(source, target, delta):
            return await servers[source].transfer(target, delta)

        outcomes = loop.run_until_complete(
            gather(
                loop,
                [one("s4", "s1", 0.2), one("s5", "s2", 0.2), one("s6", "s3", 0.2)],
            )
        )
        assert all(outcome.effective for outcome in outcomes)
        loop.run()
        weights = servers["s1"].local_weights()
        assert weights["s1"] == pytest.approx(1.2)
        assert weights["s4"] == pytest.approx(0.8)
        assert sum(weights.values()) == pytest.approx(7.0)


class TestRPIntegrityInvariant:
    def test_fig1_scenario_preserves_rp_integrity(self):
        loop, _, config, servers = build_protocol_cluster(7, 2)

        async def go():
            results = []
            results.append(await servers["s4"].transfer("s1", 0.2))
            results.append(await servers["s5"].transfer("s2", 0.2))
            results.append(await servers["s6"].transfer("s3", 0.2))
            # The red-box transfers of Fig. 1: both must be rejected.
            results.append(await servers["s6"].transfer("s2", 0.2))
            results.append(await servers["s7"].transfer("s3", 0.3))
            return results

        results = loop.run_until_complete(go())
        assert [r.effective for r in results] == [True, True, True, False, False]
        loop.run()
        for server in servers.values():
            weights = server.local_weights()
            assert check_rp_integrity(weights, config.total_initial_weight, config.f)
            assert check_integrity(weights, config.f)

    @settings(max_examples=25, deadline=None)
    @given(
        requests=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=5),
                st.integers(min_value=1, max_value=5),
                st.floats(min_value=0.01, max_value=0.6, allow_nan=False),
            ),
            min_size=1,
            max_size=8,
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_random_transfer_sequences_never_violate_safety(self, requests, seed):
        """RP-Integrity, Integrity and total-weight conservation hold for any
        sequence of transfer requests, whatever their outcome."""
        loop, _, config, servers = build_protocol_cluster(
            5, 1, latency=UniformLatency(0.5, 1.5, seed=seed)
        )

        async def go():
            for source_index, target_index, delta in requests:
                source = f"s{source_index}"
                target = f"s{target_index}"
                if source == target:
                    continue
                await servers[source].transfer(target, round(delta, 3))

        loop.run_until_complete(go())
        loop.run()
        for server in servers.values():
            weights = server.local_weights()
            assert check_rp_integrity(weights, config.total_initial_weight, config.f)
            assert check_integrity(weights, config.f)
            assert sum(weights.values()) == pytest.approx(config.total_initial_weight)

    @settings(max_examples=40, deadline=None)
    @example(n=5, requests=[(4, 1, 1e-06), (5, 3, 1e-05)], seed=0)
    @example(n=7, requests=[(4, 1, 0.1), (5, 2, 0.1), (6, 3, 0.1), (7, 1, 0.1)], seed=0)
    @given(
        n=st.integers(min_value=3, max_value=7),
        requests=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=7),
                st.integers(min_value=1, max_value=7),
                st.floats(min_value=1e-6, max_value=2.0)
                | st.sampled_from([0.1, 0.2, 0.3, 1 / 3, 0.05]),
            ),
            min_size=1,
            max_size=12,
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_every_view_sums_to_n_exactly(self, n, requests, seed):
        """Weights are exact: after any transfers, concurrent across sources,
        every server's view sums to ``n`` with ``==``, not approximately.
        The explicit examples are two that float weights failed (the second
        is ``epoch-vs-epochless``'s four 0.1 transfers)."""
        loop, _, config, servers = build_protocol_cluster(
            n, (n - 1) // 2, latency=UniformLatency(0.5, 1.5, seed=seed)
        )
        by_source = {}
        for source, target, delta in requests:
            if source != target and max(source, target) <= n:
                by_source.setdefault(f"s{source}", []).append((f"s{target}", delta))

        async def issue(source, transfers):
            for target, delta in transfers:
                await servers[source].transfer(target, delta)

        loop.run_until_complete(
            gather(loop, [issue(*item) for item in by_source.items()])
        )
        loop.run()
        for server in servers.values():
            assert sum(server.local_weights().values()) == n


class TestReadChanges:
    def test_client_sees_completed_changes(self):
        loop, network, config, servers = build_protocol_cluster(5, 1)
        client = Process("c1", network)

        async def go():
            await servers["s1"].transfer("s2", 0.25)
            return await read_changes(client, "s2", config)

        changes = loop.run_until_complete(go())
        assert changes.weight_of("s2") == pytest.approx(1.25)

    def test_unknown_server_rejected(self):
        loop, network, config, servers = build_protocol_cluster(3, 1)
        client = Process("c1", network)

        async def go():
            await read_changes(client, "s9", config)

        with pytest.raises(ConfigurationError):
            loop.run_until_complete(go())

    def test_read_changes_works_with_f_crashes(self):
        loop, network, config, servers = build_protocol_cluster(5, 2)
        network.crash("s4")
        network.crash("s5")
        client = Process("c1", network)

        async def go():
            return await read_changes(client, "s1", config)

        changes = loop.run_until_complete(go())
        assert changes.weight_of("s1") == pytest.approx(1.0)

    def test_validity_two_monotonic_reads(self):
        """RP-Validity-II: once a change is returned, later reads contain it."""
        loop, network, config, servers = build_protocol_cluster(5, 2)
        reader_a = Process("c1", network)
        reader_b = Process("c2", network)

        async def go():
            await servers["s1"].transfer("s2", 0.05)
            first = await read_changes(reader_a, "s2", config)
            second = await read_changes(reader_b, "s2", config)
            return first, second

        first, second = loop.run_until_complete(go())
        assert second.covers(first)

    def test_write_back_spreads_changes_to_lagging_servers(self):
        """Algorithm 3's write-back stores the union at >= n-f servers."""
        loop, network, config, servers = build_protocol_cluster(5, 1)
        client = Process("c1", network)

        async def go():
            await servers["s1"].transfer("s2", 0.1)
            await read_changes(client, "s2", config)

        loop.run_until_complete(go())
        loop.run()
        holders = sum(
            1
            for server in servers.values()
            if Change("s1", 2, "s2", 0.1) in server.changes
        )
        assert holders >= config.n - config.f

    def test_servers_can_invoke_read_changes_too(self):
        loop, network, config, servers = build_protocol_cluster(5, 1)

        async def go():
            await servers["s1"].transfer("s2", 0.1)
            return await read_changes(servers["s3"], "s2", config)

        changes = loop.run_until_complete(go())
        assert changes.weight_of("s2") == pytest.approx(1.1)
