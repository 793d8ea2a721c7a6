"""Tests for the asset-transfer substrate (Section VIII comparator)."""

from __future__ import annotations

import pytest

from repro.assettransfer.accounts import AccountBook, TransferOp
from repro.assettransfer.k_asset import KAssetReplica
from repro.assettransfer.one_asset import OneAssetServer
from repro.consensus.sequencer import Sequencer
from repro.errors import ConfigurationError
from repro.net.latency import ConstantLatency, UniformLatency
from repro.net.network import Network
from repro.net.simloop import SimLoop, gather


class TestAccountBook:
    def test_valid_transfer_applies(self):
        book = AccountBook({"a": 10.0, "b": 0.0}, {"a": ["s1"], "b": ["s2"]})
        op = TransferOp("s1", 1, "a", "b", 4.0)
        assert book.apply(op)
        assert book.balance("a") == 6.0
        assert book.balance("b") == 4.0

    def test_overdraw_rejected(self):
        book = AccountBook({"a": 3.0, "b": 0.0}, {"a": ["s1"], "b": ["s2"]})
        assert not book.apply(TransferOp("s1", 1, "a", "b", 5.0))
        assert book.balance("a") == 3.0

    def test_non_owner_rejected(self):
        book = AccountBook({"a": 3.0, "b": 0.0}, {"a": ["s1"], "b": ["s2"]})
        assert not book.apply(TransferOp("s2", 1, "a", "b", 1.0))

    def test_non_positive_amount_rejected(self):
        book = AccountBook({"a": 3.0, "b": 0.0}, {"a": ["s1"], "b": ["s2"]})
        assert not book.apply(TransferOp("s1", 1, "a", "b", 0.0))
        assert not book.apply(TransferOp("s1", 1, "a", "b", -1.0))

    def test_total_is_conserved(self):
        book = AccountBook({"a": 5.0, "b": 5.0}, {"a": ["s1"], "b": ["s2"]})
        book.apply(TransferOp("s1", 1, "a", "b", 2.5))
        book.apply(TransferOp("s2", 1, "b", "a", 1.0))
        assert book.total() == pytest.approx(10.0)

    def test_negative_initial_balance_rejected(self):
        with pytest.raises(ConfigurationError):
            AccountBook({"a": -1.0}, {"a": ["s1"]})

    def test_owners_must_cover_accounts(self):
        with pytest.raises(ConfigurationError):
            AccountBook({"a": 1.0}, {})

    def test_owners_are_kept_per_account(self):
        book = AccountBook(
            {"a": 1.0, "b": 1.0}, {"a": ["s1"], "b": ["s1", "s2", "s3"]}
        )
        assert book.owners("a") == frozenset({"s1"})
        assert book.owners("b") == frozenset({"s1", "s2", "s3"})


def build_one_asset(n, f, balance=10.0, latency=None):
    loop = SimLoop()
    network = Network(loop, latency or ConstantLatency(1.0))
    server_ids = [f"s{i}" for i in range(1, n + 1)]
    balances = {pid: balance for pid in server_ids}
    servers = {
        pid: OneAssetServer(pid, network, server_ids, f, balances) for pid in server_ids
    }
    return loop, network, servers


class TestOneAssetTransfer:
    def test_transfer_updates_all_replicas(self):
        loop, _, servers = build_one_asset(4, 1)

        async def go():
            return await servers["s1"].transfer("s2", 3.0)

        outcome = loop.run_until_complete(go())
        assert outcome.applied
        loop.run()
        for server in servers.values():
            assert server.balance_of("s1") == pytest.approx(7.0)
            assert server.balance_of("s2") == pytest.approx(13.0)

    def test_overdraw_rejected_locally_without_messages(self):
        loop, network, servers = build_one_asset(4, 1)

        async def go():
            return await servers["s1"].transfer("s2", 100.0)

        outcome = loop.run_until_complete(go())
        assert not outcome.applied
        assert network.sent_by_kind["AT_RB"] == 0

    def test_owner_only_semantics(self):
        """Only the account's owner can spend it: s1 cannot move s2's assets."""
        loop, _, servers = build_one_asset(3, 1)
        # The API itself enforces ownership: a server can only name itself as
        # the source (transfer() uses self.pid); verify the book agrees.
        assert not servers["s1"].book.can_apply(
            TransferOp("s1", 1, "s2", "s1", 1.0)
        )

    def test_concurrent_transfers_conserve_total(self):
        loop, _, servers = build_one_asset(5, 2, balance=10.0, latency=UniformLatency(0.5, 2.0, seed=9))

        async def spender(pid, target):
            for _ in range(3):
                await servers[pid].transfer(target, 1.0)

        loop.run_until_complete(
            gather(
                loop,
                [spender("s1", "s2"), spender("s2", "s3"), spender("s3", "s1")],
            )
        )
        loop.run()
        for server in servers.values():
            assert server.book.total() == pytest.approx(50.0)
            assert all(balance >= 0 for balance in server.book.balances().values())

    def test_transfer_completes_despite_f_crashes(self):
        loop, network, servers = build_one_asset(5, 2)
        network.crash("s4")
        network.crash("s5")

        async def go():
            return await servers["s1"].transfer("s2", 1.0)

        assert loop.run_until_complete(go()).applied

    def test_unknown_target_rejected(self):
        loop, _, servers = build_one_asset(3, 1)

        async def go():
            await servers["s1"].transfer("nope", 1.0)

        with pytest.raises(ConfigurationError):
            loop.run_until_complete(go())


def build_k_asset(owners_per_account=2):
    loop = SimLoop()
    network = Network(loop, UniformLatency(0.5, 1.5, seed=4))
    replica_ids = [f"s{i}" for i in range(1, 5)]
    sequencer = Sequencer("seq", network, replica_ids)
    balances = {"shared": 10.0, "other": 0.0}
    owners = {"shared": replica_ids[:owners_per_account], "other": replica_ids}
    replicas = {
        pid: KAssetReplica(pid, network, "seq", balances, owners) for pid in replica_ids
    }
    return loop, network, replicas


class TestKAssetTransfer:
    def test_ordered_transfers_apply_consistently(self):
        loop, _, replicas = build_k_asset()

        async def go():
            first = await replicas["s1"].transfer("shared", "other", 4.0)
            second = await replicas["s2"].transfer("shared", "other", 4.0)
            return first, second

        first, second = loop.run_until_complete(go())
        assert first.applied and second.applied
        loop.run()
        for replica in replicas.values():
            assert replica.balance_of("shared") == pytest.approx(2.0)

    def test_conflicting_overdraws_resolved_identically_everywhere(self):
        """Two co-owners race to overdraw; the total order rejects exactly one."""
        loop, _, replicas = build_k_asset()

        async def go():
            return await gather(
                loop,
                [
                    replicas["s1"].transfer("shared", "other", 7.0),
                    replicas["s2"].transfer("shared", "other", 7.0),
                ],
            )

        outcomes = loop.run_until_complete(go())
        assert sorted(outcome.applied for outcome in outcomes) == [False, True]
        loop.run()
        balances = {pid: replica.balance_of("shared") for pid, replica in replicas.items()}
        assert all(balance == pytest.approx(3.0) for balance in balances.values())

    def test_non_owner_cannot_spend(self):
        loop, _, replicas = build_k_asset(owners_per_account=2)

        async def go():
            await replicas["s4"].transfer("shared", "other", 1.0)

        with pytest.raises(ConfigurationError):
            loop.run_until_complete(go())

    def test_unknown_account_rejected(self):
        loop, _, replicas = build_k_asset()

        async def go():
            await replicas["s1"].transfer("ghost", "other", 1.0)

        with pytest.raises(ConfigurationError):
            loop.run_until_complete(go())
