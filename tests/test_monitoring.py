"""Tests for monitoring, weight policies and the controller."""

from __future__ import annotations

import copy
import json
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.protocol import ReassignmentServer
from repro.core.spec import SystemConfig, check_integrity, check_rp_integrity
from repro.errors import ConfigurationError, CrashedProcessError
from repro.experiments.executor import run_with_stable_stack
from repro.experiments.spec import MonitoringSpec, ScenarioSpec, run_spec
from repro.monitoring import (
    LatencyMonitor,
    WeightController,
    install_probe_responder,
    proportional_inverse_latency_weights,
    wheat_style_weights,
)
from repro.monitoring.policy import GRID
from repro.net.latency import PerLinkLatency
from repro.net.network import Network
from repro.net.process import Process
from repro.net.simloop import SimLoop
from repro.types import exact, server_set

from tests.conftest import make_net


class TestLatencyMonitor:
    def test_mean_and_ewma(self):
        monitor = LatencyMonitor(["s1", "s2"], window=4)
        for sample in (1.0, 2.0, 3.0):
            monitor.record("s1", sample)
        assert monitor.mean("s1") == pytest.approx(2.0)
        summary = monitor.summary(default=-1.0)
        assert 1.0 <= summary["s1"] <= 3.0 and summary["s2"] == -1.0
        assert monitor.mean("s2") is None

    def test_window_evicts_old_samples(self):
        monitor = LatencyMonitor(["s1"], window=2)
        for sample in (10.0, 1.0, 1.0):
            monitor.record("s1", sample)
        assert monitor.mean("s1") == pytest.approx(1.0)

    def test_summary_uses_default_for_unsampled(self):
        monitor = LatencyMonitor(["s1", "s2"])
        monitor.record("s1", 2.0)
        summary = monitor.summary(default=9.0)
        assert summary["s2"] == 9.0

    def test_negative_sample_rejected(self):
        monitor = LatencyMonitor(["s1"])
        with pytest.raises(ConfigurationError):
            monitor.record("s1", -1.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyMonitor(["s1"], window=0)
        with pytest.raises(ConfigurationError):
            LatencyMonitor(["s1"], ewma_alpha=0.0)

    def test_active_probe_measures_round_trips(self):
        table = {("probe", "s1"): 1.0, ("s1", "probe"): 1.0,
                 ("probe", "s2"): 5.0, ("s2", "probe"): 5.0}
        loop, net = make_net(PerLinkLatency(table, default=1.0))
        prober = Process("probe", net)
        for pid in ("s1", "s2"):
            install_probe_responder(Process(pid, net))
        monitor = LatencyMonitor(["s1", "s2"])

        async def go():
            return await monitor.probe(prober)

        observed = loop.run_until_complete(go())
        assert observed["s1"] == pytest.approx(2.0)
        assert observed["s2"] == pytest.approx(10.0)

    def test_probe_with_crashed_server_records_partial(self):
        loop, net = make_net()
        prober = Process("probe", net)
        for pid in ("s1", "s2"):
            install_probe_responder(Process(pid, net))
        net.crash("s2")
        monitor = LatencyMonitor(["s1", "s2"])

        async def go():
            return await monitor.probe(prober, timeout=50.0)

        observed = loop.run_until_complete(go())
        assert "s1" in observed and "s2" not in observed

    def test_probe_ends_when_the_only_outstanding_server_crashes(self):
        table = {("probe", "s2"): 5.0, ("s2", "probe"): 5.0}
        loop, net = make_net(PerLinkLatency(table, default=1.0))
        prober = Process("probe", net)
        for pid in ("s1", "s2"):
            install_probe_responder(Process(pid, net))
        monitor = LatencyMonitor(["s1", "s2"])
        loop.call_at(3.0, net.crash, "s2")  # s1 answered at t=2; no timeout set

        async def go():
            return await monitor.probe(prober)

        assert loop.run_until_complete(go()) == {"s1": 2.0}
        assert loop.now == 3.0

    def test_a_servers_sample_is_the_mean_of_its_instances(self):
        table = {("probe", "s1#1"): 2.0, ("s1#1", "probe"): 2.0}
        loop, net = make_net(PerLinkLatency(table, default=1.0))
        prober = Process("probe", net)
        instances = {"s1#0": "s1", "s2#0": "s2", "s1#1": "s1", "s2#1": "s2"}
        for pid in instances:
            install_probe_responder(Process(pid, net))
        net.crash("s2#1")
        monitor = LatencyMonitor(["s1", "s2"])

        async def go():
            return await monitor.probe(prober, instances=instances)

        assert loop.run_until_complete(go()) == {"s1": 3.0, "s2": 2.0}
        assert monitor.summary() == {"s1": 3.0, "s2": 2.0}


class TestPolicies:
    def make_config(self):
        return SystemConfig.uniform(5, f=1)

    def test_proportional_weights_preserve_total_and_order(self):
        config = self.make_config()
        latencies = {"s1": 1.0, "s2": 1.0, "s3": 2.0, "s4": 4.0, "s5": 8.0}
        targets = proportional_inverse_latency_weights(latencies, config)
        assert sum(targets.values()) == config.total_initial_weight
        assert targets["s1"] > targets["s3"] > targets["s5"]

    def test_proportional_weights_respect_rp_floor(self):
        config = self.make_config()
        latencies = {"s1": 0.1, "s2": 0.1, "s3": 50.0, "s4": 50.0, "s5": 50.0}
        targets = proportional_inverse_latency_weights(latencies, config)
        assert check_rp_integrity(targets, config.total_initial_weight, config.f)

    def test_wheat_weights_binary_structure(self):
        config = self.make_config()
        latencies = {"s1": 1.0, "s2": 2.0, "s3": 3.0, "s4": 4.0, "s5": 5.0}
        targets = wheat_style_weights(latencies, config)
        assert sum(targets.values()) == config.total_initial_weight
        # n - 2f = 3 fast servers share the larger weight.
        values = sorted(set(round(v, 6) for v in targets.values()))
        assert len(values) == 2
        assert check_integrity(targets, config.f)

    @settings(max_examples=150, deadline=None)
    @given(
        latencies=st.lists(
            st.floats(min_value=0.0, max_value=1e9, exclude_min=True),
            min_size=3, max_size=9,
        ),
        f=st.integers(min_value=0, max_value=4),
        margin=st.floats(min_value=0.0, max_value=1.0),
    )
    @example(latencies=[10.0, 10.0, 1.0, 1.0, 3.0], f=1, margin=0.05)
    def test_targets_sum_to_w_exactly_and_clear_the_floor(self, latencies, f, margin):
        n = len(latencies)
        if 2 * f >= n:
            f = (n - 1) // 2
        config = SystemConfig.uniform(n, f=f)
        total = config.total_initial_weight
        floor = config.rp_min_weight * (1 + exact(margin))
        for policy in (proportional_inverse_latency_weights, wheat_style_weights):
            try:
                targets = policy(dict(zip(config.servers, latencies)), config, margin)
            except ConfigurationError:
                # Only a floor that leaves no room once rounded up to the grid.
                assert floor * n > total * (1 - Fraction(n, GRID))
                continue
            assert sum(targets.values()) == total
            assert min(targets.values()) >= floor

    def test_clip_rejects_impossible_margin(self):
        config = self.make_config()
        with pytest.raises(ConfigurationError):
            proportional_inverse_latency_weights(
                {server: 1.0 for server in config.servers}, config, margin=10.0
            )

    def test_policies_require_full_latency_map(self):
        config = self.make_config()
        with pytest.raises(ConfigurationError):
            proportional_inverse_latency_weights({"s1": 1.0}, config)
        with pytest.raises(ConfigurationError):
            wheat_style_weights({"s1": 1.0}, config)


class TestWeightController:
    def build(self, n=5, f=1):
        loop = SimLoop()
        network = Network(loop)
        config = SystemConfig.uniform(n, f=f)
        servers = {pid: ReassignmentServer(pid, network, config) for pid in config.servers}
        return loop, config, servers

    def test_step_moves_weight_towards_targets(self):
        loop, config, servers = self.build()
        controller = WeightController(servers["s1"], tolerance=0.01)
        controller.set_targets({"s1": 0.7, "s2": 1.3, "s3": 1.0, "s4": 1.0, "s5": 1.0})

        async def go():
            return await controller.step()

        report = loop.run_until_complete(go())
        assert report.attempted
        assert report.outcome is not None and report.outcome.effective
        assert servers["s1"].weight() == Fraction(7, 10)

    def test_controller_never_violates_rp_integrity(self):
        loop, config, servers = self.build()
        controller = WeightController(servers["s1"], tolerance=0.01, max_step=0.2)
        # An infeasible target far below the RP bound (5/8): C2 rejects every
        # step that would reach it, and the transfer is null.
        controller.set_targets({"s1": 0.1, "s2": 1.9, "s3": 1.0, "s4": 1.0, "s5": 1.0})

        async def go():
            for _ in range(5):
                await controller.step()

        loop.run_until_complete(go())
        loop.run()
        weights = servers["s1"].local_weights()
        assert check_rp_integrity(weights, config.total_initial_weight, config.f)
        assert [report.outcome.effective for report in controller.reports] == [
            True, False, False, False, False
        ]
        assert weights["s1"] == Fraction(4, 5)

    def test_no_step_when_within_tolerance(self):
        loop, config, servers = self.build()
        controller = WeightController(servers["s2"], tolerance=0.5)
        controller.set_targets({"s1": 1.2, "s2": 0.8, "s3": 1.0, "s4": 1.0, "s5": 1.0})

        async def go():
            return await controller.step()

        report = loop.run_until_complete(go())
        assert not report.attempted

    def test_distance_metric_decreases(self):
        loop, config, servers = self.build()
        controllers = {pid: WeightController(servers[pid], tolerance=0.02) for pid in config.servers}
        targets = {"s1": 0.75, "s2": 1.25, "s3": 1.1, "s4": 0.9, "s5": 1.0}
        for controller in controllers.values():
            controller.set_targets(targets)

        def distance():  # L1, s1's view of the weights against the targets
            weights = servers["s1"].local_weights()
            return sum(abs(weights[pid] - targets[pid]) for pid in config.servers)

        before = distance()

        async def go():
            for _ in range(3):
                for controller in controllers.values():
                    await controller.step()
                await loop.sleep(5.0)

        loop.run_until_complete(go())
        loop.run()
        assert distance() < before

    def test_targets_must_cover_server_set(self):
        loop, config, servers = self.build()
        controller = WeightController(servers["s1"])
        with pytest.raises(ConfigurationError):
            controller.set_targets({"s1": 1.0})

    def test_invalid_tolerance_rejected(self):
        loop, config, servers = self.build()
        with pytest.raises(ConfigurationError):
            WeightController(servers["s1"], tolerance=0.0)


# ---------------------------------------------------------------------------
# The one loop against the loops it replaced
# ---------------------------------------------------------------------------


def _the_loops_as_they_were():
    """``install_monitoring_control`` (monitoring/loop.py),
    ``_install_global_monitoring`` (sim/runner.py) and ``LatencyMonitor.probe``
    as they stood before there was one loop — bodies verbatim — behind the
    three-way fork ``sim/runner.py::install_monitoring`` made over them.
    Returns a stand-in for ``MonitoringSpec.build``."""
    from typing import Dict, List

    from repro.monitoring import monitor as monitor_module
    from repro.monitoring.loop import MonitoringHarness
    from repro.monitoring.monitor import PING
    from repro.storage.sharded import base_process_name, shard_process_name

    class LatencyMonitor(monitor_module.LatencyMonitor):
        async def probe(self, prober, timeout=None):
            started = prober.loop.now
            network = prober.network
            collector = prober.request_all(self.servers, PING, {})
            waiter = collector.wait_until(
                lambda replies: len(replies) >= sum(
                    1 for server in self.servers if not network.is_crashed(server)
                ),
                name="alive-replies",
            )
            if timeout is not None:
                waiter = prober.loop.timeout(waiter, timeout)
            try:
                await waiter
            except Exception:
                # Partial probes are fine; use whatever replies arrived.
                pass
            observed = {}
            for reply in collector.responses:
                latency = reply.delivered_at - started
                observed[reply.sender] = latency
                self.record(reply.sender, latency)
            return observed

    def install_monitoring_control(
        loop, network, servers, config, prober_pid, rounds, interval,
        tolerance, max_step, window=32, ewma_alpha=0.3,
        policy=proportional_inverse_latency_weights,
    ):
        for server in servers.values():
            install_probe_responder(server)
        prober = Process(prober_pid, network)
        monitor = LatencyMonitor(config.servers, window=window, ewma_alpha=ewma_alpha)
        controllers = [
            WeightController(server, tolerance=tolerance, max_step=max_step)
            for server in servers.values()
        ]

        async def control_loop() -> None:
            obs = network.obs
            for index in range(rounds):
                await loop.sleep(interval)
                if obs is not None:
                    obs.control_round(prober_pid, index, loop.now)
                await monitor.probe(prober)
                targets = policy(monitor.summary(default=1.0), config)
                for controller in controllers:
                    controller.set_targets(targets)
                    await controller.step()

        loop.create_task(control_loop(), name=f"monitoring-control:{prober_pid}")
        return controllers

    def _install_global_monitoring(
        cluster, *, interval, rounds, window, ewma_alpha, tolerance, max_step,
        prober, policy,
    ):
        loop = cluster.loop
        canonical = cluster.config  # the per-shard template with canonical names
        for group in cluster.shards:
            for server in group.servers.values():
                install_probe_responder(server)
        prober_process = Process(prober, cluster.network)
        monitor = LatencyMonitor(canonical.servers, window=window, ewma_alpha=ewma_alpha)
        controllers = {
            group.index: [
                WeightController(server, tolerance=tolerance, max_step=max_step)
                for server in group.servers.values()
            ]
            for group in cluster.shards
        }
        instance_names = tuple(
            pid for group in cluster.shards for pid in group.config.servers
        )

        async def control_loop() -> None:
            obs = cluster.network.obs
            for index in range(rounds):
                await loop.sleep(interval)
                if obs is not None:
                    obs.control_round(prober, index, loop.now)
                started = loop.now
                # Wait for every instance still alive — re-counted on each
                # reply, exactly like LatencyMonitor.probe: a slowed machine's
                # late replies ARE the signal (a short timeout would blind the
                # monitor to them), while a crashed instance's replies never
                # come (a fixed-count wait would stall the loop forever).
                collector = prober_process.request_all(instance_names, PING, {})
                await collector.wait_until(
                    lambda replies: len(replies) >= sum(
                        1
                        for pid in instance_names
                        if not cluster.network.is_crashed(pid)
                    ),
                    name="alive-replies",
                )
                samples: Dict[str, List[float]] = {}
                for reply in collector.responses:
                    machine = base_process_name(reply.sender)
                    samples.setdefault(machine, []).append(reply.delivered_at - started)
                for machine in sorted(samples):
                    values = samples[machine]
                    monitor.record(machine, sum(values) / len(values))
                canonical_targets = policy(monitor.summary(default=1.0), canonical)
                for group in cluster.shards:
                    targets = {
                        shard_process_name(pid, group.index): weight
                        for pid, weight in canonical_targets.items()
                    }
                    for controller in controllers[group.index]:
                        controller.set_targets(targets)
                        await controller.step()

        loop.create_task(control_loop(), name=f"monitoring-control:{prober}")
        return MonitoringHarness(controllers=controllers, rounds=rounds)

    def build(spec, cluster):
        settings = dict(
            rounds=spec.rounds, interval=spec.interval,
            tolerance=spec.policy.threshold, max_step=spec.gain,
            window=spec.window, ewma_alpha=spec.ewma_alpha,
            policy=spec.policy.build(),
        )
        shard_groups = cluster.shards
        if len(shard_groups) == 1:
            controllers = install_monitoring_control(
                cluster.loop, cluster.network, cluster.servers, cluster.config,
                prober_pid=spec.prober, **settings,
            )
            return MonitoringHarness(controllers={0: controllers}, rounds=spec.rounds)
        if spec.scope == "per-shard":
            return MonitoringHarness(
                controllers={
                    group.index: install_monitoring_control(
                        cluster.loop, cluster.network, group.servers, group.config,
                        prober_pid=f"{spec.prober}#{group.index}", **settings,
                    )
                    for group in shard_groups
                },
                rounds=spec.rounds,
            )
        return _install_global_monitoring(cluster, prober=spec.prober, **settings)

    return build


def _monitored_spec(shards, scope, seed, crashes=()):
    return ScenarioSpec.from_dict({
        "name": "one-loop",
        "cluster": {"flavour": "dynamic-weighted", "n": 5, "f": 1,
                    "client_count": 2, "shards": shards},
        "workload": {
            "operations_per_client": 8,
            "keys": {"kind": "zipfian", "space": 32, "zipf_s": 1.2},
            "arrivals": {"kind": "poisson", "rate": 0.4},
            "mix": {"read_ratio": 0.7},
        },
        "latency": {"kind": "uniform", "low": 0.9, "high": 1.1,
                    "slow": ["s1"], "slow_factor": 6.0, "slow_start": 10.0},
        "monitoring": {"enabled": True, "scope": scope, "interval": 6.0,
                       "rounds": 6, "policy": {"threshold": 0.05}, "gain": 0.3},
        "faults": {"crashes": [list(crash) for crash in crashes]},
        "observability": {"enabled": True, "metrics": True, "trace": True},
        "seed": seed,
        "max_time": 10_000.0,
    }).validate()


class TestOneLoopMatchesTheLoopsItReplaced:
    """Unsharded, per-shard and global monitoring through the one
    ``install_monitoring`` leave the trace and the result the three old code
    paths left — with every server up, and with one crashed before the first
    probe (``s4``: the machine in every shard)."""

    @pytest.mark.parametrize("crashes", [(), (("s4", 5.0),)], ids=["up", "s4-down"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize(
        "shards, scope", [(1, "per-shard"), (2, "per-shard"), (2, "global")],
        ids=["unsharded", "per-shard", "global"],
    )
    def test_same_trace_digest_and_result(
        self, monkeypatch, shards, scope, seed, crashes
    ):
        spec = _monitored_spec(shards, scope, seed, crashes)
        # These runs reach the interpreter's recursion limit (ROADMAP item 1),
        # so both sides start from the same stack depth.
        result = run_with_stable_stack(run_spec, spec)
        monkeypatch.setattr(MonitoringSpec, "build", _the_loops_as_they_were())
        expected = run_with_stable_stack(run_spec, spec)
        assert result["trace"]["digest"] == expected["trace"]["digest"]
        assert json.dumps(result, sort_keys=True) == json.dumps(expected, sort_keys=True)
        monitoring = result["monitoring"]
        assert monitoring["rounds_completed"] == monitoring["rounds"] == 6
        assert monitoring["transfers_attempted"] > 0


    def test_one_shard_is_the_one_loop_under_either_scope(self):
        # At one shard both scopes cover the same group with one prober,
        # named ``mon`` (never ``mon#0``).
        per_shard, global_ = (
            run_with_stable_stack(run_spec, _monitored_spec(1, scope, seed=1))
            for scope in ("per-shard", "global")
        )
        assert json.dumps(per_shard, sort_keys=True) == json.dumps(global_, sort_keys=True)
        assert per_shard["monitoring"]["transfers_attempted"] > 0
        for scope in ("per-shard", "global"):
            spec = _monitored_spec(1, scope, seed=1)
            config = spec.cluster.system_config()
            with spec.cluster.build(config, spec.latency.build(seed=1)) as cluster:
                spec.monitoring.build(cluster)
                cluster.loop.run(until=0.0)  # start the control task cleanly
                assert "mon" in cluster.network.process_ids()
                assert "mon#0" not in cluster.network.process_ids()


# ---------------------------------------------------------------------------
# The loop outlives a crash
# ---------------------------------------------------------------------------


def _run_with_s5_crashing_at(monkeypatch, at, recover_at=None):
    """n=5, f=1, ``s5`` six times slower than the rest, six control rounds
    ten apart — and ``s5`` crashes.  Returns the result and the harness."""
    harnesses = []
    build = MonitoringSpec.build

    def recording_build(self, cluster):
        harnesses.append(build(self, cluster))
        return harnesses[-1]

    monkeypatch.setattr(MonitoringSpec, "build", recording_build)
    result = run_spec(ScenarioSpec.from_dict({
        "name": "monitoring-crash",
        "cluster": {"flavour": "dynamic-weighted", "n": 5, "f": 1, "client_count": 2},
        "workload": {"operations_per_client": 6},
        "latency": {"kind": "constant", "value": 1.0,
                    "slow": ["s5"], "slow_factor": 6.0},
        "monitoring": {"enabled": True, "interval": 10.0, "rounds": 6},
        "faults": {"outages": [["s5", at, recover_at]]},
        "seed": 1,
    }).validate())
    return result, harnesses[0]


def _assert_the_loop_outlived_the_crash(result, harness):
    monitoring = result["monitoring"]
    assert monitoring["rounds_completed"] == monitoring["rounds"] == 6
    steps = {
        controller.server.pid: len(controller.reports)
        for controller in harness.controllers[0]
    }
    assert {pid: steps[pid] for pid in ("s1", "s2", "s3", "s4")} == {
        "s1": 6, "s2": 6, "s3": 6, "s4": 6,
    }
    return steps


class TestTheLoopOutlivesACrash:
    """One crash inside the static ``f`` used to end monitoring for the rest
    of the run, silently, in one of three ways."""

    def test_crash_while_the_victims_pong_is_the_last_one_outstanding(
        self, monkeypatch
    ):
        # t=10: first probe; the four fast pongs are back at t=12, s5's is
        # due at t=22.  The wait used to be re-evaluated by replies only.
        result, harness = _run_with_s5_crashing_at(monkeypatch, 13.0)
        steps = _assert_the_loop_outlived_the_crash(result, harness)
        assert steps["s5"] == 6  # never over its target: nothing to raise

    def test_crash_of_a_server_that_is_still_over_its_target(self, monkeypatch):
        # s5's first transfer completed at t=34; the second round asks it
        # for another at t=46, ten after the crash.
        result, harness = _run_with_s5_crashing_at(monkeypatch, 36.0)
        steps = _assert_the_loop_outlived_the_crash(result, harness)
        assert steps["s5"] == 1  # sat out the rounds it was down and over

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2(e): failing a crashed server's in-flight "
        "transfer at the crash moves the committed chaos campaign",
    )
    def test_crash_with_the_victims_transfer_in_flight(self, monkeypatch):
        # s5 invokes its first transfer at t=22 and waits for acknowledgements
        # due at t=34; crashed at t=23 it never receives them, and the loop
        # waits on that transfer for ever.
        result, harness = _run_with_s5_crashing_at(monkeypatch, 23.0)
        _assert_the_loop_outlived_the_crash(result, harness)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2(e): a transfer in flight at a crash never "
        "unwinds, so the recovered server can never transfer again",
    )
    def test_a_recovered_server_can_transfer_again(self):
        loop = SimLoop()
        network = Network(loop)
        config = SystemConfig.uniform(5, f=1)
        servers = {
            pid: ReassignmentServer(pid, network, config) for pid in config.servers
        }
        first = loop.create_task(servers["s5"].transfer("s4", 0.1))
        loop.call_at(0.5, network.crash, "s5")  # its acknowledgements are lost
        loop.call_at(5.0, network.recover, "s5")
        loop.run()
        assert isinstance(first.exception(), CrashedProcessError)
        outcome = loop.run_until_complete(servers["s5"].transfer("s4", 0.1))
        assert outcome.effective


# ---------------------------------------------------------------------------
# Weights scale with W (ROADMAP item 27(b), the weight relation)
# ---------------------------------------------------------------------------

MONITORED_SPECS = (
    "hotspot-shift-monitoring",
    "sharded-global-monitoring",
    "sharded-hotspot-reassignment",
    "wan-adaptive",
)
SPECS_DIR = Path(__file__).resolve().parents[1] / "examples" / "specs"


def _spec_data(name):
    return json.loads((SPECS_DIR / f"{name}.json").read_text())


def _times(value, k):
    """``k * value`` computed in decimal, so ``exact`` reads it as exactly k×."""
    return float(Decimal(repr(value)) * k)


def _weights_scaled(data, k):
    """The spec dict with every weight-valued input ×k: the initial weights,
    each transfer's delta, the controllers' dead-band and step."""
    data = copy.deepcopy(data)
    cluster = data["cluster"]
    weights = cluster.get("initial_weights") or [
        [pid, 1.0] for pid in server_set(cluster["n"])
    ]
    cluster["initial_weights"] = [[pid, _times(weight, k)] for pid, weight in weights]
    for event in data.get("transfers", ()):
        event[3] = _times(event[3], k)
    monitoring = data["monitoring"]
    monitoring["policy"]["threshold"] = _times(monitoring["policy"]["threshold"], k)
    monitoring["gain"] = _times(monitoring["gain"], k)
    return data


def _run_keeping_changes(data):
    """``(result, changes)``: the run's result and each live server's change
    set, read after the drain."""
    changes = {}

    def measure(cluster, workload):
        crashed = cluster.network.is_crashed
        changes.update(
            (pid, server.changes)
            for pid, server in cluster.servers.items()
            if not crashed(pid)
        )
        return {}

    spec = ScenarioSpec.from_dict(data).validate()
    result = run_with_stable_stack(run_spec, spec, measure)
    return result, changes


def _without_weights(result):
    result = {
        key: value for key, value in result.items()
        if key not in ("weights", "shard_weights")
    }
    result["transfers"] = [
        {key: value for key, value in entry.items() if key != "delta"}
        for entry in result["transfers"]
    ]
    return result


@pytest.fixture(scope="module")
def unscaled_runs():
    cache = {}

    def run(name):
        if name not in cache:
            cache[name] = _run_keeping_changes(_spec_data(name))
        return cache[name]

    return run


class TestWeightsScaleWithW:
    """Every predicate compares weights with sums of weights and fractions
    of W, so a monitored run whose weight inputs are all ×k must end with
    every weight ×k and every other result field unchanged — which holds
    only if the policies' targets are exact shares of W."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("name", MONITORED_SPECS)
    def test_weight_inputs_times_k_give_weights_times_k(self, unscaled_runs, name, k):
        result, changes = unscaled_runs(name)
        scaled = _weights_scaled(_spec_data(name), k)
        scaled_result, scaled_changes = _run_keeping_changes(scaled)
        assert _without_weights(scaled_result) == _without_weights(result)
        assert scaled_changes.keys() == changes.keys()
        for pid, change_set in changes.items():
            weights = change_set.weight_map()
            expected = {server: k * weight for server, weight in weights.items()}
            assert scaled_changes[pid].weight_map() == expected, pid

    @pytest.mark.parametrize("name", MONITORED_SPECS)
    def test_weight_denominators_stay_bounded(self, unscaled_runs, name):
        # Targets on the grid keep every weight a multiple of W / GRID (or of
        # the controllers' decimal step): exact targets off a grid grow the
        # denominators the quorum test sums on every reply by hundreds of
        # digits.
        _, changes = unscaled_runs(name)
        assert changes
        for pid, change_set in changes.items():
            assert change_set.integer_weights()[1] <= 10**18, pid
