"""Integration tests for ``repro.obs``: passivity, determinism, spec + CLI.

The contract under test:

* **Passivity** — an installed observer only records; enabled runs produce
  exactly the same simulation results as disabled runs.
* **One dispatch loop** — observed and unobserved loops run the same events,
  stop at the same instant and abort with the same text; the observer only
  receives the counters (checked on a scripted schedule here; the
  ``event-loop-obs`` case of ``tests/test_determinism.py`` checks that it
  does the ``event-loop`` case's work).
* **Determinism** — traces are byte-stable across repeats, hash seeds, and
  serial vs parallel execution (for churn-free runs; see ARCHITECTURE.md on
  the weight-gain-refresh caveat).
* **Golden digest** — ``fig1-walkthrough``'s trace digest is pinned in
  ``benchmarks/baselines/fig1-walkthrough.trace.sha256``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.core.spec import SystemConfig
from repro.errors import ConfigurationError, DeadlockError, SimTimeoutError
from repro.experiments.cli import main
from repro.experiments.spec import ObservabilitySpec, ScenarioSpec
from repro.net.latency import UniformLatency
from repro.net.simloop import SimLoop
from repro.obs import Observer, observing, read_trace, trace_digest
from repro.sim.cluster import build_dynamic_cluster
from repro.sim.runner import run_workload
from tests.conftest import pending_events, uniform_workload

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_TRACE_FILE = os.path.join(
    REPO_ROOT, "benchmarks", "baselines", "fig1-walkthrough.trace.sha256"
)


def _small_run_in_ambient():
    """One small dynamic-cluster workload under whatever observer is ambient."""
    config = SystemConfig(servers=("s1", "s2", "s3", "s4", "s5"), f=1)
    cluster = build_dynamic_cluster(
        config, latency=UniformLatency(0.5, 1.5, seed=7), client_count=3
    )
    workload = uniform_workload(
        list(cluster.clients), operations_per_client=5,
        read_ratio=0.7, mean_think_time=0.3, seed=7,
    )
    report = run_workload(cluster, workload)
    return cluster, report


def _small_run(observer=None):
    """One small dynamic-cluster workload, optionally observed."""
    with observing(observer):
        return _small_run_in_ambient()


# ---------------------------------------------------------------------------
# Passivity + kernel accounting
# ---------------------------------------------------------------------------


class TestPassivity:
    def test_observed_run_matches_unobserved_run(self):
        _, plain = _small_run(observer=None)
        _, observed = _small_run(observer=Observer())
        assert observed.operations == plain.operations
        assert observed.restarts == plain.restarts
        assert observed.messages_sent == plain.messages_sent
        assert observed.duration == plain.duration
        assert observed.read_latency == plain.read_latency
        assert observed.write_latency == plain.write_latency

    def test_unobserved_report_has_no_metrics(self):
        _, report = _small_run(observer=None)
        assert report.metrics is None

    def test_kernel_counters_account_for_every_event(self):
        observer = Observer()
        cluster, report = _small_run(observer=observer)
        counters = report.metrics["counters"]
        assert counters["kernel.events"] == cluster.loop.events_processed
        assert (counters["kernel.ready_dispatches"]
                + counters["kernel.heap_dispatches"]) == counters["kernel.events"]
        assert counters["net.sent"] == cluster.network.messages_sent
        assert counters["net.delivered"] == cluster.network.messages_delivered
        assert report.metrics["gauges"]["kernel.max_queue_depth"]["max"] > 0

    def test_quorum_and_storage_counters_match_the_workload(self):
        observer = Observer()
        _, report = _small_run(observer=observer)
        counters = report.metrics["counters"]
        # 3 clients x 5 ops, read_ratio deterministic per seed
        assert counters["storage.ops.read"] + counters["storage.ops.write"] == 15
        assert counters["storage.phase1"] == 15
        assert counters["storage.phase2"] == 15
        quorum = report.metrics["histograms"]["storage.quorum_size"]
        assert quorum["count"] == 30  # one observation per phase

    def test_weight_gain_refresh_depth_is_measured(self):
        # build_dynamic_cluster + weight transfers trigger the refresh;
        # drive one explicit transfer to exercise the hook.
        observer = Observer()
        with observing(observer):
            config = SystemConfig(servers=("s1", "s2", "s3", "s4", "s5"), f=1)
            cluster = build_dynamic_cluster(
                config, latency=UniformLatency(0.5, 1.5, seed=3), client_count=1
            )

            async def kick():
                await cluster.servers["s1"].transfer("s2", 0.2)

            cluster.loop.create_task(kick(), name="kick")
            cluster.loop.run()
        counters = observer.metrics.as_dict()["counters"]
        assert counters["protocol.transfers.effective"] >= 1
        assert counters["storage.weight_gain_refreshes"] >= 1
        depth = observer.metrics.as_dict()["gauges"]["storage.weight_gain_refresh_depth"]
        assert depth["max"] >= 1.0


class TestAmbientObserverIsPerThread:
    """Two threads inside ``observing(...)`` at once (two traced jobs of a
    ``job_concurrency=2`` service) must each record their own run."""

    def test_a_world_built_after_another_thread_installs_keeps_its_observer(self):
        import threading

        first, second = Observer(), Observer()
        first_installed, second_installed = threading.Event(), threading.Event()
        first_done = threading.Event()
        failures = []

        def guarded(body):
            def run():
                try:
                    body()
                except BaseException as error:  # reported on the main thread
                    failures.append(error)
                    for event in (first_installed, second_installed, first_done):
                        event.set()
            return run

        def build_first():
            with observing(first):
                first_installed.set()
                # The other thread installs its own observer *between* this
                # thread's install and its cluster build.
                assert second_installed.wait(10.0)
                _small_run_in_ambient()
            first_done.set()

        def install_second():
            assert first_installed.wait(10.0)
            with observing(second):
                second_installed.set()
                assert first_done.wait(10.0)

        threads = [threading.Thread(target=guarded(body))
                   for body in (build_first, install_second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert not failures, failures
        alone = Observer()
        _small_run(observer=alone)
        assert first.trace.records == alone.trace.records
        assert second.trace.records == []
        assert first.metrics.as_dict() == alone.metrics.as_dict()

    def test_the_stable_stack_hop_carries_the_callers_observer(self):
        from repro.experiments.executor import run_with_stable_stack
        from repro.obs import current_observer

        observer = Observer()
        with observing(observer):
            assert run_with_stable_stack(current_observer) is observer
            with observing(None):
                assert run_with_stable_stack(current_observer) is None
        assert run_with_stable_stack(current_observer) is None
        # ... and what the hop's thread installs stays on that thread.
        run_with_stable_stack(lambda: observing(Observer()).__enter__())
        assert current_observer() is None


class TestDisabledPathIsUntouched:
    def test_benchmark_twins_do_identical_work(self):
        # The determinism gate pins both, but assert the linkage directly:
        # the instrumented workload must process exactly as many events as
        # the uninstrumented one.
        from tests.test_determinism import _event_loop, _event_loop_obs

        plain = _event_loop()
        obs = _event_loop_obs()
        assert obs["events"] == plain["events"]
        assert obs["ops"] == plain["ops"]
        assert (obs["counters"]["ready_dispatches"]
                + obs["counters"]["heap_dispatches"]) == obs["events"]


class _KernelSpy(Observer):
    """An observer that also keeps every ``kernel_run`` report it receives."""

    def __init__(self):
        super().__init__(trace=False)
        self.reports = []

    def kernel_run(self, ready_hits, heap_hits, max_depth):
        self.reports.append((ready_hits, heap_hits, max_depth))
        super().kernel_run(ready_hits, heap_hits, max_depth)


def _scripted_loop(spy=None):
    """A loop with a fixed schedule: timers at t=1,2,4, a fan of zero-delay
    callbacks at t=2 and a task sleeping until t=3 (last event at t=4)."""
    with observing(spy):
        loop = SimLoop()
    log = []

    def fan():
        log.append(("fan", loop.now))
        for number in range(3):
            loop.call_later(0.0, log.append, ("zero", number, loop.now))

    async def sleeper():
        await loop.sleep(3.0)
        log.append(("woke", loop.now))
        return "slept"

    loop.call_later(1.0, log.append, ("timer", 1.0))
    loop.call_later(2.0, fan)
    loop.call_later(4.0, log.append, ("timer", 4.0))
    return loop, log, sleeper


class TestObservedAndUnobservedDispatchAgree:
    """One loop serves both modes: observing it changes what is *reported*,
    never what runs, where the clock stops or what an abort says."""

    def _both(self, drive):
        outcomes = []
        for spy in (None, _KernelSpy()):
            loop, log, sleeper = _scripted_loop(spy)
            try:
                value = drive(loop, sleeper)
            except Exception as error:  # compared, not swallowed
                value = (type(error), str(error))
            outcomes.append((value, loop.now, loop.events_processed,
                             pending_events(loop), log))
            if spy is not None:
                (ready, heap, depth), = spy.reports  # once per call
                assert ready + heap == loop.events_processed
                assert depth >= 1
        assert outcomes[0] == outcomes[1]
        return outcomes[0]

    def test_completion_and_drain_process_the_same_events(self):
        value, now, processed, pending, _ = self._both(
            lambda loop, sleeper: loop.run_until_complete(sleeper()))
        assert (value, now, pending) == ("slept", 3.0, 1)
        _, now, drained, pending, log = self._both(
            lambda loop, sleeper: loop.run())
        assert (now, pending) == (4.0, 0)
        assert drained == len(log) == 6  # two timers, the fan, its three callbacks

    @pytest.mark.parametrize("until, expected_now, expected_pending", [
        (1.5, 1.5, 2),   # between events
        (4.0, 4.0, 0),   # exactly at the last event: it still runs
        (9.0, 9.0, 0),   # past the last event: the clock is carried forward
    ])
    def test_run_until_stops_at_the_same_instant(
        self, until, expected_now, expected_pending
    ):
        value, now, _, pending, _ = self._both(
            lambda loop, sleeper: loop.run(until=until))
        assert value == now == expected_now
        assert pending == expected_pending

    def test_budget_and_deadlock_abort_with_the_same_text(self):
        (kind, text), now, _, _, _ = self._both(
            lambda loop, sleeper: loop.run_until_complete(sleeper(), max_time=2.5))
        assert kind is SimTimeoutError
        assert text == "virtual-time budget 2.5 exhausted (next event at 3.0)"
        assert now == 2.0

        from repro.net.simloop import SimFuture

        (kind, text), now, _, _, _ = self._both(
            lambda loop, sleeper: loop.run_until_complete(SimFuture(name="never")))
        assert kind is DeadlockError
        assert text == ("simulation deadlocked at t=4.0: no pending events "
                        "but 'never' is not done")

    def test_a_raising_callback_is_counted_and_reported_once(self):
        def drive(loop, sleeper):
            loop.call_later(2.5, lambda: 1 / 0)
            loop.run()

        (kind, _), now, processed, pending, _ = self._both(drive)
        assert kind is ZeroDivisionError
        # timer@1, fan@2, 3 zero-delay, the raising callback itself
        assert (now, processed, pending) == (2.5, 6, 1)  # timer@4 is left

    def test_a_full_workload_is_unchanged_by_observation(self):
        plain_cluster, plain = _small_run(observer=None)
        spy = _KernelSpy()
        seen_cluster, seen = _small_run(observer=spy)
        assert seen.operations == plain.operations == 15
        assert seen_cluster.loop.events_processed == plain_cluster.loop.events_processed
        assert seen_cluster.loop.now == plain_cluster.loop.now
        assert sum(ready + heap for ready, heap, _ in spy.reports) == (
            seen_cluster.loop.events_processed)


# ---------------------------------------------------------------------------
# ObservabilitySpec + run_spec wiring
# ---------------------------------------------------------------------------


class TestObservabilitySpec:
    def test_defaults_off_and_round_trip(self):
        spec = ObservabilitySpec()
        assert spec.enabled is False
        assert ObservabilitySpec.from_dict(spec.to_dict()) == spec
        enabled = ObservabilitySpec(enabled=True, trace_messages=False)
        assert ObservabilitySpec.from_dict(enabled.to_dict()) == enabled

    def test_rejects_unknown_keys_and_useless_configs(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            ObservabilitySpec.from_dict({"bogus": 1})
        with pytest.raises(ConfigurationError, match="records nothing"):
            ObservabilitySpec(enabled=True, metrics=False, trace=False).validate()
        with pytest.raises(ConfigurationError):
            ObservabilitySpec(trace_path="out.jsonl").validate()  # not enabled

    def test_build_returns_none_when_disabled(self):
        assert ObservabilitySpec().build() is None
        observer = ObservabilitySpec(enabled=True, trace=False).build()
        assert observer.metrics is not None and observer.trace is None

    def test_scenario_spec_flatten_exposes_observability(self):
        spec = ScenarioSpec.from_dict(
            {"name": "t",
             "observability": {"enabled": True, "trace_messages": False}})
        flat = spec.flatten()
        assert flat["observability.enabled"] is True
        assert flat["observability.trace_messages"] is False


class TestRunSpecWiring:
    def test_disabled_result_has_no_observability_keys(self):
        from repro.experiments.spec import run_spec

        result = run_spec(ScenarioSpec(name="t"))
        assert "metrics" not in result and "trace" not in result

    def test_enabled_result_adds_blocks_without_changing_the_core(self):
        from repro.experiments.spec import run_spec

        plain = run_spec(ScenarioSpec(name="t"))
        spec = ScenarioSpec.from_dict(
            {"name": "t", "observability": {"enabled": True}})
        observed = run_spec(spec)
        metrics = observed.pop("metrics")
        trace = observed.pop("trace")
        assert observed == plain  # byte-identical core payload
        assert metrics["counters"]["kernel.events"] > 0
        assert trace["records"] > 0
        assert len(trace["digest"]) == 64

    def test_trace_path_writes_the_jsonl(self, tmp_path):
        from repro.experiments.spec import run_spec

        path = tmp_path / "spec.jsonl"
        spec = ScenarioSpec.from_dict(
            {"name": "t",
             "observability": {"enabled": True, "trace_path": str(path)}})
        result = run_spec(spec)
        records = read_trace(str(path))
        assert len(records) == result["trace"]["records"]
        assert trace_digest(records) == result["trace"]["digest"]


# ---------------------------------------------------------------------------
# CLI: run --trace / --metrics, sweep --trace-dir, trace subcommand
# ---------------------------------------------------------------------------


FAST = ["-p", "workload.operations_per_client=2"]


class TestCliTracing:
    def test_run_trace_writes_valid_jsonl_and_reports_digest(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(["run", "quickstart", *FAST, "--trace", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        records = read_trace(str(path))
        assert payload[0]["result"]["trace"]["digest"] == trace_digest(records)
        assert payload[0]["result"]["trace"]["records"] == len(records)

    def test_run_metrics_adds_counters(self, capsys):
        assert main(["run", "quickstart", *FAST, "--metrics"]) == 0
        payload = json.loads(capsys.readouterr().out)
        counters = payload[0]["result"]["metrics"]["counters"]
        assert counters["kernel.events"] > 0

    def test_run_without_flags_keeps_result_clean(self, capsys):
        assert main(["run", "quickstart", *FAST]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "metrics" not in payload[0]["result"]
        assert "trace" not in payload[0]["result"]

    def test_trace_subcommand_summarises_and_exports(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(["run", "fig1-walkthrough", "--trace", str(path),
                     "--quiet"]) == 0
        capsys.readouterr()
        chrome = tmp_path / "chrome.json"
        assert main(["trace", str(path), "--export", str(chrome)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["records"] == len(read_trace(str(path)))
        assert summary["digest"] == trace_digest(read_trace(str(path)))
        exported = json.loads(chrome.read_text())
        assert exported["traceEvents"]

    def test_trace_subcommand_rejects_corrupt_files(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"nope": true}\n')
        assert main(["trace", str(path)]) == 2
        assert "invalid trace record" in capsys.readouterr().err

    def test_sweep_trace_dir_serial_equals_parallel(self, tmp_path):
        # transfers=[] keeps the run churn-free: with the dynamic flavour's
        # default transfers the weight-gain refresh recursion aborts at a
        # stack-depth-dependent point, which is the one known source of
        # trace nondeterminism (see ARCHITECTURE.md).
        def sweep(workers, out_dir):
            args = ["sweep", "quickstart", "--seeds", "0,1", *FAST,
                    "-p", "transfers=[]", "--quiet",
                    "--workers", str(workers), "--trace-dir", str(out_dir)]
            assert main(args) == 0

        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        sweep(1, serial)
        sweep(2, parallel)
        serial_files = sorted(os.listdir(serial))
        assert serial_files == sorted(os.listdir(parallel))
        assert len(serial_files) == 2
        for name in serial_files:
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()
            read_trace(str(serial / name))  # every per-run file is schema-valid

    def test_sweep_trace_dir_requires_spec_scenario(self, tmp_path, capsys):
        assert main(["sweep", "fig1-walkthrough",
                     "--trace-dir", str(tmp_path / "t")]) == 2
        assert "declarative" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Determinism: repeats, hash seeds, golden digest
# ---------------------------------------------------------------------------


def _golden_digest() -> str:
    with open(GOLDEN_TRACE_FILE, "r", encoding="utf-8") as handle:
        return handle.read().strip()


class TestTraceDeterminism:
    def test_repeated_runs_produce_identical_digests(self, tmp_path, capsys):
        digests = []
        for index in range(2):
            path = tmp_path / f"run{index}.jsonl"
            assert main(["run", "fig1-walkthrough", "--trace", str(path),
                         "--quiet"]) == 0
            capsys.readouterr()
            digests.append(trace_digest(read_trace(str(path))))
        assert digests[0] == digests[1]

    def test_fig1_walkthrough_matches_the_golden_digest(self, tmp_path, capsys):
        path = tmp_path / "golden.jsonl"
        assert main(["run", "fig1-walkthrough", "--trace", str(path),
                     "--quiet"]) == 0
        capsys.readouterr()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == _golden_digest()

    @pytest.mark.parametrize("hashseed", ["1", "999"])
    def test_digest_is_hashseed_independent(self, tmp_path, hashseed):
        path = tmp_path / f"seed{hashseed}.jsonl"
        env = dict(os.environ, PYTHONHASHSEED=hashseed,
                   PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "run", "fig1-walkthrough",
             "--trace", str(path), "--quiet"],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert hashlib.sha256(path.read_bytes()).hexdigest() == _golden_digest()
