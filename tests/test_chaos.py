"""The chaos-campaign engine: fault space, oracles, determinism, report.

The load-bearing guarantees under test:

* :func:`repro.chaos.space.fault_axes` derives self-contained, buildable
  axis values (benign ones recover/heal; aggressive ones add the killers),
  and the Latin-hypercube sampler stratifies every axis — including the
  gray-failure dimensions.
* The oracle stack flags what must never happen (run failures, lost
  operations, lost weight, trace-invariant errors) and *ranks* what is
  merely slow.
* A campaign report is deterministic in (scenario, sample, seed): reruns,
  worker counts and ``PYTHONHASHSEED`` leave its bytes unchanged.
* The committed example campaign is reproducible: its worst emitted spec
  re-runs to exactly the p99s the report recorded.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import Campaign, fault_axes, run_campaign
from repro.chaos.oracles import (
    LatencyDegradationOracle,
    MAX_DEGRADATION,
    ResultOracle,
    RunOutcome,
    TraceInvariantOracle,
)
from repro.errors import ConfigurationError
from repro.experiments import StreamTelemetry
from repro.experiments.cli import main
from repro.experiments.executor import (
    execute_run,
    execute_run_captured,
    run_with_stable_stack,
)
from repro.experiments.registry import get_scenario, register_spec
from repro.experiments.spec import load_spec_file, run_spec
from repro.experiments.sweep import RunSpec, Sweep
from repro.obs import Observer, observing, read_trace, write_trace

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CAMPAIGN_REPORT = os.path.join(
    REPO_ROOT, "examples", "campaigns", "quickstart-campaign.jsonl"
)
SPECS_DIR = os.path.join(REPO_ROOT, "examples", "specs")
WORST_SPEC = os.path.join(SPECS_DIR, "quickstart-chaos-1.json")


def quickstart_spec():
    return get_scenario("quickstart").spec


#: What ``run_spec`` returned, with no error anywhere, before the control
#: loop could outlive a crash: n=5, f=1, ``s5`` six times slower, six rounds
#: ten apart, seed 1, ``s5`` crashed at t=36 while still over its target —
#: ``controller.step()`` raised into the control task in the second round.
A_CONTROL_LOOP_THAT_DIED = {
    "scenario": "monitoring-crash", "flavour": "dynamic-weighted", "seed": 1,
    "duration": 28.588675830129546, "operations": 12, "restarts": 0,
    "messages": 274, "transfers": [],
    "monitoring": {"rounds": 6, "rounds_completed": 2, "transfers_attempted": 1},
    "weights": {"s1": 1.0, "s2": 1.0, "s3": 1.0, "s4": 1.0859375,
                "s5": 0.9140625},
    "workload": {"clients": 2, "operations": 12, "reads": 3, "writes": 9},
    "read_latency": {"count": 3, "max": 4.0, "mean": 4.0, "median": 4.0,
                     "p95": 4.0, "p99": 4.0},
    "write_latency": {"count": 9, "max": 4.000000000000002, "mean": 4.0,
                      "median": 4.0, "p95": 4.000000000000002,
                      "p99": 4.000000000000002},
}


@pytest.fixture(scope="module")
def campaign():
    """One small aggressive campaign, shared by the read-only assertions."""
    return run_campaign("quickstart", sample=6, seed=3, min_quorum=3)


class TestFaultAxes:
    def test_every_fault_axis_includes_the_no_fault_value(self):
        axes = fault_axes(quickstart_spec())
        for path in ("faults.outages", "faults.partitions", "latency.degraded"):
            assert () in axes[path], path

    def test_benign_values_stay_within_the_fault_budget(self):
        axes = fault_axes(quickstart_spec(), benign=True)
        for value in axes["faults.outages"]:
            for _, at, until in value:
                assert until is not None and until > at
        for value in axes["faults.partitions"]:
            for at, _, heal_at in value:
                assert heal_at is not None and heal_at > at
        assert all(len(value) <= 1 for value in axes["latency.degraded"])
        assert all(stall == 0.0 for stall in axes["latency.degraded_stall"])

    def test_aggressive_region_adds_the_known_killers(self):
        axes = fault_axes(quickstart_spec())
        assert any(
            value and all(until is None for _, _, until in value)
            for value in axes["faults.outages"]
        ), "no permanent quorum-blocking crash set"
        assert any(
            len(value) > 1 for value in axes["latency.degraded"]
        ), "no quorum-blocking gray set"
        assert max(axes["latency.degraded_factor"]) >= 8.0
        assert max(axes["latency.degraded_stall"]) > 0.0

    def test_any_combination_of_axis_values_builds(self):
        # LHS combines axis values freely, so the *worst* value of every
        # axis at once must still be a valid spec.
        spec = quickstart_spec()
        axes = fault_axes(spec)
        overrides = {path: values[-1] for path, values in axes.items()}
        spec.with_overrides(overrides).validate()

    def test_injection_times_are_validated(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            fault_axes(quickstart_spec(), times=())
        with pytest.raises(ConfigurationError, match="non-negative"):
            fault_axes(quickstart_spec(), times=(4.0, -1.0))


class TestLHSStratification:
    @pytest.mark.parametrize("sample,seed", [(8, 0), (16, 1), (5, 2)])
    def test_marginals_are_stratified_on_every_axis(self, sample, seed):
        # The LHS guarantee, per axis: min(sample, len(values)) distinct
        # values, with per-value counts differing by at most one.  This
        # covers the gray-failure dimensions, not just the crash axes.
        axes = fault_axes(quickstart_spec())
        runs = Sweep.of("quickstart", grid=axes).sample_lhs(sample, seed=seed)
        assert len(runs) == sample
        for path, values in axes.items():
            marginal = Counter(run.params_dict[path] for run in runs)
            assert len(marginal) == min(sample, len(values)), path
            assert max(marginal.values()) - min(marginal.values()) <= 1, path


class TestOracles:
    def outcome(self, result, trace=None, baseline=None):
        return RunOutcome(index=0, run_id="r", params={}, result=result,
                          trace_records=trace, baseline=baseline)

    def test_trace_oracle_records_an_absent_trace(self):
        report = TraceInvariantOracle().judge(self.outcome({"operations": 1}))
        assert report.details == {"checked": False}
        assert not report.violations

    def test_trace_oracle_accepts_an_empty_trace(self):
        report = TraceInvariantOracle().judge(
            self.outcome({"operations": 1}, trace=[])
        )
        assert report.details["checked"] is True
        assert not report.violations

    def test_result_oracle_flags_a_captured_run_error(self):
        report = ResultOracle().judge(self.outcome(
            {"error": {"type": "DeadlockError", "message": "stuck at t=4"}}
        ))
        assert [v.check for v in report.violations] == ["run-failure"]
        assert "DeadlockError" in report.violations[0].message
        assert report.details == {"completed": False}

    def test_result_oracle_accounts_watchdog_timeouts(self):
        report = ResultOracle().judge(self.outcome(
            {"error": {"type": "WatchdogTimeout", "message": "killed",
                       "run_timeout": 1.0}}
        ))
        assert [v.check for v in report.violations] == ["run-timeout"]
        assert report.details == {"completed": False, "timed_out": True}

    def test_result_oracle_accounts_quarantined_configs(self):
        report = ResultOracle().judge(self.outcome(
            {"error": {"type": "WorkerCrashed", "message": "died twice",
                       "attempts": 2, "quarantined": True}}
        ))
        assert [v.check for v in report.violations] == ["run-quarantined"]
        assert report.details == {"completed": False, "quarantined": True}

    def test_result_oracle_marks_unexpected_captured_errors(self):
        report = ResultOracle().judge(self.outcome(
            {"error": {"type": "RecursionError", "message": "too deep",
                       "unexpected": True}}
        ))
        assert [v.check for v in report.violations] == ["run-failure"]
        assert report.details == {"completed": False, "unexpected": True}

    def test_result_oracle_flags_unaccounted_operations(self):
        report = ResultOracle().judge(self.outcome(
            {"operations": 18, "workload": {"operations": 20}}
        ))
        assert [v.check for v in report.violations] == ["ops-unaccounted"]

    def test_result_oracle_checks_weight_conservation(self):
        ok = ResultOracle(expected_weight=5.0).judge(self.outcome(
            {"operations": 4, "weights": {"s1": 2.0, "s2": 3.0}}
        ))
        assert not ok.violations
        lost = ResultOracle(expected_weight=5.0).judge(self.outcome(
            {"operations": 4, "weights": {"s1": 2.0, "s2": 2.5}}
        ))
        assert [v.check for v in lost.violations] == ["weight-conservation"]

    def test_result_oracle_flags_negative_weight(self):
        report = ResultOracle().judge(self.outcome(
            {"operations": 4, "weights": {"s1": -0.5, "s2": 5.5}}
        ))
        assert [v.check for v in report.violations] == ["negative-weight"]

    def test_result_oracle_flags_a_control_loop_that_died(self):
        oracle = ResultOracle(expected_weight=5.0)
        finished = oracle.judge(self.outcome(dict(
            A_CONTROL_LOOP_THAT_DIED,
            monitoring={"rounds": 6, "rounds_completed": 6,
                        "transfers_attempted": 1},
        )))
        assert not finished.violations
        assert finished.details["monitoring_rounds_completed"] == 6
        died = oracle.judge(self.outcome(A_CONTROL_LOOP_THAT_DIED))
        assert [v.check for v in died.violations] == ["monitoring-rounds"]
        assert "2 of 6" in died.violations[0].message
        assert died.details["monitoring_rounds_completed"] == 2

    def test_result_oracle_adds_no_key_for_an_unmonitored_run(self):
        report = ResultOracle().judge(self.outcome(
            {"operations": 4, "workload": {"operations": 4}}
        ))
        assert not report.violations
        assert report.details == {
            "completed": True, "operations": 4, "generated": 4,
        }

    def test_latency_oracle_ranks_but_never_flags(self):
        baseline = {"read_latency": {"p99": 2.0}, "write_latency": {"p99": 4.0}}
        report = LatencyDegradationOracle(threshold=2.0).judge(self.outcome(
            {"read_latency": {"p99": 7.0}, "write_latency": {"p99": 4.0}},
            baseline=baseline,
        ))
        assert not report.violations
        assert report.details["degradation"] == pytest.approx(3.5)
        assert report.details["degraded"] is True

    def test_latency_degradation_is_capped(self):
        baseline = {"read_latency": {"p99": 1.0}, "write_latency": {"p99": 1.0}}
        report = LatencyDegradationOracle().judge(self.outcome(
            {"read_latency": {"p99": 1e6}, "write_latency": {"p99": 1.0}},
            baseline=baseline,
        ))
        assert report.details["degradation"] == MAX_DEGRADATION

    def test_latency_oracle_skips_failed_runs(self):
        report = LatencyDegradationOracle().judge(self.outcome(
            {"error": {"type": "SimTimeoutError", "message": ""}},
            baseline={"read_latency": {"p99": 1.0}},
        ))
        assert report.details["degradation"] is None


class TestCampaignDeterminism:
    def test_same_seed_is_byte_identical_and_worker_independent(self, campaign):
        again = run_campaign("quickstart", sample=6, seed=3, min_quorum=3)
        parallel = run_campaign("quickstart", sample=6, seed=3, min_quorum=3,
                                workers=2)
        reference = list(campaign.jsonl_lines())
        assert list(again.jsonl_lines()) == reference
        assert list(parallel.jsonl_lines()) == reference

    @pytest.mark.parametrize("hashseed", ["1", "999"])
    def test_report_is_hashseed_independent(self, tmp_path, hashseed):
        path = tmp_path / f"seed{hashseed}.jsonl"
        env = dict(os.environ, PYTHONHASHSEED=hashseed,
                   PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "chaos", "--scenario",
             "quickstart", "--sample", "4", "--seed", "0", "--report",
             str(path), "--quiet", "--no-progress"],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 5
        # Both parametrizations must produce these exact bytes, so the
        # digest pins hashseed-independence without a golden file.
        import hashlib

        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        reference = tmp_path / "reference.json"
        # Compare against an in-process run with the CLI's default knobs
        # (its --times default parses to ints).
        local = run_campaign("quickstart", sample=4, seed=0, times=(4, 8, 12))
        reference.write_text(
            "\n".join(local.jsonl_lines()) + "\n", encoding="utf-8"
        )
        assert digest == hashlib.sha256(reference.read_bytes()).hexdigest()


class TestCampaignReport:
    def test_header_carries_the_campaign_parameters(self, campaign):
        meta = campaign.header["campaign"]
        assert meta["scenario"] == "quickstart"
        assert meta["sample"] == 6 and meta["seed"] == 3
        assert meta["runs"] == 6
        assert set(meta["axes"]) == {
            "faults.outages", "faults.partitions", "latency.degraded",
            "latency.degraded_factor", "latency.degraded_stall",
        }
        baseline = campaign.header["baseline"]
        assert baseline["violations"] == []
        assert baseline["read_p99"] > 0 and baseline["write_p99"] > 0

    def test_entries_are_ranked_by_severity_then_index(self, campaign):
        ranks = [entry["rank"] for entry in campaign.entries]
        assert ranks == list(range(1, len(campaign.entries) + 1))
        keys = [(-entry["severity"], entry["index"])
                for entry in campaign.entries]
        assert keys == sorted(keys)
        assert campaign.worst is campaign.entries[0]

    def test_params_stay_within_the_advertised_axes(self, campaign):
        axes = campaign.header["campaign"]["axes"]
        for entry in campaign.entries:
            assert set(entry["params"]) == set(axes)

    def test_report_lines_are_canonical_json(self, campaign):
        for line in campaign.jsonl_lines():
            parsed = json.loads(line)
            assert line == json.dumps(parsed, sort_keys=True)

    def test_worst_specs_round_trip(self, campaign, tmp_path):
        paths = campaign.write_worst_specs(str(tmp_path), top=2)
        assert len(paths) == 2
        for rank, path in enumerate(paths, 1):
            spec = load_spec_file(path)
            assert spec.name == os.path.splitext(os.path.basename(path))[0]
            assert spec.name == f"quickstart-chaos-{rank}"
            spec.validate()
            assert f"#{rank}" in spec.description

    def test_function_scenarios_are_rejected(self):
        with pytest.raises(ConfigurationError, match="declarative"):
            run_campaign("asset-transfer", sample=2)


class TestCommittedCampaign:
    def read_report(self):
        with open(CAMPAIGN_REPORT, encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle]
        return lines[0], lines[1:]

    def test_report_parses_and_found_a_degradation(self):
        header, entries = self.read_report()
        assert header["campaign"]["runs"] == len(entries) == 16
        assert header["campaign"]["violations"] == 0
        worst = entries[0]
        assert worst["rank"] == 1
        # The acceptance bar: the campaign surfaced a config at >= 2x p99.
        assert worst["oracles"]["latency"]["degradation"] >= 2.0

    def test_worst_spec_reproduces_the_reported_p99s(self):
        header, entries = self.read_report()
        worst = entries[0]
        spec = load_spec_file(WORST_SPEC)
        assert spec.name == "quickstart-chaos-1"
        register_spec(spec, replace=True)
        try:
            result = run_with_stable_stack(
                execute_run, RunSpec(scenario=spec.name)
            ).result
        finally:
            from repro.experiments.registry import unregister

            unregister(spec.name)
        assert result["read_latency"]["p99"] == (
            worst["oracles"]["latency"]["read_p99"]
        )
        assert result["write_latency"]["p99"] == (
            worst["oracles"]["latency"]["write_p99"]
        )
        baseline = header["baseline"]
        assert result["read_latency"]["p99"] >= 2.0 * baseline["read_p99"]


    @pytest.fixture(scope="class")
    def rerun(self):
        # The knobs the report's own header records (the CLI's defaults).
        return run_campaign("quickstart", sample=16, seed=0, times=(4, 8, 12))

    def test_the_committed_report_reproduces_byte_for_byte(self, rerun):
        with open(CAMPAIGN_REPORT, encoding="utf-8") as handle:
            committed = handle.read()
        assert "".join(line + "\n" for line in rerun.jsonl_lines()) == (
            committed)

    def test_the_committed_worst_spec_is_the_emitted_one(self, rerun, tmp_path):
        # Object form, like its neighbours in examples/specs/: what
        # `chaos --out-dir` writes today is the file that is checked in.
        (emitted,) = rerun.write_worst_specs(str(tmp_path), top=1)
        assert os.path.basename(emitted) == os.path.basename(WORST_SPEC)
        with open(emitted, "rb") as fresh, open(WORST_SPEC, "rb") as committed:
            assert fresh.read() == committed.read()


def _raise_if_called(name):
    def raiser(*args, **kwargs):
        raise AssertionError(f"a campaign without keep_traces called {name}")
    return raiser


class TestCampaignTraces:
    """A trace is judged where it was recorded; only ``keep_traces`` makes a
    file of it, and nothing ever reads one back."""

    def test_a_campaign_without_keep_traces_touches_no_file(
        self, tmp_path, monkeypatch
    ):
        import tempfile

        scratch = tmp_path / "scratch"
        scratch.mkdir()
        monkeypatch.setenv("TMPDIR", str(scratch))
        monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
        monkeypatch.setattr(tempfile, "mkdtemp", _raise_if_called("mkdtemp"))
        monkeypatch.chdir(scratch)
        seen = []
        campaign = run_campaign(
            "quickstart", sample=3, seed=3,
            progress=lambda done, total: seen.append(os.listdir(scratch)),
        )
        assert seen == [[]] * 3 and os.listdir(scratch) == []
        assert all(entry["oracles"]["trace-invariants"]["checked"]
                   for entry in campaign.entries)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_campaign_without_keep_traces_encodes_and_decodes_nothing(
        self, campaign, workers, monkeypatch
    ):
        # Patched wherever the name is bound (forked workers inherit it).
        for module in ("repro.obs.trace", "repro.experiments.spec",
                       "repro.chaos.campaign"):
            for name in ("write_trace", "read_trace", "trace_digest",
                         "trace_lines"):
                if hasattr(sys.modules[module], name):
                    monkeypatch.setattr(
                        f"{module}.{name}", _raise_if_called(name))
        again = run_campaign("quickstart", sample=6, seed=3, min_quorum=3,
                             workers=workers)
        assert list(again.jsonl_lines()) == list(campaign.jsonl_lines())
        assert all(entry["oracles"]["trace-invariants"]["records"] > 0
                   for entry in again.entries)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_keep_traces_keeps_the_bytes_a_traced_run_writes(
        self, tmp_path, workers
    ):
        kept = tmp_path / "kept"
        campaign = run_campaign("quickstart", sample=3, seed=3,
                                workers=workers, keep_traces=str(kept))
        assert sorted(os.listdir(kept)) == [
            "0000.jsonl", "0001.jsonl", "0002.jsonl", "baseline.jsonl",
        ]

        def traced_digest(execute, params):
            # What the run's own ``observability`` section digests (and, with
            # a trace_path, writes) for the same run at the same stack depth.
            params = dict(params, **{"observability.enabled": True,
                                     "observability.trace": True})
            run = RunSpec("quickstart", tuple(sorted(params.items())))
            return run_with_stable_stack(execute, run).result["trace"]

        def kept_file(stem):
            data = (kept / f"{stem}.jsonl").read_bytes()
            return {"records": data.count(b"\n"),
                    "digest": hashlib.sha256(data).hexdigest()}

        assert kept_file("baseline") == traced_digest(execute_run, {})
        assert kept_file("baseline")["records"] == (
            campaign.header["baseline"]["trace_records"])
        for entry in campaign.entries:
            on_disk = kept_file(f"{entry['index']:04d}")
            assert on_disk == traced_digest(
                execute_run_captured, entry["params"])
            assert on_disk["records"] == (
                entry["oracles"]["trace-invariants"]["records"])

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the patched run_spec reaches workers by fork",
    )
    def test_a_worker_killed_mid_run_is_judged_no_trace(
        self, tmp_path, monkeypatch
    ):
        # What the OOM killer does to one worker of a plain `--workers 2`
        # campaign, mid-run: whatever it had recorded dies with it, the run
        # is quarantined and judged "no trace"; every other run is judged in
        # full, by the worker that ran it.
        import repro.experiments.registry as registry_module

        real_run_spec = registry_module.run_spec
        sampled = Sweep.of(
            "quickstart", grid=fault_axes(quickstart_spec())
        ).sample_lhs(3, seed=3)
        doomed = quickstart_spec().with_overrides(sampled[1].params_dict)
        parent = os.getpid()

        def run_spec_or_die(spec):
            result = real_run_spec(spec)
            if os.getpid() != parent and spec == doomed:
                os.kill(os.getpid(), signal.SIGKILL)  # recorded, not yet judged
            return result

        monkeypatch.setattr(registry_module, "run_spec", run_spec_or_die)
        telemetry = StreamTelemetry()
        kept = tmp_path / "kept"
        campaign = run_campaign("quickstart", sample=3, seed=3, workers=2,
                                telemetry=telemetry, keep_traces=str(kept))
        assert telemetry.quarantined == 1
        assert "resilience" not in campaign.header["campaign"]
        by_index = {entry["index"]: entry for entry in campaign.entries}
        crashed = by_index[1]
        assert [v["check"] for v in crashed["violations"]] == ["run-quarantined"]
        assert crashed["oracles"]["trace-invariants"] == {"checked": False}
        for index in (0, 2):
            assert by_index[index]["oracles"]["trace-invariants"]["checked"]
            assert by_index[index]["oracles"]["trace-invariants"]["records"] > 0
        assert sorted(os.listdir(kept)) == [
            "0000.jsonl", "0002.jsonl", "baseline.jsonl",
        ]


def _live_records(spec, params):
    """The recorder's own list after one run of ``spec`` under ``params`` at
    the campaign's stack depth; a lethal configuration's partial trace is
    still a trace (and the one most likely to carry findings)."""
    observer = Observer()
    with observing(observer):
        try:
            run_with_stable_stack(run_spec, spec.with_overrides(params))
        except Exception:  # noqa: BLE001 - whatever the faults did to it
            pass
    return observer.trace.records


def _same_with_exact_types(left, right):
    if type(left) is not type(right):
        return False
    if type(left) is dict:
        return left.keys() == right.keys() and all(
            type(key) is str and _same_with_exact_types(left[key], right[key])
            for key in left)
    if type(left) is list:
        return len(left) == len(right) and all(
            map(_same_with_exact_types, left, right))
    return type(left) in (str, int, float, bool) and left == right


class TestSpawnedWorkersJudge:
    def test_an_unregistered_spec_on_spawned_workers_equals_serial(
        self, monkeypatch
    ):
        # What the stream applies to a run reaches a spawned worker pickled,
        # as a start argument beside the planned entry — nothing is inherited.
        import dataclasses

        from repro.experiments import executor
        from repro.experiments.registry import SpecScenario

        entry = SpecScenario(
            dataclasses.replace(quickstart_spec(), name="spawned-chaos"))
        serial = run_campaign("spawned-chaos", sample=3, seed=3, entry=entry)
        monkeypatch.setattr(
            executor, "_pool_context",
            lambda: multiprocessing.get_context("spawn"))
        spawned = run_campaign(
            "spawned-chaos", sample=3, seed=3, workers=2, entry=entry)
        assert list(spawned.jsonl_lines()) == list(serial.jsonl_lines())
        assert all(judged["oracles"]["trace-invariants"]["records"] > 0
                   for judged in spawned.entries)


class TestLiveRecordsAreTheFile:
    """Skipping the write/read round trip is safe because it is the identity:
    what the ``Observer`` emits is already what ``read_trace`` would return,
    and the oracle says the same about both — the old path is the oracle."""

    def assert_judged_alike(self, spec, params, tmp_path_factory):
        live = _live_records(spec, params)
        assert type(live) is list and live
        for record in live:
            assert _same_with_exact_types(json.loads(json.dumps(record)), record)
        path = str(tmp_path_factory.mktemp("trace") / "run.jsonl")
        write_trace(live, path)
        from_file = read_trace(path)
        assert _same_with_exact_types(list(from_file), live)
        # Stricter than any of these clusters' smallest quorum: real findings,
        # so the messages compared are not two empty lists.
        oracle = TraceInvariantOracle(min_quorum=4)
        outcome = dict(index=0, run_id="r", params=params, result={})
        on_live = oracle.judge(RunOutcome(trace_records=live, **outcome))
        on_file = oracle.judge(RunOutcome(trace_records=from_file, **outcome))
        assert on_live.details == on_file.details
        assert on_live.details["records"] == len(live)
        assert on_live.violations == on_file.violations  # messages included
        return on_live

    @pytest.mark.parametrize("name, examples", [
        ("quickstart", 12), ("fig1-walkthrough", 4),
    ])
    def test_the_oracle_cannot_tell_live_records_from_the_file(
        self, name, examples, tmp_path_factory
    ):
        spec = load_spec_file(os.path.join(SPECS_DIR, f"{name}.json"))
        axes = fault_axes(spec)

        @settings(max_examples=examples, deadline=None, database=None,
                  suppress_health_check=list(HealthCheck))
        @given(st.fixed_dictionaries(
            {path: st.sampled_from(values) for path, values in axes.items()}))
        def check(params):
            self.assert_judged_alike(spec, params, tmp_path_factory)

        check()

    def test_a_sharded_trace_with_findings_is_judged_alike(
        self, tmp_path_factory
    ):
        spec = load_spec_file(
            os.path.join(SPECS_DIR, "sharded-global-monitoring.json"))
        report = self.assert_judged_alike(
            spec, {"workload.operations_per_client": 4}, tmp_path_factory)
        assert report.details["records"] > 1000 and report.violations


class TestASpecWithItsOwnObserver:
    """``run_spec`` installs a spec's own observer over the ambient one; the
    campaign must hold the only observer of its runs or it judges nothing."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_report_equals_the_unobserved_specs(
        self, tmp_path, capsys, workers
    ):
        reports = {}
        for label in ("plain", "observed"):
            body = quickstart_spec().to_dict()
            body["name"] = "self-observed"
            if label == "observed":
                body["observability"] = {"enabled": True, "trace": True}
            else:
                body.pop("observability", None)
            spec_path = tmp_path / f"{label}.json"
            spec_path.write_text(json.dumps(body), encoding="utf-8")
            report = tmp_path / f"{label}.jsonl"
            assert main([
                "chaos", "--spec", str(spec_path), "--sample", "3", "--seed",
                "1", "--workers", str(workers), "--report", str(report),
                "--quiet", "--no-progress",
            ]) == 0
            reports[label] = report.read_text(encoding="utf-8")
        capsys.readouterr()
        assert reports["observed"] == reports["plain"]
        header, *entries = map(json.loads, reports["observed"].splitlines())
        assert header["baseline"]["trace_records"] > 0
        assert len(entries) == 3
        for entry in entries:
            assert entry["oracles"]["trace-invariants"]["records"] > 0


class TestChaosCli:
    def test_cli_writes_report_and_worst_specs(self, tmp_path, capsys):
        report = tmp_path / "report.jsonl"
        out_dir = tmp_path / "specs"
        assert main([
            "chaos", "--scenario", "quickstart", "--sample", "3", "--seed",
            "1", "--report", str(report), "--out-dir", str(out_dir),
            "--top", "1", "--quiet", "--no-progress",
        ]) == 0
        captured = capsys.readouterr()
        assert "campaign over 'quickstart'" in captured.err
        lines = report.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4
        emitted = sorted(os.listdir(out_dir))
        assert emitted == ["quickstart-chaos-1.json"]
        load_spec_file(str(out_dir / emitted[0])).validate()

    def test_fail_on_violations_gates_benign_campaigns(self, tmp_path, capsys):
        # The CI smoke contract: a benign campaign must be violation-free,
        # so --fail-on-violations exits 0 on it.
        assert main([
            "chaos", "--scenario", "quickstart", "--benign", "--sample", "3",
            "--seed", "0", "--fail-on-violations", "--quiet", "--no-progress",
        ]) == 0
        capsys.readouterr()


class TestCampaignResilience:
    """Journaled resume of judged entries; resumed report == uninterrupted."""

    def test_legacy_campaigns_have_no_resilience_block(self, campaign):
        # The off-path must keep its bytes (committed reports, baselines).
        assert "resilience" not in campaign.header["campaign"]

    def test_journaled_campaign_resumes_byte_identical(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        full = run_campaign("quickstart", sample=4, seed=5,
                            journal_path=journal)
        assert full.header["campaign"]["resilience"] == {
            "run_timeout": None, "max_attempts": 1,
            "retries": 0, "timeouts": 0, "quarantined": 0,
        }
        with open(journal, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        assert len(lines) == 6  # header + baseline + 4 judged entries
        trunc = str(tmp_path / "trunc.jsonl")
        with open(trunc, "w", encoding="utf-8") as handle:
            handle.writelines(lines[:4])  # lose the last two entries

        telemetry = StreamTelemetry()
        resumed = run_campaign("quickstart", sample=4, seed=5,
                               journal_path=trunc, resume=True,
                               telemetry=telemetry)
        assert telemetry.resumed == 2
        assert list(resumed.jsonl_lines()) == list(full.jsonl_lines())

    def test_resume_replays_the_journaled_baseline(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        run_campaign("quickstart", sample=2, seed=5, journal_path=journal)
        with open(journal, "r", encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        assert records[1]["digest"] == "baseline"
        assert "result" in records[1]

    def test_journal_from_other_knobs_is_rejected(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        run_campaign("quickstart", sample=2, seed=5, journal_path=journal)
        with pytest.raises(ConfigurationError, match="different"):
            run_campaign("quickstart", sample=2, seed=6,
                         journal_path=journal, resume=True)

    def test_cli_chaos_resume_is_byte_identical(self, tmp_path, capsys):
        journal = str(tmp_path / "journal.jsonl")
        full = str(tmp_path / "full.jsonl")
        base = [
            "chaos", "--scenario", "quickstart", "--sample", "3",
            "--seed", "2", "--quiet", "--no-progress",
        ]
        assert main(base + ["--report", full, "--journal", journal]) == 0
        with open(journal, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        trunc = str(tmp_path / "trunc.jsonl")
        with open(trunc, "w", encoding="utf-8") as handle:
            handle.writelines(lines[:3])
        resumed = str(tmp_path / "resumed.jsonl")
        capsys.readouterr()
        assert main(base + ["--report", resumed, "--resume", trunc]) == 0
        assert "resilience: resumed 1" in capsys.readouterr().err
        with open(full, "rb") as a, open(resumed, "rb") as b:
            assert a.read() == b.read()
