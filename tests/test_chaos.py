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

import json
import multiprocessing
import os
import signal
import subprocess
import sys
from collections import Counter

import pytest

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
from repro.experiments.executor import execute_run, run_with_stable_stack
from repro.experiments.registry import get_scenario, register_spec
from repro.experiments.spec import load_spec_file
from repro.experiments.sweep import RunSpec, Sweep
from repro.obs import read_trace

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CAMPAIGN_REPORT = os.path.join(
    REPO_ROOT, "examples", "campaigns", "quickstart-campaign.jsonl"
)
WORST_SPEC = os.path.join(
    REPO_ROOT, "examples", "specs", "quickstart-chaos-1.json"
)


def quickstart_spec():
    return get_scenario("quickstart").spec


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


    def test_the_committed_report_reproduces_byte_for_byte(self):
        # The knobs the report's own header records (the CLI's defaults).
        campaign = run_campaign("quickstart", sample=16, seed=0,
                                times=(4, 8, 12))
        with open(CAMPAIGN_REPORT, encoding="utf-8") as handle:
            committed = handle.read()
        assert "".join(line + "\n" for line in campaign.jsonl_lines()) == (
            committed)


class TestCampaignTraces:
    """Where a campaign's per-run traces live, and for how long."""

    def test_a_judged_run_leaves_no_trace_file_behind(
        self, tmp_path, monkeypatch
    ):
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        monkeypatch.setattr(
            "repro.chaos.campaign.tempfile.mkdtemp", lambda prefix: str(scratch)
        )
        seen = []
        campaign = run_campaign(
            "quickstart", sample=3, seed=3,
            progress=lambda done, total: seen.append(sorted(os.listdir(scratch))),
        )
        # Serial execution: by the time run k is judged its trace is gone and
        # run k+1 has not started, so only the baseline's file is ever seen.
        assert seen == [["baseline.jsonl"]] * 3
        assert not scratch.exists()  # and the directory goes at the end
        assert all(entry["oracles"]["trace-invariants"]["checked"]
                   for entry in campaign.entries)

    def test_keep_traces_keeps_every_file(self, tmp_path):
        kept = tmp_path / "kept"
        campaign = run_campaign("quickstart", sample=3, seed=3,
                                keep_traces=str(kept))
        assert sorted(os.listdir(kept)) == [
            "0000.jsonl", "0001.jsonl", "0002.jsonl", "baseline.jsonl",
        ]
        by_index = {entry["index"]: entry for entry in campaign.entries}
        for index in range(3):
            records = read_trace(str(kept / f"{index:04d}.jsonl"))
            assert len(records) == (
                by_index[index]["oracles"]["trace-invariants"]["records"])

    def test_a_trace_cut_mid_line_is_no_trace_only_when_tolerated(
        self, tmp_path
    ):
        from repro.chaos.campaign import _read_trace_if_any

        whole = tmp_path / "whole.jsonl"
        execute_run(RunSpec("quickstart", (
            ("observability.enabled", True),
            ("observability.trace", True),
            ("observability.trace_path", str(whole)),
            ("workload.operations_per_client", 2),
        )))
        data = whole.read_bytes()
        cut = tmp_path / "cut.jsonl"
        cut.write_bytes(data[: len(data) - 20])  # a SIGKILL mid-write
        assert _read_trace_if_any(str(whole)) == read_trace(str(whole))
        assert _read_trace_if_any(str(tmp_path / "absent.jsonl")) is None
        # The watchdog path judges it as "no trace" ...
        assert _read_trace_if_any(str(cut), tolerant=True) is None
        report = TraceInvariantOracle().judge(RunOutcome(
            index=0, run_id="r", params={}, result={}, trace_records=None))
        assert report.details == {"checked": False}
        # ... the strict path refuses to judge half a trace.
        with pytest.raises(ConfigurationError, match=r"cut\.jsonl:\d+: "):
            _read_trace_if_any(str(cut))


    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the patched run_spec reaches workers by fork",
    )
    def test_a_crashed_worker_in_a_plain_campaign_is_judged_no_trace(
        self, monkeypatch
    ):
        # What the OOM killer does to one worker of a plain `--workers 2`
        # campaign, mid-trace-write: that run is "no trace", quarantined;
        # every other run is still read strictly and judged in full.
        import repro.experiments.registry as registry_module

        real_run_spec = registry_module.run_spec

        def run_spec_or_die(spec):
            path = spec.observability.trace_path or ""
            if path.endswith("0001.jsonl"):
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write('{"kind": "torn')
                os.kill(os.getpid(), signal.SIGKILL)
            return real_run_spec(spec)

        monkeypatch.setattr(registry_module, "run_spec", run_spec_or_die)
        telemetry = StreamTelemetry()
        campaign = run_campaign("quickstart", sample=3, seed=3, workers=2,
                                telemetry=telemetry)
        assert telemetry.quarantined == 1
        assert "resilience" not in campaign.header["campaign"]
        by_index = {entry["index"]: entry for entry in campaign.entries}
        crashed = by_index[1]
        assert [v["check"] for v in crashed["violations"]] == ["run-quarantined"]
        assert crashed["oracles"]["trace-invariants"] == {"checked": False}
        for index in (0, 2):
            assert by_index[index]["oracles"]["trace-invariants"]["checked"]


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
