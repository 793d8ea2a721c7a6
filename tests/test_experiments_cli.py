"""CLI tests: in-process `main()` calls plus one real `python -m repro` smoke."""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ReproError
from repro.experiments import cli, executor
from repro.experiments.cli import parse_grid, parse_params, parse_value, main
from repro.experiments.plan import JobRequest, plan
from repro.experiments.sweep import Sweep, expand_grid, expand_points

SPEC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples", "specs"
)

FAST = ["-p", "workload.operations_per_client=2"]


class TestListCommand:
    def test_list_shows_registered_scenarios(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("quickstart", "fig1-walkthrough", "wmqs-vs-mqs",
                     "epoch-vs-epochless", "storage-vs-reconfig"):
            assert name in out

    def test_list_json_and_tag_filter(self, capsys):
        assert main(["list", "--json", "--tag", "smoke"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["name"] for entry in payload] == ["quickstart"]
        assert "cluster.n" in payload[0]["parameters"]


class TestRunCommand:
    def test_run_prints_result_json(self, capsys):
        assert main(["run", "quickstart", *FAST]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["scenario"] == "quickstart"
        # 2 clients x 2 operations per client
        assert payload[0]["result"]["operations"] == 4

    def test_run_writes_json_file(self, tmp_path, capsys):
        out_path = tmp_path / "run.json"
        assert main(["run", "quickstart", *FAST, "--json", str(out_path), "--quiet"]) == 0
        payload = json.loads(out_path.read_text())
        assert payload[0]["result"]["operations"] == 4

    def test_run_unknown_scenario_fails_with_listing(self, capsys):
        assert main(["run", "no-such-scenario"]) == 2
        assert "quickstart" in capsys.readouterr().err

    def test_run_bad_param_syntax_fails(self, capsys):
        assert main(["run", "quickstart", "-p", "seed"]) == 2
        assert "key=value" in capsys.readouterr().err


class TestSweepCommand:
    def test_sweep_workers_produce_identical_json(self, tmp_path, capsys):
        args = ["sweep", "quickstart", "-g", "cluster.n=4,5", "--seeds", "0,1",
                "-p", "workload.operations_per_client=2", "-p", "cluster.f=1", "--quiet"]
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        assert main([*args, "--workers", "1", "--json", str(serial)]) == 0
        assert main([*args, "--workers", "4", "--json", str(parallel)]) == 0
        assert serial.read_text() == parallel.read_text()
        payload = json.loads(serial.read_text())
        assert len(payload) == 4
        assert sorted({entry["params"]["cluster.n"] for entry in payload}) == [4, 5]

    def test_sweep_csv_sink(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        assert main(["sweep", "quickstart", "--seeds", "0,1", *FAST,
                     "--csv", str(out_path), "--quiet"]) == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 3


class TestCompareCommand:
    def test_compare_identical_and_diverging(self, tmp_path, capsys):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert main(["run", "quickstart", *FAST, "--json", str(first), "--quiet"]) == 0
        assert main(["run", "quickstart", *FAST, "--json", str(second), "--quiet"]) == 0
        assert main(["compare", str(first), str(second)]) == 0
        assert "results match" in capsys.readouterr().out

        assert main(["run", "quickstart", "-p", "workload.operations_per_client=3",
                     "--json", str(second), "--quiet"]) == 0
        assert main(["compare", str(first), str(second)]) == 1
        assert "difference(s) found" in capsys.readouterr().out

    def test_compare_missing_file_fails_cleanly(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        present = tmp_path / "present.json"
        assert main(["run", "quickstart", *FAST, "--json", str(present), "--quiet"]) == 0
        assert main(["compare", str(present), str(missing)]) == 2

    def test_compare_malformed_json_fails_cleanly(self, tmp_path, capsys):
        present = tmp_path / "present.json"
        corrupt = tmp_path / "corrupt.json"
        assert main(["run", "quickstart", *FAST, "--json", str(present), "--quiet"]) == 0
        corrupt.write_text('[{"run_id": "tru')
        assert main(["compare", str(present), str(corrupt)]) == 2
        assert "error:" in capsys.readouterr().err


def test_python_dash_m_repro_list_smoke():
    """`python -m repro list` works as a real subprocess (the CI smoke step)."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "list"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert "quickstart" in completed.stdout
    assert "fig1-walkthrough" in completed.stdout


#: ``python -m repro --help`` at 100 columns, byte for byte.
TOP_LEVEL_USAGE = r"""usage: python -m repro [-h] {list,run,sweep,chaos,serve,compare,trace} ...

Run the repro experiment catalogue: registered scenarios, parameter sweeps, and baseline comparisons.  Every run is deterministic in virtual time, so results are reproducible bit-for-bit and parallel sweeps equal serial ones.

positional arguments:
  {list,run,sweep,chaos,serve,compare,trace}
    list                list registered scenarios
    run                 execute one scenario
    sweep               expand and execute a parameter grid
    chaos               LHS fault-space search with trace-invariant oracles
    serve               run the experiment lab as an HTTP service
    compare             diff a result JSON against a baseline
    trace               analyse a trace JSONL: summary, check, critical-path, diff, series, digest

options:
  -h, --help            show this help message and exit

quickstart:
  python -m repro list
  python -m repro run quickstart -p cluster.n=7 -p seed=3
  python -m repro run quickstart -p cluster.shards=4
  python -m repro run --spec examples/specs/hotspot-shift-monitoring.json
  python -m repro sweep quickstart -g cluster.shards=1,2,4 --seeds 0,1,2 --workers 4
  python -m repro sweep --spec examples/specs/hotspot-shift-monitoring.json \
      -g monitoring.policy.threshold=0.05,0.1,0.2
  python -m repro compare results.json benchmarks/baselines/quickstart.json

declarative scenarios take dotted spec paths (cluster.n, workload.keys.zipf_s, ...);
function scenarios take their keyword arguments — `list` shows each scenario's kind
and parameters, the README documents every dotted path.
"""


class TestTopLevelUsage:
    """The top-level usage text is pinned, so splitting ``cli.py`` into one
    module per subcommand cannot change what ``--help`` prints."""

    def test_usage_lists_the_seven_subcommands_and_nothing_else_moved(
        self, monkeypatch
    ):
        monkeypatch.setenv("COLUMNS", "100")  # argparse wraps to the terminal
        assert cli.build_parser().format_help() == TOP_LEVEL_USAGE

    def test_bench_is_not_a_subcommand(self, capsys):
        # The determinism gate is tests/test_determinism.py.
        with pytest.raises(SystemExit) as usage:
            main(["bench", "--check", "expectations.json"])
        assert usage.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestSweepSamplingCli:
    def test_sample_runs_n_points_deterministically(self, tmp_path, capsys):
        args = ["sweep", "quickstart", "-g", "cluster.n=4,5,6", "--seeds", "0,1,2,3",
                "-p", "workload.operations_per_client=2", "-p", "cluster.f=1",
                "--sample", "3", "--sample-seed", "5", "--quiet", "--no-progress"]
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert main([*args, "--json", str(first)]) == 0
        assert main([*args, "--workers", "3", "--json", str(second)]) == 0
        assert first.read_text() == second.read_text()
        assert len(json.loads(first.read_text())) == 3

    def test_point_mode_runs_explicit_points(self, tmp_path, capsys):
        out = tmp_path / "points.json"
        assert main(["sweep", "quickstart",
                     "--point", "cluster.n=4 cluster.f=1",
                     "--point", "cluster.n=5 cluster.f=2",
                     "-p", "workload.operations_per_client=2",
                     "--json", str(out), "--quiet", "--no-progress"]) == 0
        payload = json.loads(out.read_text())
        assert [entry["params"]["cluster.n"] for entry in payload] == [4, 5]

    def test_point_cannot_combine_with_grid(self, capsys):
        assert main(["sweep", "quickstart", "-g", "seed=0,1",
                     "--point", "cluster.n=4"]) == 2
        assert "--point" in capsys.readouterr().err


def _sweep_runs(args, scenario):
    """The CLI's run expansion as it stood before ``plan`` (PR 14), verbatim:
    the reference the one planner must reproduce run for run."""
    grid = parse_grid(args.grid)
    if args.seeds:
        grid["seed"] = [parse_value(value) for value in args.seeds.split(",") if value != ""]
    base = parse_params(args.param)
    if args.point:
        if grid or args.sample is not None:
            raise ReproError("--point cannot be combined with -g/--seeds/--sample")
        points = [parse_params(point.split()) for point in args.point]
        return expand_points(scenario, points, base=base)
    if args.sample is not None:
        sweep = Sweep.of(scenario, grid=grid, base=base)
        return sweep.sample(args.sample, seed=args.sample_seed,
                            method=args.sample_method)
    return expand_grid(scenario, grid=grid, base=base)


_AXES = ("cluster.n", "cluster.f", "latency.low", "seed",
         "workload.operations_per_client", "faults.crashes")
_values = st.lists(st.integers(-3, 40), min_size=1, max_size=4)
#: Bounds inside which every point of quickstart validates (n > 2f for any
#: drawn pair, at least one operation, 0 <= latency.low <= latency.high =
#: 1.5), so the planner, which refuses a sweep with an invalid point, must
#: return the CLI's expansion run for run.  Refusals are pinned case by case
#: in ``TestAdmission``.
_VALID = {"cluster.n": (5, 40), "cluster.f": (0, 2), "latency.low": (0, 1),
          "workload.operations_per_client": (1, 40)}


def _axis_value(axis):
    # The planner applies every value, so a list field needs a list: two
    # spellings of "no crashes" (``-g`` splits on commas, so no pairs here).
    if axis == "faults.crashes":
        return st.sampled_from(["[]", "()"])
    return st.integers(*_VALID.get(axis, (-3, 40))).map(str)


@st.composite
def sweep_argv(draw):
    argv = []
    for axis in draw(st.lists(st.sampled_from(_AXES), unique=True, max_size=3)):
        values = draw(st.lists(_axis_value(axis), min_size=1, max_size=4))
        argv += ["-g", f"{axis}={','.join(values)}"]
    for key in draw(st.lists(st.sampled_from(_AXES), unique=True, max_size=3)):
        argv += ["-p", f"{key}={draw(_axis_value(key))}"]
    if draw(st.booleans()):
        argv += ["--seeds=" + ",".join(map(str, draw(_values)))]  # "=": may start with "-"
    if draw(st.booleans()):
        argv += ["--sample", str(draw(st.integers(1, 12))),
                 "--sample-seed", str(draw(st.integers(0, 5))),
                 "--sample-method", draw(st.sampled_from(["uniform", "lhs"]))]
    return argv


class TestOnePlanner:
    @settings(max_examples=200, deadline=None)
    @given(sweep_argv())
    def test_the_request_built_from_argv_plans_the_runs_the_cli_expanded(self, argv):
        args = cli.build_parser().parse_args(["sweep", "quickstart", *argv])
        request = JobRequest.from_dict(cli.job_body(
            "sweep", args.scenario, args.spec_path, args.param, args.grid,
            args.seeds, args.sample, args.sample_seed, args.sample_method,
        ))
        # Through the wire shape: what a POST /jobs body would carry.
        planned = plan(JobRequest.from_dict(request.to_dict()))
        assert planned.runs == _sweep_runs(args, "quickstart")

    def test_spec_sweep_on_spawned_workers_equals_serial(self, tmp_path, monkeypatch):
        # Spawned workers re-import only the built-in catalogue; the planned
        # entry reaches them as a start argument, so an unregistered spec runs.
        with open(os.path.join(SPEC_DIR, "quickstart.json")) as handle:
            spec = json.load(handle)
        spec["name"] = "spawn-probe"
        path = tmp_path / "spawn-probe.json"
        path.write_text(json.dumps(spec))
        argv = ["sweep", "--spec", str(path), "--seeds", "0,1,2", *FAST,
                "--quiet", "--no-progress"]
        serial, spawned = tmp_path / "serial.json", tmp_path / "spawned.json"
        assert main([*argv, "--workers", "1", "--json", str(serial)]) == 0
        monkeypatch.setattr(
            executor, "_pool_context", lambda: multiprocessing.get_context("spawn"))
        assert main([*argv, "--workers", "2", "--json", str(spawned)]) == 0
        assert spawned.read_bytes() == serial.read_bytes()
        assert len(json.loads(serial.read_text())) == 3


class TestAdmission:
    @pytest.mark.parametrize("grid, refused, path", [
        ({"cluster.n": [5, 2]}, "quickstart[cluster.n=2]", None),
        ({"cluster.f": [2, 1], "cluster.n": [4, 5]},
         "quickstart[cluster.f=2,cluster.n=4]", None),
        ({"workload.operations_per_client": [3, 0, -1]},
         "quickstart[workload.operations_per_client=0]",
         "workload.operations_per_client"),
    ])
    def test_plan_refuses_a_sweep_naming_its_first_invalid_point(
        self, grid, refused, path
    ):
        with pytest.raises(ConfigurationError) as excinfo:
            plan(JobRequest(kind="sweep", scenario="quickstart", grid=grid))
        assert str(excinfo.value).startswith(f"{refused}: ")
        assert excinfo.value.path == path

    def test_plan_admits_a_sweep_whose_points_all_validate(self):
        planned = plan(JobRequest(kind="sweep", scenario="quickstart",
                                  grid={"cluster.n": [3, 5]}))
        assert [run.run_id for run in planned.runs] == [
            "quickstart[cluster.n=3]", "quickstart[cluster.n=5]"]

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "abc"])
    def test_a_bad_max_time_is_refused_before_any_world_is_built(self, value):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-W", "default", "-m", "repro", "run", "quickstart",
             "-p", f"max_time={value}"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert completed.returncode == 2
        assert completed.stderr.splitlines() == [
            f"error: quickstart[max_time={value}]: max_time must be a finite "
            f"number > 0 or null, got {parse_value(value)!r}",
            "  at: max_time",
        ]

    def test_a_sweep_axis_with_a_bad_max_time_is_refused_by_plan(
        self, monkeypatch, capsys
    ):
        def dispatched(*args, **kwargs):
            raise AssertionError("a run was dispatched")

        monkeypatch.setattr(executor, "execute_stream", dispatched)
        monkeypatch.setattr(executor, "dispatch", dispatched)
        assert main(["sweep", "quickstart", "-g", "max_time=0,100", *FAST,
                     "--quiet"]) == 2
        assert "at: max_time" in capsys.readouterr().err
        with pytest.raises(ConfigurationError, match="max_time") as excinfo:
            plan(JobRequest(kind="sweep", scenario="quickstart",
                            grid={"max_time": [0, 100]}))
        assert excinfo.value.path == "max_time"

    def test_a_function_scenario_sweep_is_refused_before_its_first_run(
        self, monkeypatch, capsys
    ):
        # asset-transfer builds AssetTransferSpec from its keyword arguments:
        # the section's bounds admit every point before one is dispatched.
        def dispatched(*args, **kwargs):
            raise AssertionError("a run was dispatched")

        monkeypatch.setattr(executor, "execute_stream", dispatched)
        monkeypatch.setattr(executor, "dispatch", dispatched)
        assert main(["sweep", "asset-transfer", "-g", "ring_amount=1,-1"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: asset-transfer[ring_amount=-1]: ring_amount must be a "
            "finite number > 0, got -1",
            "  at: ring_amount",
        ]
        with pytest.raises(ConfigurationError) as excinfo:
            plan(JobRequest(kind="sweep", scenario="asset-transfer",
                            grid={"ring_amount": [1, -1]}))
        assert str(excinfo.value).startswith("asset-transfer[ring_amount=-1]: ")
        assert excinfo.value.path == "ring_amount"


class TestSweepStreamingCli:
    def test_jsonl_sink_streams_and_compares_clean(self, tmp_path, capsys):
        jsonl = tmp_path / "stream.jsonl"
        array = tmp_path / "array.json"
        args = ["sweep", "quickstart", "--seeds", "0,1", *FAST, "--quiet"]
        assert main([*args, "--jsonl", str(jsonl), "--no-progress"]) == 0
        assert main([*args, "--json", str(array), "--no-progress"]) == 0
        lines = [line for line in jsonl.read_text().splitlines() if line.strip()]
        assert len(lines) == 2
        # The JSONL payload compares clean against the array payload.
        assert main(["compare", str(jsonl), str(array)]) == 0

    def test_progress_reported_per_run(self, capsys):
        assert main(["sweep", "quickstart", "--seeds", "0,1", *FAST, "--quiet"]) == 0
        err = capsys.readouterr().err
        assert "[1/2]" in err and "[2/2]" in err


class TestSweepResilienceCli:
    """Surface-level checks for the resilience flags; the deep kill/resume
    coverage lives in tests/test_resilience.py."""

    def test_journaled_sweep_matches_plain_and_reports_summary(
        self, tmp_path, capsys
    ):
        args = ["sweep", "quickstart", "--seeds", "0,1", *FAST,
                "--quiet", "--no-progress"]
        plain = tmp_path / "plain.json"
        journaled = tmp_path / "journaled.json"
        journal = tmp_path / "sweep.journal.jsonl"
        assert main([*args, "--json", str(plain)]) == 0
        # No journal and nothing went wrong: no summary line.
        assert "resilience:" not in capsys.readouterr().err
        assert main([*args, "--json", str(journaled),
                     "--journal", str(journal)]) == 0
        err = capsys.readouterr().err
        assert plain.read_text() == journaled.read_text()
        assert "resilience: resumed 0, retries 0" in err
        # Header line, one line per run, and the final summary line.
        lines = journal.read_text().splitlines()
        assert len(lines) == 4

    def test_resume_skips_journaled_runs(self, tmp_path, capsys):
        args = ["sweep", "quickstart", "--seeds", "0,1", *FAST, "--quiet"]
        journal = tmp_path / "sweep.journal.jsonl"
        reference = tmp_path / "reference.json"
        resumed = tmp_path / "resumed.json"
        assert main([*args, "--no-progress", "--json", str(reference),
                     "--journal", str(journal)]) == 0
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text(
            "\n".join(journal.read_text().splitlines()[:2]) + "\n")
        capsys.readouterr()
        assert main([*args, "--json", str(resumed),
                     "--resume", str(truncated)]) == 0
        err = capsys.readouterr().err
        assert reference.read_text() == resumed.read_text()
        assert "(resumed 1)" in err  # progress suffix marks replayed runs
        assert "resilience: resumed 1" in err

    def test_conflicting_journal_and_resume_paths_rejected(
        self, tmp_path, capsys
    ):
        assert main(["sweep", "quickstart", "--seeds", "0", *FAST, "--quiet",
                     "--journal", str(tmp_path / "a.jsonl"),
                     "--resume", str(tmp_path / "b.jsonl")]) == 2
        assert "give one path" in capsys.readouterr().err


class TestWorkloadScenariosCli:
    def test_list_shows_workload_scenarios(self, capsys):
        assert main(["list", "--tag", "workload"]) == 0
        out = capsys.readouterr().out
        for name in ("skewed-reassignment", "open-loop-saturation",
                     "hotspot-shift", "hotspot-shift-monitoring"):
            assert name in out

    def test_run_skewed_reassignment_deterministically(self, tmp_path, capsys):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        fast = ["-p", "workload.operations_per_client=3"]
        assert main(["run", "skewed-reassignment", *fast,
                     "--json", str(first), "--quiet"]) == 0
        assert main(["run", "skewed-reassignment", *fast,
                     "--json", str(second), "--quiet"]) == 0
        assert first.read_text() == second.read_text()
        result = json.loads(first.read_text())[0]["result"]
        assert result["workload"]["keys"]["top1_share"] > 1.0 / 32

    def test_zipf_sweep_over_workload_keys(self, tmp_path, capsys):
        out = tmp_path / "zipf.json"
        assert main(["sweep", "skewed-reassignment",
                     "-g", "workload.keys.zipf_s=0.8,1.6",
                     "-p", "workload.operations_per_client=3",
                     "--json", str(out), "--quiet", "--no-progress"]) == 0
        payload = json.loads(out.read_text())
        assert len(payload) == 2
        shares = [entry["result"]["workload"]["keys"]["top1_share"]
                  for entry in payload]
        assert shares[1] > shares[0]  # steeper zipf, hotter hottest key
