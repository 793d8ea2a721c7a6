"""Tests for ``repro.bench``, the determinism gate.

The contract under test: six fixed workloads behind one ``name -> function``
mapping, exact counters that are invariant across invocations, orderings,
hash seeds and garbage collections, ``--check`` as a working CI gate against
the committed expectations file — and nothing written anywhere, because
nothing is timed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import bench
from repro.errors import ConfigurationError
from repro.experiments.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
EXPECTATIONS = str(REPO_ROOT / "benchmarks" / "bench_expectations.json")


def _python(*argv, cwd=REPO_ROOT, **env):
    """``python <argv>`` in a fresh interpreter that can import ``repro``."""
    environ = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"), **env)
    return subprocess.run(
        [sys.executable, *argv],
        cwd=cwd, env=environ, capture_output=True, text=True, timeout=120,
    )


class TestSuite:
    def test_suite_lists_at_least_four_workloads(self):
        names = set(bench.WORKLOADS)
        assert len(names) >= 4
        assert {"event-loop", "abd-round", "sharded-zipfian", "sweep"} <= names

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown benchmark"):
            bench.run_benchmarks(["event-loop", "nope"])

    def test_counters_are_invariant_across_invocations(self):
        first = bench.WORKLOADS["event-loop"]()
        second = bench.WORKLOADS["event-loop"]()
        assert first == second
        assert first["events"] > 0
        assert first["ops"] > 0

    def test_counters_survive_order_hash_seed_and_the_collector(self):
        # The old harness paused the GC around every run; the gate does not,
        # so this is the proof it never needed to: three shuffled passes in
        # one fresh interpreter, hash seed randomised, collector on.
        script = (
            "import gc, json, random\n"
            "from repro import bench\n"
            "assert gc.isenabled()\n"
            "names = list(bench.WORKLOADS)\n"
            "passes = []\n"
            "for _ in range(3):\n"
            "    random.shuffle(names)\n"
            "    results = bench.run_benchmarks(names)\n"
            "    passes.append({name: results[name] for name in sorted(results)})\n"
            "print(json.dumps(passes))\n"
        )
        completed = _python("-c", script, PYTHONHASHSEED="random")
        assert completed.returncode == 0, completed.stderr
        first, second, third = json.loads(completed.stdout)
        assert first == second == third
        with open(EXPECTATIONS, encoding="utf-8") as handle:
            assert first == json.load(handle)


class TestExpectations:
    def test_committed_expectations_match_a_run(self):
        # The CI gate end-to-end: a fresh run of every workload must match
        # the committed expectations value for value.
        results = bench.run_benchmarks(list(bench.WORKLOADS))
        assert bench.check_expectations(results, EXPECTATIONS) == []

    def test_divergence_and_unknown_benchmarks_reported(self, tmp_path):
        counts = {"events": 1, "ops": 1, "counters": {}}
        path = tmp_path / "expect.json"
        path.write_text(json.dumps(
            {"event-loop": {"events": 2, "ops": 1, "counters": {}}}
        ))
        problems = bench.check_expectations({"event-loop": counts}, str(path))
        assert len(problems) == 1 and "diverge" in problems[0]
        problems = bench.check_expectations({"stranger": counts}, str(path))
        assert "no committed expectation" in problems[0]


class TestBenchCli:
    def test_list_benchmarks(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "event-loop" in out and "sweep" in out

    def test_check_gate_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        bad = tmp_path / "bad.json"
        good.write_text(json.dumps(bench.run_benchmarks(["event-loop"])))
        bad.write_text(json.dumps(
            {"event-loop": {"events": 1, "ops": 1, "counters": {}}}
        ))
        assert main(["bench", "event-loop", "--check", str(good)]) == 0
        assert "counters match" in capsys.readouterr().out
        assert main(["bench", "event-loop", "--check", str(bad)]) == 1
        assert "MISMATCH: event-loop" in capsys.readouterr().err

    def test_unknown_benchmark_is_a_cli_error(self, capsys):
        assert main(["bench", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown benchmark" in err and "event-loop" in err

    @pytest.mark.parametrize("flag", [
        "--quick", "--repeat=2", "--out-dir=x", "--no-trajectory",
        "--json=x.json", "--compare=x.json",
    ])
    def test_the_timing_options_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit) as usage:
            main(["bench", flag])
        assert usage.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_the_gate_writes_no_file(self, tmp_path):
        completed = _python(
            "-m", "repro", "bench", "--check", EXPECTATIONS, cwd=tmp_path)
        assert completed.returncode == 0, completed.stderr
        assert list(tmp_path.iterdir()) == []

    def test_the_gate_leaves_the_checkout_clean(self):
        def porcelain():
            try:
                status = subprocess.run(
                    ["git", "status", "--porcelain"], cwd=REPO_ROOT,
                    capture_output=True, text=True, timeout=60,
                )
            except OSError:
                pytest.skip("git is not installed")
            if status.returncode != 0:
                pytest.skip("not a git checkout")
            return status.stdout

        before = porcelain()
        completed = _python(
            "-m", "repro", "bench", "--check",
            "benchmarks/bench_expectations.json", PYTHONDONTWRITEBYTECODE="1",
        )
        assert completed.returncode == 0, completed.stderr
        assert porcelain() == before
