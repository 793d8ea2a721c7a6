"""Tests for the resilience layer: journaled resume, watchdogs, retry,
quarantine, graceful interruption, and the pool failure paths they exercise.

The worker-death tests SIGKILL real processes, so everything that needs the
kill-capable pool is gated on fork availability (the pool forks so workers
inherit runtime-registered scenarios).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    INTERRUPT_EXIT_CODE,
    Quarantine,
    ResiliencePolicy,
    RunJournal,
    RunSpec,
    StreamTelemetry,
    execute_stream,
    execute_stream_resilient,
    expand_grid,
    journalable,
    run_digest,
)
from repro.experiments.cli import main
from repro.experiments.executor import (
    BACKOFF_BASE,
    BACKOFF_FACTOR,
    BACKOFF_MAX,
    execute_run,
    execute_run_captured,
    forks_workers,
)
from repro.experiments.registry import (
    FunctionScenario,
    get_scenario,
    register,
    register_spec,
)

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="kill-capable worker pool needs fork"
)


# ---------------------------------------------------------------------------
# Misbehaving scenarios, registered per-test (never at import time: the
# docs drift check enumerates the registry in-process).
# ---------------------------------------------------------------------------


def _well_behaved(seed=0):
    return {"ok": True, "seed": seed}


def _hang_or_return(seed=0, hang=False):
    if hang:
        time.sleep(60.0)
    return {"ok": True, "seed": seed}


def _die_unless_marked(seed=0, sentinel="", always=False):
    if always or not os.path.exists(sentinel):
        if sentinel and not always:
            with open(sentinel, "w", encoding="utf-8") as handle:
                handle.write("dispatched once\n")
        os.kill(os.getpid(), signal.SIGKILL)
    return {"ok": True, "seed": seed}


def _sigterm_once(seed=0, sentinel=""):
    if seed == 1 and sentinel and not os.path.exists(sentinel):
        with open(sentinel, "w", encoding="utf-8") as handle:
            handle.write("interrupted once\n")
        signal.raise_signal(signal.SIGTERM)
    return {"ok": True, "seed": seed}


@pytest.fixture
def misbehaving_scenarios():
    entries = [
        FunctionScenario(_well_behaved, name="resilience-ok"),
        FunctionScenario(_hang_or_return, name="resilience-hang"),
        FunctionScenario(_die_unless_marked, name="resilience-die"),
        FunctionScenario(_sigterm_once, name="resilience-sigterm"),
    ]
    for entry in entries:
        register(entry)


# ---------------------------------------------------------------------------
# run_digest
# ---------------------------------------------------------------------------


class TestRunDigest:
    def test_param_order_does_not_matter(self):
        a = RunSpec("s", params=(("x", 1), ("y", 2)))
        b = RunSpec("s", params=(("y", 2), ("x", 1)))
        assert run_digest(a) == run_digest(b)

    def test_value_types_are_distinguished(self):
        digests = {
            run_digest(RunSpec("s", params=(("x", value),)))
            for value in (1, 1.0, "1", (1,), [1], True)
        }
        assert len(digests) == 6

    def test_the_key_is_the_one_earlier_journals_hold(self):
        # Pinned: a journal keyed by an earlier build must keep resuming.
        assert run_digest(RunSpec("quickstart", (("seed", 1),))) == (
            "c3984daf0a7eaf1122ea6953e343ceb5084c9eb75b139147e64990ba15f72384"
        )

    def test_scenario_and_params_are_load_bearing(self):
        base = RunSpec("s", params=(("x", 1),))
        assert run_digest(base) != run_digest(RunSpec("t", params=(("x", 1),)))
        assert run_digest(base) != run_digest(RunSpec("s", params=(("x", 2),)))
        assert run_digest(base) == run_digest(RunSpec("s", params=(("x", 1),)))


# ---------------------------------------------------------------------------
# RunJournal
# ---------------------------------------------------------------------------


HEADER = {"kind": "sweep", "version": 1, "scenario": "quickstart"}


class TestRunJournal:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with RunJournal(path, HEADER) as journal:
            journal.record("d1", {"result": {"ok": 1}})
            journal.record("d2", {"result": {"ok": 2}})
            journal.record_summary({"completed": 2})
        resumed = RunJournal(path, HEADER, resume=True)
        assert resumed.get("d1") == {"digest": "d1", "result": {"ok": 1}}
        assert resumed.get("d2")["result"] == {"ok": 2}
        assert resumed.get("missing") is None
        resumed.close()

    def test_partial_final_line_is_discarded(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with RunJournal(path, HEADER) as journal:
            journal.record("d1", {"result": {"ok": 1}})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"digest": "d2", "result": {"ok"')  # the SIGKILL cut
        journal = RunJournal(path, HEADER, resume=True)
        assert journal.get("d1") is not None
        assert journal.get("d2") is None
        journal.close()

    def test_resuming_twice_after_a_partial_line_loses_nothing(self, tmp_path):
        # The fragment is cut off the file on load; appending behind it
        # used to weld the next record to it — mid-file damage that made
        # the second resume refuse a journal the first had accepted.
        path = str(tmp_path / "j.jsonl")
        with RunJournal(path, HEADER) as journal:
            journal.record("d1", {"result": {"ok": 1}})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"digest": "d2", "result": {"ok"')
        with RunJournal(path, HEADER, resume=True) as journal:
            journal.record("d2", {"result": {"ok": 2}})
        with RunJournal(path, HEADER, resume=True) as journal:
            assert sorted(journal.entries) == ["d1", "d2"]

    def test_mid_file_corruption_is_an_error(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with RunJournal(path, HEADER) as journal:
            journal.record("d1", {"result": {"ok": 1}})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json\n")
            handle.write(json.dumps({"digest": "d2", "result": {}}) + "\n")
        with pytest.raises(ConfigurationError, match="undecodable record"):
            RunJournal(path, HEADER, resume=True)

    def test_header_mismatch_is_an_error(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        RunJournal(path, HEADER).close()
        other = dict(HEADER, scenario="fig1-walkthrough")
        with pytest.raises(ConfigurationError, match="different configuration"):
            RunJournal(path, other, resume=True)

    def test_resume_of_missing_file_starts_fresh(self, tmp_path):
        path = str(tmp_path / "absent.jsonl")
        journal = RunJournal(path, HEADER, resume=True)
        assert journal.entries == {}
        journal.close()
        with open(path, "r", encoding="utf-8") as handle:
            assert json.loads(handle.readline())["journal"] == HEADER

    def test_without_resume_truncates(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with RunJournal(path, HEADER) as journal:
            journal.record("d1", {"result": {"ok": 1}})
        with RunJournal(path, HEADER) as journal:
            assert journal.get("d1") is None


# ---------------------------------------------------------------------------
# Policy validation and inert delegation
# ---------------------------------------------------------------------------


class TestPolicy:
    def test_invalid_policies_are_rejected(self):
        with pytest.raises(ConfigurationError, match="run_timeout"):
            ResiliencePolicy(run_timeout=0.0).validate()
        with pytest.raises(ConfigurationError, match="max_attempts"):
            ResiliencePolicy(max_attempts=0).validate()

    def test_backoff_grows_and_caps(self):
        policy = ResiliencePolicy(max_attempts=9)
        assert policy.backoff(1) == BACKOFF_BASE
        assert policy.backoff(2) == BACKOFF_BASE * BACKOFF_FACTOR
        assert policy.backoff(3) == BACKOFF_BASE * BACKOFF_FACTOR ** 2
        assert policy.backoff(9) == BACKOFF_MAX  # capped
        assert (BACKOFF_BASE, BACKOFF_FACTOR, BACKOFF_MAX) == (0.05, 2.0, 2.0)

    def test_default_policy_is_inert(self):
        assert not ResiliencePolicy().needs_pool
        assert ResiliencePolicy(run_timeout=1.0).needs_pool
        assert ResiliencePolicy(max_attempts=2).needs_pool
        # ... and in-process execution is exactly workers == 1 under it.
        assert not forks_workers(1, ResiliencePolicy())
        assert forks_workers(2, ResiliencePolicy())
        assert forks_workers(1, ResiliencePolicy(max_attempts=2))

    def test_a_default_call_is_the_plain_stream(self, tmp_path, monkeypatch):
        # No journal, no quarantine, the inert policy: every run yields what
        # running it alone yields, in input order, and no sidecar is written.
        monkeypatch.chdir(tmp_path)
        runs = expand_grid(
            "quickstart",
            grid={"seed": [0, 1]},
            base={"workload.operations_per_client": 2},
        )
        calls = []
        streamed = list(execute_stream(runs, progress=lambda *c: calls.append(c)))
        assert [(i, r.result) for i, r in streamed] == [
            (i, execute_run(run).result) for i, run in enumerate(runs)
        ]
        assert calls == [(1, 2), (2, 2)]
        assert list(tmp_path.iterdir()) == []


class TestTelemetry:
    def test_suffix_is_empty_when_clean(self):
        assert StreamTelemetry().suffix() == ""

    def test_suffix_lists_nonzero_counters_only(self):
        telemetry = StreamTelemetry(resumed=3, retries=1)
        assert telemetry.suffix() == " (resumed 3, retries 1)"

    def test_as_dict_excludes_resumed(self):
        # Byte-identity of resumed vs uninterrupted reports depends on it.
        assert StreamTelemetry(resumed=7).as_dict() == {
            "retries": 0, "timeouts": 0, "quarantined": 0,
        }


# ---------------------------------------------------------------------------
# Journaled resume (library level)
# ---------------------------------------------------------------------------


class TestJournaledStream:
    def _runs(self):
        return expand_grid(
            "quickstart",
            grid={"seed": [0, 1, 2]},
            base={"workload.operations_per_client": 2},
        )

    def test_resume_skips_journaled_runs_and_matches(self, tmp_path):
        runs = self._runs()
        path = str(tmp_path / "j.jsonl")
        with RunJournal(path, HEADER) as journal:
            reference = [
                (index, result.result)
                for index, result in execute_stream_resilient(
                    runs, journal=journal
                )
            ]
        # Drop the last journal entry: that run must re-execute on resume.
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines[:-1])
        telemetry = StreamTelemetry()
        with RunJournal(path, HEADER, resume=True) as journal:
            resumed = [
                (index, result.result)
                for index, result in execute_stream_resilient(
                    runs, journal=journal, telemetry=telemetry
                )
            ]
        assert telemetry.resumed == 2
        assert sorted(resumed) == sorted(reference)
        # Journaled results replay first, in input order.
        assert [index for index, _ in resumed[:2]] == [0, 1]

    def test_fully_journaled_stream_executes_nothing(self, tmp_path):
        runs = self._runs()
        path = str(tmp_path / "j.jsonl")
        with RunJournal(path, HEADER) as journal:
            reference = [
                (index, result.result)
                for index, result in execute_stream_resilient(
                    runs, journal=journal
                )
            ]
        telemetry = StreamTelemetry()
        progress_calls = []
        with RunJournal(path, HEADER, resume=True) as journal:
            replayed = [
                (index, result.result)
                for index, result in execute_stream_resilient(
                    runs, journal=journal, telemetry=telemetry,
                    progress=lambda done, total: progress_calls.append(
                        (done, total)
                    ),
                )
            ]
        assert replayed == reference  # input order, nothing re-run
        assert telemetry.resumed == 3
        assert progress_calls == [(1, 3), (2, 3), (3, 3)]


# ---------------------------------------------------------------------------
# Watchdog, retry, quarantine (the kill-capable pool)
# ---------------------------------------------------------------------------


@needs_fork
class TestWatchdog:
    def test_hung_run_is_killed_and_stream_drains(self, misbehaving_scenarios):
        runs = [
            RunSpec("resilience-ok", params=(("seed", 0),)),
            RunSpec("resilience-hang", params=(("hang", True), ("seed", 1))),
            RunSpec("resilience-ok", params=(("seed", 2),)),
        ]
        telemetry = StreamTelemetry()
        results = dict(execute_stream_resilient(
            runs, workers=1,
            policy=ResiliencePolicy(run_timeout=0.5),
            telemetry=telemetry,
        ))
        assert telemetry.timeouts == 1
        assert results[0].result == {"ok": True, "seed": 0}
        assert results[2].result == {"ok": True, "seed": 2}
        error = results[1].result["error"]
        assert error["type"] == "WatchdogTimeout"
        assert error["run_timeout"] == 0.5
        assert "watchdog" in error["message"]
        # A timeout is a wall-clock accident: resume must retry it.
        assert not journalable(results[1])
        assert journalable(results[0])


@needs_fork
class TestRetryAndQuarantine:
    def test_worker_death_is_retried(self, misbehaving_scenarios, tmp_path):
        sentinel = str(tmp_path / "dispatched")
        runs = [
            RunSpec("resilience-die",
                    params=(("seed", 0), ("sentinel", sentinel))),
            RunSpec("resilience-ok", params=(("seed", 1),)),
        ]
        telemetry = StreamTelemetry()
        results = dict(execute_stream_resilient(
            runs, workers=1,
            policy=ResiliencePolicy(max_attempts=3),
            telemetry=telemetry,
        ))
        assert telemetry.retries == 1
        assert telemetry.quarantined == 0
        assert results[0].result == {"ok": True, "seed": 0}
        assert results[1].result == {"ok": True, "seed": 1}

    def test_poison_config_is_quarantined(self, misbehaving_scenarios,
                                          tmp_path):
        quarantine_path = str(tmp_path / "quarantine.jsonl")
        runs = [
            RunSpec("resilience-ok", params=(("seed", 0),)),
            RunSpec("resilience-die", params=(("always", True), ("seed", 1))),
            RunSpec("resilience-ok", params=(("seed", 2),)),
        ]
        telemetry = StreamTelemetry()
        quarantine = Quarantine(quarantine_path)
        results = dict(execute_stream_resilient(
            runs, workers=2,
            policy=ResiliencePolicy(max_attempts=2),
            telemetry=telemetry, quarantine=quarantine,
        ))
        quarantine.close()
        # The stream drained: the healthy runs completed around the poison.
        assert results[0].result == {"ok": True, "seed": 0}
        assert results[2].result == {"ok": True, "seed": 2}
        error = results[1].result["error"]
        assert error["type"] == "WorkerCrashed"
        assert error["quarantined"] is True
        assert error["attempts"] == 2
        assert telemetry.quarantined == 1
        assert telemetry.retries == 1  # first death re-dispatched once
        assert not journalable(results[1])
        with open(quarantine_path, "r", encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        assert len(records) == 1
        assert records[0]["attempts"] == 2
        assert records[0]["spec"]["scenario"] == "resilience-die"
        assert records[0]["spec"]["params"]["always"] is True

    def test_lazy_quarantine_leaves_no_file_when_clean(self, tmp_path):
        path = str(tmp_path / "quarantine.jsonl")
        quarantine = Quarantine(path)
        quarantine.close()
        assert not os.path.exists(path)

    def test_abandoned_resilient_stream_stops_workers(
        self, misbehaving_scenarios, leaked_children
    ):
        runs = [RunSpec("resilience-ok", params=(("seed", seed),))
                for seed in range(4)]
        stream = execute_stream_resilient(
            runs, workers=2, policy=ResiliencePolicy(run_timeout=30.0),
        )
        next(stream)
        stream.close()  # generator finally must stop the pool workers
        assert leaked_children() == []


# ---------------------------------------------------------------------------
# One pool: plain and resilient streams are the same dispatch
# ---------------------------------------------------------------------------

# A plain parallel call whose worker is SIGKILLed mid-run (what the OOM
# killer does).  Run in a subprocess under a hard timeout: on mp.Pool this
# hung forever, and a hang must fail the test, not stall the suite.
_SIGKILL_SCRIPT = """
import json, os, signal
from repro.experiments import RunSpec, execute_many
from repro.experiments.registry import FunctionScenario, register

def die_on_one(seed=0):
    if seed == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return {"ok": True, "seed": seed}

register(FunctionScenario(die_on_one, name="die-on-one"))
runs = [RunSpec("die-on-one", params=(("seed", seed),)) for seed in range(4)]
print(json.dumps([r.result for r in execute_many(runs, workers=2)]))
"""


# The scripts import repro the way this process does.
_SCRIPT_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))

# A parallel stream whose parent process is SIGKILLed mid-stream: prints its
# workers' pids after the first result, then idles until killed.
_ORPHAN_SCRIPT = """
import multiprocessing, time
from repro.experiments import execute_stream, expand_grid

runs = expand_grid("quickstart", grid={"seed": list(range(8))},
                   base={"workload.operations_per_client": 2})
stream = execute_stream(runs, workers=2)
next(stream)
print(*[child.pid for child in multiprocessing.active_children()], flush=True)
time.sleep(120)
"""


def _gone(pid):
    """Exited (a zombie awaiting its reaper counts) or never existed."""
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="utf-8") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@needs_fork
class TestOnePool:
    def test_plain_parallel_call_survives_a_sigkilled_worker(self):
        completed = subprocess.run(
            [sys.executable, "-c", _SIGKILL_SCRIPT], env=_SCRIPT_ENV,
            capture_output=True, text=True, timeout=60,
        )
        assert completed.returncode == 0, completed.stderr
        results = json.loads(completed.stdout)
        assert [r for i, r in enumerate(results) if i != 1] == [
            {"ok": True, "seed": seed} for seed in (0, 2, 3)
        ]
        error = results[1]["error"]
        assert error["type"] == "WorkerCrashed"
        assert error["attempts"] == 1 and error["quarantined"] is True

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
    def test_workers_do_not_outlive_a_sigkilled_parent(self):
        parent = subprocess.Popen(
            [sys.executable, "-c", _ORPHAN_SCRIPT], env=_SCRIPT_ENV,
            stdout=subprocess.PIPE, text=True,
        )
        try:
            workers = [int(pid) for pid in parent.stdout.readline().split()]
            assert len(workers) == 2
        finally:
            parent.kill()
            parent.wait(timeout=10)
            parent.stdout.close()
        deadline = time.monotonic() + 15.0
        while not all(_gone(pid) for pid in workers):
            assert time.monotonic() < deadline, "orphaned workers still alive"
            time.sleep(0.1)

    def test_a_default_parallel_call_is_the_plain_stream(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        runs = expand_grid(
            "quickstart",
            grid={"seed": [0, 1, 2]},
            base={"workload.operations_per_client": 2},
        )
        streamed = sorted(
            (index, result.result)
            for index, result in execute_stream(runs, workers=2)
        )
        assert streamed == [
            (i, execute_run(run).result) for i, run in enumerate(runs)
        ]
        assert list(tmp_path.iterdir()) == []

    def test_concurrent_streams_across_a_registry_change_match_serial(
        self, leaked_children
    ):
        # The shape `repro serve --workers 2 --job-concurrency 2` drives:
        # two threads each consuming a parallel stream, with an inline spec
        # re-registered (replace=True) between their starts.
        old = get_scenario("quickstart").spec.with_overrides(
            {"name": "one-pool-probe", "workload.operations_per_client": 2})
        new = old.with_overrides({"workload.operations_per_client": 3})
        runs = expand_grid("one-pool-probe", grid={"seed": [0, 1, 2, 3]})
        started, replaced = threading.Event(), threading.Event()
        got = {}

        def first_tenant():
            stream = execute_stream(runs, workers=2)
            head = next(stream)  # workers forked: they hold the old spec
            started.set()
            assert replaced.wait(30.0)
            got["first"] = sorted([head, *stream], key=lambda pair: pair[0])

        def second_tenant():
            got["second"] = sorted(
                execute_stream(runs, workers=2), key=lambda pair: pair[0])

        register_spec(old)
        serial_old = list(execute_stream(runs, workers=1))
        threads = [threading.Thread(target=first_tenant),
                   threading.Thread(target=second_tenant)]
        threads[0].start()
        assert started.wait(30.0)
        register_spec(new, replace=True)
        replaced.set()
        threads[1].start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        serial_new = list(execute_stream(runs, workers=1))
        assert got["first"] == serial_old
        assert got["second"] == serial_new
        assert serial_old != serial_new
        assert leaked_children() == []

    def test_cli_sweep_reports_a_crashed_worker_without_resilience_flags(
        self, misbehaving_scenarios, tmp_path, capsys
    ):
        out = tmp_path / "out.jsonl"
        marked = tmp_path / "marked"  # present: only always=True dies
        marked.write_text("")
        assert main(["sweep", "resilience-die", "-g", "always=True,False",
                     "-p", f"sentinel={marked}", "--workers", "2", "--jsonl", str(out), "--quiet",
                     "--no-progress"]) == 0
        err = capsys.readouterr().err
        assert "resilience: resumed 0, retries 0, timeouts 0, quarantined 1" in err
        errors = [json.loads(line)["result"].get("error")
                  for line in out.read_text().splitlines()]
        assert sorted(error["type"] for error in errors if error) == [
            "WorkerCrashed"]


# ---------------------------------------------------------------------------
# execute_run_captured: unexpected exceptions become deterministic results
# ---------------------------------------------------------------------------


class TestCapturedUnexpectedErrors:
    def test_non_repro_error_is_captured_with_marker(self):
        def _explodes(seed=0):
            raise RuntimeError("boom %d" % seed)

        register(FunctionScenario(_explodes, name="resilience-explodes"))
        result = execute_run_captured(
            RunSpec("resilience-explodes", params=(("seed", 3),))
        )
        assert result.result["error"] == {
            "type": "RuntimeError",
            "message": "boom 3",
            "unexpected": True,
        }

    def test_repro_errors_keep_the_legacy_shape(self):
        result = execute_run_captured(RunSpec("no-such-scenario"))
        error = result.result["error"]
        assert "unexpected" not in error
        assert error["type"] == "ConfigurationError"


# ---------------------------------------------------------------------------
# CLI: journaled sweeps, resume byte-identity, interruption exit code
# ---------------------------------------------------------------------------


class TestSweepCli:
    def _sweep_args(self, json_path, extra=()):
        return [
            "sweep", "quickstart", "--seeds", "0,1,2",
            "-p", "workload.operations_per_client=2",
            "--quiet", "--no-progress", "--json", json_path, *extra,
        ]

    def test_journaled_sweep_matches_plain_and_resumes(self, tmp_path,
                                                       capsys):
        ref = str(tmp_path / "ref.json")
        assert main(self._sweep_args(ref)) == 0
        journaled = str(tmp_path / "journaled.json")
        journal = str(tmp_path / "journal.jsonl")
        assert main(self._sweep_args(
            journaled, ["--journal", journal])) == 0
        with open(ref, "rb") as a, open(journaled, "rb") as b:
            assert a.read() == b.read()

        # Truncate the journal to one completed run and resume, parallel.
        with open(journal, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        trunc = str(tmp_path / "trunc.jsonl")
        with open(trunc, "w", encoding="utf-8") as handle:
            handle.writelines(lines[:2])  # header + first run
        resumed = str(tmp_path / "resumed.json")
        capsys.readouterr()
        workers = "2" if HAS_FORK else "1"
        assert main(self._sweep_args(
            resumed, ["--resume", trunc, "--workers", workers])) == 0
        with open(ref, "rb") as a, open(resumed, "rb") as b:
            assert a.read() == b.read()
        stderr = capsys.readouterr().err
        assert "resilience: resumed 1" in stderr

    def test_a_cut_anywhere_in_the_last_record_loses_only_that_record(
        self, misbehaving_scenarios, tmp_path, capsys
    ):
        # The journal a sweep killed after its last run leaves: the header
        # and every entry, no summary.  Cut it at each byte offset of the
        # last entry: only a cut after its newline keeps that entry.
        args = ["sweep", "resilience-ok", "-g", "seed=0,1,2",
                "--quiet", "--no-progress"]
        ref = tmp_path / "ref.json"
        assert main(args + ["--json", str(ref)]) == 0
        journal = tmp_path / "journal.jsonl"
        assert main(args + ["--journal", str(journal)]) == 0
        lines = journal.read_bytes().splitlines(keepends=True)
        assert b'"summary"' in lines[-1]
        data = b"".join(lines[:-1])
        last = len(data) - len(lines[-2])
        header = {"kind": "sweep", "version": 1, "scenario": "resilience-ok"}
        digests = [json.loads(line)["digest"] for line in lines[1:-1]]
        torn, out = tmp_path / "torn.jsonl", tmp_path / "resumed.json"
        for cut in range(last, len(data) + 1):
            whole = cut == len(data)  # the newline is the commit mark
            torn.write_bytes(data[:cut])
            with RunJournal(str(torn), header, resume=True) as loaded:
                assert sorted(loaded.entries) == sorted(
                    digests if whole else digests[:-1]), cut
            assert torn.read_bytes() == data[: cut if whole else last], cut
            torn.write_bytes(data[:cut])
            capsys.readouterr()
            assert main(args + ["--resume", str(torn), "--json", str(out)]) == 0
            assert out.read_bytes() == ref.read_bytes(), cut
            resumed = 3 if whole else 2
            assert f"resumed {resumed}," in capsys.readouterr().err, cut

    def test_progress_suffix_counts_resumed_runs(self, tmp_path, capsys):
        journal = str(tmp_path / "journal.jsonl")
        out = str(tmp_path / "out.json")
        assert main([
            "sweep", "quickstart", "--seeds", "0,1",
            "-p", "workload.operations_per_client=2",
            "--quiet", "--json", out, "--journal", journal,
            "--no-progress",
        ]) == 0
        capsys.readouterr()
        assert main([
            "sweep", "quickstart", "--seeds", "0,1",
            "-p", "workload.operations_per_client=2",
            "--quiet", "--json", out, "--resume", journal,
        ]) == 0
        stderr = capsys.readouterr().err
        assert "(resumed 1)" in stderr
        assert "(resumed 2)" in stderr

    def test_conflicting_journal_and_resume_paths_error(self, tmp_path,
                                                        capsys):
        assert main([
            "sweep", "quickstart", "--seeds", "0",
            "--journal", str(tmp_path / "a.jsonl"),
            "--resume", str(tmp_path / "b.jsonl"),
            "--quiet", "--no-progress",
        ]) == 2
        assert "different files" in capsys.readouterr().err

    def test_invalid_retry_count_errors(self, capsys):
        assert main([
            "sweep", "quickstart", "--seeds", "0", "--retry", "0",
            "--quiet", "--no-progress",
        ]) == 2
        assert "max_attempts" in capsys.readouterr().err

    def test_sigterm_exits_resumable_and_resume_completes(
        self, misbehaving_scenarios, tmp_path, capsys
    ):
        sentinel = str(tmp_path / "interrupted")
        journal = str(tmp_path / "journal.jsonl")
        args = [
            "sweep", "resilience-sigterm", "-g", "seed=0,1,2",
            "-p", f"sentinel={sentinel}",
            "--quiet", "--no-progress",
        ]
        out = str(tmp_path / "resumed.json")
        status = main(args + ["--journal", journal])
        assert status == INTERRUPT_EXIT_CODE
        stderr = capsys.readouterr().err
        assert "SIGTERM" in stderr
        assert f"--resume {journal}" in stderr
        # The journal holds the run that finished before the signal.
        journaled = RunJournal(
            journal,
            {"kind": "sweep", "version": 1, "scenario": "resilience-sigterm"},
            resume=True,
        )
        assert len(journaled.entries) == 1
        journaled.close()

        assert main(args + ["--resume", journal, "--json", out]) == 0
        ref = str(tmp_path / "ref.json")
        assert main(args + ["--json", ref]) == 0  # sentinel now exists
        with open(ref, "rb") as a, open(out, "rb") as b:
            assert a.read() == b.read()
