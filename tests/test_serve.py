"""Serving-layer tests: schemas, service, routes, HTTP round-trips, resume.

The byte-identity contract is asserted at every level: a job's streamed
results must equal the file the equivalent ``python -m repro run`` /
``sweep --jsonl`` invocation writes — including after cancellation +
resubmission and after a ``kill -9`` mid-sweep followed by a restart on the
same jobs directory.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.experiments import cli as repro_cli
from repro.experiments.cli import main
from repro.experiments import registry
from repro.experiments.plan import plan
from repro.experiments.registry import catalogue_payload
from repro.experiments.results import compare_payloads, load_payload
from repro.serve import client as serve_client
from repro.serve.app import ExperimentServer
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.routes import dispatch
from repro.serve.schemas import JobRequest, error_payload
from repro.serve.service import (
    ExperimentService,
    JobStateError,
    QueueFullError,
    UnknownJobError,
)

FAST = {"workload.operations_per_client": 2}
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
QUICKSTART_SPEC = os.path.join(REPO, "examples", "specs", "quickstart.json")


def quickstart_document():
    return json.loads(pathlib.Path(QUICKSTART_SPEC).read_text(encoding="utf-8"))


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="patches reach a worker process by fork only",
)


def wait_for(predicate, timeout=120.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(interval)


def cli_sweep_bytes(tmp_path, name, argv):
    """The reference bytes: a direct `sweep ... --jsonl` invocation."""
    path = tmp_path / name
    assert main(["sweep", *argv, "--jsonl", str(path), "--quiet",
                 "--no-progress"]) == 0
    return path.read_bytes()


@pytest.fixture
def service(tmp_path, leaked_children):
    svc = ExperimentService(str(tmp_path / "jobs"), workers=1)
    svc.start()
    yield svc
    svc.shutdown()
    assert leaked_children() == []  # every test on the fixture checks it


@pytest.fixture
def http_client(service):
    server = ExperimentServer(("127.0.0.1", 0), service, quiet=True)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield ServeClient(f"http://127.0.0.1:{server.server_address[1]}")
    server.shutdown()
    server.server_close()


BASELINE = "static-majority-baseline"  # no transfers: no stack-depth churn


class RunGate:
    """Every run of a service forked after this was made logs its process
    (pid, the registry's names) and then waits for :meth:`open` — in files,
    because a test may SIGKILL a process that is waiting.  The first ``free``
    runs pass without waiting."""

    def __init__(self, tmp_path, monkeypatch, free=0):
        import repro.experiments.spec as spec_module

        self.log = tmp_path / "gate-runs.jsonl"
        self.opened = tmp_path / "gate-open"
        run_inner = spec_module._run_spec_inner

        def gated(spec):
            with open(self.log, "a", encoding="utf-8") as handle:
                handle.write(json.dumps({
                    "pid": os.getpid(), "registry": sorted(registry._REGISTRY),
                }) + "\n")
            held = len(self.entries()) > free
            deadline = time.monotonic() + 30.0
            while (held and not self.opened.exists()
                   and time.monotonic() < deadline):
                time.sleep(0.005)
            return run_inner(spec)

        monkeypatch.setattr(spec_module, "_run_spec_inner", gated)

    def entries(self):
        if not self.log.exists():
            return []
        return [json.loads(line)
                for line in self.log.read_text(encoding="utf-8").splitlines()]

    def pids(self):
        return [entry["pid"] for entry in self.entries()]

    def open(self):
        self.opened.touch()


def baseline_request(seeds, **extra):
    return JobRequest.from_dict(
        {"kind": "sweep", "scenario": BASELINE, "seeds": seeds, **extra})


def worker_metrics(service):
    payload = service.metrics_payload()
    return (payload["counters"]["serve.worker_starts"],
            payload["gauges"]["serve.workers_alive"]["value"])


class TestSchemas:
    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigurationError) as excinfo:
            JobRequest.from_dict({"scenario": "quickstart", "bogus": 1})
        assert excinfo.value.path == "bogus"
        assert "bogus" in str(excinfo.value)

    @pytest.mark.parametrize("body,path", [
        ({"kind": "walk", "scenario": "quickstart"}, "kind"),
        ({}, "scenario"),
        ({"scenario": "a", "spec": {"name": "a"}}, "scenario"),
        ({"scenario": "a", "grid": {"seed": [1]}}, "kind"),
        ({"kind": "sweep", "scenario": "a", "grid": {"seed": 3}}, "grid.seed"),
        ({"kind": "sweep", "scenario": "a", "sample": 0}, "sample"),
        ({"kind": "sweep", "scenario": "a", "sample": 2,
          "sample_method": "sobol"}, "sample_method"),
        ({"scenario": "a", "workers": 0}, "workers"),
        ({"scenario": "a", "run_timeout": 0}, "run_timeout"),
        ({"scenario": "a", "retry": 0}, "retry"),
    ])
    def test_validation_paths(self, body, path):
        with pytest.raises(ConfigurationError) as excinfo:
            JobRequest.from_dict(body).validate()
        assert excinfo.value.path == path

    def test_error_payload_shape(self):
        payload = error_payload(ConfigurationError("boom", path="a.b"))
        assert payload == {"message": "boom", "type": "ConfigurationError",
                           "path": "a.b"}

    def test_expand_runs_matches_cli_expansion(self):
        request = JobRequest.from_dict({
            "kind": "sweep", "scenario": "quickstart",
            "grid": {"cluster.n": [4, 5]}, "seeds": [0, 1],
        }).validate()
        runs = plan(request).runs
        assert [run.params_dict["cluster.n"] for run in runs] == [4, 4, 5, 5]
        assert [run.params_dict["seed"] for run in runs] == [0, 1, 0, 1]


class TestStructuredErrors:
    def test_spec_override_error_carries_path(self):
        from repro.experiments.spec import ScenarioSpec
        spec = ScenarioSpec.from_dict(quickstart_document())
        with pytest.raises(ConfigurationError) as excinfo:
            spec.with_overrides({"cluster.bogus": 1})
        assert excinfo.value.path == "cluster.bogus"

    def test_section_validation_attaches_section_path(self):
        from repro.experiments.spec import ScenarioSpec
        data = quickstart_document()
        data["workload"] = dict(data["workload"], operations_per_client=-1)
        with pytest.raises(ConfigurationError) as excinfo:
            ScenarioSpec.from_dict(data).validate()
        assert excinfo.value.path == "workload"

    def test_cli_prints_path_hint(self, tmp_path, capsys):
        data = quickstart_document()
        data["workload"] = dict(data["workload"], operations_per_client=-1)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["run", "--spec", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "at: workload" in err

    def test_message_unchanged_by_path(self):
        error = ConfigurationError("plain message", path="x.y")
        assert str(error) == "plain message"


class TestCatalogue:
    def test_list_json_matches_scenarios_endpoint(self, capsys):
        assert main(["list", "--json"]) == 0
        cli_payload = json.loads(capsys.readouterr().out)
        assert cli_payload == catalogue_payload()
        entry = {item["name"]: item for item in cli_payload}["quickstart"]
        assert "cluster.n" in entry["sweepable"]
        assert entry["sweepable"] == sorted(entry["parameters"])

    def test_get_scenarios_over_http(self, http_client):
        payload = http_client.scenarios()
        assert payload == catalogue_payload()


class TestServiceExecution:
    def test_run_job_byte_identical_to_cli(self, service, tmp_path):
        request = JobRequest.from_dict(
            {"kind": "run", "scenario": "quickstart", "params": FAST}
        )
        job = service.submit(request)
        assert service.wait(job, 120)
        assert job.state == "done"
        want = cli_sweep_bytes(
            tmp_path, "direct.jsonl",
            ["quickstart", "-p", "workload.operations_per_client=2"],
        )
        assert job.results_path and pathlib.Path(job.results_path).read_bytes() == want

    def test_concurrent_jobs_share_service(self, tmp_path):
        service = ExperimentService(
            str(tmp_path / "jobs"), workers=1, job_concurrency=2
        )
        service.start()
        try:
            jobs = [
                service.submit(JobRequest.from_dict({
                    "kind": "sweep", "scenario": "quickstart",
                    "params": FAST, "seeds": [seed, seed + 10],
                }))
                for seed in (0, 1)
            ]
            for job in jobs:
                assert service.wait(job, 120)
                assert job.state == "done"
                assert job.done_runs == 2
            payloads = [load_payload(job.results_path) for job in jobs]
            assert {entry["params"]["seed"] for entry in payloads[0]} == {0, 10}
            assert {entry["params"]["seed"] for entry in payloads[1]} == {1, 11}
        finally:
            service.shutdown()

    def test_concurrent_parallel_jobs_match_the_cli(
        self, tmp_path, leaked_children
    ):
        # Two job threads each driving a --workers 2 stream at once, one of
        # them on an inline spec: each thread has its own workers and a job
        # hands them its own planned scenario, so neither sees the other's.
        spec = quickstart_document()
        spec["name"] = "serve-inline-probe"
        spec_path = tmp_path / "inline.json"
        spec_path.write_text(json.dumps(spec))
        seeds = [0, 1, 2, 3]
        service = ExperimentService(
            str(tmp_path / "jobs"), workers=2, job_concurrency=2
        )
        service.start()
        try:
            jobs = [
                service.submit(JobRequest.from_dict(
                    {"kind": "sweep", "params": FAST, "seeds": seeds, **target}
                ))
                for target in ({"scenario": "quickstart"}, {"spec": spec})
            ]
            for job in jobs:
                assert service.wait(job, 120)
                assert job.state == "done"
            argv = ["--seeds", "0,1,2,3", "-p", "workload.operations_per_client=2"]
            wants = [
                cli_sweep_bytes(tmp_path, "named.jsonl", ["quickstart", *argv]),
                cli_sweep_bytes(tmp_path, "inline.jsonl",
                                ["--spec", str(spec_path), *argv]),
            ]
            for job, want in zip(jobs, wants):
                # Parallel results land in completion order; the lines are
                # the CLI's bytes.
                served = pathlib.Path(job.results_path).read_bytes()
                assert sorted(served.splitlines()) == sorted(want.splitlines())
                assert len(served) == len(want)
        finally:
            service.shutdown()
        assert leaked_children() == []

    def test_queue_limit_rejects_submissions(self, tmp_path):
        service = ExperimentService(str(tmp_path / "jobs"), queue_limit=1)
        # Not started: jobs stay queued, so the limit is hit deterministically.
        service.submit(JobRequest.from_dict(
            {"kind": "run", "scenario": "quickstart", "params": FAST}))
        with pytest.raises(QueueFullError):
            service.submit(JobRequest.from_dict(
                {"kind": "run", "scenario": "quickstart", "params": FAST}))
        service.shutdown()

    def test_unknown_parameter_rejected_with_path(self, service):
        with pytest.raises(ConfigurationError) as excinfo:
            service.submit(JobRequest.from_dict(
                {"kind": "run", "scenario": "quickstart",
                 "params": {"cluster.bogus": 3}}))
        assert excinfo.value.path == "params.cluster.bogus"

    def test_cancel_mid_sweep_keeps_journal(self, service):
        job = service.submit(JobRequest.from_dict({
            "kind": "sweep", "scenario": "quickstart", "params": FAST,
            "grid": {"cluster.n": [4, 5]}, "seeds": [0, 1, 2],
        }))
        wait_for(lambda: job.done_runs >= 1)
        service.cancel(job.id)
        assert service.wait(job, 120)
        assert job.state == "cancelled"
        assert 1 <= job.done_runs < job.total
        # The journal retains every completed run for a later resume.
        journal_lines = [
            json.loads(line)
            for line in pathlib.Path(job.journal_path).read_text(
                encoding="utf-8").splitlines()
        ]
        entries = [line for line in journal_lines if "digest" in line]
        assert len(entries) >= job.done_runs - 1  # last run may post-date cancel
        with pytest.raises(JobStateError):
            service.cancel(job.id)

    def test_cancel_queued_job_immediately(self, tmp_path):
        service = ExperimentService(str(tmp_path / "jobs"))
        job = service.submit(JobRequest.from_dict(
            {"kind": "run", "scenario": "quickstart", "params": FAST}))
        cancelled = service.cancel(job.id)
        assert cancelled.state == "cancelled"
        assert service.wait(job, 0)
        service.shutdown()

    def test_unknown_job_raises(self, service):
        with pytest.raises(UnknownJobError):
            service.job("job-999999")


def same_name_request(seed):
    """A run job on an inline spec named ``same-name-probe`` with ``seed``."""
    spec = quickstart_document()
    spec.update(name="same-name-probe", seed=seed)
    return JobRequest.from_dict({"kind": "run", "spec": spec, "params": FAST})


def served_seeds(service, job):
    assert service.wait(job, 120) and job.state == "done"
    return [entry["result"]["seed"] for entry in load_payload(job.results_path)]


class TestInlineSpecsArePerJob:
    """ROADMAP 4d: an inline spec is the job's own scenario, not a registry
    entry — two queued jobs uploading different specs under one name used to
    both run whichever was registered last."""

    def test_queued_jobs_sharing_a_spec_name_each_run_their_own(self, tmp_path):
        before = dict(registry._REGISTRY)
        service = ExperimentService(str(tmp_path / "jobs"))
        try:
            # Not started: both are planned and queued before either runs.
            jobs = [service.submit(same_name_request(seed)) for seed in (101, 202)]
            assert registry._REGISTRY == before
            service.start()
            assert [served_seeds(service, job) for job in jobs] == [[101], [202]]
        finally:
            service.shutdown()
        assert registry._REGISTRY == before

    def test_one_worker_process_runs_each_jobs_own_spec(
        self, tmp_path, monkeypatch
    ):
        # job_concurrency=1: the second job runs on the very process that
        # held the first one's spec, which arrived with that job's stream and
        # was never registered there either.
        before = dict(registry._REGISTRY)
        gate = RunGate(tmp_path, monkeypatch, free=2)
        service = ExperimentService(str(tmp_path / "jobs"))
        service.start()
        try:
            assert [served_seeds(service, service.submit(same_name_request(seed)))
                    for seed in (101, 202)] == [[101], [202]]
        finally:
            service.shutdown()
        first, second = gate.entries()
        assert first["pid"] == second["pid"] != os.getpid()
        assert first["registry"] == second["registry"] == sorted(before)
        assert registry._REGISTRY == before

    def test_restart_replans_every_job_from_its_own_request(self, tmp_path):
        jobs_dir = str(tmp_path / "jobs")
        first = ExperimentService(jobs_dir)
        ids = [first.submit(same_name_request(seed)).id for seed in (101, 202)]
        first.shutdown()  # never started: both jobs are still queued
        second = ExperimentService(jobs_dir)
        try:
            second.start()
            assert [served_seeds(second, second.job(job_id))
                    for job_id in ids] == [[101], [202]]
        finally:
            second.shutdown()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_cli_spec_runs_register_nothing(self, command, tmp_path):
        before = dict(registry._REGISTRY)
        spec = quickstart_document()
        spec["name"] = "never-registered-probe"
        path = tmp_path / "probe.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "out.json"
        assert main([command, "--spec", str(path), "--json", str(out), "--quiet",
                     "-p", "workload.operations_per_client=2"]
                    + (["--no-progress"] if command == "sweep" else [])) == 0
        assert json.loads(out.read_text())[0]["scenario"] == "never-registered-probe"
        assert registry._REGISTRY == before


class TestParameterNamesFollowExecution:
    """The planner accepts exactly the names execution binds: a legacy alias
    the CLI always ran (``failures.*``) is no longer a 400 from the service,
    and a typo the CLI used to discover mid-run fails before any run."""

    CRASH = [["s4", 10.0]]

    def served_bytes(self, service, body):
        job = service.submit(JobRequest.from_dict(
            {"scenario": "crash-resilience", **body}))
        assert service.wait(job, 120) and job.state == "done"
        with open(job.results_path, "rb") as handle:
            return handle.read()

    def test_alias_as_a_param_runs_the_canonical_bytes(self, service):
        alias = self.served_bytes(
            service, {"kind": "run", "params": {"failures.crashes": self.CRASH}})
        canonical = self.served_bytes(
            service, {"kind": "run", "params": {"faults.crashes": self.CRASH}})
        assert json.loads(alias)["result"] == json.loads(canonical)["result"]
        assert alias == canonical.replace(b"faults.crashes", b"failures.crashes")

    def test_alias_as_a_grid_axis_runs_the_canonical_bytes(self, service):
        alias = self.served_bytes(
            service, {"kind": "sweep", "grid": {"failures.crashes": [self.CRASH, []]}})
        canonical = self.served_bytes(
            service, {"kind": "sweep", "grid": {"faults.crashes": [self.CRASH, []]}})
        assert alias.count(b"\n") == 2
        assert alias == canonical.replace(b"faults.crashes", b"failures.crashes")

    @pytest.mark.parametrize("body, path", [
        ({"kind": "run", "params": {"cluster.bogus": 3}}, "params.cluster.bogus"),
        ({"kind": "sweep", "grid": {"cluster.bogus": [3]}}, "grid.cluster.bogus"),
        ({"kind": "sweep", "scenario": "fig1-walkthrough", "seeds": [1]},
         "seeds"),
    ])
    def test_unknown_names_fail_at_submit_with_the_request_path(
        self, service, body, path
    ):
        with pytest.raises(ConfigurationError) as excinfo:
            service.submit(JobRequest.from_dict({"scenario": "quickstart", **body}))
        assert excinfo.value.path == path
        assert service.jobs() == []

    def test_cli_rejects_an_unknown_param_before_any_run(self, capsys, monkeypatch):
        from repro.experiments import executor

        def never(*args, **kwargs):
            raise AssertionError("a run started")

        # `_cmd_run` imports its machinery when chosen, so patch the owner.
        monkeypatch.setattr(executor, "execute_many", never)
        assert main(["run", "quickstart", "-p", "cluster.bogus=1"]) == 2
        err = capsys.readouterr().err
        assert "unknown parameter 'cluster.bogus'" in err
        assert "at: params.cluster.bogus" in err


class TestRestartResume:
    def test_graceful_shutdown_then_restart_is_byte_identical(self, tmp_path):
        request = JobRequest.from_dict({
            "kind": "sweep", "scenario": "quickstart", "params": FAST,
            "grid": {"cluster.n": [4, 5]}, "seeds": [0, 1],
        })
        want = cli_sweep_bytes(
            tmp_path, "direct.jsonl",
            ["quickstart", "-p", "workload.operations_per_client=2",
             "-g", "cluster.n=4,5", "--seeds", "0,1"],
        )
        jobs_dir = str(tmp_path / "jobs")
        first = ExperimentService(jobs_dir, workers=1)
        first.start()
        job = first.submit(request)
        wait_for(lambda: job.done_runs >= 1)
        first.shutdown()  # graceful: job stays resumable
        assert job.state == "running"

        second = ExperimentService(jobs_dir, workers=1)
        resumed = second.job(job.id)
        assert resumed.state == "queued"
        second.start()
        assert second.wait(resumed, 120)
        assert resumed.state == "done"
        assert resumed.done_runs == 4
        assert resumed.telemetry.resumed >= 1
        assert pathlib.Path(resumed.results_path).read_bytes() == want
        second.shutdown()


class TestJobsLogDurability:
    """``jobs.jsonl`` is read by the run journal's loader: an unfinished
    final line costs that record only, a damaged earlier line refuses the
    start — it used to ``break`` there, forget every later job, re-queue a
    finished one and hand out an id on top of an existing directory."""

    @pytest.fixture
    def finished_log(self, tmp_path):
        """Three finished run jobs: a nine-event log (job, running, done)."""
        jobs_dir = str(tmp_path / "jobs")
        service = ExperimentService(jobs_dir, workers=1)
        service.start()
        try:
            for seed in (1, 2, 3):
                job = service.submit(JobRequest.from_dict({
                    "kind": "run", "scenario": "quickstart",
                    "params": dict(FAST, seed=seed),
                }))
                assert service.wait(job, 120) and job.state == "done"
        finally:
            service.shutdown()
        path = os.path.join(jobs_dir, "jobs.jsonl")
        with open(path, "rb") as handle:
            data = handle.read()
        assert data.count(b"\n") == 9
        return jobs_dir, path, data

    @staticmethod
    def restarted_states(jobs_dir):
        service = ExperimentService(jobs_dir)  # never started: nothing runs
        try:
            return {job.id: job.state for job in service.jobs()}
        finally:
            service.shutdown()

    def test_a_cut_anywhere_in_the_last_record_loses_at_most_that_record(
        self, finished_log
    ):
        jobs_dir, path, data = finished_log
        last = data.rindex(b"\n", 0, len(data) - 1) + 1
        for cut in range(last, len(data) + 1):
            with open(path, "wb") as handle:
                handle.write(data[:cut])
            states = self.restarted_states(jobs_dir)
            whole = cut == len(data)  # the newline is the commit mark
            assert states == {
                "job-000001": "done", "job-000002": "done",
                "job-000003": "done" if whole else "queued",
            }, cut
            # The fragment is cut off the file, so what the restarted service
            # appended starts on a line boundary and the next start reads it.
            with open(path, "rb") as handle:
                assert handle.read().startswith(data[:last])
            assert self.restarted_states(jobs_dir) == states, cut

    def test_appends_after_a_torn_line_do_not_damage_the_log(self, finished_log):
        jobs_dir, path, data = finished_log
        with open(path, "wb") as handle:
            handle.write(data[:-10])
        service = ExperimentService(jobs_dir)
        try:
            job = service.submit(same_name_request(7))
            assert job.id == "job-000004"
        finally:
            service.shutdown()
        assert sorted(self.restarted_states(jobs_dir)) == [
            "job-000001", "job-000002", "job-000003", "job-000004"]

    def test_a_damaged_middle_line_refuses_the_start(self, finished_log):
        jobs_dir, path, data = finished_log
        lines = data.split(b"\n")
        lines[1] = lines[1][: len(lines[1]) // 2]
        with open(path, "wb") as handle:
            handle.write(b"\n".join(lines))
        with pytest.raises(
            ConfigurationError,
            match=r"jobs log .*jobs\.jsonl: undecodable record on line 2",
        ):
            ExperimentService(jobs_dir)
        with open(path, "rb") as handle:
            assert handle.read() == b"\n".join(lines)  # refused, not repaired


class TestResultsAreStreamed:
    def test_a_line_reaches_its_reader_when_its_run_finishes(
        self, tmp_path, monkeypatch, leaked_children
    ):
        # results.jsonl used to sit in an 8 KB text buffer until the file
        # closed, so a sweep's first byte arrived with its last.
        want = cli_sweep_bytes(tmp_path, "direct.jsonl", [BASELINE, "--seeds", "0,1"])
        gate = RunGate(tmp_path, monkeypatch, free=1)
        service = ExperimentService(str(tmp_path / "jobs"))
        service.start()
        try:
            job = service.submit(baseline_request([0, 1]))
            stream = service.stream_results(job.id)
            first = next(chunk for chunk in stream if chunk)
            assert job.done_runs < job.total  # the second run is at the gate
            assert first == want[: want.index(b"\n") + 1]
            gate.open()
            assert first + b"".join(stream) == want
            assert service.wait(job, 0) and job.state == "done"
        finally:
            gate.open()
            service.shutdown()
        assert leaked_children() == []

    def test_no_wakeup_is_lost_between_tenants_threads_and_readers(
        self, tmp_path, leaked_children
    ):
        # Job threads, readers and `wait` sleep on one condition: three
        # tenants submitting and streaming at once over three job threads
        # (more than this box has cores), thread switches forced often.
        want = {
            seed: cli_sweep_bytes(tmp_path, f"direct-{seed}.jsonl",
                                  [BASELINE, "--seeds", f"{seed},{seed + 10}"])
            for seed in range(3)
        }
        service = ExperimentService(str(tmp_path / "jobs"), job_concurrency=3)
        service.start()
        wrong = []

        def tenant(seed):
            for _ in range(8):
                job = service.submit(baseline_request([seed, seed + 10]))
                served = b"".join(service.stream_results(job.id))
                if served != want[seed] or not service.wait(job, 0):
                    wrong.append((job.id, job.state, served))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            tenants = [threading.Thread(target=tenant, args=(seed,))
                       for seed in range(3)]
            for thread in tenants:
                thread.start()
            for thread in tenants:
                thread.join(timeout=120.0)
            assert not any(thread.is_alive() for thread in tenants)
        finally:
            sys.setswitchinterval(interval)
            service.shutdown()
        assert wrong == []
        assert worker_metrics(service) == (3, 0)
        assert leaked_children() == []

    def test_a_reader_of_a_queued_job_ends_when_the_job_is_cancelled(
        self, tmp_path
    ):
        service = ExperimentService(str(tmp_path / "jobs"))  # never started
        try:
            job = service.submit(baseline_request([0]))
            chunks = []
            reader = threading.Thread(
                target=lambda: chunks.extend(service.stream_results(job.id)))
            reader.start()
            service.cancel(job.id)
            reader.join(timeout=30.0)
            assert not reader.is_alive() and b"".join(chunks) == b""
        finally:
            service.shutdown()


class TestFinishedJobsAreSmall:
    def test_a_finished_run_job_retains_under_two_kilobytes(self, service):
        # Three threading.Events, the run list and the planned scenario used
        # to stay with every job served: ~6 KB each, for the server's life.
        import gc
        import tracemalloc

        def serve(count):
            for seed in range(count):
                job = service.submit(JobRequest.from_dict(
                    {"kind": "run", "scenario": BASELINE, "params": {"seed": seed}}))
                assert service.wait(job, 120) and job.state == "done"
                assert job.runs is None and job.entry is None
                assert job.payload()["total"] == job.payload()["done"] == 1

        serve(5)  # imports, caches, the metric instruments
        tracemalloc.start()
        try:
            gc.collect()
            before, _ = tracemalloc.get_traced_memory()
            serve(40)
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (after - before) / 40 <= 2048


@needs_fork
class TestWorkersOutliveJobs:
    """A job thread's worker processes are started once, in `start()`."""

    def test_twenty_jobs_on_two_threads_start_two_workers(self, tmp_path):
        service = ExperimentService(str(tmp_path / "jobs"), job_concurrency=2)
        service.start()
        try:
            jobs = [
                service.submit(JobRequest.from_dict(
                    {"kind": "run", "scenario": BASELINE, "params": {"seed": seed}}))
                for seed in range(20)
            ]
            for job in jobs:
                assert service.wait(job, 120) and job.state == "done"
            assert worker_metrics(service) == (2, 2)
        finally:
            service.shutdown()
        assert worker_metrics(service) == (2, 0)

    @pytest.mark.parametrize("retry, killed_run", [
        (2, "retried"), (1, "quarantined"),
    ])
    def test_a_sigkilled_worker_is_respawned_once_and_serves_the_next_job(
        self, retry, killed_run, tmp_path, monkeypatch, leaked_children
    ):
        want = cli_sweep_bytes(
            tmp_path, "direct.jsonl", [BASELINE, "--seeds", "0,1,2"])
        gate = RunGate(tmp_path, monkeypatch)
        service = ExperimentService(
            str(tmp_path / "jobs"), job_concurrency=2, retry=retry)
        service.start()
        try:
            job = service.submit(baseline_request([0, 1, 2]))
            wait_for(gate.pids)
            victim = gate.pids()[0]
            os.kill(victim, signal.SIGKILL)
            gate.open()
            assert service.wait(job, 120) and job.state == "done"
            served = pathlib.Path(job.results_path).read_bytes()
            resilience = job.payload()["resilience"]
            if killed_run == "retried":
                # Re-dispatched after its backoff, so behind the other two.
                assert sorted(served.splitlines()) == sorted(want.splitlines())
                assert (resilience["retries"], resilience["quarantined"]) == (1, 0)
            else:
                first, rest = served.split(b"\n", 1)
                error = json.loads(first)["result"]["error"]
                assert error["type"] == "WorkerCrashed" and error["quarantined"]
                assert rest == want.split(b"\n", 1)[1]
                assert (resilience["retries"], resilience["quarantined"]) == (0, 1)
            assert worker_metrics(service) == (3, 2)
            # The rest of the sweep, and the next job, ran on the respawned
            # worker: no process but the victim's replacement was started.
            runs_before = len(gate.pids())
            following = service.submit(baseline_request([7]))
            assert service.wait(following, 120) and following.state == "done"
            assert victim not in gate.pids()[1:]
            assert len(gate.pids()) == runs_before + 1
            assert worker_metrics(service) == (3, 2)
        finally:
            gate.open()
            service.shutdown()
        assert leaked_children() == []

    def test_an_interrupt_of_the_process_group_is_the_servers_to_handle(
        self, tmp_path, monkeypatch, leaked_children
    ):
        # Ctrl-C on `repro serve` in a terminal signals the workers too.  The
        # server shuts down after the current run; a worker that raised
        # KeyboardInterrupt into its run would take the job thread with it.
        want = cli_sweep_bytes(tmp_path, "direct.jsonl", [BASELINE, "--seeds", "0,1"])
        gate = RunGate(tmp_path, monkeypatch)
        service = ExperimentService(str(tmp_path / "jobs"))
        service.start()
        try:
            job = service.submit(baseline_request([0, 1]))
            wait_for(gate.pids)
            os.kill(gate.pids()[0], signal.SIGINT)
            time.sleep(0.05)  # delivered while the run waits at the gate
            gate.open()
            assert service.wait(job, 60) and job.state == "done"
            assert pathlib.Path(job.results_path).read_bytes() == want
            assert worker_metrics(service) == (1, 1)
        finally:
            gate.open()
            service.shutdown()
        assert leaked_children() == []

    def test_a_jobs_run_timeout_respawns_the_threads_worker(
        self, tmp_path, monkeypatch, leaked_children
    ):
        gate = RunGate(tmp_path, monkeypatch)
        service = ExperimentService(str(tmp_path / "jobs"))
        service.start()
        try:
            hung = service.submit(baseline_request([0], run_timeout=0.3))
            assert service.wait(hung, 120) and hung.state == "done"
            [entry] = load_payload(hung.results_path)
            assert entry["result"]["error"]["type"] == "WatchdogTimeout"
            assert hung.payload()["resilience"]["timeouts"] == 1
            assert worker_metrics(service) == (2, 1)
            gate.open()
            following = service.submit(baseline_request([1]))
            assert service.wait(following, 120) and following.state == "done"
            assert "error" not in load_payload(following.results_path)[0]["result"]
            first, second = gate.pids()
            assert first != second
            assert worker_metrics(service) == (2, 1)  # respawned, not re-pooled
        finally:
            gate.open()
            service.shutdown()
        assert leaked_children() == []


class TestRoutes:
    def test_unknown_route_is_404(self, service):
        response = dispatch(service, "GET", "/nope")
        assert response.status == 404
        assert response.payload["error"]["type"] == "ConfigurationError"

    def test_wrong_method_is_405(self, service):
        response = dispatch(service, "POST", "/healthz")
        assert response.status == 405
        assert "GET" in response.payload["error"]["message"]

    def test_invalid_json_body_is_400(self, service):
        response = dispatch(service, "POST", "/jobs", b"{nope")
        assert response.status == 400

    def test_malformed_spec_submission_is_400_with_path(self, service):
        body = json.dumps({
            "kind": "run",
            "spec": {"name": "x", "bad_section": {}},
        }).encode()
        response = dispatch(service, "POST", "/jobs", body)
        assert response.status == 400
        assert response.payload["error"]["path"] == "bad_section"

    def test_validate_endpoint_judges_specs(self, service):
        good = quickstart_document()
        response = dispatch(service, "POST", "/specs/validate",
                            json.dumps(good).encode())
        assert response.status == 200
        assert response.payload["ok"] is True
        assert "cluster.n" in response.payload["sweepable"]
        bad = dict(good, workload=dict(good["workload"],
                                       operations_per_client=-1))
        response = dispatch(service, "POST", "/specs/validate",
                            json.dumps(bad).encode())
        assert response.status == 200
        assert response.payload["ok"] is False
        assert response.payload["errors"][0]["path"] == "workload"

    def test_queue_full_is_503(self, tmp_path):
        service = ExperimentService(str(tmp_path / "jobs"), queue_limit=1)
        body = json.dumps({"kind": "run", "scenario": "quickstart",
                           "params": FAST}).encode()
        assert dispatch(service, "POST", "/jobs", body).status == 201
        assert dispatch(service, "POST", "/jobs", body).status == 503
        service.shutdown()


class TestHTTPServer:
    def test_submit_stream_cancel_roundtrip(self, http_client, tmp_path):
        spec = quickstart_document()
        job = http_client.submit({
            "kind": "sweep", "spec": spec,
            "params": FAST, "seeds": [0, 1],
        })
        assert job["state"] in ("queued", "running")
        served = http_client.results_bytes(job["id"])
        final = http_client.wait(job["id"])
        assert final["state"] == "done"
        assert final["done"] == final["total"] == 2
        want = cli_sweep_bytes(
            tmp_path, "direct.jsonl",
            ["--spec", QUICKSTART_SPEC, "--seeds", "0,1",
             "-p", "workload.operations_per_client=2"],
        )
        assert served == want
        with pytest.raises(ServeClientError) as excinfo:
            http_client.cancel(job["id"])
        assert excinfo.value.status == 409

    def test_concurrent_traced_jobs_each_stream_the_clis_bytes(
        self, tmp_path, monkeypatch
    ):
        # Two tenants, two job threads each with its worker process, both
        # runs observed at once: each job's metrics and trace digest are its
        # own run's — the bytes the CLI prints for it.
        # The scenario has no transfers: without the weight-gain refresh churn
        # its trace does not depend on the stack depth it is recorded at.
        import repro.experiments.spec as spec_module

        def request(seed):
            return {"kind": "run", "scenario": "crash-resilience",
                    "params": {"seed": seed, "observability.enabled": True}}

        want = {
            seed: cli_sweep_bytes(
                tmp_path, f"direct-{seed}.jsonl",
                ["crash-resilience", "-p", f"seed={seed}",
                 "-p", "observability.enabled=True"],
            )
            for seed in (3, 4)
        }
        assert json.loads(want[3])["result"]["trace"]["records"] > 0

        # Each run has installed its observer when it gets here; it builds
        # its world only once the other has too, and keeps observing until
        # the other is done.  The workers fork in `start()`, below, with the
        # patch and this barrier in place.
        both_there = multiprocessing.get_context("fork").Barrier(2, timeout=30.0)
        run_inner = spec_module._run_spec_inner

        def run_inner_together(spec):
            both_there.wait()
            try:
                return run_inner(spec)
            finally:
                both_there.wait()

        monkeypatch.setattr(spec_module, "_run_spec_inner", run_inner_together)
        service = ExperimentService(
            str(tmp_path / "jobs"), workers=1, job_concurrency=2
        )
        server = ExperimentServer(("127.0.0.1", 0), service, quiet=True)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        client = ServeClient(f"http://127.0.0.1:{server.server_address[1]}")
        try:
            # Queued while no job thread runs: each thread then takes one.
            jobs = {seed: client.submit(request(seed))["id"] for seed in (3, 4)}
            service.start()
            served = {seed: client.results_bytes(job) for seed, job in jobs.items()}
            assert all(client.wait(job)["state"] == "done" for job in jobs.values())
        finally:
            server.shutdown()
            server.server_close()
            service.shutdown()
        assert served == want

    def test_a_finished_jobs_stream_is_one_frame_and_the_terminator(
        self, http_client, tmp_path
    ):
        # The recorded response: headers, then the whole file as one chunk
        # with the terminator behind it — what four writes a frame put on the
        # wire, now in one.
        job = http_client.submit(
            {"kind": "sweep", "scenario": BASELINE, "seeds": [0, 1]})
        assert http_client.wait(job["id"])["state"] == "done"
        want = cli_sweep_bytes(tmp_path, "direct.jsonl", [BASELINE, "--seeds", "0,1"])
        with socket.create_connection(
            (http_client.host, http_client.port), timeout=30
        ) as sock:
            sock.sendall(
                f"GET /jobs/{job['id']}/results HTTP/1.1\r\n"
                "Host: test\r\nConnection: close\r\n\r\n".encode("ascii"))
            wire = b""
            while chunk := sock.recv(65536):
                wire += chunk
        head, body = wire.split(b"\r\n\r\n", 1)
        lines = head.split(b"\r\n")
        assert lines[0] == b"HTTP/1.1 200 OK"
        assert [line for line in lines[1:]
                if not line.startswith((b"Server:", b"Date:"))] == [
            b"Content-Type: application/x-ndjson",
            b"Transfer-Encoding: chunked",
        ]
        assert body == b"%X\r\n%b\r\n0\r\n\r\n" % (len(want), want)

    def test_a_live_stream_frames_each_write_and_skips_empty_chunks(self):
        from repro.serve.app import ExperimentHandler
        from repro.serve.routes import Response

        writes = []
        handler = ExperimentHandler.__new__(ExperimentHandler)
        handler.wfile = type("Wire", (), {"write": staticmethod(writes.append)})()
        handler.request_version = "HTTP/1.1"
        handler.requestline = "GET /jobs/job-000001/results HTTP/1.1"
        handler.client_address = ("127.0.0.1", 0)
        handler.server = type("Quiet", (), {"quiet": True})()
        chunks = [b"", b"first\n", b"", b"", b"second\n", b"third\n"]
        handler._write_stream(Response(200, stream=iter(chunks),
                                       content_type="application/x-ndjson"))
        # Headers, then: a frame sent when the stream says it will wait, a
        # frame pushed out by the next, and the last with the terminator.
        assert writes[1:] == [
            b"6\r\nfirst\n\r\n", b"7\r\nsecond\n\r\n",
            b"6\r\nthird\n\r\n0\r\n\r\n",
        ]

    def test_jobs_listing_and_status(self, http_client):
        job = http_client.submit(
            {"kind": "run", "scenario": "quickstart", "params": FAST})
        http_client.wait(job["id"])
        listing = http_client.jobs()
        assert [entry["id"] for entry in listing] == [job["id"]]
        status = http_client.job(job["id"])
        assert status["resilience"]["resumed"] == 0

    def test_health_and_metrics(self, http_client):
        health = http_client.health()
        assert health["ok"] is True
        job = http_client.submit(
            {"kind": "run", "scenario": "quickstart", "params": FAST})
        http_client.wait(job["id"])
        metrics = http_client.metrics()
        assert metrics["counters"]["serve.jobs_submitted"] >= 1
        assert metrics["counters"]["serve.jobs_completed"] >= 1
        assert "serve.queue_depth" in metrics["gauges"]
        assert "serve.job_wall_seconds" in metrics["histograms"]

    def test_unknown_job_is_404_over_http(self, http_client):
        with pytest.raises(ServeClientError) as excinfo:
            http_client.job("job-424242")
        assert excinfo.value.status == 404


def client_body(argv):
    """The ``POST /jobs`` body `client submit --scenario quickstart --sweep` builds."""
    args = serve_client.build_parser().parse_args(
        ["submit", "--scenario", "quickstart", "--sweep", *argv])
    return serve_client._build_request(args)


def cli_body(argv):
    """The request `python -m repro sweep quickstart` builds, as a body."""
    args = repro_cli.build_parser().parse_args(["sweep", "quickstart", *argv])
    return repro_cli._sweep_request(args).to_dict()


class TestClientArgvMatchesTheCli:
    """`client submit` parses argv with the CLI's helpers, not a copy."""

    @pytest.mark.parametrize("client_argv, cli_argv", [
        pytest.param(
            ["--grid", "cluster.n=4,5,"], ["-g", "cluster.n=4,5,"],
            id="grid-trailing-comma"),
        pytest.param(["--seeds", "0,1,"], ["--seeds", "0,1,"],
                     id="seeds-trailing-comma"),
        pytest.param(
            ["-p", "workload.operations_per_client=2", "-p",
             "cluster.flavour=static-majority", "--grid", "cluster.n=4,5",
             "--seeds", "0,1", "--sample", "2", "--sample-method", "lhs"],
            ["-p", "workload.operations_per_client=2", "-p",
             "cluster.flavour=static-majority", "-g", "cluster.n=4,5",
             "--seeds", "0,1", "--sample", "2", "--sample-method", "lhs"],
            id="well-formed"),
    ])
    def test_same_argv_same_request(self, client_argv, cli_argv):
        sent = client_body(client_argv)
        planned = cli_body(cli_argv)
        assert sent == {key: planned[key] for key in sent}
        # ... and the server reads the body back into that very request.
        assert JobRequest.from_dict(sent).to_dict() == planned

    def test_trailing_commas_drop_the_empty_value(self):
        sent = client_body(["--grid", "cluster.n=4,5,", "--seeds", "0,1,"])
        assert sent["grid"] == {"cluster.n": [4, 5]}
        assert sent["seeds"] == [0, 1]

    def test_a_well_formed_body_is_byte_for_byte_what_it_was(self):
        sent = client_body([
            "-p", "workload.operations_per_client=2", "--grid",
            "cluster.n=4,5", "--seeds", "0,1", "--workers", "2",
        ])
        assert json.dumps(sent) == (
            '{"kind": "sweep", "scenario": "quickstart", '
            '"params": {"workload.operations_per_client": 2}, '
            '"grid": {"cluster.n": [4, 5]}, "seeds": [0, 1], "workers": 2}'
        )

    def test_a_param_without_equals_is_the_clis_error(self, capsys):
        argv = ["-p", "workload.operations_per_client"]
        assert main(["sweep", "quickstart", *argv]) == 2
        cli_error = capsys.readouterr().err
        assert "expected key=value" in cli_error
        # No server is listening: the request must be refused before it is sent.
        assert serve_client.main([
            "--url", f"http://127.0.0.1:{free_port()}", "submit",
            "--scenario", "quickstart", *argv,
        ]) == 2
        assert capsys.readouterr().err == cli_error

    def test_served_bytes_equal_cli_bytes_for_the_same_sloppy_argv(
        self, http_client, tmp_path, capsys
    ):
        argv = ["--seeds", "0,1,", "-p", "workload.operations_per_client=2"]
        served = tmp_path / "served.jsonl"
        assert serve_client.main([
            "--url", f"http://{http_client.host}:{http_client.port}", "submit",
            "--scenario", "quickstart", "--sweep", "--grid", "cluster.n=4,5,",
            *argv, "--results", str(served),
        ]) == 0
        capsys.readouterr()
        want = cli_sweep_bytes(
            tmp_path, "direct.jsonl", ["quickstart", "-g", "cluster.n=4,5,", *argv])
        assert served.read_bytes() == want


def free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestKillDashNine:
    def test_kill9_mid_sweep_then_restart_is_byte_identical(self, tmp_path):
        """The ISSUE acceptance gate, as a real-process drill.

        Boot `python -m repro serve`, submit a sweep, `kill -9` the server
        after two runs complete, restart it on the same jobs directory, and
        assert the finished job's results equal a direct CLI sweep's bytes.
        """
        env = dict(os.environ)
        src = os.path.join(REPO, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        port = free_port()
        jobs_dir = str(tmp_path / "jobs")
        argv = [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
                "--port", str(port), "--jobs-dir", jobs_dir, "--quiet"]
        client = ServeClient(f"http://127.0.0.1:{port}", timeout=10)

        def boot():
            process = subprocess.Popen(
                argv, env=env, cwd=REPO,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            for _ in range(600):
                try:
                    client.health()
                    return process
                except (OSError, ServeClientError):
                    time.sleep(0.1)
            process.kill()
            raise AssertionError("server did not come up")

        first = boot()
        try:
            job = client.submit({
                "kind": "sweep", "scenario": "quickstart",
                "params": FAST, "grid": {"cluster.n": [4, 5]},
                "seeds": [0, 1, 2],
            })
            wait_for(lambda: client.job(job["id"])["done"] >= 2, timeout=120,
                     interval=0.05)
        finally:
            first.send_signal(signal.SIGKILL)
            first.wait()

        # Its workers (one mid-run) were forked before it listened: nothing
        # holds the port, so the restart below does not wait for an orphan.
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", port), timeout=5).close()

        second = boot()
        try:
            final = client.wait(job["id"], timeout=120)
            assert final["state"] == "done"
            assert final["done"] == 6
            assert final["resilience"]["resumed"] >= 1
            served = client.results_bytes(job["id"])
        finally:
            second.terminate()
            second.wait()

        want = cli_sweep_bytes(
            tmp_path, "direct.jsonl",
            ["quickstart", "-p", "workload.operations_per_client=2",
             "-g", "cluster.n=4,5", "--seeds", "0,1,2"],
        )
        assert served == want
        payload = [json.loads(line) for line in served.splitlines()]
        assert not compare_payloads(payload, load_payload(
            str(tmp_path / "direct.jsonl")))
