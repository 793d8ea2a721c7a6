"""``serve-jobs``: jobs submitted to ``python -m repro serve`` and streamed back.

The server is a subprocess on loopback.  Two closed-loop clients — tenants
are scripts that wait for their reply — each submit a job, stream its
results to the last byte, then submit the next: three single ``run`` jobs
for every 8-seed ``sweep`` job.  Simulation is a few milliseconds of a job;
schema validation, the fsynced jobs log, the per-job journal, the thread
hand-off and the chunked transport are the rest.
"""

from __future__ import annotations

import http.client
import io
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perf_harness import Outcome, child_env, percentile
from perf_spans import SpanRecorder, Target
from perf_wl_base import Workload, ms, notes_for, safe_ratio

from repro.experiments.executor import execute_run_captured
from repro.experiments.results import write_jsonl_line
from repro.experiments.sweep import RunSpec, expand_grid
from repro.serve.client import ServeClient, ServeClientError

SCENARIO = "static-majority-baseline"
CLIENTS = 2
_BOOT_TIMEOUT = 60.0
_RUN_SEEDS = 16
_SWEEP_SHAPES = 4
_SWEEP_WIDTH = 8


@dataclass
class JobRecord:
    """One job as its client saw it (raw seconds from submit)."""

    request: int
    kind: str
    submit_s: float = 0.0
    first_byte_s: float = 0.0
    last_byte_s: float = 0.0
    job_id: str = ""
    body: bytes = b""
    error: str = ""
    status: int = 0


class ServeJobs(Workload):
    name = "serve-jobs"
    unit = "job"

    def __init__(self, seed: int, smoke: bool, scratch: str) -> None:
        super().__init__(seed, smoke, scratch)
        self.server: Optional[subprocess.Popen] = None
        self.server_rss_mb = 0.0
        self._tally = threading.Lock()
        self.jobs_per_client = 4 if smoke else 28
        #: Client-side seconds and count of every job since boot, to set
        #: against the server's own ``serve.job_wall_seconds`` histogram.
        self.client_seconds = 0.0
        self.client_jobs = 0

    # -- the job mix -------------------------------------------------------------

    def build_requests(self) -> None:
        """The distinct job requests and the runs each expands to."""
        base = self.seed * 1000
        self.requests: List[Dict[str, Any]] = []
        self.request_runs: List[List[RunSpec]] = []
        run_seeds, sweep_shapes = (4, 1) if self.smoke else (_RUN_SEEDS, _SWEEP_SHAPES)
        for offset in range(run_seeds):
            seed = base + offset
            self.requests.append(
                {"kind": "run", "scenario": SCENARIO, "params": {"seed": seed}}
            )
            self.request_runs.append([RunSpec(SCENARIO, (("seed", seed),))])
        for shape in range(sweep_shapes):
            seeds = [base + 100 + shape * _SWEEP_WIDTH + i for i in range(_SWEEP_WIDTH)]
            self.requests.append({"kind": "sweep", "scenario": SCENARIO, "seeds": seeds})
            self.request_runs.append(expand_grid(SCENARIO, grid={"seed": seeds}))

    def request_for(self, client: int, position: int) -> int:
        """Index into ``self.requests`` of the ``position``-th job of ``client``."""
        serial = position * CLIENTS + client
        sweeps = sum(1 for request in self.requests if request["kind"] == "sweep")
        runs = len(self.requests) - sweeps
        if position % 4 == 3:
            return runs + serial % sweeps
        return serial % runs

    # -- lifecycle ---------------------------------------------------------------

    def prepare(self) -> None:
        self.build_requests()
        jobs_dir = os.path.join(self.scratch, "serve-jobs")
        self.jobs_log = os.path.join(jobs_dir, "jobs.jsonl")
        log_path = os.path.join(self.scratch, "serve.stderr")
        started = time.perf_counter()
        with open(log_path, "wb") as log:
            self.server = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--workers", "1", "--job-concurrency", str(CLIENTS), "--quiet",
                 "--jobs-dir", jobs_dir],
                env=child_env(), cwd=self.scratch,
                stdout=subprocess.DEVNULL, stderr=log,
            )
        url = self._wait_for_url(log_path)
        self.client = ServeClient(url, timeout=60.0)
        self.client.health()
        self.boot_s = time.perf_counter() - started
        # One serial catalogue request before any concurrent POST /jobs: the
        # registry marks the catalogue loaded before its import finishes, so
        # two first-ever concurrent submissions can see an empty registry.
        self.client.scenarios()
        self.one_job(JobRecord(request=0, kind="run"))

    def _wait_for_url(self, log_path: str) -> str:
        assert self.server is not None
        deadline = time.perf_counter() + _BOOT_TIMEOUT
        marker = "serving experiments on "
        while time.perf_counter() < deadline:
            if self.server.poll() is not None:
                break
            with open(log_path, "r", encoding="utf-8", errors="replace") as log:
                for line in log:
                    if marker in line and line.endswith("\n"):
                        return line.split(marker, 1)[1].split()[0]
            time.sleep(0.005)
        self.teardown()
        raise RuntimeError("repro serve did not come up")

    def reference(self) -> None:
        self.expected: List[bytes] = []
        for runs in self.request_runs:
            sink = io.StringIO()
            for run in runs:
                write_jsonl_line(execute_run_captured(run), sink)
            self.expected.append(sink.getvalue().encode("utf-8"))
        self.check(self.run_once())  # warm-up round

    def teardown(self) -> None:
        server, self.server = self.server, None
        if server is None:
            return
        if server.poll() is None:
            server.send_signal(signal.SIGTERM)
        try:
            _, _, usage = _wait4(server, timeout=15.0)
        except TimeoutError:
            server.kill()
            _, _, usage = _wait4(server, timeout=15.0)
        self.server_rss_mb = usage.ru_maxrss / 1024.0

    def peak_rss_mb(self) -> float:
        """The server's ``ru_maxrss`` (known once ``teardown`` has reaped it)."""
        return self.server_rss_mb

    # -- one round ---------------------------------------------------------------

    def one_job(self, record: JobRecord) -> JobRecord:
        """Submit one job and stream its results to the last byte."""
        started = time.perf_counter()
        try:
            job = self.client.submit(self.requests[record.request])
            record.job_id = job["id"]
            record.submit_s = time.perf_counter() - started
            with self.span("serve.client_stream"):
                connection = http.client.HTTPConnection(
                    self.client.host, self.client.port, timeout=self.client.timeout
                )
                try:
                    connection.request("GET", f"/jobs/{record.job_id}/results")
                    response = connection.getresponse()
                    record.status = response.status
                    head = response.read(1)
                    record.first_byte_s = time.perf_counter() - started
                    record.body = head + response.read()
                finally:
                    connection.close()
            if record.status >= 400:
                record.error = f"results fetch answered {record.status}"
        except ServeClientError as error:
            record.status = error.status
            record.error = str(error)
        except (OSError, http.client.HTTPException) as error:
            record.error = f"{type(error).__name__}: {error}"
        record.last_byte_s = time.perf_counter() - started
        with self._tally:
            self.client_seconds += record.last_byte_s
            self.client_jobs += 1
        return record

    def _client_loop(self, client: int, records: List[JobRecord]) -> None:
        for position in range(self.jobs_per_client):
            index = self.request_for(client, position)
            record = JobRecord(request=index, kind=self.requests[index]["kind"])
            with self.span("serve.job", trace=f"client{client}-job{position}"):
                self.one_job(record)
            records.append(record)

    def run_once(self) -> List[JobRecord]:
        per_client: List[List[JobRecord]] = [[] for _ in range(CLIENTS)]
        threads = [
            threading.Thread(target=self._client_loop, args=(client, per_client[client]))
            for client in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        with self.span("serve.wait_clients"):
            for thread in threads:
                thread.join()
        return [record for records in per_client for record in records]

    def check(self, output: List[JobRecord]) -> Outcome:
        states = {job["id"]: job["state"] for job in self.client.jobs()}
        problems = []
        failed = 0
        for record in output:
            if record.error:
                problem = record.error
            elif states.get(record.job_id) != "done":
                problem = f"{record.job_id} ended {states.get(record.job_id)!r}"
            elif record.body != self.expected[record.request]:
                problem = f"{record.job_id}: streamed bytes differ from a local run"
            else:
                continue
            failed += 1
            problems.append(f"serve-jobs: {problem}")
        latencies = [r.last_byte_s for r in output if r.kind == "run" and not r.error]
        return Outcome(len(output), failed, latencies or None, notes_for(problems))

    # -- traced pass -----------------------------------------------------------

    def targets(self) -> Tuple[Sequence[Target], Sequence[Target]]:
        return [(ServeClient, "submit", "serve.client_submit")], ()

    def layers(
        self, recorder: SpanRecorder, root: int, traced_wall: float,
        untraced_wall: float, output: List[JobRecord],
    ) -> Dict[str, float]:
        # Tail percentiles need more than one round's worth of jobs.
        records: List[JobRecord] = []
        for _ in range(1 if self.smoke else 4):
            records.extend(self.run_once())
        good = [record for record in records if not record.error]
        runs = [record.last_byte_s for record in good if record.kind == "run"]
        sweeps = [record.first_byte_s for record in good if record.kind == "sweep"]
        metrics = self.client.metrics()
        wall = metrics["histograms"].get("serve.job_wall_seconds", {"sum": 0.0, "count": 0})
        job_wall_ms = ms(safe_ratio(wall["sum"], wall["count"]))
        submitted = metrics["counters"].get("serve.jobs_submitted", 0)
        rejected = sum(1 for record in records + output if record.status == 503)
        return {
            "serve.boot_s": self.boot_s,
            "serve.submit_ms_p50": ms(percentile([r.submit_s for r in good], 50)),
            "serve.job_wall_ms_mean": job_wall_ms,
            "serve.transport_queue_ms_mean": ms(
                safe_ratio(self.client_seconds, self.client_jobs)
            ) - job_wall_ms,
            "serve.job_latency_p90_ms": ms(percentile(runs, 90)),
            "serve.job_latency_p95_ms": ms(percentile(runs, 95)),
            "serve.sweep_first_byte_p50_ms": ms(percentile(sweeps, 50)),
            "serve.jobs_log_bytes_per_job": safe_ratio(
                os.path.getsize(self.jobs_log), submitted
            ),
            "serve.rejected": rejected,
        }


def _wait4(process: subprocess.Popen, timeout: float) -> Tuple[int, int, Any]:
    """``os.wait4`` with a deadline, so the child's ``ru_maxrss`` is kept."""
    deadline = time.perf_counter() + timeout
    while True:
        pid, status, usage = os.wait4(process.pid, os.WNOHANG)
        if pid:
            process.returncode = os.waitstatus_to_exitcode(status)
            return pid, status, usage
        if time.perf_counter() >= deadline:
            raise TimeoutError(f"process {process.pid} still running")
        time.sleep(0.01)
