"""The experiment service: a job store plus scheduler over the resilient executor.

This is the serving layer's core and it is transport-free — no HTTP in this
module.  :class:`ExperimentService` owns a jobs directory; each submitted
:class:`~repro.experiments.plan.JobRequest` is planned by
:func:`~repro.experiments.plan.plan` — the function the CLI plans with — and
becomes a :class:`Job` with its own subdirectory holding a
:class:`~repro.experiments.resilience.RunJournal` and a ``results.jsonl``
written with the exact
:func:`~repro.experiments.results.write_jsonl_line` sink the CLI uses, so a
job's results are byte-identical to the equivalent ``python -m repro run`` /
``sweep --jsonl`` invocation.  The server is a transport, not new execution
semantics.

Durability mirrors the PR 9 resume contract: the store appends job events to
``jobs.jsonl``; a restarted service replays the log, re-plans each job from
its own logged request (deterministic, and independent of every other job
in the log), and re-enqueues every non-terminal job.  Because those jobs
re-execute against their existing run journal, already-completed runs stream
back from the journal in input order and the rewritten ``results.jsonl``
comes out byte-identical to an uninterrupted execution (single-worker jobs;
parallel jobs are value-identical under
:func:`~repro.experiments.results.compare_payloads`).
"""

from __future__ import annotations

import collections
import dataclasses
import json
import os
import threading
import time
from contextlib import closing
from typing import Any, Dict, Iterator, List, Optional

from repro.errors import ConfigurationError, ReproError
from repro.experiments.plan import JobRequest, plan
from repro.experiments.registry import Scenario
from repro.experiments.resilience import (
    Quarantine,
    ResiliencePolicy,
    RunJournal,
    StreamTelemetry,
    execute_stream_resilient,
    load_jsonl_log,
)
from repro.experiments.results import write_jsonl_line
from repro.experiments.sweep import RunSpec
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "ExperimentService",
    "Job",
    "JobStateError",
    "QueueFullError",
    "UnknownJobError",
    "JOB_STATES",
    "TERMINAL_STATES",
]

JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})


class QueueFullError(ReproError):
    """The submission queue is at its configured limit (HTTP 503)."""


class UnknownJobError(ReproError):
    """No job with the requested id exists (HTTP 404)."""


class JobStateError(ReproError):
    """The job is in a state that forbids the operation (HTTP 409)."""


@dataclasses.dataclass
class Job:
    """One submitted request plus its execution state and on-disk home."""

    id: str
    request: JobRequest
    scenario: str
    entry: Scenario
    runs: List[RunSpec]
    directory: str
    state: str = "queued"
    done_runs: int = 0
    error: Optional[str] = None
    telemetry: StreamTelemetry = dataclasses.field(default_factory=StreamTelemetry)
    cancel_event: threading.Event = dataclasses.field(default_factory=threading.Event)
    started_event: threading.Event = dataclasses.field(default_factory=threading.Event)
    finished_event: threading.Event = dataclasses.field(default_factory=threading.Event)

    @property
    def results_path(self) -> str:
        return os.path.join(self.directory, "results.jsonl")

    @property
    def journal_path(self) -> str:
        return os.path.join(self.directory, "journal.jsonl")

    def payload(self) -> Dict[str, Any]:
        """The job's status object as every endpoint renders it."""
        return {
            "id": self.id,
            "state": self.state,
            "kind": self.request.kind,
            "scenario": self.scenario,
            "total": len(self.runs),
            "done": self.done_runs,
            "error": self.error,
            "resilience": {
                "resumed": self.telemetry.resumed,
                **self.telemetry.as_dict(),
            },
        }


class ExperimentService:
    """Job store + scheduler for multi-user submissions.

    ``workers`` is the default per-job executor parallelism (each running
    job starts its own workers for the life of its stream and hands them
    its own planned scenario, so concurrent jobs share no pool and cannot
    see each other's inline specs);
    ``job_concurrency`` is how many jobs execute at once (each on its own
    worker thread).  ``queue_limit`` bounds *queued* (not running) jobs —
    beyond it submissions fail fast with :class:`QueueFullError` instead of
    accepting unbounded backlog.
    """

    def __init__(
        self,
        jobs_dir: str,
        workers: int = 1,
        job_concurrency: int = 1,
        queue_limit: int = 64,
        run_timeout: Optional[float] = None,
        retry: int = 1,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if job_concurrency < 1:
            raise ConfigurationError(
                f"job_concurrency must be >= 1, got {job_concurrency}"
            )
        if queue_limit < 1:
            raise ConfigurationError(
                f"queue_limit must be >= 1, got {queue_limit}"
            )
        self.jobs_dir = jobs_dir
        self.workers = workers
        self.job_concurrency = job_concurrency
        self.queue_limit = queue_limit
        self.run_timeout = run_timeout
        self.retry = retry
        self.metrics = MetricsRegistry()
        self._jobs: "collections.OrderedDict[str, Job]" = collections.OrderedDict()
        self._queue: "collections.deque[Job]" = collections.deque()
        # Re-entrant: metrics refreshes call job_counts() while holding the
        # queue condition, which shares this lock.
        self._lock = threading.RLock()
        self._wake = threading.Condition(self._lock)
        self._threads: List[threading.Thread] = []
        self._stop = False
        self._next_id = 1
        os.makedirs(self.jobs_dir, exist_ok=True)
        self._events_path = os.path.join(self.jobs_dir, "jobs.jsonl")
        self._load()
        self._events = open(self._events_path, "a", encoding="utf-8")

    # -- durability --------------------------------------------------------------

    def _load(self) -> None:
        """Replay the jobs event log; re-enqueue every non-terminal job.

        Each job is re-planned from its request — planning is deterministic,
        so a resumed job executes the same run list in the same order, and
        its run journal replays completed runs without re-executing them.
        The log is read by the run journal's loader: an unfinished final
        line (the previous process died mid-append) is dropped, a damaged
        earlier line refuses the start instead of forgetting what followed.
        """
        if not os.path.exists(self._events_path):
            return
        jobs: "collections.OrderedDict[str, Job]" = collections.OrderedDict()
        for event in load_jsonl_log(self._events_path, "jobs log"):
            if "job" in event:
                record = event["job"]
                request = JobRequest.from_dict(record["request"])
                jobs[record["id"]] = Job(
                    id=record["id"],
                    request=request,
                    directory=os.path.join(self.jobs_dir, record["id"]),
                    **plan(request)._asdict(),
                )
            elif "state" in event:
                record = event["state"]
                job = jobs.get(record["id"])
                if job is not None:
                    job.state = record["state"]
                    job.done_runs = record.get("done", job.done_runs)
                    job.error = record.get("error")
        for job in jobs.values():
            number = int(job.id.rsplit("-", 1)[-1])
            self._next_id = max(self._next_id, number + 1)
            if job.state in TERMINAL_STATES:
                job.started_event.set()
                job.finished_event.set()
            else:
                job.state = "queued"
                job.done_runs = 0
                self._queue.append(job)
                self.metrics.counter("serve.jobs_resumed").inc()
            self._jobs[job.id] = job

    def _log_event(self, event: Dict[str, Any]) -> None:
        self._events.write(json.dumps(event, sort_keys=True) + "\n")
        self._events.flush()
        os.fsync(self._events.fileno())

    def _log_state(self, job: Job) -> None:
        self._log_event({
            "state": {
                "id": job.id,
                "state": job.state,
                "done": job.done_runs,
                "error": job.error,
            }
        })

    # -- submission / queries ----------------------------------------------------

    def submit(self, request: JobRequest) -> Job:
        """Plan (validate, resolve, expand) and enqueue one request."""
        planned = plan(request)
        with self._wake:
            if self._stop:
                raise JobStateError("the service is shutting down")
            if len(self._queue) >= self.queue_limit:
                raise QueueFullError(
                    f"job queue is full ({self.queue_limit} queued); retry later"
                )
            job_id = f"job-{self._next_id:06d}"
            self._next_id += 1
            job = Job(
                id=job_id,
                request=request,
                directory=os.path.join(self.jobs_dir, job_id),
                **planned._asdict(),
            )
            os.makedirs(job.directory, exist_ok=True)
            self._log_event({
                "job": {
                    "id": job.id,
                    "request": request.to_dict(),
                    "scenario": planned.scenario,
                    "total": len(planned.runs),
                }
            })
            self._jobs[job.id] = job
            self._queue.append(job)
            self.metrics.counter("serve.jobs_submitted").inc()
            self._wake.notify()
        return job

    def job(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"unknown job {job_id!r}")
        return job

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def job_counts(self) -> Dict[str, int]:
        counts = {state: 0 for state in JOB_STATES}
        for job in self.jobs():
            counts[job.state] += 1
        return counts

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued job immediately or signal a running one to stop.

        A cancelled sweep keeps its journal: the completed runs stay
        journaled, so resubmitting (or resuming) the job re-streams them
        without re-executing.
        """
        job = self.job(job_id)
        with self._wake:
            if job.state in TERMINAL_STATES:
                raise JobStateError(
                    f"job {job_id!r} is already {job.state}; cannot cancel"
                )
            job.cancel_event.set()
            if job.state == "queued":
                try:
                    self._queue.remove(job)
                except ValueError:
                    pass
                job.state = "cancelled"
                self._log_state(job)
                self.metrics.counter("serve.jobs_cancelled").inc()
                job.started_event.set()
                job.finished_event.set()
        return job

    # -- execution ---------------------------------------------------------------

    def start(self) -> None:
        """Spawn the job worker threads (idempotent)."""
        if self._threads:
            return
        for number in range(self.job_concurrency):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"serve-job-worker-{number}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _worker_loop(self) -> None:
        while True:
            with self._wake:
                while not self._queue and not self._stop:
                    self._wake.wait()
                if self._stop:
                    return
                job = self._queue.popleft()
                if job.cancel_event.is_set() or job.state in TERMINAL_STATES:
                    continue
                job.state = "running"
                self._log_state(job)
                self.metrics.gauge("serve.jobs_running").set(
                    self.job_counts()["running"]
                )
            started = time.monotonic()
            try:
                completed = self._execute(job)
            except Exception as error:  # noqa: BLE001 - job isolation boundary
                with self._wake:
                    job.state = "failed"
                    job.error = f"{type(error).__name__}: {error}"
                    self._log_state(job)
                    self.metrics.counter("serve.jobs_failed").inc()
            else:
                with self._wake:
                    if job.cancel_event.is_set() and not completed:
                        job.state = "cancelled"
                        self._log_state(job)
                        self.metrics.counter("serve.jobs_cancelled").inc()
                    elif self._stop and not completed:
                        # Graceful shutdown mid-job: leave the state
                        # "running" with no terminal event so a restarted
                        # service re-enqueues and resumes it.
                        pass
                    else:
                        job.state = "done"
                        self._log_state(job)
                        self.metrics.counter("serve.jobs_completed").inc()
            finally:
                with self._lock:
                    self.metrics.histogram("serve.job_wall_seconds").observe(
                        time.monotonic() - started
                    )
                    self.metrics.gauge("serve.jobs_running").set(
                        self.job_counts()["running"]
                    )
                job.started_event.set()
                job.finished_event.set()

    def _execute(self, job: Job) -> bool:
        """Run one job through the resilient executor; True iff it completed.

        ``results.jsonl`` is rewritten from scratch on every execution; with
        the run journal replaying completed runs first in input order, a
        resumed single-worker job produces the same bytes an uninterrupted
        one would.
        """
        request = job.request
        policy = ResiliencePolicy(
            run_timeout=(
                request.run_timeout
                if request.run_timeout is not None
                else self.run_timeout
            ),
            max_attempts=request.retry if request.retry is not None else self.retry,
        )
        workers = request.workers if request.workers is not None else self.workers
        journal = RunJournal(
            job.journal_path,
            header={
                "kind": "serve-job",
                "version": 1,
                "id": job.id,
                "scenario": job.scenario,
                "request": request.to_dict(),
            },
            resume=True,
        )
        quarantine = Quarantine(job.journal_path + ".quarantine.jsonl")
        completed = False
        with closing(journal), closing(quarantine):
            stream = execute_stream_resilient(
                job.runs,
                workers=workers,
                capture_errors=True,
                policy=policy,
                journal=journal,
                quarantine=quarantine,
                telemetry=job.telemetry,
                entry=job.entry,
            )
            with open(job.results_path, "w", encoding="utf-8") as handle:
                job.started_event.set()
                with closing(stream):
                    for _, result in stream:
                        write_jsonl_line(result, handle)
                        job.done_runs += 1
                        self.metrics.counter("serve.runs_completed").inc()
                        if job.cancel_event.is_set() or self._stop:
                            break
            if job.done_runs >= len(job.runs):
                completed = True
                journal.record_summary({
                    "summary": {
                        "id": job.id,
                        "total": len(job.runs),
                        "resilience": job.telemetry.as_dict(),
                    }
                })
        return completed

    # -- results streaming -------------------------------------------------------

    def stream_results(self, job_id: str) -> Iterator[bytes]:
        """Yield a job's results.jsonl incrementally until the job finishes.

        Chunks are raw file bytes — the HTTP layer forwards them as a
        chunked ``application/x-ndjson`` body, so what a client receives is
        exactly what :func:`~repro.experiments.results.write_jsonl_line`
        wrote.  For a finished job this just streams the file.
        """
        job = self.job(job_id)
        while not job.started_event.wait(0.05):
            if job.finished_event.is_set():
                break
        if not os.path.exists(job.results_path):
            return
        with open(job.results_path, "rb") as handle:
            while True:
                chunk = handle.read(65536)
                if chunk:
                    yield chunk
                    continue
                if job.finished_event.is_set():
                    tail = handle.read()
                    if tail:
                        yield tail
                    return
                job.finished_event.wait(0.05)

    # -- metrics -----------------------------------------------------------------

    def metrics_payload(self) -> Dict[str, Any]:
        """The obs registry snapshot with queue/state gauges refreshed."""
        counts = self.job_counts()
        with self._lock:
            depth = len(self._queue)
        self.metrics.gauge("serve.queue_depth").set(depth)
        for state in JOB_STATES:
            self.metrics.gauge(f"serve.jobs_{state}").set(counts[state])
        return self.metrics.as_dict()

    # -- lifecycle ---------------------------------------------------------------

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop accepting and executing; leave running jobs resumable.

        In-flight jobs notice ``_stop`` after their current run, keep their
        journal, and are re-enqueued by the next service constructed on the
        same jobs directory.
        """
        with self._wake:
            self._stop = True
            self._wake.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []
        self._events.close()
