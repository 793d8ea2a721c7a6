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

A job thread simulates nothing: it journals, writes and logs, and the runs
(planned at submission) execute on the :class:`~repro.experiments.executor.WorkerPool`
the thread was given in :meth:`ExperimentService.start` — worker processes
that outlive every job, so ``job_concurrency`` jobs simulate at once instead
of taking turns at one interpreter lock.

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
from typing import Any, Dict, Iterator, List, Optional, TextIO

from repro.errors import ConfigurationError, ReproError
from repro.experiments.executor import WorkerPool, execute_stream
from repro.experiments.plan import JobRequest, Plan, plan
from repro.experiments.registry import Scenario, scenario_names
from repro.experiments.resilience import (
    Quarantine,
    ResiliencePolicy,
    RunJournal,
    StreamTelemetry,
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
    """One submitted request plus its execution state and on-disk home.

    Plain data: every change of ``state``, ``done_runs`` and
    ``cancel_requested`` is made under the service's condition, which is what
    :meth:`ExperimentService.wait` and result readers sleep on.  ``entry`` and
    ``runs`` are what is left to execute, so a terminal job holds neither.
    """

    id: str
    request: JobRequest
    scenario: str
    entry: Optional[Scenario]
    runs: Optional[List[RunSpec]]
    total: int
    directory: str
    state: str = "queued"
    done_runs: int = 0
    error: Optional[str] = None
    cancel_requested: bool = False
    telemetry: StreamTelemetry = dataclasses.field(default_factory=StreamTelemetry)

    @classmethod
    def planned(cls, job_id: str, request: JobRequest, planned: Plan,
                jobs_dir: str) -> "Job":
        return cls(
            id=job_id, request=request, scenario=planned.scenario,
            entry=planned.entry, runs=planned.runs, total=len(planned.runs),
            directory=os.path.join(jobs_dir, job_id),
        )

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
            "total": self.total,
            "done": self.done_runs,
            "error": self.error,
            "resilience": {
                "resumed": self.telemetry.resumed,
                **self.telemetry.as_dict(),
            },
        }


class ExperimentService:
    """Job store + scheduler for multi-user submissions.

    ``job_concurrency`` is how many jobs execute at once: each job thread
    owns a pool of worker processes from :meth:`start` to :meth:`shutdown`
    and every job it takes simulates there.  ``workers`` is the default
    per-job executor parallelism, i.e. how many of the thread's workers one
    job's runs spread over (the pool grows to the widest job it has served).
    A job hands the workers its own planned scenario at the head of its
    stream, so no job can see another's inline spec — not even the next job
    on the same worker.  ``queue_limit`` bounds *queued* (not running) jobs —
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
        #: Notified (all waiters: job threads, result readers, ``wait``) on
        #: every submission, result, state change and at shutdown.
        self._wake = threading.Condition(self._lock)
        self._threads: List[threading.Thread] = []
        self._pools: List[WorkerPool] = []
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
                jobs[record["id"]] = Job.planned(
                    record["id"], request, plan(request), self.jobs_dir
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
                job.entry = job.runs = None
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

    def _set_state(self, job: Job, state: str, outcome: Optional[str] = None,
                   error: Optional[str] = None) -> None:
        """Move ``job`` to ``state`` (caller holds the condition): logged,
        counted as ``serve.jobs_<outcome>`` and announced to every waiter."""
        job.state = state
        job.error = error
        if state in TERMINAL_STATES:
            job.entry = job.runs = None
        self._log_state(job)
        if outcome is not None:
            self.metrics.counter(f"serve.jobs_{outcome}").inc()
        self._wake.notify_all()

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
            job = Job.planned(job_id, request, planned, self.jobs_dir)
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
            self._wake.notify_all()
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
            job.cancel_requested = True
            if job.state == "queued":
                try:
                    self._queue.remove(job)
                except ValueError:
                    pass
                self._set_state(job, "cancelled", "cancelled")
        return job

    def _settled(self, job: Job) -> bool:
        """Nothing more will happen to ``job`` in this service: it is
        terminal, or the service has shut down (the job stays resumable)."""
        return job.state in TERMINAL_STATES or (self._stop and not self._threads)

    def wait(self, job: Job, timeout: Optional[float] = None) -> bool:
        """Block until ``job`` is terminal or the service has shut down;
        False if ``timeout`` seconds pass first."""
        with self._wake:
            return self._wake.wait_for(lambda: self._settled(job), timeout)

    # -- execution ---------------------------------------------------------------

    def start(self) -> None:
        """Start each job thread's worker pool, then the threads (idempotent).

        The first worker of every pool is forked here, on the calling thread,
        before any job thread exists — and :func:`repro.serve.app.serve` calls
        this before it binds its socket and starts handler threads: a forked
        child of a threaded process inherits locks in whatever state they
        were in, and everything it inherits it must close again.
        """
        if self._threads:
            return
        # Loaded before the fork: every worker starts with the catalogue its
        # jobs name instead of importing it again on its first run.
        scenario_names()
        self._pools = [WorkerPool(1) for _ in range(self.job_concurrency)]
        for number, pool in enumerate(self._pools):
            thread = threading.Thread(
                target=self._worker_loop,
                args=(pool,),
                name=f"serve-job-worker-{number}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _worker_loop(self, pool: WorkerPool) -> None:
        while True:
            with self._wake:
                while not self._queue and not self._stop:
                    self._wake.wait()
                if self._stop:
                    return
                job = self._queue.popleft()
                if job.cancel_requested or job.state in TERMINAL_STATES:
                    continue
                # Truncated before the state says "running": a reader that
                # sees the state finds this execution's file, not the last's.
                handle = open(job.results_path, "w", encoding="utf-8")
                self._set_state(job, "running")
                self.metrics.gauge("serve.jobs_running").set(
                    self.job_counts()["running"]
                )
            started = time.monotonic()
            try:
                with handle:
                    completed = self._execute(job, pool, handle)
            except Exception as error:  # noqa: BLE001 - job isolation boundary
                with self._wake:
                    self._set_state(
                        job, "failed", "failed", f"{type(error).__name__}: {error}"
                    )
            else:
                with self._wake:
                    if job.cancel_requested and not completed:
                        self._set_state(job, "cancelled", "cancelled")
                    elif completed:
                        self._set_state(job, "done", "completed")
                    # else a graceful shutdown mid-job: the state stays
                    # "running" with no terminal event, so a restarted
                    # service re-enqueues and resumes it.
            finally:
                with self._lock:
                    self.metrics.histogram("serve.job_wall_seconds").observe(
                        time.monotonic() - started
                    )
                    self.metrics.gauge("serve.jobs_running").set(
                        self.job_counts()["running"]
                    )

    def _execute(self, job: Job, pool: WorkerPool, handle: TextIO) -> bool:
        """Run one job through the executor's stream on the thread's
        ``pool``, one flushed line of ``handle`` (the job's ``results.jsonl``)
        per result; True iff it completed.

        ``results.jsonl`` is rewritten from scratch on every execution; with
        the run journal replaying completed runs first in input order, a
        resumed single-worker job produces the same bytes an uninterrupted
        one would.
        """
        request = job.request
        assert job.runs is not None  # only a terminal job has dropped them
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
        with closing(journal), closing(quarantine):
            stream = execute_stream(
                job.runs,
                workers=workers,
                capture_errors=True,
                policy=policy,
                journal=journal,
                quarantine=quarantine,
                telemetry=job.telemetry,
                entry=job.entry,
                pool=pool,
            )
            with closing(stream):
                for _, result in stream:
                    write_jsonl_line(result, handle)
                    handle.flush()
                    self.metrics.counter("serve.runs_completed").inc()
                    with self._wake:
                        job.done_runs += 1
                        self._wake.notify_all()
                    if job.cancel_requested or self._stop:
                        break
            completed = job.done_runs >= job.total
            if completed:
                journal.record_summary({
                    "id": job.id,
                    "total": job.total,
                    "resilience": job.telemetry.as_dict(),
                })
        return completed

    # -- results streaming -------------------------------------------------------

    def stream_results(self, job_id: str) -> Iterator[bytes]:
        """Yield a job's results.jsonl incrementally until the job finishes.

        Chunks are raw file bytes — the HTTP layer forwards them as a
        chunked ``application/x-ndjson`` body, so what a client receives is
        exactly what :func:`~repro.experiments.results.write_jsonl_line`
        wrote, each line as soon as its run has finished.  An empty chunk
        carries no bytes: it says the stream is about to wait for the job,
        so a transport that holds chunks back should send them now.  For a
        finished job this just streams the file.
        """
        job = self.job(job_id)
        with self._wake:
            self._wake.wait_for(
                lambda: job.state != "queued" or self._settled(job)
            )
        if not os.path.exists(job.results_path):
            return
        with open(job.results_path, "rb") as handle:
            while True:
                # Read before the file is: a line is flushed before it is
                # counted, and the last one before the job settles.
                with self._wake:
                    seen, settled = job.done_runs, self._settled(job)
                chunk = handle.read(65536)
                if chunk:
                    yield chunk
                elif settled:
                    return
                else:
                    yield b""
                    with self._wake:
                        self._wake.wait_for(
                            lambda: job.done_runs != seen or self._settled(job)
                        )

    # -- metrics -----------------------------------------------------------------

    def metrics_payload(self) -> Dict[str, Any]:
        """The obs registry snapshot with queue/state gauges refreshed."""
        counts = self.job_counts()
        with self._lock:
            depth = len(self._queue)
        self.metrics.gauge("serve.queue_depth").set(depth)
        for state in JOB_STATES:
            self.metrics.gauge(f"serve.jobs_{state}").set(counts[state])
        with self._lock:
            pools = list(self._pools)
            starts = self.metrics.counter("serve.worker_starts")
            starts.inc(sum(pool.starts for pool in pools) - starts.value)
        self.metrics.gauge("serve.workers_alive").set(
            sum(pool.alive() for pool in pools)
        )
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
        for thread, pool in zip(self._threads, self._pools):
            thread.join(timeout=timeout)
            if not thread.is_alive():  # else still driving it: dies with us
                pool.close()
        with self._wake:
            self._threads = []
            self._wake.notify_all()
        self._events.close()
