"""Execution of run specs: in-process, or on a pool of worker processes.

Every run is deterministic in *virtual* time (the simulation kernel is a
seeded, single-threaded event queue), so fanning runs out across worker
processes changes wall-clock time only: the results are bit-identical to a
serial execution regardless of scheduling.  That property is what makes
parallel execution safe for paper-style sweeps — and it is asserted by the
test-suite.

Two consumption styles:

* :func:`execute_many` — returns the full result list in the order of its
  ``runs`` argument, for any worker count.
* :func:`execute_stream` — a generator yielding ``(index, result)`` pairs in
  *completion* order, calling an optional ``progress(done, total)`` after
  each run.  Long sweeps stream into chunked sinks without holding every
  result in memory, and the index lets order-sensitive consumers reassemble
  the input order.  It is the one loop over :func:`dispatch`: given a
  journal (:class:`repro.experiments.resilience.RunJournal`) it replays the
  runs that journal holds and journals the rest as they land, given a
  quarantine it records the runs whose worker died on every attempt.

Both end in :func:`dispatch`, under the inert :class:`ResiliencePolicy` ("no
deadline, one attempt") unless a stream is handed another: in-process when
``workers == 1``, otherwise on a :class:`WorkerPool` of pipe-managed worker
processes.  A pool lives as long as its owner: ``dispatch`` owns the one it
starts for a stream and closes it with the stream — a closed stream leaves no
process behind — while a caller that passes its own ``pool`` (``repro
serve`` keeps one per job thread) gets it back running.  The pool kills a
run that hangs past its deadline and outlives a worker that dies, so it
never hangs on one.
:mod:`repro.experiments.resilience` holds what outlasts the process: the
journal, the quarantine sidecar and graceful interruption.

Every entry point takes an optional ``entry`` — the planned scenario of
:func:`repro.experiments.plan.plan` — that executes the runs naming it in
place of a registry lookup; it reaches a worker process in the message at the
head of the stream, so an unregistered inline spec runs under any start
method and on a worker that was started before the spec existed.
"""

from __future__ import annotations

import heapq
import os
import signal
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.errors import ConfigurationError, ReproError, WorkerError
from repro.experiments.registry import Scenario, get_scenario
from repro.experiments.sections import POSITIVE, SpecSection, at_least
from repro.experiments.sweep import RunSpec
from repro.obs.observer import current_observer, install_observer

if TYPE_CHECKING:  # annotations only: `run` must not load the journal
    from repro.experiments.resilience import Quarantine, RunJournal

__all__ = [
    "ResiliencePolicy",
    "RunResult",
    "StreamTelemetry",
    "WorkerPool",
    "dispatch",
    "execute_run",
    "execute_run_captured",
    "execute_many",
    "execute_stream",
    "forks_workers",
    "journalable",
    "run_with_stable_stack",
    "shutdown_pool",
]

ProgressCallback = Callable[[int, int], None]


@dataclass(frozen=True)
class RunResult:
    """The outcome of one run: the spec that produced it plus its result dict."""

    scenario: str
    params: Tuple[Tuple[str, Any], ...]
    result: Dict[str, Any]

    @property
    def run_id(self) -> str:
        """The stable identifier of the run that produced this result."""
        return RunSpec(self.scenario, self.params).run_id


def execute_run(run: RunSpec, entry: Optional[Scenario] = None) -> RunResult:
    """Execute ``run`` on ``entry`` if that is the scenario it names, else on
    the registry's scenario of that name."""
    if entry is None or entry.name != run.scenario:
        entry = get_scenario(run.scenario)
    result = entry.execute(run.params_dict)
    return RunResult(scenario=run.scenario, params=run.params, result=result)


def _error_result(run: RunSpec, error: Dict[str, Any]) -> RunResult:
    """A failing run as a result: the one ``{"error": ...}`` shape."""
    return RunResult(
        scenario=run.scenario,
        params=run.params,
        result={"scenario": run.scenario, "error": error},
    )


def execute_run_captured(
    run: RunSpec, entry: Optional[Scenario] = None
) -> RunResult:
    """Like :func:`execute_run`, but a failing run *is* a result.

    Any :class:`~repro.errors.ReproError` the run raises — a deadlocked
    kernel after crashing beyond ``f``, a timeout, a configuration the
    builder rejects — comes back as ``{"error": {"type", "message"}}``
    instead of propagating.  Chaos campaigns deliberately sample
    configurations that kill the run; with plain :func:`execute_run` the
    first such run would tear down the whole stream.
    The captured dict is deterministic (exception type and message only),
    so campaign reports stay byte-identical across serial and parallel
    execution.

    Non-:class:`~repro.errors.ReproError` exceptions are captured too —
    a ``RecursionError`` from an LHS-sampled config is a finding, not a
    reason to lose the campaign — but marked ``"unexpected": true`` so
    oracles and readers can tell a library-diagnosed failure from a bug
    the library never anticipated.  ``KeyboardInterrupt``/``SystemExit``
    (and other ``BaseException``\\ s) still propagate.
    """
    try:
        return execute_run(run, entry)
    except ReproError as error:
        return _error_result(
            run, {"type": type(error).__name__, "message": str(error)}
        )
    except Exception as error:
        return _error_result(run, {
            "type": type(error).__name__,
            "message": str(error),
            "unexpected": True,
        })


#: Python recursion limit inside stable-stack threads: the CPython default,
#: pinned so an embedder's own limit cannot move the abort point either.
_STABLE_STACK_LIMIT = 1000


def run_with_stable_stack(fn: Callable[..., Any], *args: Any) -> Any:
    """Call ``fn(*args)`` on a fresh thread with a pinned recursion limit.

    A run that recurses to the interpreter's limit (the documented
    weight-gain refresh churn does, under sustained transfer load) aborts at
    a depth that depends on how deep the *caller's* stack already is — so
    the same run produces a longer trace at the REPL top level than inside
    a worker process or a test harness.  Results are unaffected (the abort
    lands in the post-report settle phase), but byte-identical *traces*
    across serial/parallel execution need a stable starting depth.  A fresh
    thread starts from a constant base depth, and pinning the recursion
    limit removes the embedder's ``sys.setrecursionlimit`` as a variable.
    Exceptions propagate unchanged, and the hop carries the caller's ambient
    observer (per-thread: the fresh thread would start with none).
    """
    box: List[Any] = []
    error: List[BaseException] = []
    observer = current_observer()

    def target() -> None:
        # Installed here rather than by a wrapper around ``fn``: a frame
        # between ``target`` and ``fn`` moves where recursion-limited runs die.
        install_observer(observer)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_STABLE_STACK_LIMIT)
        try:
            box.append(fn(*args))
        except BaseException as exc:  # re-raised on the calling thread
            error.append(exc)
        finally:
            sys.setrecursionlimit(limit)

    thread = threading.Thread(target=target, name="repro-stable-stack")
    thread.start()
    thread.join()
    if error:
        raise error.pop()  # left in the list, it and its traceback are a cycle
    return box[0]


def _execute(
    index: int, run: RunSpec, entry: Optional[Scenario], capture_errors: bool,
    around: Optional[Callable[..., RunResult]],
) -> RunResult:
    """One task under the stream's settings — in-process and in a worker."""
    execute = execute_run_captured if capture_errors else execute_run
    if around is None:
        return execute(run, entry)
    return around(execute, index, run, entry)


def shutdown_pool() -> None:
    """No-op (a pool is closed by its owner, and no module owns one), kept
    only because the frozen ``benchmarks/perf`` calls it between repetitions."""


# ---------------------------------------------------------------------------
# Policy and telemetry of one stream
# ---------------------------------------------------------------------------


#: Seconds before the ``k``-th retry of a run whose worker died (pacing only,
#: results are unaffected): ``BACKOFF_BASE * BACKOFF_FACTOR**(k-1)``, capped.
BACKOFF_BASE = 0.05
BACKOFF_FACTOR = 2.0
BACKOFF_MAX = 2.0


@dataclass(frozen=True)
class ResiliencePolicy(SpecSection):
    """Watchdog and retry knobs for one execution stream.

    The default policy is inert — no deadline, one attempt — and is what
    :func:`execute_stream` runs under unless handed another.
    ``run_timeout`` is *wall-clock* seconds per run; ``max_attempts`` counts
    total dispatches of one run across worker deaths.
    """

    run_timeout: Optional[float] = None
    max_attempts: int = 1

    _bounds = {"run_timeout": POSITIVE, "max_attempts": at_least(1)}

    @property
    def needs_pool(self) -> bool:
        """Whether the policy needs worker processes even at ``workers=1``
        (only a separate process can be killed at a deadline or outlived)."""
        return self.run_timeout is not None or self.max_attempts > 1

    def backoff(self, attempt: int) -> float:
        """Seconds to wait before re-dispatching after ``attempt`` failures."""
        return min(BACKOFF_BASE * BACKOFF_FACTOR ** max(0, attempt - 1), BACKOFF_MAX)

    def as_dict(self) -> Dict[str, Any]:
        """The policy knobs for report metadata (deterministic)."""
        return {"run_timeout": self.run_timeout,
                "max_attempts": self.max_attempts}


@dataclass
class StreamTelemetry:
    """Counters a stream accumulates, for progress lines and report
    metadata.

    ``resumed`` is deliberately excluded from :meth:`as_dict`: a resumed run
    and an uninterrupted run must produce byte-identical reports, and only
    the former has a nonzero resumed count.  It still shows in
    :meth:`suffix` (stderr is not part of the report).
    """

    resumed: int = 0
    retries: int = 0
    timeouts: int = 0
    quarantined: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {"retries": self.retries, "timeouts": self.timeouts,
                "quarantined": self.quarantined}

    def suffix(self) -> str:
        """A progress-line suffix like `` (resumed 3, retries 1)``; empty
        while every counter is zero, so undegraded output is unchanged."""
        parts = [f"{name} {value}" for name, value in (
            ("resumed", self.resumed), ("retries", self.retries),
            ("timeouts", self.timeouts), ("quarantined", self.quarantined),
        ) if value]
        return f" ({', '.join(parts)})" if parts else ""


def forks_workers(workers: int, policy: ResiliencePolicy) -> bool:
    """Whether a stream with these inputs, handed no pool, starts worker
    processes of its own (the one selection :func:`dispatch` makes; a stream
    that is handed a pool executes on it whatever its inputs)."""
    return workers > 1 or policy.needs_pool


# ---------------------------------------------------------------------------
# The worker pool
# ---------------------------------------------------------------------------


def _pool_context() -> Any:
    # fork inherits the already-populated registry; spawn re-imports only the
    # catalogue family of the scenario it runs (the registry's lazy loader),
    # so there a scenario registered at runtime must travel as the stream's
    # ``entry``.
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class _StreamSettings(NamedTuple):
    """What every task of one stream executes under (:func:`_execute`'s
    trailing arguments): the message at the head of the stream."""

    entry: Optional[Scenario]
    capture_errors: bool
    around: Optional[Callable[..., RunResult]]


def _close_inherited_descriptors(conn: Any) -> None:
    """Close every descriptor a forked worker inherited but its pipe's and
    the standard streams'.

    A worker needs its own pipe and nothing else of its parent's.  Holding
    the rest is harmful twice over: a copy of a sibling's pipe keeps that
    sibling from ever reading EOF when the parent is SIGKILLed, and a copy of
    a server's listening socket keeps the port bound after the server died.
    """
    kept = {0, 1, 2, conn.fileno()}
    for stream in (sys.stdout, sys.stderr):  # redirected by an embedder
        try:
            kept.add(stream.fileno())
        except (AttributeError, OSError, ValueError):
            pass
    try:
        inherited = [int(name) for name in os.listdir("/dev/fd")]
    except (OSError, ValueError):
        inherited = list(range(3, os.sysconf("SC_OPEN_MAX")))
    for descriptor in inherited:
        if descriptor not in kept:
            try:
                os.close(descriptor)
            except OSError:  # the listing's own descriptor, already closed
                pass


def _worker_main(conn: Any, forked: bool) -> None:
    """Worker loop: receive ``(index, run)`` tasks, send back results of
    :func:`_execute` under the :class:`_StreamSettings` received last.

    Runs until the parent closes the pipe, sends ``None`` or dies — no other
    process holds the parent's end (see :func:`_close_inherited_descriptors`;
    a spawned worker inherits nothing), so a SIGKILLed parent is an EOF here.
    Exceptions a run raises are shipped back as pickled objects when possible
    (so the parent re-raises the original type) and as ``(name, text)``
    otherwise.
    """
    # A terminal's Ctrl-C reaches the whole process group.  It is the owner's
    # to handle — interrupted, it stops its workers, busy ones by force; a
    # worker interrupted on its own would fail a run that did nothing wrong.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if forked:
        _close_inherited_descriptors(conn)
    settings: Tuple[Any, ...] = ()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        if isinstance(message, _StreamSettings):
            settings = message
            continue
        index = message[0]
        try:
            reply: Tuple[Any, ...] = ("ok", index, _execute(*message, *settings))
        except BaseException as exc:  # shipped to the parent, never lost
            reply = ("raise", index, exc)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return
        except Exception:  # the exception object itself did not pickle
            exc = reply[2]
            conn.send(("raise-text", index, type(exc).__name__, str(exc)))


class _PoolWorker:
    """One kill-capable worker process plus its duplex pipe and state."""

    def __init__(self) -> None:
        ctx = _pool_context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.conn = parent_conn
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, ctx.get_start_method() == "fork"),
            daemon=True, name="repro-worker",
        )
        self.process.start()
        child_conn.close()
        self.settings: Optional[_StreamSettings] = None
        self.task: Optional[Tuple[int, RunSpec]] = None
        self.deadline: Optional[float] = None

    def assign(self, task: Tuple[int, RunSpec], settings: _StreamSettings,
               run_timeout: Optional[float]) -> None:
        if self.settings is not settings:  # this stream's first task here
            self.conn.send(settings)
            self.settings = settings
        self.conn.send(task)
        self.task = task
        self.deadline = (
            time.monotonic() + run_timeout if run_timeout is not None else None
        )

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.kill()
        self.process.join()
        self.process.close()
        self.conn.close()

    def stop(self) -> None:
        """Polite shutdown for idle workers; kill() for busy/hung ones."""
        if self.task is not None:
            self.kill()
            return
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=5.0)
        self.kill()


class WorkerPool:
    """Worker processes that live as long as their owner keeps the pool.

    :func:`dispatch` grows a pool to the stream's ``workers``, respawns a
    worker that died or was killed at its deadline, and leaves a pool it was
    handed running, every worker idle; the owner closes it — ``with
    WorkerPool() as pool`` or :meth:`close`.  A worker is bound to no stream:
    each stream's settings reach it in one message ahead of that stream's
    first task.  One thread drives a pool; :attr:`starts` and :meth:`alive`
    may be read from any.
    """

    def __init__(self, workers: int = 0) -> None:
        #: Processes started over the pool's life (first starts and respawns).
        self.starts = 0
        self.workers: List[_PoolWorker] = []
        self._lock = threading.Lock()
        self.grow(workers)

    def grow(self, size: int) -> None:
        """Start workers until there are ``size`` (never stops any)."""
        with self._lock:
            while len(self.workers) < size:
                self._start(len(self.workers))

    def respawn(self, worker: _PoolWorker) -> _PoolWorker:
        """Kill ``worker`` (dead already, hung or abandoned mid-run) and
        start the one that takes its place."""
        with self._lock:
            worker.kill()
            return self._start(self.workers.index(worker))

    def _start(self, position: int) -> _PoolWorker:
        worker = _PoolWorker()
        self.workers[position:position + 1] = [worker]
        self.starts += 1
        return worker

    def alive(self) -> int:
        """How many of the pool's worker processes are running."""
        with self._lock:
            return sum(worker.process.is_alive() for worker in self.workers)

    def close(self) -> None:
        """Stop every worker: the pool's processes and pipes are gone."""
        with self._lock:
            workers, self.workers = self.workers, []
            for worker in workers:
                worker.stop()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _watchdog_result(run: RunSpec, run_timeout: float) -> RunResult:
    # Deterministic fields only: the configured timeout, not the measured
    # wall time, so journaled/reported bytes are stable.
    return _error_result(run, {
        "type": "WatchdogTimeout",
        "message": (f"run exceeded the per-run watchdog timeout "
                    f"({run_timeout:g}s wall-clock) and was killed"),
        "run_timeout": run_timeout,
    })


def _quarantine_result(run: RunSpec, attempts: int) -> RunResult:
    return _error_result(run, {
        "type": "WorkerCrashed",
        "message": (f"worker process died executing this run "
                    f"{attempts} time(s); configuration quarantined"),
        "attempts": attempts,
        "quarantined": True,
    })


def dispatch(
    pending: List[Tuple[int, RunSpec]],
    workers: int,
    capture_errors: bool,
    policy: ResiliencePolicy,
    telemetry: StreamTelemetry,
    entry: Optional[Scenario] = None,
    around: Optional[Callable[..., RunResult]] = None,
    pool: Optional[WorkerPool] = None,
) -> Iterator[Tuple[int, RunResult]]:
    """Execute ``pending`` ``(index, run)`` pairs; yield ``(index, result)``.

    On ``workers`` processes of ``pool`` when one is given — grown to that
    many if it has fewer, and left running with every worker idle.  Given
    none: in-process and in input order unless :func:`forks_workers`,
    otherwise on a pool that lives exactly as long as this generator.  On
    worker processes results come in completion order (input order on one).
    Every index is yielded exactly once: as its result, as a
    ``WatchdogTimeout`` error (hung past ``policy.run_timeout``) or as a
    ``WorkerCrashed`` error (worker died ``policy.max_attempts`` times).
    Worker deaths re-dispatch the lost run after an exponential backoff; the
    pool respawns workers as needed and the stream keeps draining throughout.

    With ``capture_errors`` a run that raises is a result, not the end of the
    stream (:func:`execute_run_captured`).  ``around`` names what the stream
    applies to each run where it executes: ``around(execute, index, run,
    entry)`` — ``execute(run, entry)`` being the run — returns the run's
    result, all that crosses the worker pipe.  It reaches a worker pickled,
    beside ``entry``, in the message at the head of the stream: a
    module-level callable, not a closure.  The watchdog and crash results are
    the parent's and never pass through it.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    settings = _StreamSettings(entry, capture_errors, around)
    if pool is None and not forks_workers(workers, policy):
        for index, run in pending:
            yield index, _execute(index, run, *settings)
        return
    # Imported here, by the parent, before the first worker starts: the
    # serial path never pays for multiprocessing (socket, selectors, pickle,
    # subprocess), and a forked worker never imports what its parent skipped.
    from multiprocessing import connection

    queue: deque = deque(pending)
    waiting: List[Tuple[float, int, RunSpec]] = []  # (ready_at, index, run)
    attempts: Dict[int, int] = {}
    owned = pool is None
    if pool is None:
        pool = WorkerPool()
    size = min(workers, len(pending))
    pool.grow(size)
    crew = pool.workers[:size]

    def respawn(worker: _PoolWorker) -> None:
        crew[crew.index(worker)] = pool.respawn(worker)

    def fail(worker: _PoolWorker) -> Iterator[Tuple[int, RunResult]]:
        """Handle a dead worker: respawn it, retry or quarantine its run."""
        index, run = worker.task  # type: ignore[misc]
        respawn(worker)
        made = attempts.get(index, 0) + 1
        attempts[index] = made
        if made >= policy.max_attempts:
            telemetry.quarantined += 1
            yield index, _quarantine_result(run, made)
        else:
            telemetry.retries += 1
            heapq.heappush(
                waiting, (time.monotonic() + policy.backoff(made), index, run)
            )

    try:
        while queue or waiting or any(w.task is not None for w in crew):
            now = time.monotonic()
            while waiting and waiting[0][0] <= now:
                _, index, run = heapq.heappop(waiting)
                queue.append((index, run))
            for worker in crew:
                if worker.task is None and queue:
                    task = queue.popleft()
                    try:
                        worker.assign(task, settings, policy.run_timeout)
                    except (BrokenPipeError, OSError):
                        # Found dead at assignment (died after its last
                        # result): respawn and requeue, not an attempt.
                        respawn(worker)
                        queue.appendleft(task)

            busy = {worker.conn: worker for worker in crew
                    if worker.task is not None}
            if not busy:
                if waiting:
                    time.sleep(
                        max(0.0, min(waiting[0][0] - time.monotonic(), 0.05))
                    )
                continue
            tick = 0.1
            deadlines = [w.deadline for w in busy.values()
                         if w.deadline is not None]
            if deadlines:
                tick = min(tick, max(0.0, min(deadlines) - time.monotonic()))
            if waiting:
                tick = min(tick, max(0.0, waiting[0][0] - time.monotonic()))
            for conn in connection.wait(list(busy), timeout=tick):
                worker = busy[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    yield from fail(worker)
                    continue
                worker.task = None
                worker.deadline = None
                if message[0] == "ok":
                    yield message[1], message[2]
                elif message[0] == "raise":
                    raise message[2]
                else:  # "raise-text": the original exception did not pickle
                    raise WorkerError(f"{message[2]}: {message[3]}")
            now = time.monotonic()
            for worker in list(crew):
                if (worker.task is not None and worker.deadline is not None
                        and now >= worker.deadline):
                    index, run = worker.task
                    respawn(worker)
                    telemetry.timeouts += 1
                    yield index, _watchdog_result(run, policy.run_timeout)
    finally:
        if owned:
            pool.close()
        else:
            # A stream abandoned mid-run leaves its owner an idle pool.
            for worker in crew:
                if worker.task is not None:
                    pool.respawn(worker)


def execute_stream(
    runs: Iterable[RunSpec],
    workers: int = 1,
    progress: Optional[ProgressCallback] = None,
    entry: Optional[Scenario] = None,
    capture_errors: bool = False,
    policy: Optional[ResiliencePolicy] = None,
    journal: Optional[RunJournal] = None,
    quarantine: Optional[Quarantine] = None,
    telemetry: Optional[StreamTelemetry] = None,
    around: Optional[Callable[..., RunResult]] = None,
    pool: Optional[WorkerPool] = None,
) -> Iterator[Tuple[int, RunResult]]:
    """Yield ``(input_index, result)`` pairs as runs complete.

    Runs ``journal`` already holds come first, in input order, without
    executing (``telemetry.resumed`` counts them); the rest go to
    :func:`dispatch` under ``policy`` (the inert one by default) with
    ``capture_errors``, ``entry``, ``around`` and ``pool`` passed through.
    Serial execution (``workers=1``) yields them in input order, parallel
    execution in completion order.  Every fresh result that is
    :func:`journalable` is appended to ``journal`` as it lands; a run whose
    worker died on every attempt yields a ``WorkerCrashed`` error result
    (recorded in ``quarantine``) and the stream keeps draining.  Every input
    index appears exactly once, and ``progress`` (if given) is called with
    ``(completed, total)`` after each, replayed or fresh, so sinks and
    reports reassemble identically however often an execution was resumed.
    """
    policy = policy or ResiliencePolicy()
    policy.validate()
    telemetry = telemetry if telemetry is not None else StreamTelemetry()
    run_list = list(runs)
    done = 0

    def tick() -> None:
        nonlocal done
        done += 1
        if progress is not None:
            progress(done, len(run_list))

    pending: List[Tuple[int, RunSpec]] = []
    for index, run in enumerate(run_list):
        result = journal.replay(run) if journal is not None else None
        if result is None:
            pending.append((index, run))
            continue
        telemetry.resumed += 1
        tick()
        yield index, result
    for index, result in dispatch(
        pending, workers, capture_errors, policy, telemetry, entry, around, pool,
    ):
        if journalable(result):
            if journal is not None:
                journal.record_run(index, run_list[index], result)
        elif quarantine is not None and result.result["error"].get("quarantined"):
            error = result.result["error"]
            quarantine.record(index, run_list[index], error["attempts"], error)
        tick()
        yield index, result


def journalable(result: RunResult) -> bool:
    """Whether a result should mark its config completed in the journal.

    Watchdog timeouts and quarantined worker deaths are wall-clock
    accidents, not properties of the configuration — a resumed execution
    gets to retry them.  Everything else (including deterministic captured
    errors) is final.
    """
    error = result.result.get("error") if isinstance(result.result, dict) else None
    if not isinstance(error, dict):
        return True
    return error.get("type") != "WatchdogTimeout" and not error.get("quarantined")


def execute_many(
    runs: Iterable[RunSpec],
    workers: int = 1,
    progress: Optional[ProgressCallback] = None,
    entry: Optional[Scenario] = None,
) -> List[RunResult]:
    """Execute every run, optionally fanning out across worker processes.

    Results come back in the order of ``runs`` for any worker count.
    """
    run_list = list(runs)
    results: List[Optional[RunResult]] = [None] * len(run_list)
    for index, result in execute_stream(
        run_list, workers=workers, progress=progress, entry=entry,
    ):
        results[index] = result
    return [result for result in results if result is not None]
