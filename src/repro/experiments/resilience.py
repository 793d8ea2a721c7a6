"""Resilient execution: journaled resume, quarantine, graceful interruption.

The executor guarantees serial == parallel results; this module makes long
executions survive the failures they study, without weakening that
guarantee.  The executor's one worker pool
(:func:`~repro.experiments.executor.dispatch`) already kills a run that
hangs past :attr:`ResiliencePolicy.run_timeout` (a deterministic
``{"error": {"type": "WatchdogTimeout", ...}}`` result), re-dispatches a run
whose worker process died — SIGKILLed, OOM-killed, segfaulted — up to
:attr:`ResiliencePolicy.max_attempts` times with exponential backoff, and
turns a run that failed every attempt into a deterministic
``{"error": {"type": "WorkerCrashed", ...}}`` result while the stream keeps
draining.  What lives here is what outlasts the process:

* :class:`RunJournal` — an append-only JSONL record of completed runs keyed
  by :func:`run_digest`, a stable digest of ``(scenario, params)``.  Sweeps
  and chaos campaigns append as results land; a resumed execution skips the
  journaled configurations and reassembles a final report byte-identical to
  an uninterrupted run (results are deterministic, so a journaled result
  *is* the result a re-run would produce).
* :class:`Quarantine` — a JSONL sidecar of the configurations that failed
  every attempt, so the campaign degrades gracefully instead of dying and
  the poison configs can be reproduced by hand.
* :func:`execute_stream_resilient` — the executor's dispatch under a
  caller-chosen policy, plus journal replay and the two sidecars.  With no
  journal and the default (inert) policy it yields exactly what
  :func:`~repro.experiments.executor.execute_stream` yields.
* :func:`interruptible` — SIGINT/SIGTERM handlers that raise
  :class:`GracefulInterrupt`, letting the CLI flush sinks and exit with
  :data:`INTERRUPT_EXIT_CODE` so CI can distinguish "interrupted,
  resumable" from "failed".
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import threading
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.errors import (
    INTERRUPT_EXIT_CODE,
    ConfigurationError,
    GracefulInterrupt,
)
from repro.experiments.executor import (
    ResiliencePolicy,
    RunResult,
    StreamTelemetry,
    WorkerPool,
    dispatch,
)
from repro.experiments.registry import Scenario
from repro.experiments.sweep import RunSpec

__all__ = [
    "INTERRUPT_EXIT_CODE",
    "GracefulInterrupt",
    "Quarantine",
    "ResiliencePolicy",
    "RunJournal",
    "StreamTelemetry",
    "execute_stream_resilient",
    "interruptible",
    "journalable",
    "load_jsonl_log",
    "run_digest",
]

ProgressCallback = Callable[[int, int], None]


def run_digest(run: RunSpec) -> str:
    """A stable content digest of ``(scenario, params)`` for journal keys.

    Values are keyed by ``repr`` so ``1``, ``1.0``, ``"1"`` and ``(1,)`` all
    digest differently; the digest is independent of parameter order,
    process, platform and ``PYTHONHASHSEED``.
    """
    material = json.dumps(
        [run.scenario,
         [[key, repr(value)]
          for key, value in sorted(run.params, key=lambda item: item[0])]],
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# The run journal
# ---------------------------------------------------------------------------


def load_jsonl_log(path: str, what: str) -> List[Dict[str, Any]]:
    """The committed records of an append-only JSONL log, in file order.

    The loader of both durable logs, a :class:`RunJournal` and the service's
    ``jobs.jsonl``.  Each appends ``record + "\\n"`` in one write, so the
    newline is the commit mark: whatever follows the last newline is the
    append a dying process did not finish.  It is dropped *and cut off the
    file*, so the next append starts on a line boundary instead of welding
    itself to the fragment.  An undecodable line before that is damage, not
    an interruption, and raises :class:`ConfigurationError` naming the file
    and the line — resuming past it would silently forget what followed.

    The writers promise different things, and one loader serves both: the
    jobs log ``fsync``s every line (an acknowledged job survives a crash of
    the host), a run journal only ``flush``es (a completed run survives the
    death of the process; after a host crash the tail may be missing, which
    costs re-running those runs, never a wrong result).
    """
    with open(path, "rb") as handle:
        data = handle.read()
    committed, _, unfinished = data.rpartition(b"\n")
    if unfinished:
        os.truncate(path, len(data) - len(unfinished))
    records: List[Dict[str, Any]] = []
    for number, line in enumerate(committed.split(b"\n"), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError(record)
        except ValueError:
            raise ConfigurationError(
                f"{what} {path}: undecodable record on line {number} "
                "(only an unfinished final line is tolerated)"
            ) from None
        records.append(record)
    return records


class RunJournal:
    """An append-only JSONL journal of completed runs, keyed by digest.

    Line 1 is a header record ``{"journal": {...}}`` identifying what the
    journal belongs to; every later line is an entry record carrying a
    ``"digest"`` key.  Records are flushed line-by-line as they are written,
    so a SIGKILLed process loses at most the line it was in the middle of —
    and the loader (:func:`load_jsonl_log`) tolerates exactly that: an
    unfinished *final* line is discarded, an undecodable earlier line is an
    error.

    ``resume=True`` loads an existing journal (validating its header against
    ``header``) and appends to it; a missing file starts fresh, so blind
    ``--resume`` invocations are safe.  ``resume=False`` truncates.
    """

    def __init__(self, path: str, header: Dict[str, Any],
                 resume: bool = False) -> None:
        self.path = path
        self.header = _json_roundtrip(header)
        self.entries: Dict[str, Dict[str, Any]] = {}
        if resume and os.path.exists(path):
            self._load()
            self._handle = open(path, "a", encoding="utf-8")
        else:
            self._handle = open(path, "w", encoding="utf-8")
            self._write({"journal": self.header})

    def _load(self) -> None:
        records = load_jsonl_log(self.path, "journal")
        if not records or "journal" not in records[0]:
            raise ConfigurationError(
                f"journal {self.path}: missing header record on line 1"
            )
        found = records[0]["journal"]
        if found != self.header:
            raise ConfigurationError(
                f"journal {self.path} was written by a different "
                f"configuration: found {json.dumps(found, sort_keys=True)}, "
                f"expected {json.dumps(self.header, sort_keys=True)}"
            )
        for record in records[1:]:
            digest = record.get("digest")
            if digest is not None:
                self.entries[digest] = record  # re-runs: last write wins

    def _write(self, record: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def get(self, digest: str) -> Optional[Dict[str, Any]]:
        """The journaled record for ``digest``, or ``None``."""
        return self.entries.get(digest)

    def record(self, digest: str, record: Dict[str, Any]) -> None:
        """Append one completed-run record (flushed immediately)."""
        entry = dict(record)
        entry["digest"] = digest
        entry = _json_roundtrip(entry)
        self.entries[digest] = entry
        self._write(entry)

    def record_summary(self, summary: Dict[str, Any]) -> None:
        """Append a non-entry summary record (ignored by the loader)."""
        self._write({"summary": _json_roundtrip(summary)})

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _json_roundtrip(value: Any) -> Any:
    """Normalise to what a journal reader would see (tuples become lists)."""
    return json.loads(json.dumps(value, sort_keys=True))


# ---------------------------------------------------------------------------
# Quarantine
# ---------------------------------------------------------------------------


class Quarantine:
    """JSONL sidecar for configurations that exhausted every attempt.

    The file is created lazily on the first quarantined config, so a clean
    run leaves nothing behind.  Each record carries everything needed to
    reproduce the run by hand: the config index, run id, scenario, the
    exact parameter overrides (``spec``), the attempt count and the final
    error (``traceback`` is ``null`` for SIGKILLed workers — there is no
    Python frame to collect).
    """

    def __init__(self, path: Optional[str]) -> None:
        self.path = path
        self._handle = None

    def record(self, index: int, run: RunSpec, attempts: int,
               error: Dict[str, Any],
               traceback_text: Optional[str] = None) -> None:
        if self.path is None:
            return
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        entry = {
            "index": index,
            "run_id": run.run_id,
            "scenario": run.scenario,
            "attempts": attempts,
            "error": error,
            "traceback": traceback_text,
            "spec": {"scenario": run.scenario, "params": run.params_dict},
        }
        self._handle.write(json.dumps(entry, sort_keys=True, default=repr))
        self._handle.write("\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.close()


# ---------------------------------------------------------------------------
# Graceful interruption
# ---------------------------------------------------------------------------


@contextmanager
def interruptible() -> Iterator[None]:
    """Convert SIGINT/SIGTERM into :class:`GracefulInterrupt` in this block.

    Handlers are installed only on the main thread (Python restricts signal
    handling to it); elsewhere the context is a no-op.  Previous handlers
    are restored on exit either way.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _raise(signum: int, frame: Any) -> None:
        raise GracefulInterrupt(signum)

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        previous[sig] = signal.signal(sig, _raise)
    try:
        yield
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)


# ---------------------------------------------------------------------------
# The resilient stream
# ---------------------------------------------------------------------------


def execute_stream_resilient(
    runs: Iterable[RunSpec],
    workers: int = 1,
    progress: Optional[ProgressCallback] = None,
    capture_errors: bool = False,
    policy: Optional[ResiliencePolicy] = None,
    journal: Optional[RunJournal] = None,
    quarantine: Optional[Quarantine] = None,
    telemetry: Optional[StreamTelemetry] = None,
    entry: Optional[Scenario] = None,
    around: Optional[Callable[..., RunResult]] = None,
    pool: Optional[WorkerPool] = None,
) -> Iterator[Tuple[int, RunResult]]:
    """:func:`execute_stream` with journaled resume, watchdog and retry.

    The same :func:`~repro.experiments.executor.dispatch` as the plain
    stream, under ``policy`` instead of the inert one and with its ``around``
    and ``pool`` passed through, plus the sidecars:

    * runs whose digest is already journaled yield their journaled result
      first (in input order), without executing — ``telemetry.resumed``
      counts them;
    * every fresh result is journaled as it lands (quarantined and
      timed-out runs are **not** journaled: a resume retries them);
    * a run whose worker died on every attempt is recorded in
      ``quarantine``.

    Every input index is yielded exactly once and ``progress(done, total)``
    fires after each, journaled or fresh — same contract as the plain
    stream, so sinks and reports reassemble identically.
    """
    policy = policy or ResiliencePolicy()
    policy.validate()
    run_list = list(runs)
    telemetry = telemetry if telemetry is not None else StreamTelemetry()
    total = len(run_list)
    done = 0

    def tick(index: int, result: RunResult) -> Tuple[int, RunResult]:
        nonlocal done
        done += 1
        if progress is not None:
            progress(done, total)
        return index, result

    pending: List[Tuple[int, RunSpec]] = []
    for index, run in enumerate(run_list):
        record = journal.get(run_digest(run)) if journal is not None else None
        if record is not None:
            telemetry.resumed += 1
            # Reconstruct from the *original* spec (not the journal's params
            # rendering) so run_id/params round-trip exactly.
            yield tick(
                index, RunResult(run.scenario, run.params, record["result"])
            )
        else:
            pending.append((index, run))
    for index, result in dispatch(
        pending, workers, capture_errors, policy, telemetry, entry, around, pool,
    ):
        run = run_list[index]
        if journalable(result):
            if journal is not None:
                journal.record(run_digest(run), {
                    "index": index,
                    "run_id": run.run_id,
                    "scenario": run.scenario,
                    "params": {key: repr(value) for key, value in run.params},
                    "result": result.result,
                })
        elif quarantine is not None and result.result["error"].get("quarantined"):
            error = result.result["error"]
            quarantine.record(index, run, error["attempts"], dict(error))
        yield tick(index, result)


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
