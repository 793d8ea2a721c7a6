"""Measurement primitives shared by every workload of the macro benchmark.

Nothing here knows about ``repro``: this module holds the calibration
kernel that makes host-time samples comparable across a drifting shared
machine, the order statistics the report prints, the GC and memory probes,
the scratch directory every file the benchmark writes lives in, and the
repetition loop that turns a workload into a list of normalised samples.
"""

from __future__ import annotations

import gc
import heapq
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from collections import deque
from typing import (
    Any, Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple,
)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
PYCACHE = os.path.join(ROOT, ".bench_cache", "pycache")

#: Seconds one calibration kernel took on the box the workloads were sized
#: on.  Host-time samples are scaled by ``CAL_REF / calibration`` so a value
#: reads as "seconds on the sizing box", whatever the host's speed that minute.
CAL_REF = 0.016
_CAL_EVENTS = 12_000
_CAL_PROCESSES = 64
_CAL_KERNELS = 3


class _Message:
    __slots__ = ("source", "target", "kind", "payload")

    def __init__(self, source: int, target: int, kind: str, payload: Tuple[float, int]) -> None:
        self.source = source
        self.target = target
        self.kind = kind
        self.payload = payload


def calibration_kernel(events: int = _CAL_EVENTS) -> int:
    """A fixed miniature event simulation, owned by the benchmark.

    An event heap of tuples, a small object per message, per-process deques
    and a tuple-keyed dict: the memory behaviour of the simulator's hot
    loop.  On the sizing box a slow minute slowed the real simulator by
    55 % and an arithmetic loop by 20 % — the host's drift is mostly memory
    contention, so the kernel has to allocate and chase pointers the way the
    program does to track it.
    """
    heap: List[Tuple[float, int, int, Optional[_Message]]] = []
    push, pop = heapq.heappush, heapq.heappop
    inboxes: List[Deque[_Message]] = [deque() for _ in range(_CAL_PROCESSES)]
    traffic: Dict[Tuple[int, int], int] = {}
    sequence = 0
    state = 12345
    for process in range(_CAL_PROCESSES):
        push(heap, (0.0, sequence, process, None))
        sequence += 1
    done = 0
    while heap and done < events:
        when, _, process, _ = pop(heap)
        done += 1
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        target = state % _CAL_PROCESSES
        message = _Message(process, target, "R" if state & 1 else "W", (when, done))
        inbox = inboxes[target]
        inbox.append(message)
        if len(inbox) > 8:
            inbox.popleft()
        link = (process, target)
        traffic[link] = traffic.get(link, 0) + 1
        push(heap, (when + 0.5 + (state % 1000) / 1000.0, sequence, target, message))
        sequence += 1
        if state & 3 == 0:
            push(heap, (when + 1.0, sequence, process, None))
            sequence += 1
    return done + len(traffic)


def calibrate() -> float:
    """Seconds the calibration kernel takes right now (fastest of three).

    The collector is paused for the kernel only: a generation-2 pass over
    whatever heap the previous repetition left behind is the workload's
    cost, not the host's speed.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(_CAL_KERNELS):
            started = time.perf_counter()
            calibration_kernel()
            best = min(best, time.perf_counter() - started)
    finally:
        if was_enabled:
            gc.enable()
    return best


# -- order statistics ----------------------------------------------------------


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile ``p`` (0..100) of ``values`` (0 when empty)."""
    ordered = sorted(values)
    if len(ordered) < 2:
        return ordered[0] if ordered else 0.0
    rank = (len(ordered) - 1) * p / 100.0
    low = int(math.floor(rank))
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def supported_percentile(count: int) -> float:
    """The highest usual percentile with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if count * (1.0 - p / 100.0) >= 10:
            return p
    return 50.0


def summarise(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count — what every timing is printed with."""
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


# -- host probes ---------------------------------------------------------------


class GcWatch:
    """Counts collections and sums their pauses via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_s = 0.0
        self._started = 0.0

    def _callback(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.collections += 1
            self.pause_s += time.perf_counter() - self._started

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        gc.callbacks.remove(self._callback)


def provenance(seed: int, calibration: float) -> Dict[str, Any]:
    """Where and how a result file was produced."""
    try:
        sha: Optional[str] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # the driver's checkout is not a git repository
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "seed": seed,
        "cal_ref_s": CAL_REF,
        "calibration_s": calibration,
    }


# -- scratch space and child processes -----------------------------------------


@contextmanager
def work_dir() -> Iterator[str]:
    """A scratch directory inside the checkout, removed on exit.

    ``tempfile`` (and ``TMPDIR`` for children) point into it for the
    duration, so nothing the program writes lands outside the checkout.
    """
    os.makedirs(WORK_ROOT, exist_ok=True)
    path = tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=WORK_ROOT)
    saved_tempdir, saved_env = tempfile.tempdir, os.environ.get("TMPDIR")
    tempfile.tempdir = path
    os.environ["TMPDIR"] = path
    try:
        yield path
    finally:
        tempfile.tempdir = saved_tempdir
        if saved_env is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = saved_env
        shutil.rmtree(path, ignore_errors=True)


def child_env() -> Dict[str, str]:
    """The environment every spawned interpreter gets.

    ``repro`` on the path, and byte-code cached under ``.bench_cache`` —
    users run with warm ``__pycache__`` directories, so a spawn must not pay
    a recompile just because the caller's shell disables byte-code writing.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONPYCACHEPREFIX"] = PYCACHE
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def use_bytecode_cache() -> None:
    """Give this process the same byte-code cache its children use."""
    sys.pycache_prefix = PYCACHE
    sys.dont_write_bytecode = False


def spawn_timed(argv: Sequence[str], cwd: Optional[str] = None) -> Tuple[float, int, bytes, float]:
    """Run ``argv`` to completion: (seconds spawn→exit, exit code, stdout, child MB)."""
    started = time.perf_counter()
    process = subprocess.Popen(
        list(argv), env=child_env(), cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    assert process.stdout is not None
    output = process.stdout.read()
    _, status, usage = os.wait4(process.pid, 0)
    elapsed = time.perf_counter() - started
    process.stdout.close()
    process.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, process.returncode, output, usage.ru_maxrss / 1024.0


# -- the repetition loop -------------------------------------------------------


@dataclass
class Outcome:
    """What one repetition's output check found.

    ``latencies`` are raw seconds of the requests a caller waited for inside
    the repetition; ``None`` means the repetition *is* the request.
    """

    attempted: int
    failed: int
    latencies: Optional[List[float]] = None
    notes: List[str] = field(default_factory=list)


@dataclass
class Samples:
    """Normalised samples gathered by :func:`measure`."""

    walls: List[float] = field(default_factory=list)       # normalised s per repetition
    raw_walls: List[float] = field(default_factory=list)
    rates: List[float] = field(default_factory=list)        # units per normalised s
    raw_rates: List[float] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)    # normalised s per request
    raw_latencies: List[float] = field(default_factory=list)
    calibrations: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)


def measure(
    run_once: Callable[[], Any],
    check: Callable[[Any], Outcome],
    seconds: float,
    min_repetitions: int = 3,
) -> Samples:
    """Repeat ``run_once`` for ``seconds``, each repetition bracketed by calibrations.

    The output check runs outside the timed region.  A sample is scaled by
    ``CAL_REF / mean(calibration before, calibration after)``.
    """
    samples = Samples()
    before = calibrate()
    samples.calibrations.append(before)
    deadline = time.perf_counter() + seconds
    while len(samples.walls) < min_repetitions or time.perf_counter() < deadline:
        started = time.perf_counter()
        output = run_once()
        raw = time.perf_counter() - started
        after = calibrate()
        outcome = check(output)
        scale = CAL_REF / ((before + after) / 2.0)
        wall = raw * scale
        samples.raw_walls.append(raw)
        samples.walls.append(wall)
        samples.rates.append(outcome.attempted / wall)
        samples.raw_rates.append(outcome.attempted / raw)
        raw_latencies = [raw] if outcome.latencies is None else outcome.latencies
        samples.raw_latencies.extend(raw_latencies)
        samples.latencies.extend(value * scale for value in raw_latencies)
        samples.attempted += outcome.attempted
        samples.failed += outcome.failed
        samples.notes.extend(outcome.notes)
        samples.calibrations.append(after)
        before = after
    return samples


def scaled(raw_seconds: float, calibration: float) -> float:
    """``raw_seconds`` normalised by one calibration reading."""
    return raw_seconds * CAL_REF / calibration


def write_json(path: str, document: Any) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
