"""The contract every workload of the macro benchmark implements."""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from perf_harness import Outcome
from perf_spans import SpanRecorder, Target


class Workload:
    """One fixed, seeded unit of work plus its output check.

    ``prepare`` is what ``setup_s`` times (in a fresh interpreter): imports,
    building inputs, booting servers, and one tiny first call so lazy
    initialisation is paid before the clock starts.  ``reference`` runs the
    untimed full-size warm-up and keeps the outputs later repetitions are
    checked against.  ``run_once`` is the timed unit; ``check`` judges its
    output outside the timed region.
    """

    name = ""
    #: What one unit of work is, for ``work_per_s`` and ``attempted``.
    unit = ""

    def __init__(self, seed: int, smoke: bool, scratch: str) -> None:
        self.seed = seed
        self.smoke = smoke
        self.scratch = scratch
        #: Set for the duration of the traced repetition only.
        self.recorder: Optional[SpanRecorder] = None

    def prepare(self) -> None:
        raise NotImplementedError

    def reference(self) -> None:
        raise NotImplementedError

    def run_once(self) -> Any:
        raise NotImplementedError

    def check(self, output: Any) -> Outcome:
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop whatever ``prepare`` started (idempotent)."""

    def peak_rss_mb(self) -> float:
        """``ru_maxrss`` in MB of the process the program ran in.

        This one by default; workloads whose program is a child process
        report the child's, which they learn when they reap it.
        """
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- traced pass -----------------------------------------------------------

    def targets(self) -> Tuple[Sequence[Target], Sequence[Target]]:
        """(callables to wrap in spans, thread-hop callables) for the traced pass."""
        return (), ()

    @contextmanager
    def span(self, name: str, trace: Optional[str] = None) -> Iterator[None]:
        """A span around the workload's own code; free outside the traced pass."""
        if self.recorder is None:
            yield
        else:
            with self.recorder.span(name, trace=trace):
                yield

    def run_traced(self, recorder: SpanRecorder) -> Tuple[int, float, Any]:
        """One repetition under the recorder: (root span id, wall seconds, output)."""
        targets, hops = self.targets()
        self.recorder = recorder
        try:
            with recorder.patched(targets, hops):
                started = time.perf_counter()
                with recorder.span("repetition") as root:
                    output = self.run_once()
                wall = time.perf_counter() - started
        finally:
            self.recorder = None
        return root, wall, output

    def layers(
        self, recorder: SpanRecorder, root: int, traced_wall: float,
        untraced_wall: float, output: Any,
    ) -> Dict[str, float]:
        """Per-layer metrics of this workload (names from ``perf_metrics.PER_LAYER``)."""
        raise NotImplementedError


def ms(seconds: float) -> float:
    return seconds * 1000.0


def safe_ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def notes_for(problems: List[str], limit: int = 5) -> List[str]:
    """Keep failure notes short: the first few, then a count."""
    if len(problems) <= limit:
        return problems
    return problems[:limit] + [f"... and {len(problems) - limit} more"]
