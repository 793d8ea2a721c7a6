"""``sweep-fanout``: one grid of tiny runs, through every execution back end.

Per-run simulation is a few milliseconds, so expansion, validation,
dispatch, pickling and journaling dominate.  The timed repetition is what a
``python -m repro sweep --workers 2`` pays — expand, fork a pool, fan out,
serialise; the serial path and the journaled Process+Pipe path run in the
warm-up (for the cross-path equality check) and in the traced pass (for the
per-layer numbers).
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perf_harness import Outcome
from perf_spans import SpanRecorder, Target
from perf_wl_base import Workload, ms, notes_for, safe_ratio
from perf_wl_storage import SPEC_TARGETS, spec_layer_metrics

from repro.experiments import executor as executor_module
from repro.experiments import resilience as resilience_module
from repro.experiments import results as results_module
from repro.experiments import sweep as sweep_module
from repro.experiments.executor import RunResult
from repro.experiments.registry import SpecScenario
from repro.experiments.resilience import ResiliencePolicy, RunJournal
from repro.experiments.sweep import RunSpec

SCENARIO = "quickstart"


class SweepFanout(Workload):
    name = "sweep-fanout"
    unit = "run"

    def prepare(self) -> None:
        seeds = 3 if self.smoke else 48
        self.grid = {
            "seed": [self.seed * 1000 + offset for offset in range(seeds)],
            "cluster.client_count": [2, 4],
            "workload.mix.read_ratio": [0.2, 0.8],
        }
        self.base = {"transfers": ()}
        self.journal_path = os.path.join(self.scratch, "sweep-journal.jsonl")
        # First calls: the catalogue import, one forked pool, one journal.
        tiny = self.expand()[:2]
        executor_module.execute_many(tiny, workers=2)
        executor_module.shutdown_pool()
        self.journaled(tiny, workers=1, run_timeout=None)

    def expand(self) -> List[RunSpec]:
        return sweep_module.expand_grid(SCENARIO, grid=self.grid, base=self.base)

    def pooled(self, runs: Sequence[RunSpec]) -> List[RunResult]:
        # A CLI sweep starts from no pool: the fork is part of what it costs.
        executor_module.shutdown_pool()
        return executor_module.execute_many(runs, workers=2)

    def journaled(
        self, runs: Sequence[RunSpec], workers: int, run_timeout: Optional[float]
    ) -> List[RunResult]:
        """The resilient stream with a fresh journal, reassembled in input order."""
        results: List[Optional[RunResult]] = [None] * len(runs)
        journal = RunJournal(
            self.journal_path, {"kind": "bench-sweep", "version": 1, "seed": self.seed}
        )
        with journal:
            for index, result in resilience_module.execute_stream_resilient(
                runs, workers=workers, journal=journal,
                policy=ResiliencePolicy(run_timeout=run_timeout),
            ):
                results[index] = result
        return [result for result in results if result is not None]

    def journal_records(self) -> int:
        with open(self.journal_path, "r", encoding="utf-8") as handle:
            return sum(1 for line in handle if "digest" in json.loads(line))

    def reference(self) -> None:
        runs = self.expand()
        self.expected_text = results_module.dumps_json(
            executor_module.execute_many(runs, workers=1)
        )
        problems = []
        if results_module.dumps_json(self.pooled(runs)) != self.expected_text:
            problems.append("sweep-fanout: mp.Pool results differ from serial")
        journaled = self.journaled(runs, workers=2, run_timeout=60.0)
        if results_module.dumps_json(journaled) != self.expected_text:
            problems.append("sweep-fanout: journaled results differ from serial")
        if self.journal_records() != len(runs):
            problems.append(
                f"sweep-fanout: journal holds {self.journal_records()} records, "
                f"expected {len(runs)}"
            )
        self.reference_problems = problems

    def run_once(self) -> Tuple[int, str]:
        runs = self.expand()
        return len(runs), results_module.dumps_json(self.pooled(runs))

    def check(self, output: Tuple[int, str]) -> Outcome:
        attempted, text = output
        problems = list(self.reference_problems)
        if text != self.expected_text:
            problems.append("sweep-fanout: results differ between repetitions")
        return Outcome(attempted, attempted if problems else 0, notes=notes_for(problems))

    def teardown(self) -> None:
        executor_module.shutdown_pool()

    # -- traced pass -----------------------------------------------------------

    def targets(self) -> Tuple[Sequence[Target], Sequence[Target]]:
        targets = list(SPEC_TARGETS) + [
            (sweep_module, "expand_grid", "sweep.expand_grid"),
            # execute_run itself is bound into the executor's dispatch table
            # at import time; the scenario entry it calls is the nearest seam.
            (SpecScenario, "execute", "registry.execute"),
            (executor_module, "execute_many", "executor.execute_many"),
            (RunJournal, "record", "resilience.journal_record"),
        ]
        return targets, ()

    def run_traced(self, recorder: SpanRecorder) -> Tuple[int, float, Any]:
        """Every path once under the recorder; the serial one shows inside a run."""
        targets, hops = self.targets()
        first_result = 0.0
        with recorder.patched(targets, hops):
            started = time.perf_counter()
            with recorder.span("repetition") as root:
                runs = self.expand()
                with recorder.span("sweep.serial") as serial_span:
                    serial = executor_module.execute_many(runs, workers=1)
                with recorder.span("sweep.pool"):
                    self.pooled(runs)
                with recorder.span("sweep.journaled_pool"):
                    self.journaled(runs, workers=2, run_timeout=60.0)
                with recorder.span("sweep.journaled_serial"):
                    self.journaled(runs, workers=1, run_timeout=None)
                results_module.dumps_json(serial)
                with recorder.span("sweep.pool_first_result"):
                    executor_module.shutdown_pool()
                    fork_started = time.perf_counter()
                    stream = executor_module.execute_stream(runs[:16], workers=2)
                    next(stream)
                    first_result = time.perf_counter() - fork_started
                    stream.close()
            wall = time.perf_counter() - started
        return root, wall, (len(runs), first_result, serial_span)

    def layers(
        self, recorder: SpanRecorder, root: int, traced_wall: float,
        untraced_wall: float, output: Tuple[int, float, int],
    ) -> Dict[str, float]:
        runs, first_result, serial_span = output
        total = lambda name: recorder.total(root, name)  # noqa: E731
        serial = total("sweep.serial")
        inner = safe_ratio(
            total("registry.execute"), recorder.count(root, "registry.execute")
        )
        journaled_serial = total("sweep.journaled_serial")
        return {
            # Inside-a-run layers, over one serial pass of the grid.
            **spec_layer_metrics(recorder, serial_span, serial),
            "results.serialise_ms": ms(total("results.serialise")),
            "executor.serial_runs_per_s": safe_ratio(runs, serial),
            "executor.inner_run_ms": ms(inner),
            "executor.parallel_efficiency": safe_ratio(serial, 2.0 * total("sweep.pool")),
            "executor.pool_start_ms": ms(first_result - inner),
            "resilience.journaled_runs_per_s": safe_ratio(runs, total("sweep.journaled_pool")),
            "resilience.pool_efficiency": safe_ratio(
                serial, 2.0 * total("sweep.journaled_pool")
            ),
            "resilience.journal_ms_per_run": ms(safe_ratio(journaled_serial - serial, runs)),
            "resilience.journal_bytes_per_run": safe_ratio(
                os.path.getsize(self.journal_path), runs
            ),
            # The traced repetition runs every path; compare like with like.
            "trace.overhead_ratio": safe_ratio(
                total("sweep.expand_grid") + total("sweep.pool") + total("results.serialise"),
                untraced_wall,
            ),
        }
