"""``cli-cold``: ``python -m repro run quickstart`` in a fresh interpreter.

Timed from spawn to exit with ``os.wait4``.  Most of the wall is imports —
every subcommand imports every subsystem — so this is the workload where
lazy subcommand imports show, and the only one.
"""

from __future__ import annotations

import statistics
import sys
from typing import Dict, List, Sequence, Tuple

from perf_harness import Outcome, spawn_timed
from perf_spans import SpanRecorder
from perf_wl_base import Workload, notes_for

Spawn = Tuple[float, int, bytes, float]
_LAYER_SPAWNS = 5


class CliCold(Workload):
    name = "cli-cold"
    unit = "spawn"

    def __init__(self, seed: int, smoke: bool, scratch: str) -> None:
        super().__init__(seed, smoke, scratch)
        self.spawns_per_round = 1 if smoke else 4
        self.child_rss: List[float] = []

    def command(self) -> List[str]:
        return [sys.executable, "-m", "repro", "run", "quickstart", "-p", f"seed={self.seed}"]

    def spawn(self, argv: Sequence[str]) -> Spawn:
        with self.span("cli.spawn"):
            return spawn_timed(argv, cwd=self.scratch)

    def prepare(self) -> None:
        # The first spawn also fills the byte-code cache.
        _, self.first_code, self.first_stdout, _ = self.spawn(self.command())

    def reference(self) -> None:
        code, self.expected_stdout = self.first_code, self.first_stdout
        self.reference_problems = (
            [] if code == 0 and self.expected_stdout
            else [f"cli-cold: the reference spawn exited {code}"]
        )

    def run_once(self) -> List[Spawn]:
        return [self.spawn(self.command()) for _ in range(self.spawns_per_round)]

    def check(self, output: List[Spawn]) -> Outcome:
        problems = list(self.reference_problems)
        failed = 0
        for _, code, stdout, rss in output:
            self.child_rss.append(rss)
            if code != 0:
                failed += 1
                problems.append(f"cli-cold: a spawn exited {code}")
            elif stdout != self.expected_stdout:
                failed += 1
                problems.append("cli-cold: stdout differs between spawns")
        if self.reference_problems:
            failed = len(output)
        return Outcome(
            len(output), failed, [elapsed for elapsed, *_ in output], notes_for(problems)
        )

    def peak_rss_mb(self) -> float:
        """Mean ``ru_maxrss`` of the timed children."""
        return statistics.mean(self.child_rss) if self.child_rss else 0.0

    # -- traced pass -----------------------------------------------------------

    def _median_spawn(self, argv: Sequence[str]) -> Tuple[float, float]:
        count = 1 if self.smoke else _LAYER_SPAWNS
        spawns = [spawn_timed(argv, cwd=self.scratch) for _ in range(count)]
        return (
            statistics.median(spawn[0] for spawn in spawns),
            statistics.median(spawn[3] for spawn in spawns),
        )

    def layers(
        self, recorder: SpanRecorder, root: int, traced_wall: float,
        untraced_wall: float, output: List[Spawn],
    ) -> Dict[str, float]:
        python = sys.executable
        interpreter, _ = self._median_spawn([python, "-c", "pass"])
        import_repro, _ = self._median_spawn([python, "-c", "import repro"])
        import_cli, _ = self._median_spawn([python, "-c", "import repro.experiments.cli"])
        listing, _ = self._median_spawn([python, "-m", "repro", "list", "--json"])
        cold, rss = self._median_spawn(self.command())
        return {
            "cli.interpreter_s": interpreter,
            "cli.import_repro_s": import_repro,
            "cli.import_cli_s": import_cli,
            "cli.list_s": listing,
            "cli.command_body_s": cold - import_cli,
            "cli.child_rss_mb": rss,
        }
