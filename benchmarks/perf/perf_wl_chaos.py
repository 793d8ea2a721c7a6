"""``chaos-campaign``: the fault-injected workload.

One ``run_campaign`` over the aggressive fault space (outages, partitions,
gray failures) of ``quickstart`` per repetition: every sampled run is
traced, its trace written and read back, its invariants checked and the
oracle stack consulted.  This is the only workload where ``repro.obs`` and
the oracles do most of the work.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Sequence, Tuple

from perf_harness import Outcome
from perf_spans import SpanRecorder, Target
from perf_wl_base import Workload, ms, notes_for, safe_ratio
from perf_wl_storage import SPEC_TARGETS, STABLE_STACK_HOP, spec_layer_metrics

from repro.chaos import campaign as campaign_module
from repro.chaos import oracles as oracles_module
from repro.chaos.campaign import Campaign
from repro.experiments import executor as executor_module
from repro.experiments import spec as spec_module
from repro.experiments.sweep import RunSpec

SCENARIO = "quickstart"
_OVERHEAD_RUNS = 10


def report_text(campaign: Campaign) -> str:
    return "\n".join(campaign.jsonl_lines())


class ChaosCampaign(Workload):
    name = "chaos-campaign"
    unit = "judged run"

    def prepare(self) -> None:
        # The LHS sample stratifies every fault axis, so 16 configurations
        # cost about the same whatever the seed (trace records vary ~2 %).
        self.sample = 1 if self.smoke else 16
        campaign_module.run_campaign(SCENARIO, sample=1, seed=self.seed, workers=1)

    def campaign(self, workers: int = 1) -> Campaign:
        return campaign_module.run_campaign(
            SCENARIO, sample=self.sample, seed=self.seed, workers=workers
        )

    def reference(self) -> None:
        # The warm-up runs on two workers; every timed (serial) repetition
        # must reproduce its report byte for byte.
        self.expected_text = report_text(self.campaign(workers=2))
        executor_module.shutdown_pool()

    def run_once(self) -> Campaign:
        return self.campaign()

    def check(self, output: Campaign) -> Outcome:
        attempted = len(output.entries) + 1  # the baseline is judged too
        problems = []
        if report_text(output) != self.expected_text:
            problems.append(
                "chaos-campaign: report bytes differ from the workers=2 warm-up"
            )
        return Outcome(attempted, attempted if problems else 0, notes=notes_for(problems))

    def teardown(self) -> None:
        executor_module.shutdown_pool()

    # -- traced pass -----------------------------------------------------------

    def targets(self) -> Tuple[Sequence[Target], Sequence[Target]]:
        targets = list(SPEC_TARGETS) + [
            (campaign_module, "run_campaign", "chaos.run_campaign"),
            (campaign_module, "execute_run", "chaos.baseline_run"),
            (executor_module, "execute_run", "executor.execute_run"),
            (campaign_module, "read_trace", "obs.read_trace"),
            (spec_module, "write_trace", "obs.write_trace"),
            (spec_module, "trace_digest", "obs.trace_digest"),
            (oracles_module, "check_trace_invariants", "obs.check_invariants"),
            (oracles_module.TraceInvariantOracle, "judge", "chaos.judge"),
            (oracles_module.ResultOracle, "judge", "chaos.judge"),
            (oracles_module.LatencyDegradationOracle, "judge", "chaos.judge"),
        ]
        hops = [
            STABLE_STACK_HOP,
            (campaign_module, "run_with_stable_stack", "executor.stable_stack"),
        ]
        return targets, hops

    def layers(
        self, recorder: SpanRecorder, root: int, traced_wall: float,
        untraced_wall: float, output: Campaign,
    ) -> Dict[str, float]:
        total = lambda name: recorder.total(root, name)  # noqa: E731
        header = output.header["campaign"]
        wall = total("chaos.run_campaign")
        baseline = total("chaos.baseline_run")
        records = [
            entry["oracles"]["trace-invariants"].get("records", 0)
            for entry in output.entries
        ]
        checked = sum(records) + output.header["baseline"]["trace_records"]
        return {
            **spec_layer_metrics(recorder, root, traced_wall),
            "chaos.baseline_s": baseline,
            "chaos.run_ms": ms(safe_ratio(wall - baseline, len(output.entries))),
            "chaos.judge_share": safe_ratio(
                total("chaos.judge") + total("obs.read_trace"), wall
            ),
            "chaos.violations": header["violations"],
            "chaos.error_runs": header["failed"],
            "obs.trace_records_per_run": safe_ratio(sum(records), len(records)),
            "obs.record_overhead_ratio": self._record_overhead(),
            "obs.check_records_per_s": safe_ratio(checked, total("obs.check_invariants")),
        }

    def _record_overhead(self) -> float:
        """Wall of the scenario with a trace recorded, divided by the wall without."""

        def wall(params: Dict[str, Any]) -> float:
            run = RunSpec(SCENARIO, tuple(sorted(params.items())))
            started = time.perf_counter()
            for _ in range(1 if self.smoke else _OVERHEAD_RUNS):
                executor_module.execute_run(run)
            return time.perf_counter() - started

        plain = wall({"seed": self.seed})
        traced = wall({
            "seed": self.seed,
            "observability.enabled": True,
            "observability.trace": True,
        })
        return safe_ratio(traced, plain)
