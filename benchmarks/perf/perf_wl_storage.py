"""``storage-steady`` and ``reassign-churn``: one ``run_spec`` per repetition.

Both drive the dynamic-weighted store through the path ``python -m repro run
--spec`` takes — load and validate a spec document, build the world,
simulate, summarise, serialise — and differ only in what the storage layer
is asked to do: steady reads with no weight movement, or writes beside
scheduled and monitoring-driven transfers on a sharded cluster.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Sequence, Tuple

from perf_harness import Outcome
from perf_spans import SpanRecorder, Target
from perf_wl_base import Workload, ms, notes_for, safe_ratio

from repro.experiments import executor as executor_module
from repro.experiments import registry as registry_module
from repro.experiments import results as results_module
from repro.experiments import spec as spec_module
from repro.experiments.executor import RunResult
from repro.experiments.spec import (
    ClusterSpec,
    KeySpec,
    LatencySpec,
    MixSpec,
    MonitoringSpec,
    ObservabilitySpec,
    PhaseSpec,
    PolicySpec,
    ScenarioSpec,
    TransferEvent,
    WorkloadSpec,
)
from repro.net.simloop import SimLoop

_COMPARED_WITH_STATIC = (
    "operations", "messages", "duration", "read_latency", "write_latency",
)


def steady_spec(seed: int, operations_per_client: int) -> ScenarioSpec:
    """n=5 f=1, 8 closed-loop clients, zipfian keys, 90 % reads, no transfers."""
    return ScenarioSpec(
        name="bench-storage-steady",
        cluster=ClusterSpec(flavour="dynamic-weighted", n=5, f=1, client_count=8),
        workload=WorkloadSpec(
            operations_per_client=operations_per_client,
            keys=KeySpec(kind="zipfian", space=64, zipf_s=1.1),
            mix=MixSpec(read_ratio=0.9),
        ),
        latency=LatencySpec(kind="uniform", low=0.5, high=1.5),
        seed=seed,
    )


def churn_spec(
    seed: int, operations_per_client: int, transfers_per_shard: int,
    shards: int = 4, rounds: int = 20, delta: float = 0.1,
) -> ScenarioSpec:
    """A sharded cluster under scheduled ping-pong transfers and monitoring.

    The hot key set flips shard at t=100 while s4/s5 slow 6x; s1 and s2 trade
    ``delta`` of weight back and forth on every shard (the ones that would push the
    source to the RP-Integrity floor are rejected); per-shard controllers
    move weight off the slowed servers.  Link jitter (+-20 %) stays inside
    the controller dead-band (0.2), so the number of monitoring-driven
    transfers is the same for every seed and run cost varies with the seed
    by about 1 %, not 20 %.
    """
    transfers = tuple(
        TransferEvent(
            at=10.0 + 12.0 * step + shard,
            source="s1" if step % 2 == 0 else "s2",
            target="s2" if step % 2 == 0 else "s1",
            delta=delta,
            shard=shard,
        )
        for shard in range(shards)
        for step in range(transfers_per_shard)
    )
    return ScenarioSpec(
        name="bench-reassign-churn",
        cluster=ClusterSpec(
            flavour="dynamic-weighted", n=5, f=1, client_count=6, shards=shards
        ),
        workload=WorkloadSpec(
            operations_per_client=operations_per_client,
            keys=KeySpec(kind="hotspot", space=64, hot_fraction=0.125, hot_weight=0.9),
            mix=MixSpec(read_ratio=0.3),
            phases=(PhaseSpec(at=100.0, overrides=(("keys.offset", 32),)),),
        ),
        latency=LatencySpec(
            kind="uniform", low=0.8, high=1.2,
            slow=("s4", "s5"), slow_factor=6.0, slow_start=100.0,
        ),
        monitoring=MonitoringSpec(
            enabled=True, interval=10.0, rounds=rounds, scope="per-shard",
            policy=PolicySpec(threshold=0.2),
        ),
        transfers=transfers,
        seed=seed,
        max_time=100_000.0,
    )


#: The layer boundaries inside one ``run_spec``, shared by every workload
#: whose traced repetition executes runs in this process.
SPEC_TARGETS: List[Target] = [
    (ScenarioSpec, "from_dict", "spec.from_dict"),
    (ScenarioSpec, "validate", "spec.validate"),
    (spec_module, "run_spec", "spec.run_spec"),
    (registry_module, "run_spec", "spec.run_spec"),
    (ClusterSpec, "build", "spec.build_cluster"),
    (LatencySpec, "build", "spec.build_latency"),
    (MonitoringSpec, "build", "spec.build_monitoring"),
    (WorkloadSpec, "build", "workloads.generate"),
    (spec_module, "run_workload", "sim.run_workload"),
    (SimLoop, "run", "sim.settle"),
    (spec_module, "workload_stats", "workloads.stats"),
    (results_module, "dumps_json", "results.serialise"),
]
STABLE_STACK_HOP: Target = (
    executor_module, "run_with_stable_stack", "executor.stable_stack"
)


def spec_layer_metrics(recorder: SpanRecorder, root: int, wall: float) -> Dict[str, float]:
    """The spec / workloads / results / runner metrics of the spans under ``root``."""
    own = recorder.self_times(root)
    total = lambda name: recorder.total(root, name)  # noqa: E731
    simulate = total("sim.run_workload") + total("sim.settle")
    return {
        "spec.load_validate_ms": ms(total("spec.from_dict") + total("spec.validate")),
        "spec.build_world_ms": ms(
            total("spec.build_cluster") + total("spec.build_latency")
            + total("spec.build_monitoring")
        ),
        "workloads.generate_ms": ms(total("workloads.generate")),
        "spec.summarise_ms": ms(own.get("spec.run_spec", 0.0) + total("workloads.stats")),
        "results.serialise_ms": ms(total("results.serialise")),
        "runner.run_workload_s": simulate,
        "runner.share": safe_ratio(simulate, wall),
    }


class StorageWorkload(Workload):
    """One ``run_spec`` of ``self.spec`` per repetition."""

    unit = "simulated client operation"
    #: Churn results depend on where the weight-gain recursion hits the
    #: interpreter's limit, so they need a constant starting stack depth.
    stable_stack = False

    def make_spec(self, tiny: bool) -> ScenarioSpec:
        raise NotImplementedError

    def invariants(self, result: Dict[str, Any]) -> List[str]:
        """Problems with one result that no repetition may show."""
        raise NotImplementedError

    def prepare(self) -> None:
        self.spec = self.make_spec(tiny=False)
        self.document = self.spec.to_dict()
        self._execute(self.make_spec(tiny=True).to_dict())

    def _execute(self, document: Dict[str, Any]) -> Tuple[Dict[str, Any], str]:
        # Looked up through the modules so the traced pass's wrappers run.
        spec = ScenarioSpec.from_dict(document).validate()
        if self.stable_stack:
            result = executor_module.run_with_stable_stack(spec_module.run_spec, spec)
        else:
            result = spec_module.run_spec(spec)
        return result, results_module.dumps_json([RunResult(spec.name, (), result)])

    def reference(self) -> None:
        self.expected_result, self.expected_text = self.run_once()
        self.reference_problems = self.invariants(self.expected_result)

    def run_once(self) -> Tuple[Dict[str, Any], str]:
        return self._execute(self.document)

    def check(self, output: Tuple[Dict[str, Any], str]) -> Outcome:
        result, text = output
        attempted = result["workload"]["operations"]
        problems = list(self.reference_problems)
        if text != self.expected_text:
            problems.append(f"{self.name}: result JSON differs between repetitions")
        failed = attempted if problems else attempted - result["operations"]
        return Outcome(attempted, failed, notes=notes_for(problems))

    # -- traced pass -----------------------------------------------------------

    def targets(self) -> Tuple[Sequence[Target], Sequence[Target]]:
        return SPEC_TARGETS, [STABLE_STACK_HOP]

    def run_traced(self, recorder: SpanRecorder) -> Tuple[int, float, Any]:
        # The traced repetition also turns on the program's own counters.
        observed = ObservabilitySpec(enabled=True, metrics=True, trace=False)
        plain = self.document
        self.document = dict(plain, observability=observed.to_dict())
        try:
            root, wall, (result, _) = super().run_traced(recorder)
        finally:
            self.document = plain
        return root, wall, result

    def layers(
        self, recorder: SpanRecorder, root: int, traced_wall: float,
        untraced_wall: float, output: Dict[str, Any],
    ) -> Dict[str, float]:
        result = output
        counters = result["metrics"]["counters"]
        gauges = result["metrics"]["gauges"]
        histograms = result["metrics"]["histograms"]
        operations = result["operations"]
        events = counters.get("kernel.events", 0)
        sent = counters.get("net.sent", 0)
        quorum = histograms.get("storage.quorum_size", {"sum": 0.0, "count": 0})
        effective = counters.get("protocol.transfers.effective", 0)
        rejected = counters.get("protocol.transfers.null", 0)
        done = [entry for entry in result["transfers"] if entry["effective"]]
        monitoring = result.get("monitoring", {})
        imbalance = result.get("imbalance", {})

        static_wall = self._flavour_wall("static-majority")
        dynamic_wall = self._flavour_wall("dynamic-weighted")

        return {
            **spec_layer_metrics(recorder, root, traced_wall),
            "simloop.events": events,
            "simloop.events_per_s": safe_ratio(events, untraced_wall),
            "simloop.events_per_op": safe_ratio(events, operations),
            "simloop.ready_share": safe_ratio(counters.get("kernel.ready_dispatches", 0), events),
            "simloop.max_queue_depth": gauges.get("kernel.max_queue_depth", {}).get("max", 0),
            "network.msgs_per_op": safe_ratio(sent, operations),
            "network.msgs_per_s": safe_ratio(sent, untraced_wall),
            "storage.restarts_per_op": safe_ratio(result["restarts"], operations),
            "storage.quorum_size_mean": safe_ratio(quorum["sum"], quorum["count"]),
            "storage.dynamic_overhead_ratio": safe_ratio(dynamic_wall, static_wall),
            "storage.read_p99_vt": (result["read_latency"] or {}).get("p99", 0.0),
            "storage.write_p99_vt": (result["write_latency"] or {}).get("p99", 0.0),
            "protocol.transfers_attempted": effective + rejected,
            "protocol.effective_share": safe_ratio(effective, effective + rejected),
            "protocol.transfer_mean_vt": safe_ratio(
                sum(entry["latency"] for entry in done), len(done)
            ),
            "protocol.refresh_calls": counters.get("storage.weight_gain_refreshes", 0),
            "protocol.refresh_depth_max": gauges.get(
                "storage.weight_gain_refresh_depth", {}
            ).get("max", 0),
            "monitoring.rounds_completed": monitoring.get("rounds_completed", 0),
            "monitoring.transfers_attempted": monitoring.get("transfers_attempted", 0),
            "sharded.hottest_share": imbalance.get("hottest_share", 0.0),
        }

    def _flavour_wall(self, flavour: str) -> float:
        """Seconds for the steady spec's traffic on ``flavour`` (no transfers, no monitoring)."""
        document = steady_spec(self.seed, self.spec.workload.operations_per_client).to_dict()
        document["cluster"]["flavour"] = flavour
        started = time.perf_counter()
        spec_module.run_spec(ScenarioSpec.from_dict(document).validate())
        return time.perf_counter() - started


class StorageSteady(StorageWorkload):
    name = "storage-steady"

    def make_spec(self, tiny: bool) -> ScenarioSpec:
        if tiny:
            return steady_spec(self.seed, 2)
        return steady_spec(self.seed, 20 if self.smoke else 500)

    def invariants(self, result: Dict[str, Any]) -> List[str]:
        # The differential oracle, from outside: with no transfers issued the
        # dynamic-weighted store must behave exactly like static majority ABD.
        document = dict(self.document)
        document["cluster"] = dict(document["cluster"], flavour="static-majority")
        static = spec_module.run_spec(ScenarioSpec.from_dict(document).validate())
        return [
            f"storage-steady: {key} differs from the static-majority run"
            for key in _COMPARED_WITH_STATIC
            if result[key] != static[key]
        ]


class ReassignChurn(StorageWorkload):
    name = "reassign-churn"
    stable_stack = True

    def make_spec(self, tiny: bool) -> ScenarioSpec:
        if tiny:
            return churn_spec(self.seed, 2, 1, shards=2, rounds=1)
        if self.smoke:
            return churn_spec(self.seed, 8, 3, shards=2, rounds=4, delta=0.3)
        return churn_spec(self.seed, 100, 20)

    def invariants(self, result: Dict[str, Any]) -> List[str]:
        problems = []
        cluster = self.spec.cluster
        floor = cluster.n / (2.0 * (cluster.n - cluster.f))
        for shard, weights in result["shard_weights"].items():
            if abs(sum(weights.values()) - cluster.n) > 1e-9:
                problems.append(f"reassign-churn: shard {shard} weights do not sum to n")
            if min(weights.values()) <= floor:
                problems.append(f"reassign-churn: shard {shard} broke the RP-Integrity floor")
        outcomes = [entry["effective"] for entry in result["transfers"]]
        if True not in outcomes:
            problems.append("reassign-churn: no effective transfer")
        if False not in outcomes:
            problems.append("reassign-churn: no rejected transfer")
        return problems
