"""Tests for the experiment subsystem: registry, specs, sweeps, executor, results."""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import subprocess
import sys
import textwrap

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    ArrivalSpec,
    ClusterSpec,
    FaultSpec,
    KeySpec,
    LatencySpec,
    MixSpec,
    PhaseSpec,
    RunSpec,
    ScenarioSpec,
    Sweep,
    TransferEvent,
    WorkloadSpec,
    execute_stream,
    expand_points,
    compare_payloads,
    dumps_json,
    execute_many,
    execute_run,
    expand_grid,
    get_scenario,
    load_payload,
    payload_entry,
    register,
    register_spec,
    run_spec,
    scenario,
    scenario_names,
    write_csv,
    write_json,
)
from repro.experiments.executor import (
    ResiliencePolicy,
    RunResult,
    StreamTelemetry,
    WorkerPool,
    dispatch,
)
from repro.experiments.registry import FunctionScenario, SpecScenario

SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_builtin_catalogue_has_headline_scenarios(self):
        names = scenario_names()
        assert len(names) >= 6
        for expected in (
            "quickstart",
            "fig1-walkthrough",
            "wmqs-vs-mqs",
            "epoch-vs-epochless",
            "storage-vs-reconfig",
            "dynamic-storage-adaptation",
        ):
            assert expected in names

    def test_decorator_registers_and_lookup_returns_entry(self):
        @scenario("test-registry-demo", description="demo", tags=("test",))
        def demo(x: int = 1):
            return {"x": x}

        entry = get_scenario("test-registry-demo")
        assert entry.name == "test-registry-demo"
        assert entry.tags == ("test",)
        assert entry.defaults == {"x": 1}
        assert entry.execute() == {"x": 1}
        assert entry.execute({"x": 5}) == {"x": 5}

    def test_duplicate_registration_rejected(self):
        @scenario("test-registry-dup")
        def first():
            return {}

        with pytest.raises(ConfigurationError, match="already registered"):
            register(FunctionScenario(lambda: {}, "test-registry-dup"))

    def test_unknown_scenario_lists_known_names(self):
        with pytest.raises(ConfigurationError, match="quickstart"):
            get_scenario("no-such-scenario")

    def test_function_scenario_requires_defaults(self):
        with pytest.raises(ConfigurationError, match="default"):
            FunctionScenario(lambda x: {"x": x}, "test-no-default")

    def test_first_ever_lookups_may_race(self):
        """Two threads' first lookups in a fresh interpreter both succeed.

        The catalogue import takes tens of milliseconds; a second thread
        arriving meanwhile must wait for it, not find "(none)" registered.
        """
        script = textwrap.dedent("""
            import sys, threading
            from repro.experiments.registry import get_scenario

            sys.setswitchinterval(1e-6)
            barrier = threading.Barrier(4)
            outcomes = []

            def lookup():
                barrier.wait(timeout=30)
                try:
                    outcomes.append(get_scenario("quickstart").name)
                except Exception as error:
                    outcomes.append(f"{type(error).__name__}: {error}")

            threads = [threading.Thread(target=lookup) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            print(outcomes)
        """)
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=120, env={**os.environ, "PYTHONPATH": SRC_DIR},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == str(["quickstart"] * 4)

    def test_unknown_parameter_rejected(self):
        entry = get_scenario("fig1-walkthrough")
        with pytest.raises(ConfigurationError, match="no parameters"):
            entry.execute({"bogus": 1})


# ---------------------------------------------------------------------------
# Declarative specs
# ---------------------------------------------------------------------------

SMALL_SPEC = ScenarioSpec(
    name="test-small",
    cluster=ClusterSpec(flavour="dynamic-weighted", n=4, f=1, client_count=1),
    workload=WorkloadSpec(
        operations_per_client=3, arrivals=ArrivalSpec(mean_think_time=0.5)
    ),
    latency=LatencySpec(kind="uniform", low=0.5, high=1.5),
)


class TestScenarioSpec:
    def test_with_overrides_replaces_nested_fields(self):
        spec = SMALL_SPEC.with_overrides(
            {"cluster.n": 6, "seed": 9, "workload.mix.read_ratio": 0.9}
        )
        assert spec.cluster.n == 6
        assert spec.seed == 9
        assert spec.workload.mix.read_ratio == 0.9
        # The original is untouched (specs are frozen).
        assert SMALL_SPEC.cluster.n == 4 and SMALL_SPEC.seed == 0

    def test_with_overrides_rejects_unknown_paths(self):
        with pytest.raises(ConfigurationError, match="unknown parameter"):
            SMALL_SPEC.with_overrides({"cluster.bogus": 1})
        with pytest.raises(ConfigurationError, match="unknown parameter"):
            SMALL_SPEC.with_overrides({"nonsense": 1})

    def test_flatten_spec_exposes_dotted_parameters(self):
        flat = SMALL_SPEC.flatten()
        assert flat["cluster.n"] == 4
        assert flat["workload.operations_per_client"] == 3
        assert flat["workload.keys.zipf_s"] == 1.1
        assert flat["workload.arrivals.mean_think_time"] == 0.5
        assert flat["workload.mix.read_ratio"] == 0.5
        assert flat["latency.kind"] == "uniform"
        assert flat["seed"] == 0
        assert "name" not in flat and "description" not in flat

    def test_run_spec_produces_json_serialisable_result(self):
        result = run_spec(SMALL_SPEC)
        json.dumps(result)  # must not raise
        assert result["operations"] == 3
        assert result["flavour"] == "dynamic-weighted"
        assert result["weights"] == {"s1": 1.0, "s2": 1.0, "s3": 1.0, "s4": 1.0}

    def test_run_spec_is_deterministic(self):
        assert run_spec(SMALL_SPEC) == run_spec(SMALL_SPEC)

    def test_transfers_require_dynamic_flavour(self):
        spec = ScenarioSpec(
            name="test-bad-transfer",
            cluster=ClusterSpec(flavour="static-majority", n=4, client_count=1),
            transfers=(TransferEvent(at=1.0, source="s1", target="s2", delta=0.1),),
        )
        with pytest.raises(ConfigurationError, match="dynamic-weighted"):
            run_spec(spec)

    def test_failures_and_transfers_execute(self):
        spec = ScenarioSpec(
            name="test-crash-and-transfer",
            cluster=ClusterSpec(flavour="dynamic-weighted", n=5, f=2, client_count=1),
            workload=WorkloadSpec(
                operations_per_client=5, arrivals=ArrivalSpec(mean_think_time=2.0)
            ),
            faults=FaultSpec(crashes=(("s5", 4.0),)),
            # Stay above the RP-Integrity bound W_{S,0}/(2(n-f)) = 5/6.
            transfers=(TransferEvent(at=2.0, source="s1", target="s2", delta=0.15),),
            max_time=10_000.0,
        )
        result = run_spec(spec)
        assert result["operations"] == 5
        assert result["transfers"][0]["effective"] is True
        assert result["weights"]["s2"] == pytest.approx(1.15)

    def test_transfers_override_coerces_plain_sequences(self):
        # Overrides from the CLI/JSON arrive as lists of lists, not events.
        spec = SMALL_SPEC.with_overrides({"transfers": [[2.0, "s1", "s2", 0.2]]})
        result = run_spec(spec)
        assert result["transfers"][0]["effective"] is True
        assert result["weights"]["s2"] == pytest.approx(1.2)

    def test_malformed_transfer_override_rejected(self):
        # At construction, not inside the run: the section types its fields.
        with pytest.raises(
            ConfigurationError,
            match=r"cannot build TransferEvent.*\(at, source, target, delta\[, shard\]\)",
        ) as caught:
            SMALL_SPEC.with_overrides({"transfers": [[2.0, "s1"]]})
        assert caught.value.path == "transfers[0]"

    def test_cluster_n_must_match_explicit_weights(self):
        cluster = ClusterSpec(
            flavour="static-weighted", n=7, f=1,
            initial_weights=(("s1", 1.6), ("s2", 1.6), ("s3", 0.7), ("s4", 0.7), ("s5", 0.4)),
        )
        with pytest.raises(ConfigurationError, match="does not match"):
            cluster.system_config()

    def test_fixed_request_scenarios_validate_n(self):
        for name in ("fig1-walkthrough", "epoch-vs-epochless"):
            with pytest.raises(ConfigurationError, match="n >= 7"):
                get_scenario(name).execute({"n": 5})

    @pytest.mark.parametrize("value", ["x", 0, -1, True])
    def test_wmqs_vs_mqs_names_a_bad_total_weight(self, value):
        # Used to surface as "no feasible weight assignment for homogeneous
        # LAN (5 sites)": a blanket `except Exception` swallowed the cause.
        with pytest.raises(ConfigurationError, match="total_weight_per_server"):
            get_scenario("wmqs-vs-mqs").execute({"total_weight_per_server": value})

    def test_unknown_latency_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="kind must be one of"):
            LatencySpec(kind="bogus").validate()

    def test_unknown_flavour_rejected(self):
        with pytest.raises(ConfigurationError, match="flavour") as caught:
            ClusterSpec(flavour="bogus").validate("cluster.")
        assert caught.value.path == "cluster.flavour"


# ---------------------------------------------------------------------------
# Sweep expansion
# ---------------------------------------------------------------------------


class TestSweep:
    def test_grid_expansion_is_cartesian_and_ordered(self):
        runs = expand_grid("demo", grid={"b": [1, 2], "a": ["x", "y", "z"]})
        assert len(runs) == 6
        # Axes are sorted by name; values keep their given order.
        assert runs[0].params == (("a", "x"), ("b", 1))
        assert runs[1].params == (("a", "x"), ("b", 2))
        assert runs[-1].params == (("a", "z"), ("b", 2))
        assert len({run.run_id for run in runs}) == 6

    def test_seed_lists_are_an_axis(self):
        runs = expand_grid("demo", grid={"cluster.n": [4, 5], "seed": [0, 1, 2]})
        assert len(runs) == 6
        seeds = [run.params_dict["seed"] for run in runs]
        assert seeds == [0, 1, 2, 0, 1, 2]

    def test_base_params_are_fixed_across_runs(self):
        runs = expand_grid("demo", grid={"seed": [0, 1]}, base={"cluster.n": 7})
        assert all(run.params_dict["cluster.n"] == 7 for run in runs)

    def test_grid_axis_overrides_base(self):
        runs = expand_grid("demo", grid={"seed": [3]}, base={"seed": 0})
        assert runs == [RunSpec("demo", (("seed", 3),))]

    def test_empty_grid_yields_single_run(self):
        assert expand_grid("demo") == [RunSpec("demo", ())]

    def test_invalid_axes_rejected(self):
        with pytest.raises(ConfigurationError, match="no values"):
            expand_grid("demo", grid={"seed": []})
        with pytest.raises(ConfigurationError, match="list/tuple"):
            expand_grid("demo", grid={"seed": "012"})


# ---------------------------------------------------------------------------
# Executor: serial / parallel equivalence
# ---------------------------------------------------------------------------


class TestExecutor:
    def test_execute_run_resolves_registry(self):
        result = execute_run(RunSpec("fig1-walkthrough"))
        assert result.run_id == "fig1-walkthrough"
        assert [row["effective"] for row in result.result["transfers"]] == [
            True, True, True, False, False,
        ]

    def test_parallel_equals_serial(self):
        runs = expand_grid(
            "quickstart",
            grid={"seed": [0, 1, 2]},
            base={"workload.operations_per_client": 3},
        )
        serial = execute_many(runs, workers=1)
        parallel = execute_many(runs, workers=3)
        assert dumps_json(serial) == dumps_json(parallel)

    def test_results_preserve_input_order(self):
        runs = expand_grid("quickstart", grid={"seed": [5, 1, 3]},
                           base={"workload.operations_per_client": 2})
        results = execute_many(runs, workers=2)
        assert [r.params for r in results] == [run.params for run in runs]

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ConfigurationError, match="workers"):
            execute_many([], workers=0)


# ---------------------------------------------------------------------------
# Result sinks and comparison
# ---------------------------------------------------------------------------


class TestResults:
    def _small_results(self):
        runs = expand_grid("quickstart", grid={"seed": [0, 1]},
                           base={"workload.operations_per_client": 2})
        return execute_many(runs)

    def test_json_round_trip(self, tmp_path):
        results = self._small_results()
        path = tmp_path / "results.json"
        write_json(results, str(path))
        payload = load_payload(str(path))
        expected = [payload_entry(result) for result in results]
        assert payload == expected
        assert compare_payloads(payload, expected) == []

    @pytest.mark.parametrize("count", [0, 1, 4])
    def test_dumps_json_is_one_indented_dump_of_the_payload(self, count):
        results = [
            RunResult("s", (("note", f"line\nnext é {index}"),), {
                "rows": [{"x": index, "label": "ü\n"}], "empty": {}, "none": [],
            })
            for index in range(count)
        ]
        assert dumps_json(results) == json.dumps(
            [payload_entry(result) for result in results], indent=2, sort_keys=True)

    def test_csv_sink_writes_flattened_columns(self, tmp_path):
        results = self._small_results()
        path = tmp_path / "results.csv"
        write_csv(results, str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 runs
        header = lines[0].split(",")
        assert "run_id" in header
        assert "param.seed" in header
        assert "result.duration" in header

    def test_compare_detects_field_and_run_diffs(self):
        results = self._small_results()
        current = [payload_entry(result) for result in results]
        baseline = json.loads(json.dumps(current))
        baseline[0]["result"]["operations"] += 1
        del baseline[1]
        diffs = compare_payloads(current, baseline)
        kinds = {diff["kind"] for diff in diffs}
        assert kinds == {"field", "extra-run"}
        field_diff = next(diff for diff in diffs if diff["kind"] == "field")
        assert field_diff["field"] == "result.operations"

    def test_compare_respects_relative_tolerance(self):
        current = [{"run_id": "r", "scenario": "s", "params": {}, "result": {"x": 1.0}}]
        baseline = [{"run_id": "r", "scenario": "s", "params": {}, "result": {"x": 1.0 + 1e-12}}]
        assert compare_payloads(current, baseline) == []
        assert compare_payloads(current, baseline, rel_tol=1e-15, abs_tol=0.0) != []

    def test_compare_treats_nan_as_equal(self):
        payload = [{"run_id": "r", "scenario": "s", "params": {},
                    "result": {"x": math.nan}}]
        assert compare_payloads(payload, json.loads(json.dumps(payload))) == []


# ---------------------------------------------------------------------------
# Spec-backed registration helper
# ---------------------------------------------------------------------------


class TestRegisterSpec:
    def test_register_spec_round_trip(self):
        register_spec(SMALL_SPEC, tags=("test",))
        entry = get_scenario("test-small")
        assert entry.kind == "spec"
        assert entry.defaults["cluster.n"] == 4
        result = entry.execute({"cluster.n": 5, "cluster.f": 2})
        assert len(result["weights"]) == 5


# ---------------------------------------------------------------------------
# Sweep sampling and explicit points
# ---------------------------------------------------------------------------


class TestSweepSampling:
    GRID = {"cluster.n": [4, 5, 6], "seed": [0, 1, 2, 3]}

    def test_sample_is_deterministic_and_distinct(self):
        sweep = Sweep.of("demo", grid=self.GRID)
        assert sweep.size == 12
        first = sweep.sample(5, seed=7)
        second = sweep.sample(5, seed=7)
        assert first == second
        assert len(set(first)) == 5

    def test_sample_is_a_subset_of_the_grid_in_grid_order(self):
        sweep = Sweep.of("demo", grid=self.GRID)
        full = sweep.runs()
        sampled = sweep.sample(4, seed=1)
        positions = [full.index(run) for run in sampled]
        assert positions == sorted(positions)

    def test_different_seeds_sample_differently(self):
        sweep = Sweep.of("demo", grid=self.GRID)
        assert sweep.sample(5, seed=0) != sweep.sample(5, seed=1)

    def test_oversampling_degenerates_to_the_full_grid(self):
        sweep = Sweep.of("demo", grid=self.GRID)
        assert sweep.sample(100, seed=0) == sweep.runs()

    def test_sample_keeps_base_params(self):
        sweep = Sweep.of("demo", grid={"seed": [0, 1, 2]}, base={"cluster.n": 7})
        for run in sweep.sample(2, seed=0):
            assert run.params_dict["cluster.n"] == 7

    def test_invalid_sample_size_rejected(self):
        with pytest.raises(ConfigurationError, match="sample size"):
            Sweep.of("demo", grid=self.GRID).sample(0)

    def test_expand_points_layers_over_base(self):
        runs = expand_points(
            "demo",
            points=[{"cluster.n": 5}, {"cluster.n": 7, "seed": 3}],
            base={"seed": 0},
        )
        assert runs[0].params_dict == {"cluster.n": 5, "seed": 0}
        assert runs[1].params_dict == {"cluster.n": 7, "seed": 3}

    def test_expand_points_rejects_bad_input(self):
        with pytest.raises(ConfigurationError, match="at least one point"):
            expand_points("demo", points=[])
        with pytest.raises(ConfigurationError, match="mapping"):
            expand_points("demo", points=["cluster.n=5"])


class TestLatinHypercubeSampling:
    GRID = {"cluster.n": [3, 4, 5, 6, 7, 8, 9, 10], "seed": [0, 1, 2, 3, 4, 5, 6, 7]}

    def test_lhs_marginals_cover_every_axis_value(self):
        # With n == len(values) per axis, LHS strata are a permutation, so
        # every axis value appears exactly once — the stratification uniform
        # sampling only achieves in expectation.
        sweep = Sweep.of("demo", grid=self.GRID)
        runs = sweep.sample(8, seed=0, method="lhs")
        assert len(runs) == 8
        for axis, values in self.GRID.items():
            marginal = sorted(run.params_dict[axis] for run in runs)
            assert marginal == sorted(values)

    def test_lhs_stratifies_where_uniform_does_not(self):
        # Seed 0 makes the comparison concrete: the uniform draw of 8 points
        # from the 64-point grid misses several axis values; LHS misses none.
        sweep = Sweep.of("demo", grid=self.GRID)
        uniform = sweep.sample(8, seed=0, method="uniform")
        uniform_ns = {run.params_dict["cluster.n"] for run in uniform}
        assert len(uniform_ns) < len(self.GRID["cluster.n"])
        lhs_ns = {run.params_dict["cluster.n"]
                  for run in sweep.sample(8, seed=0, method="lhs")}
        assert lhs_ns == set(self.GRID["cluster.n"])

    def test_lhs_is_seeded_and_deterministic(self):
        sweep = Sweep.of("demo", grid=self.GRID)
        assert sweep.sample(6, seed=7, method="lhs") == sweep.sample(
            6, seed=7, method="lhs"
        )
        assert sweep.sample(6, seed=7, method="lhs") != sweep.sample(
            6, seed=8, method="lhs"
        )

    def test_lhs_points_are_grid_points_in_grid_order(self):
        sweep = Sweep.of("demo", grid=self.GRID)
        full = sweep.runs()
        sampled = sweep.sample(5, seed=3, method="lhs")
        positions = [full.index(run) for run in sampled]
        assert positions == sorted(positions)

    def test_lhs_keeps_base_params_and_degenerates_to_full_grid(self):
        sweep = Sweep.of("demo", grid={"seed": [0, 1, 2]}, base={"cluster.n": 7})
        for run in sweep.sample(2, seed=0, method="lhs"):
            assert run.params_dict["cluster.n"] == 7
        assert sweep.sample(100, seed=0, method="lhs") == sweep.runs()

    def test_lhs_covers_short_axes_fully_when_n_exceeds_them(self):
        # An axis shorter than n still has every value appear (repeatedly).
        sweep = Sweep.of("demo", grid={"cluster.n": [4, 5],
                                       "seed": [0, 1, 2, 3, 4, 5]})
        runs = sweep.sample(6, seed=1, method="lhs")
        assert {run.params_dict["cluster.n"] for run in runs} == {4, 5}

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError, match="sample method"):
            Sweep.of("demo", grid=self.GRID).sample(4, method="sobol")

    def test_invalid_lhs_sample_size_rejected(self):
        with pytest.raises(ConfigurationError, match="sample size"):
            Sweep.of("demo", grid=self.GRID).sample_lhs(0)


# ---------------------------------------------------------------------------
# Streaming executor
# ---------------------------------------------------------------------------


class TestExecuteStream:
    def _runs(self):
        return expand_grid("quickstart", grid={"seed": [0, 1, 2]},
                           base={"workload.operations_per_client": 2})

    def test_stream_yields_every_index_once_with_progress(self):
        runs = self._runs()
        seen = []
        pairs = list(execute_stream(runs, workers=1,
                                    progress=lambda done, total: seen.append((done, total))))
        assert sorted(index for index, _ in pairs) == [0, 1, 2]
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_parallel_stream_matches_serial_results(self):
        runs = self._runs()
        serial = {index: result for index, result in execute_stream(runs, workers=1)}
        parallel = {index: result for index, result in execute_stream(runs, workers=3)}
        assert serial == parallel

    def test_execute_many_progress_callback(self):
        seen = []
        execute_many(self._runs(), workers=1,
                     progress=lambda done, total: seen.append(done))
        assert seen == [1, 2, 3]

    def test_stream_invalid_worker_count_rejected(self):
        with pytest.raises(ConfigurationError, match="workers"):
            list(execute_stream([], workers=0))


# ---------------------------------------------------------------------------
# Composable workload specs inside scenarios
# ---------------------------------------------------------------------------


class TestWorkloadSpecIntegration:
    def test_zipf_override_path_changes_the_workload(self):
        spec = SMALL_SPEC.with_overrides(
            {"workload.keys.kind": "zipfian", "workload.keys.zipf_s": 2.0}
        )
        assert spec.workload.keys.kind == "zipfian"
        assert spec.workload.keys.zipf_s == 2.0
        result = run_spec(spec)
        assert result["operations"] == 3
        assert result["workload"]["keys"]["distinct"] >= 1

    def test_open_loop_spec_runs(self):
        spec = SMALL_SPEC.with_overrides(
            {"workload.arrivals.kind": "poisson", "workload.arrivals.rate": 2.0,
             "max_time": 10_000.0}
        )
        result = run_spec(spec)
        assert result["workload"]["arrivals"]["open_loop_fraction"] == 1.0

    def test_phase_override_round_trips_through_cli_shapes(self):
        # Phases arriving from JSON/CLI are plain nested lists.
        spec = SMALL_SPEC.with_overrides(
            {"workload.phases": [[1.0, [["mix.read_ratio", 1.0]]]]}
        )
        result = run_spec(spec)
        assert result["operations"] == 3

    def test_phase_override_must_target_an_axis(self):
        spec = SMALL_SPEC.with_overrides(
            {"workload.phases": [[1.0, [["operations_per_client", 99]]]]}
        )
        with pytest.raises(ConfigurationError, match="axes"):
            run_spec(spec)

    def test_phase_override_must_target_a_field_inside_an_axis(self):
        # A bare axis name would replace the whole sub-spec with a raw value.
        spec = SMALL_SPEC.with_overrides({"workload.phases": [[1.0, [["keys", 5]]]]})
        with pytest.raises(ConfigurationError, match="field inside"):
            run_spec(spec)

    def test_malformed_phase_rejected(self):
        # ``[1.0]`` is a phase with no overrides under the positional
        # shorthand; three positional values are one too many.
        with pytest.raises(
            ConfigurationError, match="cannot build PhaseSpec"
        ) as caught:
            SMALL_SPEC.with_overrides({"workload.phases": [[1.0, 2, 3]]})
        assert caught.value.path == "workload.phases[0]"

    def test_unknown_kinds_rejected(self):
        with pytest.raises(ConfigurationError, match="kind must be one of uniform"):
            KeySpec(kind="bogus").validate()
        with pytest.raises(ConfigurationError, match="kind must be one of closed"):
            ArrivalSpec(kind="bogus").validate()

    def test_trace_replay_spec(self, tmp_path):
        from repro.workloads import write_trace
        workload = SMALL_SPEC.workload.build(("c1",), seed=0)
        path = tmp_path / "trace.jsonl"
        write_trace(workload, str(path))
        spec = SMALL_SPEC.with_overrides({"workload.trace": str(path)})
        assert run_spec(spec) == run_spec(spec)
        assert run_spec(spec)["operations"] == 3

    def test_result_carries_workload_stats(self):
        result = run_spec(SMALL_SPEC)
        assert result["workload"]["operations"] == 3
        assert 0.0 <= result["workload"]["read_fraction"] <= 1.0

    def test_workload_scenarios_registered(self):
        names = scenario_names()
        for expected in ("skewed-reassignment", "open-loop-saturation",
                         "hotspot-shift", "hotspot-shift-monitoring"):
            assert expected in names

    def test_skewed_sweep_serial_equals_parallel(self):
        runs = expand_grid(
            "skewed-reassignment",
            grid={"workload.keys.zipf_s": [0.8, 1.4]},
            base={"workload.operations_per_client": 3},
        )
        serial = execute_many(runs, workers=1)
        parallel = execute_many(runs, workers=2)
        assert dumps_json(serial) == dumps_json(parallel)


def _child_pids():
    return {child.pid for child in multiprocessing.active_children()}


class TestWarmPool:
    """Workers live and die with their stream: what the warm pool's tests
    pinned, minus pool reuse.  (The class keeps its name so the surviving
    test ids stay stable.)"""

    def test_chained_parallel_calls_return_identical_results(
        self, leaked_children
    ):
        runs = expand_grid(
            "quickstart",
            grid={"seed": [0, 1]},
            base={"workload.operations_per_client": 2},
        )
        first = execute_many(runs, workers=2)
        second = execute_many(runs, workers=2)
        assert dumps_json(first) == dumps_json(second)
        assert dumps_json(first) == dumps_json(execute_many(runs, workers=1))
        assert leaked_children() == []

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="spawned workers re-import only the built-in catalogue",
    )
    def test_scenario_registered_between_calls_is_visible_to_workers(self):
        runs = expand_grid(
            "quickstart",
            grid={"seed": [0, 1, 2]},
            base={"workload.operations_per_client": 2},
        )
        execute_many(runs, workers=2)
        # Workers are forked per stream, so they see the registry as it is
        # when the stream starts, whatever ran before.
        register(FunctionScenario(lambda seed=0: {"ok": seed}, name="late-probe"))
        probes = [RunSpec("late-probe", params=(("seed", seed),))
                  for seed in range(3)]
        results = execute_many(probes, workers=3)
        assert [result.result for result in results] == [
            {"ok": 0}, {"ok": 1}, {"ok": 2},
        ]

    def test_serial_execution_never_forks_a_pool(self):
        runs = expand_grid(
            "quickstart",
            grid={"seed": [0, 1]},
            base={"workload.operations_per_client": 2},
        )
        before = _child_pids()
        stream = execute_stream(runs, workers=1)
        next(stream)  # mid-stream: a forked worker would be alive now
        assert _child_pids() == before
        stream.close()

    def test_interleaved_streams_with_different_shapes_both_complete(
        self, leaked_children
    ):
        # Each stream owns its workers, so a concurrently started stream
        # with a different worker count cannot disturb one mid-consumption.
        runs = expand_grid(
            "quickstart",
            grid={"seed": [0, 1]},
            base={"workload.operations_per_client": 2},
        )
        first = execute_stream(runs, workers=2)
        head_index, _ = next(first)  # first stream is now mid-consumption
        second = execute_stream(runs, workers=3)
        second_results = sorted(index for index, _ in second)
        first_results = sorted([head_index] + [index for index, _ in first])
        assert second_results == [0, 1]
        assert first_results == [0, 1]
        assert leaked_children() == []

    def test_abandoned_stream_cancels_queued_runs(self, leaked_children):
        # Closing a stream mid-consumption must stop its workers (no
        # orphaned runs burning CPU).
        runs = expand_grid(
            "quickstart",
            grid={"seed": [0, 1, 2, 3]},
            base={"workload.operations_per_client": 2},
        )
        before = _child_pids()
        stream = execute_stream(runs, workers=2)
        next(stream)
        assert len(_child_pids() - before) == 2
        stream.close()  # abandoned: generator finally must stop the pool
        assert leaked_children() == []


def _reports_its_pid(execute, index, run, entry):
    """An ``around`` hook: the run's result plus the process that ran it."""
    result = execute(run, entry)
    result.result["pid"] = os.getpid()
    return result


class TestOwnersPool:
    """A pool handed to ``dispatch`` is its owner's: grown, used and left
    running — one worker protocol, settings at the head of each stream."""

    RUNS = expand_grid(
        "quickstart",
        grid={"seed": [0, 1, 2, 3]},
        base={"workload.operations_per_client": 2},
    )

    @staticmethod
    def stream(runs, pool, workers=1, around=None, entry=None):
        return dispatch(list(enumerate(runs)), workers, False, ResiliencePolicy(),
                        StreamTelemetry(), entry, around, pool)

    def test_streams_share_the_workers_and_the_owner_closes_them(
        self, leaked_children
    ):
        serial = execute_many(self.RUNS, workers=1)
        with WorkerPool() as pool:
            assert (pool.starts, pool.alive()) == (0, 0)
            for _ in range(3):
                # One worker: input order, the serial results, its pid.
                served = list(self.stream(self.RUNS, pool, around=_reports_its_pid))
                assert [index for index, _ in served] == [0, 1, 2, 3]
                pids = {result.result.pop("pid") for _, result in served}
                assert dumps_json([result for _, result in served]) == dumps_json(serial)
                assert pids == {pool.workers[0].process.pid} != {os.getpid()}
                assert (pool.starts, pool.alive()) == (1, 1)
        assert (pool.starts, pool.alive()) == (1, 0)
        assert leaked_children() == []

    def test_a_pool_grows_to_the_widest_stream_and_a_narrow_one_uses_its_share(
        self, leaked_children
    ):
        with WorkerPool(1) as pool:
            wide = list(self.stream(self.RUNS, pool, workers=3))
            assert sorted(index for index, _ in wide) == [0, 1, 2, 3]
            assert (pool.starts, pool.alive()) == (3, 3)
            narrow = list(self.stream(self.RUNS, pool, around=_reports_its_pid))
            assert [index for index, _ in narrow] == [0, 1, 2, 3]
            assert {result.result["pid"] for _, result in narrow} == {
                pool.workers[0].process.pid}
            assert (pool.starts, pool.alive()) == (3, 3)
        assert leaked_children() == []

    def test_an_abandoned_stream_leaves_every_worker_idle(self, leaked_children):
        with WorkerPool() as pool:
            stream = self.stream(self.RUNS, pool, workers=2)
            next(stream)
            stream.close()  # one worker may be mid-run: killed and replaced
            assert all(worker.task is None for worker in pool.workers)
            assert pool.alive() == 2 and pool.starts in (2, 3)
            again = list(self.stream(self.RUNS, pool, workers=2))
            assert sorted(index for index, _ in again) == [0, 1, 2, 3]
        assert leaked_children() == []

    def test_each_stream_runs_its_own_entry_under_one_name(self, leaked_children):
        base = get_scenario("quickstart").spec.with_overrides(
            {"name": "pool-probe", "workload.operations_per_client": 2})
        run = [RunSpec("pool-probe", params=())]
        with WorkerPool() as pool:
            seeds = [
                next(self.stream(
                    run, pool, entry=SpecScenario(base.with_overrides({"seed": seed}))
                ))[1].result["seed"]
                for seed in (101, 202, 101)
            ]
            assert pool.starts == 1
        assert seeds == [101, 202, 101]
        assert "pool-probe" not in scenario_names()
        assert leaked_children() == []
