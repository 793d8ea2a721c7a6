"""Smoke test of the macro benchmark: every workload at a tiny scale.

No timing is asserted — only that the ruler is complete and well-formed:
every named metric is emitted, finite and unit-tagged; exact metrics repeat
across runs and move with the seed; span self times add up to the traced
repetition; ``compare.py`` flags a synthetic slowdown and passes an identical
pair; and ``BENCHMARK.json`` names exactly what ``run.py`` emits.
"""

from __future__ import annotations

import argparse
import copy
import importlib.util
import json
import math
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
if HERE not in sys.path:
    sys.path.insert(0, HERE)


def _load(name: str, filename: str):
    spec = importlib.util.spec_from_file_location(name, os.path.join(HERE, filename))
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


perf_run = _load("perf_run", "run.py")
perf_compare = _load("perf_compare", "compare.py")
import perf_metrics  # noqa: E402

#: Where most exact metrics live, and cheap enough to produce three times.
REPEATED = ("storage-steady", "reassign-churn")


def _args(seed: int, trace) -> argparse.Namespace:
    return argparse.Namespace(
        seed=seed, seconds=0.0, trace=trace, smoke=True, profile=False, json=None
    )


@pytest.fixture(scope="module")
def smoke():
    """Every workload once, both passes, at smoke scale."""
    return {name: perf_run.run_workload(name, _args(1, None))
            for name in perf_metrics.WORKLOADS}


@pytest.fixture(scope="module")
def repeats():
    """The traced pass again with the same seed, and once with another."""
    return {
        name: (perf_run.run_workload(name, _args(1, 1)),
               perf_run.run_workload(name, _args(2, 1)))
        for name in REPEATED
    }


def test_every_metric_is_emitted_finite_and_unit_tagged(smoke):
    end_to_end = {name: unit for name, unit, _, _ in perf_metrics.END_TO_END}
    per_layer = {name: unit for name, unit, _ in perf_metrics.PER_LAYER}
    entered = set()
    for name, section in smoke.items():
        assert section["correct"], (name, section["notes"])
        assert section["attempted"] >= 1 and section["failed"] == 0
        for group, expected in (("end_to_end", end_to_end), ("per_layer", per_layer)):
            assert list(section[group]) == list(expected), name
            for metric, entry in section[group].items():
                assert entry["unit"] == expected[metric], (name, metric)
                assert math.isfinite(entry["value"]), (name, metric)
        for metric, entry in section["end_to_end"].items():
            assert entry["value"] > 0, (name, metric)
        entered |= {m for m, entry in section["per_layer"].items() if entry["value"]}
    # Every layer is entered by at least one workload (0 means "not entered");
    # fault and waste counters are legitimately 0 on a healthy tree this small.
    assert set(per_layer) - entered <= {
        "chaos.violations", "chaos.error_runs", "serve.rejected",
        "storage.restarts_per_op", "monitoring.transfers_attempted",
    }


def test_contract_line_has_exactly_the_driver_keys(smoke):
    name, section = next(iter(smoke.items()))
    line = json.loads(perf_run.contract_line({name: section}))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert all(set(entry) == {"value", "unit"} for entry in line["metrics"].values())


def test_exact_metrics_repeat_and_move_with_the_seed(smoke, repeats):
    for name, (same_seed, other_seed) in repeats.items():
        first = smoke[name]["per_layer"]
        moved = []
        for metric in perf_metrics.EXACT:
            assert same_seed["per_layer"][metric]["value"] == first[metric]["value"], (
                name, metric)
            if other_seed["per_layer"][metric]["value"] != first[metric]["value"]:
                moved.append(metric)
        assert moved, f"{name}: no exact metric depends on the seed"


def test_span_self_times_sum_to_the_traced_wall(smoke):
    for name, section in smoke.items():
        trace = section["trace"]
        accounted = sum(trace["self_times_s"].values())
        assert accounted == pytest.approx(trace["traced_wall_s"], rel=0.05), name


def _document(sections):
    return {"workloads": copy.deepcopy(sections)}


def test_compare_flags_a_slowdown_and_passes_an_identical_pair(smoke):
    baseline = _document(smoke)
    rows, worse = perf_compare.compare(baseline, _document(smoke))
    assert not worse
    # A side whose own quartiles are wider than the bound reads "unresolved".
    assert {row[5] for row in rows} <= {"same", "unresolved", ""}

    # Half the speed, well clear of any bound, on sides with no spread of
    # their own (so no row can hide behind "unresolved").
    slower = _document(smoke)
    for document, slowdown in ((baseline, 1.0), (slower, 2.0)):
        for section in document["workloads"].values():
            for metric, factor in (("work_per_s", 1 / slowdown), ("latency_p50_ms", slowdown)):
                entry = section["end_to_end"][metric]
                entry["value"] *= factor
                entry["q1"] = entry["q3"] = entry["value"]
    rows, worse = perf_compare.compare(baseline, slower)
    assert worse
    flagged = {(row[0], row[1]) for row in rows if row[5] == "worse"}
    assert flagged == {
        (name, metric) for name in smoke for metric in ("work_per_s", "latency_p50_ms")
    }

    changed = _document(smoke)
    changed["workloads"]["storage-steady"]["per_layer"]["simloop.events"]["value"] += 1
    assert perf_compare.compare(baseline, changed)[1], "exact metrics compare exactly"


def test_a_failed_output_check_counts_against_attempts(tmp_path):
    workload = perf_run.make_workload("storage-steady", 1, True, str(tmp_path))
    workload.prepare()
    workload.reference()
    workload.expected_text = "not what the program printed"
    outcome = workload.check(workload.run_once())
    assert outcome.failed == outcome.attempted > 0
    assert outcome.notes


def test_benchmark_json_names_exactly_what_run_py_emits():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    expected = perf_metrics.manifest(
        manifest["command"], manifest["paths"], manifest["run_seconds"]
    )
    assert manifest == expected
    assert manifest["paths"] == [os.path.relpath(HERE, ROOT)]
    assert manifest["command"][-1] == os.path.relpath(os.path.join(HERE, "run.py"), ROOT)
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in manifest["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for metric in manifest[group]:
            names.append(metric["name"])
            assert unit.match(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower")
    assert all(name.match(n) for n in names) and len(set(names)) == len(names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in manifest["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in manifest["end_to_end"])
