"""Admission is one rule: every numeric field, fed a boundary value, is either
refused by ``validate()`` naming its dotted path, or plans and runs.

The field list is derived from the declarations of every ``SpecSection``
subclass — the ``ScenarioSpec`` tree, ``JobRequest``, ``ResiliencePolicy``
and ``AssetTransferSpec`` — so a numeric field added tomorrow is probed the
day it is declared, and one the probe cannot reach fails here.  Each value
is 0, -1, NaN, infinity or a string; one that ``validate()`` admits must run
(``quickstart`` at two operations per client, the job planned and its run
executed, a stream run under the policy, the asset comparator built):
admission refuses exactly what a run cannot take.
"""

from __future__ import annotations

import dataclasses
import re
import typing
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.experiments.catalogue.assets import AssetTransferSpec
from repro.experiments.executor import ResiliencePolicy, execute_stream
from repro.experiments.plan import JobRequest, plan
from repro.experiments.registry import get_scenario
from repro.experiments.sections import NON_EMPTY, SpecSection
from repro.experiments.spec import (
    OutageSpec, PartitionSpec, PhaseSpec, ScenarioSpec, run_spec,
)
from repro.experiments.sweep import RunSpec

BOUNDARY = (0, -1, float("nan"), float("inf"), "abc")
FAST = {"workload.operations_per_client": 2}


def _base_spec():
    """``quickstart`` at two operations per client, with one entry in every
    tuple-of-sections field, so each entry's fields have a place to go."""
    spec = get_scenario("quickstart").spec.with_overrides(FAST)
    return dataclasses.replace(
        spec,
        workload=dataclasses.replace(spec.workload, phases=(PhaseSpec(at=10.0),)),
        faults=dataclasses.replace(
            spec.faults,
            outages=(OutageSpec("s5", 10.0, 20.0),),
            partitions=(PartitionSpec(10.0, (("s5",),), 20.0),),
        ),
    )


#: The documents a probe edits: a field's path resolves inside one of them.
BASES = {
    ScenarioSpec: _base_spec().to_dict(),
    JobRequest: {"kind": "sweep", "scenario": "quickstart", "params": FAST},
    ResiliencePolicy: {},
    AssetTransferSpec: {},
}

#: A tuple field's numbers sit inside its entries: the probe value takes an
#: entry's number slot, the rest of the document stays valid.
ENTRIES = {
    "latency.delays": lambda value: [["s1", value]],
    "faults.crashes": lambda value: [["s5", value]],
    "faults.recoveries": lambda value: [["s5", value]],
    "cluster.initial_weights": lambda value: [
        ["s1", value], ["s2", 1], ["s3", 1], ["s4", 1], ["s5", 1]],
    "seeds": lambda value: [value],
}
#: Sibling values an entry needs: a recovery recovers a crashed process.
BESIDE = {"faults.recoveries": {"faults.crashes": [["s5", 1.0]]}}

#: What makes the run read a field (by path prefix): the kind that uses it,
#: the wrapper or loop it configures.  An admitted value must then run *as
#: used*, not merely sit beside a kind that ignores it.
USES = {
    "workload.keys.zipf_s": {"workload.keys.kind": "zipfian"},
    "workload.keys.hot_": {"workload.keys.kind": "hotspot"},
    "workload.keys.offset": {"workload.keys.kind": "hotspot"},
    "workload.arrivals.rate": {"workload.arrivals.kind": "poisson"},
    "workload.arrivals.burst_": {"workload.arrivals.kind": "onoff"},
    "workload.arrivals.idle_time": {"workload.arrivals.kind": "onoff"},
    "latency.value": {"latency.kind": "constant"},
    "latency.median": {"latency.kind": "lognormal"},
    "latency.sigma": {"latency.kind": "lognormal"},
    "latency.delays": {"latency.kind": "per-link"},
    "latency.slow_": {"latency.slow": ["s5"]},
    "latency.degraded_": {"latency.degraded": ["s5"]},
    "monitoring.": {"monitoring.enabled": True},
}


def _numeric(hint) -> bool:
    if hint is bool:
        return False
    if hint in (int, float):
        return True
    return any(_numeric(arg) for arg in typing.get_args(hint))


def _section_of(hint):
    for candidate in (hint, *typing.get_args(hint)):
        if isinstance(candidate, type) and issubclass(candidate, SpecSection):
            return candidate
    return None


def _numeric_fields(cls, prefix=""):
    """Every numeric field below ``cls``, by dotted path, from its hints."""
    hints = typing.get_type_hints(cls)
    for field in dataclasses.fields(cls):
        hint = hints[field.name]
        section = _section_of(hint)
        path = f"{prefix}{field.name}"
        if section is not None:
            index = "[0]" if typing.get_origin(hint) is tuple else ""
            yield from _numeric_fields(section, f"{path}{index}.")
        elif _numeric(hint):
            arms = typing.get_args(hint) or (hint,)  # Optional[X]'s, or X
            yield path, all(arm in (int, float, type(None)) for arm in arms)


FIELDS = [
    (root, path, scalar)
    for root in BASES
    for path, scalar in _numeric_fields(root)
]
CASES = [
    pytest.param(root, path, scalar, value,
                 id=f"{root.__name__}.{path}={value!r}")
    for root, path, scalar in FIELDS
    for value in BOUNDARY
]


def _place(document, path, value):
    """Set ``path`` (``faults.outages[0].until``) in a ``to_dict`` document."""
    node = document
    steps = re.findall(r"[^.\[\]]+|\[\d+\]", path)
    for step in steps[:-1]:
        node = node[int(step[1:-1])] if step.startswith("[") else node[step]
    if not isinstance(node, (dict, list)) or (
        isinstance(node, list) and int(steps[-1][1:-1]) >= len(node)
    ):
        pytest.fail(f"{path}: the base document has no place for it")
    node[steps[-1]] = value


def _probe(root, path, scalar, value):
    """The root object with ``value`` at ``path``; constructing it must not
    judge the value (``validate()`` does)."""
    document = _deep_copy(BASES[root])
    for prefix, uses in USES.items():
        if root is ScenarioSpec and path.startswith(prefix):
            for used, setting in uses.items():
                _place(document, used, setting)
    if not scalar:
        if path not in ENTRIES:
            pytest.fail(f"{root.__name__}.{path} is numeric and has no probe "
                        "case: add its entry shape to ENTRIES")
        for beside, shape in BESIDE.get(path, {}).items():
            _place(document, beside, shape)
        value = ENTRIES[path](value)
    _place(document, path, value)
    return root.from_dict(document)


def _deep_copy(document):
    if isinstance(document, dict):
        return {key: _deep_copy(item) for key, item in document.items()}
    if isinstance(document, list):
        return [_deep_copy(item) for item in document]
    return document


def _run(admitted):
    if isinstance(admitted, ScenarioSpec):
        run_spec(admitted)
    elif isinstance(admitted, JobRequest):
        planned = plan(admitted)
        planned.entry.execute(planned.runs[0].params_dict)
    elif isinstance(admitted, ResiliencePolicy):
        run = RunSpec(scenario="quickstart", params=tuple(FAST.items()))
        [(_, outcome)] = execute_stream([run], policy=admitted)
        assert "error" not in outcome.result, outcome.result
    else:
        admitted.build()


def test_every_root_has_numeric_fields_and_the_probe_reaches_them():
    for root in BASES:
        assert any(field_root is root for field_root, _, _ in FIELDS), root
    paths = {path for root, path, _ in FIELDS if root is ScenarioSpec}
    # One field per nesting shape: a scalar, a nested section's, a tuple's
    # entries, and a section inside a tuple.
    assert {"seed", "workload.keys.zipf_s", "latency.delays",
            "transfers[0].delta", "faults.outages[0].until"} <= paths


def _sections(cls, prefix=""):
    """``(dotted prefix, section class)`` for ``cls`` and every section below."""
    yield prefix, cls
    hints = typing.get_type_hints(cls)
    for field in dataclasses.fields(cls):
        section = _section_of(hints[field.name])
        if section is not None:
            index = "[i]" if typing.get_origin(hints[field.name]) is tuple else ""
            yield from _sections(section, f"{prefix}.{field.name}{index}".lstrip("."))


def _stated(bound):
    """A bound as README states it: ``>= 1``, ``(non-empty)``, ``one of a, b``."""
    if bound is NON_EMPTY:
        return "(non-empty)"
    if isinstance(bound, tuple) and len(bound) == 5 and isinstance(bound[1], bool):
        return bound[4].strip()
    return "one of " + ", ".join(bound)


def test_the_readme_states_every_declared_bound():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8").splitlines()
    for prefix, section in _sections(ScenarioSpec):
        label = f"`{prefix}`" if prefix else "(root)"
        bounds = "; ".join(f"`{name}` {_stated(bound)}"
                           for name, bound in section._bounds.items())
        assert f"| {label} | {bounds} |" in readme, section.__name__


@pytest.mark.parametrize("root, path, scalar, value", CASES)
def test_a_boundary_value_is_refused_with_its_path_or_runs(root, path, scalar, value):
    candidate = _probe(root, path, scalar, value)
    try:
        admitted = candidate.validate()
    except ConfigurationError as error:
        assert error.path == path or error.path.startswith(f"{path}["), (
            f"refused {value!r} at {error.path!r}, not at {path!r}: {error}")
        return
    _run(admitted)


@pytest.mark.parametrize("override, path", [
    (("keys.zipf_s", "abc"), "workload.phases[0].keys.zipf_s"),
    (("mix.read_ratio", 2), "workload.phases[0].mix.read_ratio"),
    (("keys.bogus", 1), "workload.phases[0].keys.bogus"),
])
def test_a_phase_override_is_admitted_like_the_field_it_overrides(override, path):
    spec = get_scenario("quickstart").spec.with_overrides(
        {"workload.phases": [[3.0, [list(override)]]]})
    with pytest.raises(ConfigurationError) as caught:
        spec.validate()
    assert caught.value.path == path


@pytest.mark.parametrize("params, path, words", [
    ({"observability.enabled": "yes"}, "observability.enabled", "a bool"),
    ({"workload.phases": [[3.0, [["keys.offset"]]]]},
     "workload.phases[0].overrides[0]", "[a non-empty string, any value]"),
    ({"faults.partitions": [[3.0, [["s1", 2]]]]},
     "faults.partitions[0].groups[0]", "a list, each a non-empty string"),
    ({"latency.delays": [["s1", "far"]]}, "latency.delays[0]",
     "[a non-empty string, a finite number >= 0]"),
])
def test_a_refusal_words_the_declared_type(params, path, words):
    spec = get_scenario("quickstart").spec.with_overrides(params)
    with pytest.raises(ConfigurationError, match=re.escape(words)) as caught:
        spec.validate()
    assert caught.value.path == path
