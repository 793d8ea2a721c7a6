"""The section protocol's construction invariant, as properties.

*After construction through any door, every field holds exactly its declared
type.*  The doors are the bare constructor, ``with_overrides`` (every ``-p`` /
``-g``, every ``POST /jobs`` ``params`` / ``grid``, every chaos axis) and
``from_dict``; the inputs are the positional shorthand, the object form, or a
mix.  Whatever the door and the form, the specs are equal, hash equal, survive
``to_dict()`` and serialise identically — and a value that cannot take its
field's shape is rejected where the request is planned, not inside a run.
"""

from __future__ import annotations

import dataclasses
import glob
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.experiments.cli import main
from repro.experiments.plan import JobRequest, plan
from repro.experiments.registry import get_scenario
from repro.experiments.spec import (
    OutageSpec,
    PartitionSpec,
    PhaseSpec,
    ScenarioSpec,
    TransferEvent,
    load_spec_file,
)
from repro.serve.routes import dispatch
from repro.serve.service import ExperimentService

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC_FILES = sorted(glob.glob(os.path.join(REPO, "examples", "specs", "*.json")))


def base_specs():
    specs = [get_scenario("quickstart").spec]
    specs += [load_spec_file(path) for path in SPEC_FILES]
    return specs


BASES = base_specs()
BASE_IDS = ["quickstart"] + [os.path.basename(path) for path in SPEC_FILES]


def test_the_bases_are_quickstart_and_the_seven_example_specs():
    assert len(SPEC_FILES) == 7


# ---------------------------------------------------------------------------
# The three doors
# ---------------------------------------------------------------------------


def through_with_overrides(base, raw):
    return base.with_overrides(raw)


def through_from_dict(base, raw):
    document = base.to_dict()
    for path, value in raw.items():
        *sections, leaf = path.split(".")
        node = document
        for name in sections:
            node = node[name]
        node[leaf] = value
    return ScenarioSpec.from_dict(document)


def through_the_constructor(base, raw):
    def rebuilt(section, parts, value):
        fields = {
            field.name: getattr(section, field.name)
            for field in dataclasses.fields(section)
        }
        head, *rest = parts
        fields[head] = rebuilt(fields[head], rest, value) if rest else value
        return type(section)(**fields)

    spec = base
    for path, value in raw.items():
        spec = rebuilt(spec, path.split("."), value)
    return spec


DOORS = (through_with_overrides, through_from_dict, through_the_constructor)


def reachable(value):
    """Every object a spec holds, at any depth."""
    yield value
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from reachable(getattr(value, field.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from reachable(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from reachable(item)


def canonical(spec):
    return json.dumps(spec.to_dict(), sort_keys=True)


def assert_one_value(specs):
    """The invariant, for specs that were built from the same input."""
    first = specs[0]
    for spec in specs:
        assert spec == first
        assert hash(spec) == hash(first)
        assert canonical(spec) == canonical(first)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert not [item for item in reachable(spec) if isinstance(item, list)]
        assert all(type(item) is TransferEvent for item in spec.transfers)
        assert all(type(item) is PhaseSpec for item in spec.workload.phases)
        assert all(type(item) is OutageSpec for item in spec.faults.outages)
        assert all(type(item) is PartitionSpec for item in spec.faults.partitions)


# ---------------------------------------------------------------------------
# Every sweepable path, fed its own value back in JSON shape
# ---------------------------------------------------------------------------


def json_shape(value):
    """What the value looks like after ``json.loads(json.dumps(to_dict()))``."""
    if dataclasses.is_dataclass(value):
        return {
            field.name: json_shape(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, tuple):
        return [json_shape(item) for item in value]
    return value


@pytest.mark.parametrize("base", BASES, ids=BASE_IDS)
def test_every_sweepable_path_takes_its_own_json_shape_back(base):
    for path, value in base.flatten().items():
        raw = {path: json_shape(value)}
        assert_one_value([base] + [door(base, raw) for door in DOORS])


# ---------------------------------------------------------------------------
# Generated values, in shorthand and object form
# ---------------------------------------------------------------------------

times = st.sampled_from([0, 1, 2.5, 8, 16.0, 40.0])
servers = st.sampled_from(["s1", "s2", "s3", "s4", "s5", "s2#1", "c1"])
groups = st.lists(
    st.lists(servers, min_size=1, max_size=3).map(tuple), min_size=1, max_size=2
).map(tuple)
phase_overrides = st.lists(
    st.tuples(
        st.sampled_from(["keys.offset", "mix.read_ratio", "arrivals.rate"]),
        st.sampled_from([0, 1, 0.5, 8]),
    ),
    max_size=2,
).map(tuple)

ITEMS = {
    "transfers": st.builds(
        TransferEvent, at=times, source=servers, target=servers,
        delta=st.sampled_from([0.05, 0.25, 1]), shard=st.integers(0, 2),
    ),
    "workload.phases": st.builds(PhaseSpec, at=times, overrides=phase_overrides),
    "faults.outages": st.builds(
        OutageSpec, process=servers, at=times, until=st.none() | times
    ),
    "faults.partitions": st.builds(
        PartitionSpec, at=times, groups=groups, heal_at=st.none() | times
    ),
}
FORMS = ("object", "positional", "shortest")


def rendered(item, form):
    """One typed item as a caller would write it: a JSON object, every field
    in order, or the fields up to the last one that differs from its default."""
    if form == "object":
        return json_shape(item)
    values = [json_shape(getattr(item, field.name))
              for field in dataclasses.fields(item)]
    if form == "shortest":
        for field in reversed(dataclasses.fields(item)):
            if field.default is dataclasses.MISSING or values[-1] != json_shape(
                field.default
            ):
                break
            values.pop()
    return values


@st.composite
def overrides(draw):
    """``path -> [(typed item, form), ...]`` for some of the structured paths."""
    paths = draw(st.lists(st.sampled_from(sorted(ITEMS)), min_size=1, unique=True))
    return {
        path: draw(st.lists(
            st.tuples(ITEMS[path], st.sampled_from(FORMS)), max_size=3
        ))
        for path in paths
    }


@pytest.mark.parametrize("base", BASES, ids=BASE_IDS)
@settings(max_examples=25, deadline=None)
@given(drawn=overrides())
def test_any_door_any_form_one_value(base, drawn):
    typed = {path: tuple(item for item, _ in items) for path, items in drawn.items()}
    mixed = {
        path: [rendered(item, form) for item, form in items]
        for path, items in drawn.items()
    }
    uniform = [
        {path: [rendered(item, form) for item, _ in items]
         for path, items in drawn.items()}
        for form in FORMS
    ]
    specs = [door(base, raw) for door in DOORS for raw in [typed, mixed, *uniform]]
    assert_one_value(specs)
    for path, items in typed.items():
        assert specs[0].flatten()[path] == items


def test_a_list_in_an_override_no_longer_reaches_a_frozen_spec():
    # `-p 'faults.partitions=[[4,[["s1","s2"]],9]]'`: hash(spec) raised TypeError.
    spec = BASES[0].with_overrides(
        {"faults.partitions": [[4, [["s1", "s2"]], 9]]}
    )
    assert spec.faults.partitions == (
        PartitionSpec(at=4, groups=(("s1", "s2"),), heal_at=9),
    )
    assert hash(spec) == hash(ScenarioSpec.from_dict(spec.to_dict()))


# ---------------------------------------------------------------------------
# A shape that fits no field is rejected where the request is planned
# ---------------------------------------------------------------------------

MALFORMED = [
    ("transfers", [[2.0, "s1"]], "TransferEvent"),
    ("workload.phases", [[1.0, 2, 3]], "PhaseSpec"),
    ("faults.outages", [["s1"]], "OutageSpec"),
    ("faults.partitions", [[]], "PartitionSpec"),
    ("transfers", 5, "expected a list"),
]
MALFORMED_IDS = [f"{key}={value!r}" for key, value, _ in MALFORMED]


@pytest.mark.parametrize("key, value, names", MALFORMED, ids=MALFORMED_IDS)
class TestMalformedShapesFailAtPlanning:
    def test_plan_rejects_it_as_a_param_and_as_a_later_grid_value(
        self, key, value, names
    ):
        with pytest.raises(ConfigurationError, match=names) as caught:
            plan(JobRequest(scenario="quickstart", params={key: value}))
        assert caught.value.path == f"params.{key}"
        good = json_shape(BASES[0].flatten()[key])
        with pytest.raises(ConfigurationError, match=names) as caught:
            plan(JobRequest(kind="sweep", scenario="quickstart",
                            grid={key: [good, value]}))
        assert caught.value.path == f"grid.{key}"

    def test_cli_exits_2_before_the_first_progress_line(
        self, key, value, names, capsys, monkeypatch
    ):
        from repro.experiments import executor

        def never(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(executor, "execute_stream", never)
        argv = ["sweep", "quickstart", "--seeds", "0,1",
                "-p", f"{key}={json.dumps(value)}"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error, location = captured.err.splitlines()
        assert error.startswith("error:") and names in error
        assert location.strip() == f"at: params.{key}"

    def test_post_jobs_is_a_400_naming_the_param(self, key, value, names, tmp_path):
        service = ExperimentService(str(tmp_path / "jobs"))
        try:
            body = json.dumps({
                "kind": "run", "scenario": "quickstart", "params": {key: value},
            }).encode()
            response = dispatch(service, "POST", "/jobs", body)
            assert response.status == 400
            assert response.payload["error"]["path"] == f"params.{key}"
            assert names in response.payload["error"]["message"]
            assert service.jobs() == []
        finally:
            service.shutdown()
