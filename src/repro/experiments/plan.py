"""The front door: one request schema and one planner for every way in.

A run enters the system as a :class:`JobRequest` — built from ``argv`` by
``python -m repro run|sweep|chaos``, parsed from a ``POST /jobs`` body by
:mod:`repro.serve` — and :func:`plan` turns it into a :class:`Plan`: the
scenario to execute and the concrete runs, in the order every sink writes
them.  One function behind both doors means a parameter the one accepts the
other accepts, and the bytes the one produces the other produces.

An inline spec becomes a :class:`~repro.experiments.registry.SpecScenario`
that is **never registered**: :attr:`Plan.entry` travels with the execution
stream (the executor's ``entry`` argument), so two requests uploading
different specs under one name cannot run each other's.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments.registry import Scenario, SpecScenario, get_scenario
from repro.experiments.sections import SpecSection
from repro.experiments.spec import ScenarioSpec
from repro.experiments.sweep import RunSpec, Sweep

__all__ = ["JobRequest", "JOB_KINDS", "SAMPLE_METHODS", "Plan", "plan"]

JOB_KINDS = ("run", "sweep")
SAMPLE_METHODS = ("uniform", "lhs")


@dataclass(frozen=True)
class JobRequest(SpecSection):
    """What to run and how to expand it (one ``POST /jobs`` body).

    A Spec v2 section: ``from_dict`` rejects unknown keys, so a typo'd field
    fails naming the key, and ``_validate`` raises dotted-``path`` errors.
    Exactly one of ``scenario`` (a registered name) or ``spec`` (an inline
    :meth:`~repro.experiments.spec.ScenarioSpec.to_dict` object — the
    "uploaded spec file") selects the scenario.  ``kind="run"`` executes the
    single point described by ``params``; ``kind="sweep"`` expands ``grid``
    / ``seeds`` / ``sample`` (``seeds`` is a ``seed`` axis, ``sample`` draws
    from the grid).

    ``workers`` / ``run_timeout`` / ``retry`` override the server's
    defaults per job (``None`` inherits them).
    """

    kind: str = "run"
    scenario: Optional[str] = None
    spec: Optional[Dict[str, Any]] = None
    params: Dict[str, Any] = dataclasses.field(default_factory=dict)
    grid: Dict[str, Any] = dataclasses.field(default_factory=dict)
    seeds: Optional[Tuple[int, ...]] = None
    sample: Optional[int] = None
    sample_seed: int = 0
    sample_method: str = "uniform"
    workers: Optional[int] = None
    run_timeout: Optional[float] = None
    retry: Optional[int] = None

    def _validate(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ConfigurationError(
                f"unknown job kind {self.kind!r}; expected run or sweep",
                path="kind",
            )
        if (self.scenario is None) == (self.spec is None):
            raise ConfigurationError(
                "a scenario is required: give 'scenario' (a registered name) "
                "or 'spec' (a spec object, --spec path.json), not both",
                path="scenario",
            )
        if self.spec is not None and not isinstance(self.spec, Mapping):
            raise ConfigurationError(
                f"'spec' must be a spec object, got {self.spec!r}", path="spec"
            )
        if not isinstance(self.params, Mapping):
            raise ConfigurationError(
                f"'params' must be a parameter mapping, got {self.params!r}",
                path="params",
            )
        if not isinstance(self.grid, Mapping):
            raise ConfigurationError(
                f"'grid' must map axis names to value lists, got {self.grid!r}",
                path="grid",
            )
        for axis in sorted(self.grid):
            values = self.grid[axis]
            if isinstance(values, (str, bytes)) or not isinstance(
                values, Sequence
            ):
                raise ConfigurationError(
                    f"grid axis {axis!r} must be a list of values, "
                    f"got {values!r}",
                    path=f"grid.{axis}",
                )
        if self.kind == "run" and (
            self.grid or self.seeds is not None or self.sample is not None
        ):
            raise ConfigurationError(
                "a run job takes 'params' only; use kind='sweep' for "
                "grid/seeds/sample",
                path="kind",
            )
        if self.sample is not None and self.sample < 1:
            raise ConfigurationError(
                f"sample size must be at least 1, got {self.sample}",
                path="sample",
            )
        if self.sample_method not in SAMPLE_METHODS:
            raise ConfigurationError(
                f"unknown sample method {self.sample_method!r}; "
                "expected uniform or lhs",
                path="sample_method",
            )
        if self.workers is not None and self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {self.workers}", path="workers"
            )
        if self.run_timeout is not None and self.run_timeout <= 0:
            raise ConfigurationError(
                f"run_timeout must be positive, got {self.run_timeout!r}",
                path="run_timeout",
            )
        if self.retry is not None and self.retry < 1:
            raise ConfigurationError(
                f"retry must be >= 1, got {self.retry}", path="retry"
            )


class Plan(NamedTuple):
    """A planned request: hand ``runs`` and ``entry`` (the scenario named
    ``scenario`` — the registry's, or an inline spec's own) to the executor."""

    scenario: str
    entry: Scenario
    runs: List[RunSpec]


def plan(request: JobRequest) -> Plan:
    """Validate ``request``, resolve its scenario and expand its runs.

    Every ``params`` value and every value of every ``grid`` / ``seeds``
    axis is checked with the rule execution itself applies
    (:meth:`Scenario.check_params`: the spec's override paths, aliases
    included, each value typed by the section it lands in — or the
    function's keyword set); a rejected name or a malformed shape fails
    here, before any run starts, with its request path (``params.<key>``,
    ``grid.<axis>``, ``seeds``) attached.
    """
    request.validate()
    if request.spec is not None:
        entry: Scenario = SpecScenario(
            ScenarioSpec.from_dict(request.spec).validate(), tags=("inline-spec",)
        )
    else:
        entry = get_scenario(request.scenario)
    grid = {axis: list(values) for axis, values in request.grid.items()}
    if request.seeds is not None:
        grid["seed"] = list(request.seeds)
    named = [(f"params.{key}", key, value) for key, value in request.params.items()]
    named += [
        ("seeds" if axis == "seed" and request.seeds is not None else f"grid.{axis}",
         axis, value)
        for axis, values in grid.items() for value in values
    ]
    for path, key, value in sorted(named, key=lambda item: item[0]):
        try:
            entry.check_params({key: value})
        except ConfigurationError as error:
            raise ConfigurationError(str(error), path=path) from None
    sweep = Sweep.of(entry.name, grid=grid, base=request.params)
    if request.sample is not None:
        runs = sweep.sample(
            request.sample, seed=request.sample_seed, method=request.sample_method
        )
    else:
        runs = sweep.runs()
    return Plan(entry.name, entry, runs)
