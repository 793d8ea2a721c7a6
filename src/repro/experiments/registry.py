"""The global scenario registry.

Two kinds of entries live here:

* :class:`SpecScenario` — a declarative :class:`~repro.experiments.spec.
  ScenarioSpec` executed by the generic driver; its sweepable parameters are
  the dotted paths of the spec tree (``cluster.n``, ``workload.keys.zipf_s``,
  ``seed`` ...).
* :class:`FunctionScenario` — a plain function registered with the
  :func:`scenario` decorator; its sweepable parameters are the function's
  keyword arguments (every parameter must carry a default, so a scenario is
  always runnable with no arguments).

Every scenario executes to a JSON-serialisable dict, which is what the
executor, the result sinks and the CLI all operate on.  The built-in
catalogue (:mod:`repro.experiments.catalogue`) is a package of scenario
families behind the static name index :data:`BUILTIN_FAMILIES`: looking one
scenario up imports the one family that registers it, listing them imports
every family.
"""

from __future__ import annotations

import inspect
from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Type

from repro.errors import ConfigurationError
from repro.experiments.sections import SpecSection
from repro.experiments.spec import ScenarioSpec, run_spec

__all__ = [
    "Scenario",
    "FunctionScenario",
    "SpecScenario",
    "scenario",
    "register",
    "register_spec",
    "get_scenario",
    "scenario_names",
    "all_scenarios",
    "catalogue_payload",
]

_REGISTRY: Dict[str, "Scenario"] = {}

#: Built-in scenario name -> the :mod:`repro.experiments.catalogue` module
#: that registers it.  Static, so a lookup knows which family to import
#: without importing any; ``tests/test_lazy_imports.py`` holds it equal to
#: what importing every family registers.
BUILTIN_FAMILIES: Dict[str, str] = {
    "asset-transfer": "assets",
    "crash-resilience": "declarative",
    "dynamic-storage-adaptation": "case_studies",
    "epoch-vs-epochless": "reassignment",
    "example1-semantics": "reductions",
    "fig1-walkthrough": "reassignment",
    "hotspot-shift": "declarative",
    "hotspot-shift-monitoring": "monitoring",
    "limitation-vc": "reassignment",
    "open-loop-saturation": "declarative",
    "protocol-costs": "reassignment",
    "quickstart": "declarative",
    "reduction-alg1": "reductions",
    "reduction-alg2": "reductions",
    "sharded-hotspot-reassignment": "sharded",
    "sharded-zipfian-imbalance": "sharded",
    "skewed-reassignment": "declarative",
    "static-majority-baseline": "declarative",
    "static-weighted-baseline": "declarative",
    "storage-vs-reconfig": "case_studies",
    "wmqs-vs-mqs": "quorums",
}


def _load_family(family: str) -> None:
    """Import one catalogue family, which registers its scenarios.

    The import system's per-module lock is the only lock: a thread arriving
    while another imports the family waits for the finished module, and once
    it is imported this is a dictionary hit that takes no lock at all (so a
    pool forked later inherits nothing held).
    """
    import_module(f"repro.experiments.catalogue.{family}")


def _load_builtin() -> None:
    for family in sorted(set(BUILTIN_FAMILIES.values())):
        _load_family(family)


class Scenario:
    """A named, parameterised experiment that executes to a result dict."""

    kind = "abstract"

    def __init__(
        self,
        name: str,
        description: str,
        tags: Tuple[str, ...],
        defaults: Mapping[str, Any],
    ) -> None:
        if not name:
            raise ConfigurationError("scenario name must not be empty")
        self.name = name
        self.description = description
        self.tags = tuple(tags)
        self.defaults = dict(defaults)

    def execute(self, params: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
        """Run the scenario with ``params`` layered over its defaults."""
        raise NotImplementedError

    def check_params(self, params: Mapping[str, Any]) -> None:
        """Raise :class:`ConfigurationError` for a name — or, for a spec, a
        value shape — :meth:`execute` would reject: the same rule, without
        running anything."""
        raise NotImplementedError

    def check_point(self, params: Mapping[str, Any]) -> None:
        """Raise :class:`~repro.errors.ReproError` if the whole point —
        ``params`` over the defaults — is one :meth:`execute` would refuse
        (a value out of its declared bound), without running anything."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class FunctionScenario(Scenario):
    """A scenario backed by a plain function with fully-defaulted kwargs.

    ``section``, when given, is the :class:`SpecSection` the function builds
    from its keyword arguments: its declared bounds admit a point before the
    function runs.
    """

    kind = "function"

    def __init__(
        self,
        fn: Callable[..., Mapping[str, Any]],
        name: str,
        description: str = "",
        tags: Tuple[str, ...] = (),
        section: Optional[Type[SpecSection]] = None,
    ) -> None:
        defaults: Dict[str, Any] = {}
        for parameter in inspect.signature(fn).parameters.values():
            if parameter.default is inspect.Parameter.empty:
                raise ConfigurationError(
                    f"scenario {name!r}: parameter {parameter.name!r} needs a "
                    "default value (scenarios must be runnable with no arguments)"
                )
            defaults[parameter.name] = parameter.default
        if not description and fn.__doc__:
            description = fn.__doc__.strip().splitlines()[0]
        super().__init__(name, description, tags, defaults)
        self._fn = fn
        self.section = section

    def check_params(self, params: Mapping[str, Any]) -> None:
        unknown = set(params) - set(self.defaults)
        if unknown:
            raise ConfigurationError(
                f"scenario {self.name!r} has no parameters {sorted(unknown)}; "
                f"available: {sorted(self.defaults)}"
            )

    def check_point(self, params: Mapping[str, Any]) -> None:
        if self.section is not None:
            self.section(**{**self.defaults, **params}).validate()

    def execute(self, params: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
        """Call the function with ``params`` merged over its keyword defaults."""
        self.check_params(params or {})
        return dict(self._fn(**{**self.defaults, **(params or {})}))


class SpecScenario(Scenario):
    """A scenario backed by a declarative :class:`ScenarioSpec`."""

    kind = "spec"

    def __init__(self, spec: ScenarioSpec, tags: Tuple[str, ...] = ()) -> None:
        # The uniform section protocol supplies the sweepable parameter map.
        super().__init__(spec.name, spec.description, tags, spec.flatten())
        self.spec = spec

    def check_params(self, params: Mapping[str, Any]) -> None:
        self.spec.with_overrides(params)

    def check_point(self, params: Mapping[str, Any]) -> None:
        self.spec.with_overrides(params).validate()

    def execute(self, params: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
        """Apply ``params`` as dotted-path overrides and run the spec."""
        return run_spec(self.spec.with_overrides(params))


def register(entry: Scenario, replace: bool = False) -> Scenario:
    """Add a scenario to the global registry."""
    if not replace and entry.name in _REGISTRY:
        raise ConfigurationError(f"scenario {entry.name!r} is already registered")
    _REGISTRY[entry.name] = entry
    return entry


def register_spec(
    spec: ScenarioSpec, tags: Tuple[str, ...] = (), replace: bool = False
) -> SpecScenario:
    """Register a declarative spec under its own name."""
    entry = SpecScenario(spec, tags=tags)
    register(entry, replace=replace)
    return entry


def scenario(
    name: str,
    description: str = "",
    tags: Tuple[str, ...] = (),
    replace: bool = False,
    section: Optional[Type[SpecSection]] = None,
) -> Callable[[Callable[..., Mapping[str, Any]]], Callable[..., Mapping[str, Any]]]:
    """Decorator: register ``fn`` as a :class:`FunctionScenario`.

    The decorated function is returned unchanged, so it stays directly
    callable as plain code.
    """

    def wrap(fn: Callable[..., Mapping[str, Any]]) -> Callable[..., Mapping[str, Any]]:
        register(
            FunctionScenario(fn, name, description, tags, section), replace=replace
        )
        return fn

    return wrap


def get_scenario(name: str) -> Scenario:
    """Look a scenario up by name, importing its catalogue family on demand."""
    entry = _REGISTRY.get(name)
    if entry is None and name in BUILTIN_FAMILIES:
        _load_family(BUILTIN_FAMILIES[name])
        entry = _REGISTRY.get(name)
    if entry is None:
        raise ConfigurationError(
            f"unknown scenario {name!r}; registered scenarios: "
            f"{', '.join(scenario_names()) or '(none)'}"
        )
    return entry


def scenario_names() -> List[str]:
    """Sorted names of every registered scenario (catalogue included)."""
    _load_builtin()
    return sorted(_REGISTRY)


def all_scenarios() -> List[Scenario]:
    """Every registered scenario, sorted by name (catalogue included)."""
    _load_builtin()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def catalogue_payload(
    entries: Optional[List[Scenario]] = None,
) -> List[Dict[str, Any]]:
    """The machine-readable scenario catalogue, one object per scenario.

    This is the single payload behind both ``python -m repro list --json``
    and the serving layer's ``GET /scenarios``: name, description, tags,
    kind, the parameter/default map (defaults rendered with ``repr`` so the
    payload stays JSON-serialisable for any value type) and ``sweepable`` —
    the sorted axis names a sweep may target (dotted spec paths for
    declarative scenarios, keyword arguments for function scenarios).
    """
    return [
        {
            "name": entry.name,
            "description": entry.description,
            "tags": list(entry.tags),
            "kind": entry.kind,
            "parameters": {
                key: repr(value)
                for key, value in sorted(entry.defaults.items())
            },
            "sweepable": sorted(entry.defaults),
        }
        for entry in (all_scenarios() if entries is None else entries)
    ]
