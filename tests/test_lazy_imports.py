"""Imports follow the subcommand: lazy facades, the family index, budgets.

Three contracts (ARCHITECTURE "Cold start"):

* every package facade resolves its ``__all__`` through the one shared
  PEP 562 helper and imports nothing until a name is asked for;
* the registry's static ``name -> family`` index is exactly what importing
  every catalogue family registers;
* per subcommand, a fresh interpreter imports what it runs — asserted on
  ``sys.modules`` (names, not times), against ``tools/import_budget.json``;

and the reachability rule beside them: every module under ``src/repro`` is
imported from an entry point or a catalogue family, by statement.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import multiprocessing
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.experiments import registry

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = str(REPO_ROOT / "src")

PACKAGES = ["repro", "repro.experiments.catalogue"] + sorted(
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)


def fresh_interpreter(script: str, *argv: str, path: str = SRC_DIR) -> str:
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *argv],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


# ---------------------------------------------------------------------------
# Facades
# ---------------------------------------------------------------------------


class TestFacades:
    def test_every_package_is_covered(self):
        assert len(PACKAGES) == 18  # repro, its 16 sub-packages, the catalogue

    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_public_name_resolves_both_ways(self, package):
        module = importlib.import_module(package)
        assert module.__all__ and len(set(module.__all__)) == len(module.__all__)
        assert set(dir(module)) >= set(module.__all__)
        namespace: dict = {}
        exec(f"from {package} import {', '.join(module.__all__)}", namespace)
        for name in module.__all__:
            assert getattr(module, name) is namespace[name]

    @pytest.mark.parametrize("package", PACKAGES)
    def test_no_public_name_shadows_a_submodule(self, package):
        # `import pkg.sub` binds `pkg.sub`; a re-export of the same name
        # would be silently replaced by the module.
        module = importlib.import_module(package)
        submodules = {info.name for info in pkgutil.iter_modules(module.__path__)}
        assert not submodules & set(module.__all__)

    @pytest.mark.parametrize("package", PACKAGES)
    def test_unknown_attribute_raises_the_standard_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError) as excinfo:
            module.no_such_name
        assert str(excinfo.value) == (
            f"module {package!r} has no attribute 'no_such_name'"
        )
        assert not hasattr(module, "no_such_name")

    def test_star_import_works(self):
        namespace: dict = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)
        assert namespace["SystemConfig"] is repro.SystemConfig

    @pytest.mark.parametrize("package", PACKAGES)
    def test_a_fresh_facade_imports_nothing_and_caches_what_it_resolves(
        self, package
    ):
        out = fresh_interpreter("""
            import importlib, json, sys
            package = sys.argv[1]
            ancestors = {package.rsplit(".", n)[0] for n in range(3)}
            module = importlib.import_module(package)
            eager = sorted(
                name for name in sys.modules
                if name.split(".")[0] == "repro"
                and name not in ancestors | {"repro._lazy"}
            )
            name = [n for n in module.__all__ if not n.startswith("__")][0]
            before = name in vars(module)
            first = getattr(module, name)
            calls = []
            hook = module.__getattr__
            module.__getattr__ = lambda n: calls.append(n) or hook(n)
            second = getattr(module, name)
            print(json.dumps([eager, before, name in vars(module),
                              first is second, calls]))
        """, package)
        eager, before, after, same, calls = json.loads(out)
        assert eager == []  # a facade never imports
        assert (before, after, same) == (False, True, True)
        assert calls == []  # the second access never re-entered __getattr__

    def test_importing_one_module_does_not_drag_its_siblings_in(self):
        out = fresh_interpreter("""
            import sys
            import repro.core.change
            print(sorted(n for n in sys.modules if n.startswith("repro")))
        """)
        assert out.strip() == str([
            "repro", "repro._lazy", "repro.core", "repro.core.change",
            "repro.types",
        ])

    def test_the_frozen_benchmark_binds_plain_attributes(self):
        # benchmarks/perf wraps these with inspect.getattr_static + setattr:
        # each must be an ordinary attribute of the module that owns it.
        import inspect

        from repro.chaos import campaign, oracles
        from repro.experiments import (  # the import forms it uses
            executor, registry, resilience, results, spec, sweep,
        )

        assert inspect.ismodule(resilience)
        for owner, names in (
            (spec, ("run_spec", "run_workload", "workload_stats",
                    "write_trace", "trace_digest")),
            (registry, ("run_spec",)),
            (executor, ("execute_run", "execute_many",
                        "run_with_stable_stack", "shutdown_pool")),
            (results, ("dumps_json",)),
            (sweep, ("expand_grid",)),
            (campaign, ("run_campaign", "execute_run", "read_trace",
                        "run_with_stable_stack")),
            (oracles, ("check_trace_invariants",)),
        ):
            for name in names:
                assert name in vars(owner), (owner.__name__, name)
                assert callable(inspect.getattr_static(owner, name))


# ---------------------------------------------------------------------------
# The family index
# ---------------------------------------------------------------------------


class TestFamilyIndex:
    def test_the_static_index_is_what_the_families_register(self):
        out = fresh_interpreter("""
            import importlib, json, pkgutil
            from repro.experiments import catalogue, registry

            registered = {}
            for info in pkgutil.iter_modules(catalogue.__path__):
                before = set(registry._REGISTRY)
                importlib.import_module(f"{catalogue.__name__}.{info.name}")
                for name in set(registry._REGISTRY) - before:
                    registered[name] = info.name
            print(json.dumps(registered))
        """)
        # Equal as mappings: no built-in missing from the index, no indexed
        # name a family does not register, and each name in one family only
        # (`register` already refuses a duplicate name).
        assert json.loads(out) == registry.BUILTIN_FAMILIES

    def test_a_lookup_imports_one_family_and_listing_imports_all(self):
        out = fresh_interpreter("""
            import json, sys
            from repro.experiments.registry import get_scenario, scenario_names

            def families():
                prefix = "repro.experiments.catalogue."
                return sorted(n[len(prefix):] for n in sys.modules
                              if n.startswith(prefix))

            get_scenario("quickstart")
            one = families()
            names = scenario_names()
            print(json.dumps([one, families(), names]))
        """)
        one, every, names = json.loads(out)
        assert one == ["declarative"]
        assert every == sorted(set(registry.BUILTIN_FAMILIES.values()))
        assert names == sorted(registry.BUILTIN_FAMILIES)

    def test_an_unregistered_builtin_stays_unregistered(self):
        registry.get_scenario("quickstart")
        registry.unregister("quickstart")
        with pytest.raises(Exception, match="unknown scenario 'quickstart'"):
            registry.get_scenario("quickstart")


# ---------------------------------------------------------------------------
# Import budgets (fresh interpreters; counts, not times)
# ---------------------------------------------------------------------------


def _load_check_imports():
    spec = importlib.util.spec_from_file_location(
        "check_imports", REPO_ROOT / "tools" / "check_imports.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_imports = _load_check_imports()


@pytest.fixture(scope="module")
def observed():
    return check_imports.observe()


def _loaded(modules, *prefixes):
    return sorted(
        name for name in modules
        if any(name == p or name.startswith(p + ".") for p in prefixes)
    )


class TestImportBudget:
    def test_the_committed_budget_is_current(self, observed):
        assert check_imports.problems(observed, check_imports.load_budget()) == []

    @pytest.mark.parametrize(
        "label", ["--help", "compare --help", "trace --help", "compare"]
    )
    def test_help_compare_and_trace_never_load_the_simulator(self, observed, label):
        assert _loaded(
            observed[label], "repro.net", "repro.sim", "repro.core",
            "repro.experiments.spec", "multiprocessing",
        ) == []

    def test_run_imports_what_it_runs(self, observed):
        modules = observed["run quickstart"]
        assert _loaded(
            modules, "repro.chaos", "repro.serve", "repro.bench",
            "repro.consensus", "repro.assettransfer", "repro.reassign",
            "repro.analysis", "repro.experiments.resilience", "multiprocessing",
        ) == []
        assert _loaded(modules, "repro.experiments.catalogue") == [
            "repro.experiments.catalogue",
            "repro.experiments.catalogue.declarative",
        ]

    def test_only_a_pool_imports_multiprocessing_and_the_parent_does_it(
        self, observed
    ):
        assert "multiprocessing" not in observed["sweep --workers 1"]
        assert "multiprocessing" in observed["sweep --workers 2"]

    def test_a_new_eager_import_is_reported_by_name(self):
        budget = {"run": ["repro", "repro.errors"]}
        found = check_imports.problems(
            {"run": ["repro", "repro.errors", "repro.serve.app"]}, budget
        )
        assert found == ["`run` now imports repro.serve.app (over budget)"]
        assert check_imports.problems(budget, budget) == []


class TestReachability:
    """ARCHITECTURE "Reachability rule": run by a scenario, a subcommand or
    the service — or deleted."""

    def test_every_module_is_reached(self):
        assert check_imports.unreached_modules() == []

    def test_a_module_only_its_facade_knows_is_reported_by_name(self, tmp_path):
        import shutil

        shutil.copytree(
            Path(SRC_DIR) / "repro", tmp_path / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        (tmp_path / "repro" / "quorum" / "grid.py").write_text(
            "from repro.quorum.base import QuorumSystem\n"
        )
        facade = tmp_path / "repro" / "quorum" / "__init__.py"
        facade.write_text(facade.read_text().replace(
            '"base": ("QuorumSystem",),',
            '"base": ("QuorumSystem",),\n    "grid": ("GridQuorumSystem",),',
        ))
        assert check_imports.unreached_modules(tmp_path) == ["repro.quorum.grid"]


# ---------------------------------------------------------------------------
# Fork (and spawn) safety of laziness
# ---------------------------------------------------------------------------

# A scenario whose result is the set of `repro.*` modules loaded in the
# process that ran it, after running `quickstart` there.
_PROBE_MODULE = """
import sys

def probe(seed=0):
    from repro.experiments.registry import get_scenario
    get_scenario("quickstart").execute(
        {"seed": seed, "workload.operations_per_client": 2})
    return {"modules": sorted(n for n in sys.modules
                              if n.split(".")[0] == "repro")}
"""

_PROBE_DRIVER = """
import json, multiprocessing, os, sys
import probe_module
from repro.experiments import executor
from repro.experiments.plan import JobRequest, plan
from repro.experiments.registry import FunctionScenario
from repro.experiments.sweep import RunSpec

if sys.argv[1] == "spawn":
    executor._pool_context = lambda: multiprocessing.get_context("spawn")
else:
    # The front door resolves the entry — and so imports its family — here.
    plan(JobRequest(scenario="quickstart"))
entry = FunctionScenario(probe_module.probe, "probe")
runs = [RunSpec("probe", (("seed", seed),)) for seed in range(4)]
results = executor.execute_many(runs, workers=2, entry=entry)
parent = sorted(n for n in sys.modules if n.split(".")[0] == "repro")
print(json.dumps([parent, [r.result["modules"] for r in results],
                  "multiprocessing" in sys.modules]))
"""


def _run_probe(tmp_path, method):
    (tmp_path / "probe_module.py").write_text(_PROBE_MODULE)
    out = fresh_interpreter(
        _PROBE_DRIVER, method, path=os.pathsep.join([SRC_DIR, str(tmp_path)])
    )
    return json.loads(out)


class TestWorkersNeverPayASkippedImport:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_a_forked_worker_imports_nothing_its_parent_had_not(self, tmp_path):
        parent, workers, pool_imported = _run_probe(tmp_path, "fork")
        assert pool_imported  # by the parent, at pool start
        assert len(workers) == 4
        for modules in workers:
            assert set(modules) <= set(parent)

    def test_a_spawned_worker_imports_only_the_family_it_runs(self, tmp_path):
        parent, workers, _ = _run_probe(tmp_path, "spawn")
        # This parent never resolved `quickstart`; its workers did.
        assert _loaded(parent, "repro.experiments.catalogue") == []
        for modules in workers:
            assert _loaded(modules, "repro.experiments.catalogue") == [
                "repro.experiments.catalogue",
                "repro.experiments.catalogue.declarative",
            ]
            assert _loaded(modules, "repro.experiments.resilience",
                           "repro.chaos", "repro.serve") == []
