#!/usr/bin/env python3
"""What imports what under ``src/repro``: the import budget and reachability.

**Import budget** (the CI cold-start gate).  Each probe below runs one
subcommand in a fresh interpreter and reads ``sys.modules`` when it
returns: the ``repro.*`` modules it imported, plus
``multiprocessing`` if that got loaded.  The lists are compared with the
committed ``tools/import_budget.json`` — names, not times, so the gate is
exact on every machine.  A subcommand that starts importing a module it did
not need before fails here with that module's name; a deliberate change is
recorded with ``--update``.

The rule being held (ARCHITECTURE "Cold start"): a package facade never
imports, a ``_cmd_*`` imports what it runs, and the parent imports before it
forks.

**Reachability** (ARCHITECTURE "Reachability rule").  A module under
``src/repro`` is imported — by an ``import`` statement anywhere in a module,
function bodies included — from ``python -m repro``, ``python -m
repro.serve.client`` or a catalogue family of ``BUILTIN_FAMILIES``, or it is
deleted.  The walk is static (``ast``): ``from pkg import name`` reaches the
one module a lazy facade's map says defines ``name``, but the map itself is
not an import, so a module only its package facade and its own tests know
about is printed here and fails the gate.  There is no exception list.

Run from anywhere (``src`` is put on the child's path automatically)::

    python tools/check_imports.py            # print counts, exit 1 on drift
                                             # or on an unreached module
    python tools/check_imports.py --update   # rewrite the budget
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Set

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"
BUDGET_PATH = REPO_ROOT / "tools" / "import_budget.json"

_FAST = ["-p", "workload.operations_per_client=2"]
_SWEEP = ["sweep", "quickstart", "--seeds", "0,1", *_FAST, "--quiet", "--no-progress"]
_BASELINE = "benchmarks/baselines/quickstart.json"

#: label -> argv of ``python -m repro``; relative paths resolve from the
#: repository root.
PROBES: Dict[str, List[str]] = {
    "--help": ["--help"],
    "compare --help": ["compare", "--help"],
    "trace --help": ["trace", "--help"],
    "compare": ["compare", _BASELINE, _BASELINE],
    "list": ["list"],
    "run quickstart": ["run", "quickstart", *_FAST],
    "sweep --workers 1": _SWEEP,
    "sweep --workers 2": [*_SWEEP, "--workers", "2"],
}

# Runs the CLI exactly as ``python -m repro`` does, then reports what got
# imported; the report goes to a file so the command's own output is free.
_CHILD = """
import json, runpy, sys
report, sys.argv = sys.argv[1], ["repro", *sys.argv[2:]]
try:
    runpy.run_module("repro", run_name="__main__")
except SystemExit:
    pass
names = [name for name in sys.modules
         if name == "multiprocessing" or name.split(".")[0] == "repro"]
with open(report, "w", encoding="utf-8") as handle:
    json.dump(sorted(names), handle)
"""


def imported_modules(argv: Sequence[str]) -> List[str]:
    """The watched modules ``python -m repro *argv`` has imported at exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    with tempfile.TemporaryDirectory() as scratch:
        report = os.path.join(scratch, "modules.json")
        subprocess.run(
            [sys.executable, "-c", _CHILD, report, *argv],
            cwd=REPO_ROOT, env=env, check=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        with open(report, "r", encoding="utf-8") as handle:
            return json.load(handle)


def observe() -> Dict[str, List[str]]:
    return {label: imported_modules(argv) for label, argv in PROBES.items()}


def load_budget() -> Dict[str, List[str]]:
    with open(BUDGET_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def problems(observed: Dict[str, List[str]],
             budget: Dict[str, List[str]]) -> List[str]:
    """Drift between what the probes import and the committed budget."""
    found = []
    for label, modules in observed.items():
        allowed = budget.get(label)
        if allowed is None:
            found.append(f"`{label}`: no committed budget (run --update)")
            continue
        for name in sorted(set(modules) - set(allowed)):
            found.append(f"`{label}` now imports {name} (over budget)")
        for name in sorted(set(allowed) - set(modules)):
            found.append(
                f"`{label}` no longer imports {name} (run --update to "
                "lock the saving in)"
            )
    return found


# ---------------------------------------------------------------------------
# Reachability (static)
# ---------------------------------------------------------------------------

#: The ``python -m`` entry points; the catalogue families join them because
#: the registry imports those by name (``BUILTIN_FAMILIES``), not by statement.
ENTRY_POINTS = ("repro.__main__", "repro.serve.client")


def source_modules(src: Path = SRC_ROOT) -> Dict[str, Path]:
    """Dotted name -> file of every module under ``src/repro`` (a package is
    named by its ``__init__.py``)."""
    modules = {}
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        modules[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return modules


def _facade_exports(tree: ast.Module) -> Dict[str, str]:
    """``name -> relative module`` of a ``lazy_exports(globals(), {...})`` facade."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and len(node.args) == 2
                and getattr(node.func, "id", None) == "lazy_exports"):
            return {
                name: module
                for module, names in ast.literal_eval(node.args[1]).items()
                for name in names
            }
    return {}


def _imports(tree: ast.Module,
             exports: Dict[str, Dict[str, str]]) -> Iterator[str]:
    """What the import statements of ``tree`` name (absolute imports only:
    a relative one would be reported as reaching nothing).  ``exports`` holds
    every module's facade map, empty for a module that is not a facade."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module in exports:
            for alias in node.names:
                submodule = f"{node.module}.{alias.name}"
                if submodule in exports:
                    yield submodule
                elif alias.name in exports[node.module]:
                    yield f"{node.module}.{exports[node.module][alias.name]}"
                else:
                    yield node.module


def unreached_modules(src: Path = SRC_ROOT) -> List[str]:
    """Modules under ``src/repro`` no entry point or catalogue family imports."""
    modules = source_modules(src)
    trees = {
        name: ast.parse(path.read_text(encoding="utf-8"))
        for name, path in modules.items()
    }
    families = ast.literal_eval(next(
        node.value for node in trees["repro.experiments.registry"].body
        if isinstance(node, ast.AnnAssign)
        and getattr(node.target, "id", None) == "BUILTIN_FAMILIES"
    ))
    exports = {name: _facade_exports(tree) for name, tree in trees.items()}
    pending = [*ENTRY_POINTS, *sorted(
        f"repro.experiments.catalogue.{family}" for family in set(families.values())
    )]
    reached: Set[str] = set()
    while pending:
        name = pending.pop()
        if name in reached or name not in modules:
            continue
        reached.add(name)
        pending.append(name.rpartition(".")[0])  # importing it runs its package
        pending.extend(_imports(trees[name], exports))
    return sorted(set(modules) - reached)


def main(argv: Sequence[str] = ()) -> int:
    observed = observe()
    for label, modules in observed.items():
        pool = " + multiprocessing" if "multiprocessing" in modules else ""
        count = sum(name != "multiprocessing" for name in modules)
        print(f"{label:<20s} {count:3d} repro modules{pool}")
    if "--update" in argv:
        with open(BUDGET_PATH, "w", encoding="utf-8") as handle:
            json.dump(observed, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {BUDGET_PATH.relative_to(REPO_ROOT)}")
        return 0
    found = problems(observed, load_budget())
    found += [
        f"{name} is imported by no entry point and no catalogue family "
        "(reach it or delete it)"
        for name in unreached_modules()
    ]
    for problem in found:
        print(f"error: {problem}", file=sys.stderr)
    if found:
        print(f"{len(found)} import problem(s)", file=sys.stderr)
        return 1
    print("import budget ok; every module under src/repro is reached")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
