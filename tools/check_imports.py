#!/usr/bin/env python3
"""What imports what under ``src/repro``: the import budget and reachability.

**Import budget** (the CI cold-start gate).  Each probe below runs one
subcommand in a fresh interpreter and reads ``sys.modules`` when it
returns (``serve`` returns when SIGTERM stops it, once it listens): the
``repro.*`` modules it imported, plus ``multiprocessing``, OpenSSL's
``_hashlib`` and ``_ssl``, ``http.client`` and ``email`` if those got
loaded (:data:`WATCHED`).  The lists are compared with the
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

**One owner per driver call** (ARCHITECTURE "Who frees a finished run" and
"One storage driver").  Every world is built in ``repro.sim.cluster`` and
closed by its ``with``, and every workload runs through ``run_spec``; the
same parse reports, by module name, any module under ``src/repro`` that
calls a name in :data:`OWNERS` outside the module that owns it.

**No unused imports.**  The same parse reports every module-level import
under ``src/repro`` whose name the module never uses (as a name, or in
``__all__``).  A deliberate re-export says so with ``# noqa: F401`` on the
import's line.

**Reachability by name** (ARCHITECTURE "Reachability rule").  Every
top-level function or class under ``src/repro``, and every method of a
top-level class, is used by name — as a name, an attribute, an import alias
or an identifier string — somewhere under ``src/``, ``examples/``,
``benchmarks/`` or ``tools/``, or it is printed as ``module:Qual.name`` and
fails the gate.  ``tests/`` is no user: code only a test calls is not part
of the lab.  A facade's map (``__all__``, ``lazy_exports``) is no use
either; dunders and definitions a decorator registers (anything but
``property``, ``staticmethod``, ``classmethod`` and ``.setter``) are
always reached.  A use inside a definition found unused does not count, so
code only dead code calls is found too.  There is no exception list.

Run from anywhere (``src`` is put on the child's path automatically)::

    python tools/check_imports.py            # print counts, exit 1 on drift,
                                             # an unreached module, a driver
                                             # call out of place, an
                                             # unused import or an unused
                                             # definition
    python tools/check_imports.py --update   # rewrite the budget
"""

from __future__ import annotations

import ast
import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"
BUDGET_PATH = REPO_ROOT / "tools" / "import_budget.json"

_FAST = ["-p", "workload.operations_per_client=2"]
_SWEEP = ["sweep", "quickstart", "--seeds", "0,1", *_FAST, "--quiet", "--no-progress"]
_BASELINE = "benchmarks/baselines/quickstart.json"

#: label -> argv of ``python -m repro``; relative paths resolve from the
#: repository root, ``{scratch}`` is a fresh temporary directory.
PROBES: Dict[str, List[str]] = {
    "--help": ["--help"],
    "compare --help": ["compare", "--help"],
    "trace --help": ["trace", "--help"],
    "compare": ["compare", _BASELINE, _BASELINE],
    "list": ["list"],
    "run quickstart": ["run", "quickstart", *_FAST],
    "sweep --workers 1": _SWEEP,
    "sweep --workers 2": [*_SWEEP, "--workers", "2"],
    "chaos": ["chaos", "--scenario", "quickstart", "--sample", "1",
              "--quiet", "--no-progress"],
    "serve": ["serve", "--port", "0", "--jobs-dir", "{scratch}/jobs", "--quiet"],
}

#: ``serve`` prints this once it listens; the probe then sends SIGTERM.
_SERVING = "serving experiments on "

#: Stdlib modules reported beside ``repro.*``: the pool's machinery; OpenSSL,
#: which no path loads (``repro._digest`` hashes without it); the stdlib
#: HTTP stack, which the server does without (only the client speaks
#: ``http.client``); and what exact weights (``fractions``) bring in.
WATCHED = ("multiprocessing", "_hashlib", "_ssl", "http.client", "email",
           "fractions", "decimal", "_decimal", "numbers")

# Runs the CLI exactly as ``python -m repro`` does, then reports what got
# imported; the report goes to a file so the command's own output is free.
_CHILD = """
import json, runpy, sys
report, watched = sys.argv[1], sys.argv[2].split(",")
sys.argv = ["repro", *sys.argv[3:]]
try:
    runpy.run_module("repro", run_name="__main__")
except SystemExit:
    pass
names = [name for name in sys.modules
         if name in watched or name.split(".")[0] == "repro"]
with open(report, "w", encoding="utf-8") as handle:
    json.dump(sorted(names), handle)
"""


def imported_modules(argv: Sequence[str]) -> List[str]:
    """The watched modules ``python -m repro *argv`` has imported at exit;
    ``serve`` is stopped by SIGTERM, its graceful path, once it listens."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    with tempfile.TemporaryDirectory() as scratch:
        report = os.path.join(scratch, "modules.json")
        command = [sys.executable, "-c", _CHILD, report, ",".join(WATCHED),
                   *(arg.format(scratch=scratch) for arg in argv)]
        with subprocess.Popen(
            command, cwd=REPO_ROOT, env=env, text=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        ) as child:
            if argv[0] == "serve":
                for line in child.stderr:
                    if line.startswith(_SERVING):
                        child.send_signal(signal.SIGTERM)
                        break
            child.communicate()
        if child.returncode:
            raise subprocess.CalledProcessError(child.returncode, command)
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


def _parse(src: Path) -> Dict[str, ast.Module]:
    return {
        name: ast.parse(path.read_text(encoding="utf-8"))
        for name, path in source_modules(src).items()
    }


def unreached_modules(src: Path = SRC_ROOT) -> List[str]:
    """Modules under ``src/repro`` no entry point or catalogue family imports."""
    trees = _parse(src)
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
        if name in reached or name not in trees:
            continue
        reached.add(name)
        pending.append(name.rpartition(".")[0])  # importing it runs its package
        pending.extend(_imports(trees[name], exports))
    return sorted(set(trees) - reached)


#: Who may call what: a call of this name (bare or as an attribute) under
#: ``src/repro`` is made by this one module.  ``repro.sim.cluster`` builds
#: every world (a loop and the network on it) and wires every replica group
#: and its keyed clients; ``run_spec`` runs every workload, with its
#: monitoring.
OWNERS: Dict[str, str] = {
    "Network": "repro.sim.cluster",
    "ShardedStore": "repro.sim.cluster",
    "run_workload": "repro.experiments.spec",
    "install_monitoring": "repro.experiments.spec",
    "WorkloadGenerator": "repro.experiments.spec",
}


def misplaced_calls(src: Path = SRC_ROOT) -> List[Tuple[str, str]]:
    """``(module, name)`` for each module under ``src/repro`` that calls a
    name of :data:`OWNERS` it does not own."""
    found: Set[Tuple[str, str]] = set()
    for module, tree in _parse(src).items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if OWNERS.get(name, module) != module:
                    found.add((module, name))
    return sorted(found)


def _module_imports(tree: ast.Module) -> Iterator[ast.alias]:
    """Every alias an import binds outside a function or class body."""
    pending: List[ast.AST] = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                yield from node.names
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            pending.extend(ast.iter_child_nodes(node))


def unused_imports(src: Path = SRC_ROOT) -> List[Tuple[str, str]]:
    """``(module, name)`` for each module-level import under ``src/repro``
    the module never uses; a line marked ``# noqa: F401`` is exempt."""
    found = []
    for module, path in source_modules(src).items():
        text = path.read_text(encoding="utf-8")
        tree, lines = ast.parse(text), text.splitlines()
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(getattr(target, "id", None) == "__all__"
                            for target in node.targets)):
                used.update(ast.literal_eval(node.value))
        for alias in _module_imports(tree):
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                found.append((module, name))
    return sorted(found)


#: Where a use of a ``src/repro`` name counts: the code that runs, drives or
#: measures a run.  ``tests/`` is not one of them.
USERS = ("src", "examples", "benchmarks", "tools")

#: Decorators that only shape a definition; any other one registers it (as
#: ``@scenario`` does), so the definition is reached through the registry.
_SHAPING = {"property", "staticmethod", "classmethod", "setter"}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_exports(node: ast.AST) -> bool:
    """An ``__all__`` assignment or a ``lazy_exports(...)`` call: a facade's
    map of names, which is not a use of them."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", None) == "lazy_exports"
    return isinstance(node, ast.Assign) and any(
        getattr(sub, "id", None) == "__all__"
        for target in node.targets for sub in ast.walk(target)
    )


def _names(*nodes: ast.AST) -> Set[str]:
    """Every name ``nodes`` use: as a name, an attribute, an import alias or
    an identifier string (a ``getattr`` or a dispatch table)."""
    found: Set[str] = set()
    pending = list(nodes)
    while pending:
        sub = pending.pop()
        if _is_exports(sub):
            continue
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and sub.value.isidentifier()):
            found.add(sub.value)
        pending.extend(ast.iter_child_nodes(sub))
    return found


def _registered(node: ast.AST) -> bool:
    """A dunder, or a definition a decorator other than :data:`_SHAPING`
    registers: reached whether or not its name is used."""
    if node.name.startswith("__") and node.name.endswith("__"):
        return True
    return any(
        (getattr(target, "id", None) or getattr(target, "attr", None)) not in _SHAPING
        for target in (getattr(d, "func", d) for d in node.decorator_list)
    )


def unused_names(root: Path = REPO_ROOT) -> List[str]:
    """``module:Qual.name`` of each top-level function or class under
    ``root/src/repro``, and each method of a top-level class, whose name no
    file under :data:`USERS` uses.  A use inside a definition found unused
    does not count, so the rule is applied until nothing new is found."""
    definitions: Dict[str, Tuple[str, bool]] = {}  # qualname -> (name, reached)
    uses: List[Tuple[Tuple[str, ...], Set[str]]] = []  # (owners, names)
    modules = {path: name for name, path in source_modules(root / "src").items()}
    for user in USERS:
        for path in sorted((root / user).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            module = modules.get(path)
            for top in tree.body:
                if module is None or not isinstance(top, (*_FUNCTIONS, ast.ClassDef)):
                    uses.append(((), _names(top)))
                    continue
                owner = f"{module}:{top.name}"
                definitions[owner] = (top.name, _registered(top))
                if isinstance(top, _FUNCTIONS):
                    uses.append(((owner,), _names(top)))
                    continue
                own = [*top.decorator_list, *top.bases, *top.keywords]
                for sub in top.body:
                    if isinstance(sub, _FUNCTIONS):
                        qualname = f"{owner}.{sub.name}"
                        definitions[qualname] = (sub.name, _registered(sub))
                        uses.append(((owner, qualname), _names(sub)))
                    else:
                        own.append(sub)
                uses.append(((owner,), _names(*own)))
    unused: Set[str] = set()
    while True:
        used = set().union(*(names for owners, names in uses
                             if unused.isdisjoint(owners)))
        found = {qualname for qualname, (name, reached) in definitions.items()
                 if not reached and name not in used}
        if found == unused:
            return sorted(found)
        unused = found


def main(argv: Sequence[str] = ()) -> int:
    observed = observe()
    for label, modules in observed.items():
        extra = "".join(f" + {name}" for name in WATCHED if name in modules)
        count = sum(name not in WATCHED for name in modules)
        print(f"{label:<20s} {count:3d} repro modules{extra}")
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
    found += [
        f"{module} calls {name}( (only {OWNERS[name]} may)"
        for module, name in misplaced_calls()
    ]
    found += [
        f"{module} imports {name} and never uses it"
        for module, name in unused_imports()
    ]
    found += [
        f"{name} is used by nothing under {', '.join(USERS)} "
        "(reach it or delete it)"
        for name in unused_names()
    ]
    for problem in found:
        print(f"error: {problem}", file=sys.stderr)
    if found:
        print(f"{len(found)} import problem(s)", file=sys.stderr)
        return 1
    print("import budget ok; every module under src/repro is reached; "
          "every driver call is made by its owner; no import is unused; "
          "every definition is used outside tests/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
