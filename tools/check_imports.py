#!/usr/bin/env python3
"""Import budget of ``python -m repro`` (the CI cold-start gate).

Each probe below runs one subcommand in a fresh interpreter and reads
``sys.modules`` when it returns: the ``repro.*`` modules it imported, plus
``multiprocessing`` if that got loaded.  The lists are compared with the
committed ``tools/import_budget.json`` — names, not times, so the gate is
exact on every machine.  A subcommand that starts importing a module it did
not need before fails here with that module's name; a deliberate change is
recorded with ``--update``.

The rule being held (ARCHITECTURE "Cold start"): a package facade never
imports, a ``_cmd_*`` imports what it runs, and the parent imports before it
forks.

Run from anywhere (``src`` is put on the child's path automatically)::

    python tools/check_imports.py            # print counts, exit 1 on drift
    python tools/check_imports.py --update   # rewrite the budget
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
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
    for problem in found:
        print(f"error: {problem}", file=sys.stderr)
    if found:
        print(f"{len(found)} import-budget problem(s)", file=sys.stderr)
        return 1
    print("import budget ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
