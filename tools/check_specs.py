#!/usr/bin/env python3
"""Spec-file checks (the CI spec-check step).

Every checked-in ``examples/specs/*.json`` — or every file / every
``*.json`` of every directory given as an argument, e.g. the specs a chaos
campaign just emitted with ``--out-dir`` — must:

* **load** — parse strictly through :func:`ScenarioSpec.from_dict` (unknown
  keys rejected) and pass :meth:`validate`;
* **round-trip** — ``from_dict(to_dict())`` is the same spec and serialises
  to the same ``to_dict()`` (the section protocol's construction invariant:
  one in-memory shape per value, the object form on the way out);
* **build** — construct every runtime object the spec describes: the system
  config, the latency model, the cluster, the workload, the fault schedule
  and (when enabled) the monitoring harness;
* **run one step** — simulate the first few virtual-time units end to end,
  proving the built objects actually execute together (a spec can be
  well-formed and still dead on arrival — e.g. a partition that cuts every
  client off).

Run from anywhere (``src`` is put on the path automatically)::

    python tools/check_specs.py [FILE_OR_DIRECTORY ...]

Exit status 0 means every spec file is runnable; 1 lists every problem.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import List, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.errors import ReproError, SimTimeoutError  # noqa: E402
from repro.experiments.spec import ScenarioSpec, load_spec_file, run_spec  # noqa: E402

SPEC_DIR = REPO_ROOT / "examples" / "specs"

# Enough virtual time for the first protocol round trips to complete, small
# enough that CI never simulates a full scenario here (the baseline gate
# covers full runs).
ONE_STEP_BUDGET = 3.0


def check_spec_file(path: Path) -> List[str]:
    """Problems with one spec file (empty list = loads, round-trips, builds
    and steps)."""
    name = path
    if path.is_relative_to(REPO_ROOT):
        name = path.relative_to(REPO_ROOT)
    try:
        spec = load_spec_file(str(path))
    except ReproError as error:
        return [f"{name}: does not load: {error}"]
    if spec.name != path.stem:
        return [f"{name}: spec name {spec.name!r} does not match the file name"]
    again = ScenarioSpec.from_dict(spec.to_dict())
    if again != spec or again.to_dict() != spec.to_dict():
        return [f"{name}: does not round-trip through to_dict() / from_dict()"]
    try:
        # Build every runtime object the spec describes, without running.
        config = spec.cluster.system_config()
        cluster = spec.cluster.build(
            config, spec.latency.build(seed=spec.seed, shards=spec.cluster.shards)
        )
        spec.workload.build(tuple(cluster.clients), seed=spec.seed)
        spec.faults.build(shards=spec.cluster.shards)
        if spec.monitoring.enabled:
            spec.monitoring.build(cluster)
            cluster.loop.run(until=0.0)  # start the control task cleanly
    except ReproError as error:
        return [f"{name}: does not build: {error}"]
    try:
        # One step of the real driver: a fresh build, simulated briefly.
        run_spec(spec.with_overrides({"max_time": ONE_STEP_BUDGET}))
    except SimTimeoutError:
        pass  # expected: the budget cuts the run short after the first steps
    except ReproError as error:
        return [f"{name}: does not run: {error}"]
    return []


def main(argv: Sequence[str] = ()) -> int:
    spec_files: List[Path] = []
    for target in map(Path, argv or [SPEC_DIR]):
        target = target.resolve()
        spec_files += sorted(target.glob("*.json")) if target.is_dir() else [target]
    if not spec_files:
        print(f"no spec files found under {', '.join(argv) or SPEC_DIR}",
              file=sys.stderr)
        return 1
    problems: List[str] = []
    for path in spec_files:
        problems.extend(check_spec_file(path))
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print(f"\n{len(problems)} problem(s) found", file=sys.stderr)
        return 1
    print(f"spec check ok: {len(spec_files)} spec file(s) load, round-trip, "
          "build and run")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
