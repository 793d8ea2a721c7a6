#!/usr/bin/env python3
"""Documentation consistency checks (the CI docs job).

Five checks, all pure standard library:

* **link check** — every relative markdown link in the repository's ``*.md``
  files must point at an existing file or directory (external ``http(s)``/
  ``mailto`` links and pure ``#anchor`` links are skipped);
* **scenario-table drift check** — the ``## Scenario catalogue`` table in
  ``README.md`` must list exactly the scenarios the registry knows, i.e. the
  names ``python -m repro list`` prints.  A scenario added to the catalogue
  without a README row (or a README row for a deleted scenario) fails CI.
* **required-sections check** — load-bearing sections other docs and tools
  link into (see ``REQUIRED_SECTIONS``) must keep their exact headings, so
  renaming one fails CI instead of silently breaking anchors.
* **docstring reference check** — a ``*.md`` file named in a docstring under
  ``src/`` (``DESIGN.md``, ``docs/ARCHITECTURE.md`` ...) must exist, as a
  path from the repository root.
* **CLI flag check** — every ``python -m repro <subcommand> ... --flag`` that
  ``CLI_DOCS`` show (fenced block or inline) must name a subcommand the
  parser has and a flag that subcommand's parser accepts, so removing a
  subcommand or an option fails CI until the docs stop showing it.

Run from anywhere::

    python tools/check_docs.py

Exit status 0 means the docs are consistent; 1 lists every problem found.
"""

from __future__ import annotations

import argparse
import ast
import re
import shlex
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set

REPO_ROOT = Path(__file__).resolve().parent.parent

# Inline markdown links: [text](target).  Reference-style links are not used
# in this repository; images share the same syntax and are checked alike.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

# Rows of the scenario catalogue table: the first backticked cell is the
# scenario, | E1 | Fig. 1 | `name` | [json](baseline) | what it shows |
_SCENARIO_ROW = re.compile(r"^\|(?:[^|`]*\|)*?\s*`([^`]+)`\s*\|")

_SKIP_SCHEMES = ("http://", "https://", "mailto:")

# Markdown files named in source docstrings: DESIGN.md, docs/ARCHITECTURE.md.
_MD_NAME = re.compile(r"[\w./-]+\.md\b")

# Documents that show `python -m repro` commands to copy.
CLI_DOCS = ("README.md", "docs/ARCHITECTURE.md", ".claude/skills/verify/SKILL.md")

# One documented invocation: `python -m repro <rest of the shell command>`
# (not `python -m repro.serve.client`, which has its own parser).
_REPRO_COMMAND = re.compile(r"python3? -m repro[ \t]+([^|;&>#`\n]*)")

_FLAG = re.compile(r"--?[A-Za-z][A-Za-z0-9-]*")

_SUBCOMMAND = re.compile(r"[a-z][a-z0-9-]*")

# Sections other documentation (and CI jobs) deep-link into.  Paths are
# repo-relative; headings must appear verbatim at line start.
REQUIRED_SECTIONS = {
    "docs/ARCHITECTURE.md": [
        "### Cold start",
        "## Observability",
        "## Trace analytics",
        "## Chaos campaigns",
        "## Execution resilience",
        "## Serving layer",
    ],
    "README.md": [
        "## Scenario catalogue",
        "## Tracing a run",
        "## Analyzing a trace",
        "## Chaos campaigns",
        "## Resilient sweeps & resume",
        "## Experiment lab as a service",
    ],
}


def markdown_files(root: Path = REPO_ROOT) -> List[Path]:
    """Every tracked-looking markdown file (hidden directories skipped)."""
    files = []
    for path in sorted(root.rglob("*.md")):
        if any(part.startswith(".") for part in path.relative_to(root).parts):
            continue
        files.append(path)
    return files


def check_links(path: Path, root: Path = REPO_ROOT) -> List[str]:
    """Relative-link problems in one markdown file (empty list = clean)."""
    problems = []
    text = path.read_text(encoding="utf-8")
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(_SKIP_SCHEMES) or target.startswith("#"):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        base = root if relative.startswith("/") else path.parent
        resolved = (base / relative.lstrip("/")).resolve()
        if not resolved.exists():
            problems.append(
                f"{path.relative_to(root)}: broken link {target!r} "
                f"(resolved to {resolved})"
            )
    return problems


def readme_scenario_names(readme: Path) -> Set[str]:
    """The scenario names listed in README's ``## Scenario catalogue`` table."""
    names: Set[str] = set()
    in_catalogue = False
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            in_catalogue = line.strip() == "## Scenario catalogue"
            continue
        if in_catalogue:
            match = _SCENARIO_ROW.match(line.strip())
            if match:
                names.add(match.group(1))
    return names


def registered_scenario_names() -> Set[str]:
    """The names ``python -m repro list`` would print."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.experiments.registry import scenario_names

    return set(scenario_names())


def check_scenario_table(root: Path = REPO_ROOT) -> List[str]:
    """Drift between README's scenario table and the registry (empty = clean)."""
    readme = root / "README.md"
    if not readme.exists():
        return [f"missing {readme}"]
    documented = readme_scenario_names(readme)
    if not documented:
        return ["README.md: no '## Scenario catalogue' table rows found"]
    registered = registered_scenario_names()
    problems = []
    for name in sorted(registered - documented):
        problems.append(
            f"README.md: scenario {name!r} is registered but missing from "
            "the '## Scenario catalogue' table"
        )
    for name in sorted(documented - registered):
        problems.append(
            f"README.md: scenario {name!r} is in the catalogue table but "
            "not registered (run `python -m repro list`)"
        )
    return problems


def check_required_sections(root: Path = REPO_ROOT) -> List[str]:
    """Missing load-bearing headings (empty = clean)."""
    problems = []
    for relative, headings in REQUIRED_SECTIONS.items():
        path = root / relative
        if not path.exists():
            problems.append(f"missing {relative} (required sections live there)")
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        for heading in headings:
            if not any(line.strip() == heading for line in lines):
                problems.append(
                    f"{relative}: required section {heading!r} not found "
                    "(renamed or removed? other docs link to it)"
                )
    return problems


def check_docstring_references(root: Path = REPO_ROOT) -> List[str]:
    """``*.md`` files named in ``src/`` docstrings that do not exist."""
    problems = []
    for path in sorted((root / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            for name in _MD_NAME.findall(ast.get_docstring(node) or ""):
                if not (root / name).exists():
                    problems.append(
                        f"{path.relative_to(root)}: docstring names {name}, "
                        "which does not exist"
                    )
    return problems


def _documented_commands(text: str) -> Iterator[List[str]]:
    """The argv after ``python -m repro`` of every command ``text`` shows.

    A command runs to the end of its line (backslash continuations joined),
    or to the shell operator, comment or closing backtick that ends it.
    """
    for match in _REPRO_COMMAND.finditer(text.replace("\\\n", " ")):
        try:
            yield shlex.split(match.group(1))
        except ValueError:  # an unbalanced quote: prose, not a command
            yield match.group(1).split()


def _cli_flags() -> Dict[str, Set[str]]:
    """``subcommand -> accepted option strings`` (``trace`` ones as ``trace X``)."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.experiments.cli import build_parser

    flags: Dict[str, Set[str]] = {}

    def walk(parser: argparse.ArgumentParser, prefix: str) -> None:
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, child in action.choices.items():
                    flags[f"{prefix}{name}"] = set(child._option_string_actions)
                    walk(child, f"{prefix}{name} ")

    walk(build_parser(), "")
    return flags


def check_cli_flags(root: Path = REPO_ROOT) -> List[str]:
    """Documented ``python -m repro`` subcommands and flags the parser does
    not accept."""
    flags = _cli_flags()
    problems = []
    for relative in CLI_DOCS:
        path = root / relative
        if not path.exists():
            continue
        for argv in _documented_commands(path.read_text(encoding="utf-8")):
            command = argv[0] if argv else ""
            if command not in flags:
                # `--help`, an empty argv or a placeholder names no
                # subcommand; a bare word names one the parser lacks.
                if _SUBCOMMAND.fullmatch(command):
                    problems.append(
                        f"{relative}: `python -m repro` has no subcommand "
                        f"{command!r}"
                    )
                continue
            if len(argv) > 1 and f"{command} {argv[1]}" in flags:
                command = f"{command} {argv[1]}"
            elif command == "trace":
                command = "trace summary"  # `trace FILE` is its shorthand
            for token in argv[1:]:
                flag = _FLAG.match(token)
                if flag and flag.group() not in flags[command]:
                    problems.append(
                        f"{relative}: `python -m repro {command}` does not "
                        f"accept {flag.group()}"
                    )
    return problems


def main() -> int:
    problems: List[str] = []
    for path in markdown_files():
        problems.extend(check_links(path))
    problems.extend(check_docstring_references())
    problems.extend(check_scenario_table())
    problems.extend(check_required_sections())
    problems.extend(check_cli_flags())
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        print(f"{len(problems)} documentation problem(s)", file=sys.stderr)
        return 1
    print("docs ok: links resolve, scenario table matches the registry, "
          "required sections present, docstring references exist, "
          "documented CLI subcommands and flags are accepted")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
