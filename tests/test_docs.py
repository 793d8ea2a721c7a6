"""The docs-consistency checks, enforced locally as well as in CI.

``tools/check_docs.py`` is the CI docs job; importing it here makes `pytest`
fail on the same problems (broken relative links, README scenario-table
drift) before a push ever reaches CI.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_docs = _load_check_docs()


def test_markdown_files_found():
    names = {path.name for path in check_docs.markdown_files()}
    assert "README.md" in names
    assert "ARCHITECTURE.md" in names


def test_markdown_links_resolve():
    problems = []
    for path in check_docs.markdown_files():
        problems.extend(check_docs.check_links(path))
    assert problems == []


def test_readme_scenario_table_matches_registry():
    assert check_docs.check_scenario_table() == []


def test_link_checker_catches_broken_links(tmp_path):
    bad = tmp_path / "bad.md"
    bad.write_text("see [missing](does-not-exist.md) and [ok](#anchor)")
    problems = check_docs.check_links(bad, root=tmp_path)
    assert len(problems) == 1
    assert "does-not-exist.md" in problems[0]


def test_table_parser_reads_backticked_first_cells(tmp_path):
    readme = tmp_path / "README.md"
    readme.write_text(
        "# x\n\n## Scenario catalogue\n\n"
        "| scenario | what |\n|---|---|\n"
        "| `alpha` | a |\n| `beta` | b |\n\n## Next\n\n| `gamma` | not counted |\n"
    )
    assert check_docs.readme_scenario_names(readme) == {"alpha", "beta"}


def test_table_parser_finds_the_scenario_in_a_later_column(tmp_path):
    readme = tmp_path / "README.md"
    readme.write_text(
        "## Scenario catalogue\n\n"
        "| experiment | paper anchor | scenario | baseline | what |\n|---|---|---|---|---|\n"
        "| E1 | Fig. 1 | `alpha` | [json](a.json) | uses `transfer` |\n"
        "| — | beyond the paper | `beta` | [json](b.json) | b |\n"
    )
    assert check_docs.readme_scenario_names(readme) == {"alpha", "beta"}


@pytest.mark.parametrize("example", [
    "quickstart.py", "fig1_walkthrough.py", "consensus_from_reassignment.py",
    "wan_adaptive_storage.py",
])
def test_library_boundary_walkthroughs_run(example):
    # The examples import public names straight from the package facades.
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / example)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_source_docstrings_name_only_existing_markdown_files():
    assert check_docs.check_docstring_references() == []


def test_docstring_check_catches_a_missing_markdown_file(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "ARCHITECTURE.md").write_text("# x\n")
    (tmp_path / "src" / "module.py").write_text(
        '"""See ``DESIGN.md`` and docs/ARCHITECTURE.md."""\n\n'
        'def f():\n    """Recorded in EXPERIMENTS.md."""\n'
    )
    problems = check_docs.check_docstring_references(root=tmp_path)
    assert [problem.split(": ")[1] for problem in problems] == [
        "docstring names DESIGN.md, which does not exist",
        "docstring names EXPERIMENTS.md, which does not exist",
    ]


def test_documented_cli_flags_are_accepted():
    assert check_docs.check_cli_flags() == []


def test_cli_flag_check_catches_a_removed_option(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "ARCHITECTURE.md").write_text(
        "Inline: `python -m repro chaos --no-trajectory` and the old\n"
        "`python -m repro.serve.client submit --not-this-parser`.\n"
    )
    (tmp_path / "README.md").write_text(
        "```sh\n"
        "python -m repro compare --quick a.json b.json\n"
        "PYTHONPATH=src python -m repro sweep quickstart -g cluster.n=4,5 \\\n"
        "    --seeds 0,1 --workers 2 --jobs 4 | tee out.txt --not-a-repro-flag\n"
        "python -m repro trace out.jsonl --export out.chrome.json\n"
        "python -m repro trace check out.jsonl --min-quorum=2 --export x\n"
        "python -m repro list --json   # == `GET /scenarios`\n"
        "```\n"
    )
    assert check_docs.check_cli_flags(root=tmp_path) == [
        "README.md: `python -m repro compare` does not accept --quick",
        "README.md: `python -m repro sweep` does not accept --jobs",
        "README.md: `python -m repro trace check` does not accept --export",
        "docs/ARCHITECTURE.md: `python -m repro chaos` does not accept "
        "--no-trajectory",
    ]


def test_cli_flag_check_catches_an_unknown_subcommand(tmp_path):
    # A removed subcommand is a finding at the parent parser; `--help`, an
    # empty argv and placeholders name no subcommand and stay skipped.
    (tmp_path / "README.md").write_text(
        "```sh\n"
        "python -m repro bench --check expectations.json\n"
        "python -m repro --help\n"
        "python -m repro | less\n"
        "python -m repro <command> --flag\n"
        "python -m repro ... --flag\n"
        "python -m repro list --json\n"
        "```\n"
    )
    assert check_docs.check_cli_flags(root=tmp_path) == [
        "README.md: `python -m repro` has no subcommand 'bench'",
    ]
