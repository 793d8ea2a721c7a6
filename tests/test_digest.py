"""``repro._digest.sha256`` is SHA-256, whichever module provides it.

The helper prefers the interpreter's lean built-in module (``_sha2`` on
3.12+, ``_sha256`` before) to ``hashlib``, which loads OpenSSL.  Journal
keys and trace digests written by one resolution must be read back by any
other, so every resolution is held to ``hashlib.sha256`` itself.
"""

from __future__ import annotations

import ast
import hashlib
import importlib
import sys
from pathlib import Path

import pytest

from repro import _digest

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

INPUTS = [
    b"",
    b"abc",
    "quorum é\n".encode("utf-8"),
    bytes(range(256)) * 17,  # spans many 64-byte blocks, not a multiple
]


def _digests(sha256):
    return [sha256(data).hexdigest() for data in INPUTS]


def _expected():
    return [hashlib.sha256(data).hexdigest() for data in INPUTS]


class TestLeanSha256:
    def test_it_equals_hashlib_on_fixed_inputs(self):
        assert _digests(_digest.sha256) == _expected()

    def test_incremental_updates_equal_one_update(self):
        digest = _digest.sha256()
        for data in INPUTS:
            digest.update(data)
        assert digest.hexdigest() == hashlib.sha256(b"".join(INPUTS)).hexdigest()

    def test_it_is_not_openssls(self):
        # The point of the helper: on this interpreter a lean module exists.
        assert _digest.sha256.__module__ in ("_sha2", "_sha256")

    def test_the_last_resort_is_hashlib_and_still_sha256(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "_sha2", None)
        monkeypatch.setitem(sys.modules, "_sha256", None)
        try:
            fallback = importlib.reload(_digest)
            assert fallback.sha256 is hashlib.sha256
            assert _digests(fallback.sha256) == _expected()
        finally:
            monkeypatch.undo()
            importlib.reload(_digest)
        assert _digest.sha256.__module__ in ("_sha2", "_sha256")


def _imports_hashlib(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "hashlib" for name in names):
            return True
    return False


def test_only_the_helper_imports_hashlib():
    assert [
        path.relative_to(SRC_DIR).as_posix()
        for path in sorted(SRC_DIR.rglob("*.py")) if _imports_hashlib(path)
    ] == ["repro/_digest.py"]


@pytest.mark.parametrize("module", ["repro.experiments.resilience", "repro.obs.trace"])
def test_the_hashing_modules_use_the_helper(module):
    assert importlib.import_module(module).sha256 is _digest.sha256
