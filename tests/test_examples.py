"""Integrity checks for the runnable examples.

The tier-1 suite verifies the cheap invariants: every example compiles,
imports only the public API, and has a ``main()`` guarded by
``__main__``.  ``scripts/ci.sh`` runs every example end to end in its
smoke step (a few seconds each).
"""

from __future__ import annotations

import ast
import py_compile
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_expected_examples_present():
    names = {path.name for path in EXAMPLE_FILES}
    assert {
        "quickstart.py",
        "serving_quickstart.py",
        "recommender_system.py",
        "embedding_analysis.py",
        "weight_vector_exploration.py",
    } <= names
    assert len(names) >= 5


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.name)
class TestEachExample:
    def test_compiles(self, path, tmp_path):
        py_compile.compile(str(path), cfile=str(tmp_path / "out.pyc"), doraise=True)

    def test_has_docstring_and_main_guard(self, path):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert ast.get_docstring(tree), f"{path.name} missing module docstring"
        source = path.read_text(encoding="utf-8")
        assert 'if __name__ == "__main__":' in source
        assert "def main(" in source

    def test_imports_resolve(self, path):
        """Every repro.* import in the example must exist in the library."""
        import importlib

        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and (
                node.module == "repro" or node.module.startswith("repro.")
            ):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (
                        f"{path.name}: {node.module}.{alias.name} does not exist"
                    )
