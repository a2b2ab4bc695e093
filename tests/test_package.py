"""Package-level checks: public API surface and metadata."""

from __future__ import annotations

import importlib

import pytest

import repro


class TestPublicAPI:
    def test_version_string(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.core.algebra",
            "repro.kg",
            "repro.nn",
            "repro.training",
            "repro.eval",
            "repro.baselines",
            "repro.analysis",
            "repro.cli",
            "repro.paper_tables",
            "repro.errors",
        ],
    )
    def test_subpackage_all_exports_resolve(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"

    def test_error_hierarchy_rooted(self):
        from repro import errors

        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception) and obj is not Exception:
                assert issubclass(obj, errors.ReproError)

    def test_docstrings_on_public_entry_points(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) or isinstance(obj, type):
                assert obj.__doc__, f"{name} is missing a docstring"
