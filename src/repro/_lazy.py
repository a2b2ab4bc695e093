"""Shared PEP 562 lazy-export machinery.

Four packages (:mod:`repro`, :mod:`repro.pipeline`, :mod:`repro.index`,
:mod:`repro.obs`) expose attributes that live in heavyweight
submodules; each declares a ``{name: module}`` mapping and installs the
``__getattr__``/``__dir__`` pair built here instead of repeating the
boilerplate.

The resolved attribute is cached into the package's ``globals()``.  Not
just an optimisation: for an export whose name equals its host submodule
(``sweep``), importing the submodule binds the *module object* onto the
package, and ``from repro.pipeline import sweep`` would then pick up the
module instead of the function — writing the resolved value last wins
(the PR-3 submodule-shadowing bug).
"""

from __future__ import annotations

from typing import Callable, Mapping


def lazy_exports(
    package_name: str,
    module_globals: dict,
    exports: Mapping[str, str],
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """Build the ``(__getattr__, __dir__)`` pair for a lazy package.

    Usage::

        _LAZY_EXPORTS = {"Thing": "repro.pkg.submodule", ...}
        __getattr__, __dir__ = lazy_exports(__name__, globals(), _LAZY_EXPORTS)
    """

    def __getattr__(name: str):
        module_name = exports.get(name)
        if module_name is None:
            raise AttributeError(
                f"module {package_name!r} has no attribute {name!r}"
            )
        import importlib

        value = getattr(importlib.import_module(module_name), name)
        module_globals[name] = value  # cache; also defeats submodule shadowing
        return value

    def __dir__() -> list[str]:
        return sorted(set(module_globals) | set(module_globals.get("__all__", ())))

    return __getattr__, __dir__
