"""Lazy package exports (PEP 562).

A package ``__init__`` names each public symbol and the module that
defines it; that module is imported on the symbol's first use, not when
the package is.  So ``from repro import PWCETEstimator`` still works,
while ``import repro.cli`` loads only what a command runs.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, table: dict[str, str]):
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``table`` maps each exported name, in ``__all__`` order, to its
    defining module (relative names are resolved against ``package``).
    A resolved name is stored on the package, so later lookups are
    plain attribute reads.
    """

    def __getattr__(name: str):
        module = table.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return list(table), __getattr__, __dir__
