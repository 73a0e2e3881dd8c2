"""Lazy package exports (PEP 562).

A package ``__init__`` names its public exports in one table and imports
none of them: each name is resolved from its submodule on first access
and then cached in the package namespace, so importing a package costs
only the submodules a program actually reaches (docs/architecture.md)::

    _EXPORTS = {
        ".network": ("FaultCounters", "FaultyNetwork"),
        ".plan": ("CLEAN", "FaultDecision", "FaultPlan", "FaultRates"),
    }
    __all__, __getattr__ = lazy_exports(__name__, _EXPORTS)
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, table: dict[str, tuple[str, ...]]):
    """``(__all__, __getattr__)`` for ``package`` exporting ``table``'s
    names, keyed by the (relative) submodule that defines them."""
    where = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        try:
            module = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    return list(where), __getattr__
