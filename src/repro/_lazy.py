"""Lazy package exports (PEP 562).

A package ``__init__`` lists each submodule with the public names it
defines, and :func:`export_lazily` imports a submodule the first time
one of its names is read.  Importing a package, or any module inside
it, then loads only the submodules a command actually uses: a
``repro ingest`` or ``repro serve`` process never compiles the
analysis, baseline or oracle code.
"""

from __future__ import annotations

import sys
from importlib import import_module
from types import ModuleType

__all__ = ["export_lazily"]


class _LazyPackage(ModuleType):
    """A package whose exported names load with their submodule."""

    def __getattr__(self, name: str):
        source = self._lazy_sources.get(name)
        if source is None:
            raise AttributeError(
                f"module {self.__name__!r} has no attribute {name!r}"
            )
        value = getattr(import_module(source), name)
        super().__setattr__(name, value)
        return value

    def __setattr__(self, name: str, value) -> None:
        # The import system binds every submodule it loads on its
        # package.  Where a submodule is named like an export (the
        # function ``repro.core.lookup`` in ``repro/core/lookup.py``),
        # the package keeps the export, as an eager ``from ... import``
        # left it.
        source = self._lazy_sources.get(name)
        if isinstance(value, ModuleType) and value.__name__ == source:
            value = getattr(value, name)
        super().__setattr__(name, value)

    def __dir__(self) -> list[str]:
        return sorted({*self.__dict__, *self._lazy_sources})


def export_lazily(package: str, exports: dict[str, tuple[str, ...]]) -> None:
    """Serve each name of ``exports`` (submodule -> the names it
    defines) as an attribute of ``package``, importing the submodule
    on first access."""
    module = sys.modules[package]
    module._lazy_sources = {
        name: source for source, names in exports.items() for name in names
    }
    module.__class__ = _LazyPackage
