"""Lazy package namespaces (PEP 562).

A package re-exports the public names of its submodules without importing
those submodules: :func:`lazy_exports` builds the package's ``__all__`` and
its module-level ``__getattr__`` and ``__dir__`` from a table mapping each
defining module to the names it exports.  A name's module is imported on
its first access and the object is then bound on the package, so later
lookups are plain attribute reads.  ``import repro`` therefore loads only
itself and this module, and each entry point compiles only the modules it
runs.

Modules inside the package import names from their defining modules, never
through a lazy namespace, so the import graph stays what each module needs.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Any, Callable, Mapping, MutableMapping, Sequence

__all__ = ["lazy_exports"]


def lazy_exports(
    namespace: MutableMapping[str, Any], table: Mapping[str, Sequence[str]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """The ``__all__``, ``__getattr__`` and ``__dir__`` of the package owning ``namespace``.

    ``namespace`` is the package's ``globals()``; ``table`` maps a defining
    module (an absolute name) to the names the package re-exports from it.
    Unknown names raise :class:`AttributeError` naming the package, so
    ``from package import submodule`` still falls back to importing the
    submodule.
    """
    package = namespace["__name__"]
    exports = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | exports.keys())

    shadowed = {name for name, module in exports.items() if module == f"{package}.{name}"}
    if shadowed:
        # Importing ``package.name`` binds that submodule as attribute
        # ``name`` of the package.  Where the package exports an object of
        # the same name (the function ``normal_approximation`` of
        # ``repro.core.normal_approximation``), the export keeps the name,
        # as it did when the package imported it eagerly.
        class _Package(types.ModuleType):
            def __setattr__(self, name: str, value: Any) -> None:
                if name in shadowed and isinstance(value, types.ModuleType):
                    return
                super().__setattr__(name, value)

        sys.modules[package].__class__ = _Package
    return list(exports), __getattr__, __dir__
