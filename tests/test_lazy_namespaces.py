"""The lazy package namespaces keep every public name of the eager ones.

Each package that re-exports its submodules' names builds its ``__all__``,
``__getattr__`` and ``__dir__`` with :func:`repro._lazy.lazy_exports` from a
table of defining modules.  The table is read from each ``__init__.py``, so
every lazy package is checked, including ones added later.
"""

from __future__ import annotations

import ast
import importlib
import pathlib

import pytest

import repro

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _tables() -> dict[str, dict[str, tuple[str, ...]]]:
    """``{package: {defining module: names}}`` of every lazy package."""
    tables = {}
    for init in sorted((SRC / "repro").rglob("__init__.py")):
        for node in ast.walk(ast.parse(init.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "lazy_exports"
            ):
                package = ".".join(init.parent.relative_to(SRC).parts)
                tables[package] = ast.literal_eval(node.args[1])
    return tables


TABLES = _tables()


def test_the_model_packages_are_lazy():
    assert {
        "repro", "repro.core", "repro.stats", "repro.montecarlo", "repro.versions",
        "repro.experiments", "repro.demandspace", "repro.studies", "repro.api",
    } <= set(TABLES)


@pytest.mark.parametrize("package", TABLES)
def test_each_name_resolves_to_its_defining_modules_object(package):
    namespace = importlib.import_module(package)
    for module, names in TABLES[package].items():
        # Imported first: a submodule sharing a name with an export (the
        # function repro.core.normal_approximation) must not replace it.
        defining = importlib.import_module(module)
        for name in names:
            assert getattr(namespace, name) is getattr(defining, name), (package, name)


@pytest.mark.parametrize("package", TABLES)
def test_each_name_has_one_defining_module(package):
    names = [name for names in TABLES[package].values() for name in names]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("package", TABLES)
def test_star_import_binds_all_of_all(package):
    namespace = importlib.import_module(package)
    bound: dict = {}
    exec(f"from {package} import *", bound)
    for name in namespace.__all__:
        assert bound[name] is getattr(namespace, name), name


@pytest.mark.parametrize("package", TABLES)
def test_dir_lists_all(package):
    listing = dir(importlib.import_module(package))
    assert "__all__" in listing
    assert set(importlib.import_module(package).__all__) <= set(listing)


@pytest.mark.parametrize("package", TABLES)
def test_an_unknown_name_raises_attribute_error_naming_the_package(package):
    namespace = importlib.import_module(package)
    with pytest.raises(AttributeError, match=f"module '{package}' has no attribute 'nope'"):
        namespace.nope  # noqa: B018


def test_a_resolved_name_is_bound_on_the_package():
    fault_model = importlib.import_module("repro.core.fault_model")
    assert repro.FaultModel is fault_model.FaultModel
    assert vars(repro)["FaultModel"] is fault_model.FaultModel


def test_a_submodule_still_imports_through_its_package():
    from repro.stats import batched

    assert batched is importlib.import_module("repro.stats.batched")
