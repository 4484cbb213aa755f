"""One home for the sweep transform rules.

What makes a ``p_scale`` / ``q_scale`` valid -- its typing and the rules of
applying it to a model -- is decided in :mod:`repro.core.model_content`
alone; the wire parser, the sweep core, study specs, the Monte Carlo sweep
kernel and :class:`~repro.core.fault_model.FaultModel` call it.  A second
copy of those rules drifts from the first, so this scan of ``src/repro``
keeps their error texts in that one module.  It also keeps every caller of
the sweep core on its public names: no module imports a private name from
:mod:`repro.api.evaluate`.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

TRANSFORM_TEXTS = (
    "pushes some p_i above 1",
    "must be a finite non-negative number",
)


def _modules() -> dict[str, str]:
    return {
        path.relative_to(PACKAGE.parent).as_posix(): path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.rglob("*.py"))
    }


@pytest.mark.parametrize("text", TRANSFORM_TEXTS)
def test_transform_error_texts_live_only_in_model_content(text):
    holders = [name for name, source in _modules().items() if text in source]
    assert holders == ["repro/core/model_content.py"]


def test_no_module_imports_a_private_name_from_the_api_evaluate_module():
    offenders = []
    for name, source in _modules().items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module == "repro.api.evaluate":
                offenders += [
                    (name, alias.name) for alias in node.names if alias.name.startswith("_")
                ]
    assert offenders == []
