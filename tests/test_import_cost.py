"""scipy stays off the import path.

Only the Section 5 normal-approximation methods (``normal``, ``bounds``) and
a few optional paths need scipy; every module imports it inside the
functions that call it.  These checks run in fresh interpreters, because the
test process itself has scipy loaded by other tests.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

ENTRY_POINTS = ("repro", "repro.cli", "repro.studies", "repro.service.server",
                "repro.cluster.router")

_SCIPY_LOADED = "any(name.split('.')[0] == 'scipy' for name in sys.modules)"

_MODEL = (
    "import numpy as np\n"
    "from repro.core.fault_model import FaultModel\n"
    "model = FaultModel.random(np.random.default_rng(3), n=40, p_range=(0.005, 0.1),"
    " total_impact=0.3)\n"
)


def _run(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return completed.stdout.strip()


def _records(methods: tuple[str, ...], preload_scipy: bool) -> str:
    """JSON of each method's wire record at default options (timing dropped)."""
    code = (
        ("import scipy.stats\n" if preload_scipy else "")
        + "import json, sys\n"
        + _MODEL
        + "from repro import evaluate\n"
        "records = {}\n"
        f"for method in {methods!r}:\n"
        "    record = evaluate(model, method).to_dict()\n"
        "    record.pop('elapsed_seconds')\n"
        "    records[method] = record\n"
        f"print(json.dumps({{'records': records, 'scipy': {_SCIPY_LOADED}}}))\n"
    )
    return _run(code)


@pytest.mark.parametrize("module", ENTRY_POINTS)
def test_import_loads_no_scipy(module):
    assert _run(f"import sys, {module}; print({_SCIPY_LOADED})") == "False"


def test_numpy_only_methods_load_no_scipy():
    output = json.loads(_records(("moments", "exact", "tail-quantile", "montecarlo"), False))
    assert output["scipy"] is False
    assert set(output["records"]) == {"moments", "exact", "tail-quantile", "montecarlo"}


def test_numpy_only_sweeps_load_no_scipy():
    code = (
        "import sys\n"
        + _MODEL
        + "from repro import evaluate_sweep\n"
        "variations = [{'p_scale': 0.5}, {'p_scale': 1.0}]\n"
        "for method in ('moments', 'exact', 'tail-quantile', 'montecarlo'):\n"
        "    evaluate_sweep(model, method, variations)\n"
        f"print({_SCIPY_LOADED})\n"
    )
    assert _run(code) == "False"


def test_normal_and_bounds_records_match_preloaded_scipy():
    lazy = json.loads(_records(("normal", "bounds"), False))
    eager = json.loads(_records(("normal", "bounds"), True))
    assert lazy["scipy"] is True
    assert lazy["records"] == eager["records"]
