"""What each entry point imports at start-up.

Every entry point -- the package, the CLI, a study, a shard, a router --
starts a fresh interpreter, which compiles every module it imports.  The
package namespaces are lazy and the CLI imports each command's modules in
its handler, so start-up loads only what that entry point runs: no model
code it does not use, and no scipy.  Only the Section 5 normal-approximation
methods (``normal``, ``bounds``) and a few optional paths need scipy; every
module imports it inside the functions that call it.  The router (and the
CLI parser that starts it) loads no numpy either: it checks inline model
content with the numpy-free rules of :mod:`repro.core.model_content`.  These
checks run in fresh interpreters, because the test process itself has loaded
everything.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: A study of the Section 5 scenario, as a study process parses it first.
_STUDY_SPEC = {
    "name": "import-probe",
    "base": {"scenario": "many-small-faults"},
    "sweep": {"grid": [{"name": "n", "values": [50, 100]},
                       {"name": "p_scale", "logspace": [0.1, 1.0, 4]}]},
    "methods": [{"name": "moments"}, {"name": "exact"}, {"name": "tail-quantile"},
                {"name": "montecarlo", "replications": 2000}],
}

#: What each entry point runs before its first request or evaluation.
ENTRY_POINTS = {
    "repro": "import repro",
    "repro.cli": "from repro.cli import build_parser; build_parser()",
    "repro.studies": (
        "from repro.studies import StudySpec, run_study; "
        f"StudySpec.from_dict({_STUDY_SPEC!r})"
    ),
    "repro.service.server": "import repro.service.server",
    "repro.cluster.router": "import repro.cluster.router",
}

#: Model code no entry point's start-up needs.
_MODEL_STACK = (
    "repro.adjudication",
    "repro.assessment",
    "repro.core.bounds",
    "repro.core.gain",
    "repro.demandspace",
    "repro.elm",
    "repro.experiments.knight_leveson",
    "repro.sensitivity",
)

#: Modules (or whole packages) each entry point's start-up must not load.
DENIED = {
    "repro": _MODEL_STACK + ("repro.api", "repro.core.fault_model", "repro.montecarlo.engine"),
    "repro.cli": _MODEL_STACK + (
        "numpy", "repro.api", "repro.cluster", "repro.core.fault_model",
        "repro.montecarlo.engine", "repro.service", "repro.studies.runner",
        "repro.studies.spec",
    ),
    "repro.studies": _MODEL_STACK + (
        "repro.cluster", "repro.core.pfd_distribution", "repro.montecarlo.engine",
        "repro.montecarlo.sweep", "repro.service", "repro.stats.batched",
    ),
    # A shard imports its kernels when it forks its worker pool, not before.
    "repro.service.server": _MODEL_STACK + (
        "repro.cluster", "repro.core.pfd_distribution", "repro.montecarlo.engine",
        "repro.studies.runner",
    ),
    # A router never runs a kernel, and checks model content without numpy.
    "repro.cluster.router": _MODEL_STACK + (
        "numpy", "repro.api.evaluate", "repro.core.fault_model",
        "repro.core.pfd_distribution", "repro.montecarlo.engine",
        "repro.service.server", "repro.service.worker", "repro.studies",
    ),
}

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


def _loaded(entry_point: str) -> set[str]:
    """Every module in ``sys.modules`` after ``entry_point``'s start-up."""
    code = f"import json, sys\n{ENTRY_POINTS[entry_point]}\nprint(json.dumps(sorted(sys.modules)))"
    return set(json.loads(_run(code)))


@pytest.mark.parametrize("module", ENTRY_POINTS)
def test_import_loads_no_scipy(module):
    assert not {name for name in _loaded(module) if name.split(".")[0] == "scipy"}


@pytest.mark.parametrize("entry_point", ENTRY_POINTS)
def test_start_up_loads_none_of_the_denied_modules(entry_point):
    loaded = _loaded(entry_point)
    denied = sorted(
        name for name in loaded
        if any(name == banned or name.startswith(banned + ".") for banned in DENIED[entry_point])
    )
    assert denied == []


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


def test_router_parses_inline_models_without_numpy():
    """A router's whole request path for inline models -- parse, digest, group
    key, batch route key -- loads no numpy; naming a scenario does."""
    code = (
        "import json, sys\n"
        "from repro.cli import build_parser\n"
        "build_parser()\n"
        "from repro.cluster.router import ShardRouter\n"
        "from repro.service.protocol import parse_batch_payload, parse_evaluate_payload\n"
        "model = {'p': [0.05, 0.02, 1], 'q': [1e-4, 5e-4, 0], 'names': ['a', 'b', 'c']}\n"
        "request = parse_evaluate_payload({'model': model, 'method': 'montecarlo', 'seed': 3,\n"
        "                                  'p_scale': 0.5, 'q_scale': 2})\n"
        "keys = [request.digest(), request.group_key(), request.payload_text()]\n"
        "model_data, requests, _, _ = parse_batch_payload(\n"
        "    {'model': model, 'requests': ['moments', {'method': 'exact', 'level': 0.9}]})\n"
        "router = ShardRouter(['127.0.0.1:9'])\n"
        "keys += [router._batch_route_key(model_data, *element) for element in requests]\n"
        "inline = 'numpy' in sys.modules\n"
        "parse_evaluate_payload({'scenario': 'high-quality', 'method': 'moments'})\n"
        "print(json.dumps({'inline': inline, 'scenario': 'numpy' in sys.modules,\n"
        "                  'keys': len(set(keys))}))\n"
    )
    output = json.loads(_run(code))
    assert output == {"inline": False, "scenario": True, "keys": 5}
