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
everything.  The normal-theory paths (``normal``, ``bounds``, correlated
``montecarlo``) take the standard-normal CDF and quantile from
:mod:`repro.stats.normal`, which loads ``scipy.special`` and never the much
heavier ``scipy.stats``.
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

#: The normal-theory paths: a label, then the method and its options.
_NORMAL_THEORY = {
    "normal": ("normal", {}),
    "bounds": ("bounds", {}),
    "correlated montecarlo": ("montecarlo", {"correlation": 0.3, "replications": 2000}),
}

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


def _records(calls: dict, preload_scipy: bool) -> str:
    """JSON of each call's wire record (timing dropped) and of which scipy
    modules the run loaded; ``calls`` maps a label to ``(method, options)``."""
    code = (
        ("import scipy.stats\n" if preload_scipy else "")
        + "import json, sys\n"
        + _MODEL
        + "from repro import evaluate\n"
        "records = {}\n"
        f"for label, (method, options) in {calls!r}.items():\n"
        "    record = evaluate(model, method, **options).to_dict()\n"
        "    record.pop('elapsed_seconds')\n"
        "    records[label] = record\n"
        f"print(json.dumps({{'records': records, 'scipy': {_SCIPY_LOADED},\n"
        "                  'scipy.stats': 'scipy.stats' in sys.modules}))\n"
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
    methods = ("moments", "exact", "tail-quantile", "montecarlo")
    output = json.loads(_records({method: (method, {}) for method in methods}, False))
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


def test_normal_theory_paths_load_no_scipy_stats():
    lazy = json.loads(_records(_NORMAL_THEORY, False))
    eager = json.loads(_records(_NORMAL_THEORY, True))
    assert lazy["scipy"] is True
    assert lazy["scipy.stats"] is False
    assert set(lazy["records"]) == set(_NORMAL_THEORY)
    assert lazy["records"] == eager["records"]


def test_router_parses_inline_models_without_numpy():
    """A router's whole request path for inline models, in either spelling
    -- parse, digest, replica payload, a batch element's digest and its
    sub-body -- loads no numpy; naming a scenario does."""
    code = (
        "import base64, json, struct, sys\n"
        "from repro.cli import build_parser\n"
        "build_parser()\n"
        "from repro.cluster.router import ShardRouter\n"
        "from repro.service.protocol import parse_batch_payload, parse_evaluate_payload\n"
        "model = {'p': [0.05, 0.02, 1], 'q': [1e-4, 5e-4, 0], 'names': ['a', 'b', 'c']}\n"
        "f64 = {'p_f64': base64.b64encode(struct.pack('<3d', 0.05, 0.02, 1)).decode(),\n"
        "       'q_f64': base64.b64encode(struct.pack('<3d', 1e-4, 5e-4, 0)).decode(),\n"
        "       'names': ['a', 'b', 'c']}\n"
        "body = {'method': 'montecarlo', 'seed': 3, 'p_scale': 0.5, 'q_scale': 2}\n"
        "request = parse_evaluate_payload({'model': model, **body})\n"
        "same = parse_evaluate_payload({'model': f64, **body})\n"
        "keys = [request.digest(), request.payload_text(), same.digest(),\n"
        "        same.wire_payload_text()]\n"
        "content, requests, seed = parse_batch_payload(\n"
        "    {'model': f64, 'requests': ['moments', {'method': 'exact', 'level': 0.9}]})\n"
        "ShardRouter(['127.0.0.1:9'])\n"
        "keys += [parse_evaluate_payload({'model': content.wire(), 'method': method,\n"
        "                                 'options': options, 'seed': seed}).digest()\n"
        "         for method, options in requests]\n"
        "inline = 'numpy' in sys.modules\n"
        "parse_evaluate_payload({'scenario': 'high-quality', 'method': 'moments'})\n"
        "print(json.dumps({'inline': inline, 'scenario': 'numpy' in sys.modules,\n"
        "                  'same': same.digest() == request.digest(),\n"
        "                  'keys': len(set(keys))}))\n"
    )
    output = json.loads(_run(code))
    assert output == {"inline": False, "scenario": True, "same": True, "keys": 5}
