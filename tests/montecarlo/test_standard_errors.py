"""Every ``montecarlo`` record carries the standard errors of its means.

``mc_mean_system_se`` (and ``mc_mean_single_se`` on paired records) is the
streamed ``s / sqrt(R)`` of the tallied PFDs.  On forty models drawn the way
the ``cold_mix`` benchmark draws its payloads, each simulated mean lies
within four of its standard errors of the closed-form mean
(:func:`pfd_moments`); so do records from the dense engine, for a dense
model and, for the first version's mean, a correlated request.  One
replication has no standard error: the record holds null, and stays strict
JSON.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.api import evaluate, evaluate_sweep
from repro.core.fault_model import FaultModel
from repro.core.moments import pfd_moments

#: Models checked, and the benchmark seed their draws derive from.
MODELS = 40
SEED = 1


def _cold_mix_request(index: int) -> tuple[FaultModel, int]:
    """The ``index``-th ``cold_mix``-style request: a rescaled model and its seed.

    Draws as the ``cold_mix`` payload generator does: a 100-fault model with
    ``p`` in ``(0.001, 0.1)`` and total impact 0.5, a ``p_scale`` in
    ``[0.25, 1]`` and a request seed, all from one index-keyed stream.
    """
    rng = np.random.default_rng([SEED, 2, index])
    model = FaultModel.random(rng, n=100, p_range=(0.001, 0.1), total_impact=0.5)
    p_scale = round(float(rng.uniform(0.25, 1.0)), 4)
    return model.rescaled(p_scale, 1.0), int(rng.integers(0, 2**31 - 1))


def _assert_within_four_standard_errors(metrics: dict, model, versions: int) -> None:
    pairs = [("mc_mean_system", "mc_mean_system_se", versions)]
    if "mc_mean_single" in metrics:
        pairs.append(("mc_mean_single", "mc_mean_single_se", 1))
    for mean_key, se_key, level in pairs:
        standard_error = metrics[se_key]
        assert 0.0 < standard_error < math.inf, (se_key, standard_error)
        truth = pfd_moments(model, level).mean
        assert abs(metrics[mean_key] - truth) <= 4.0 * standard_error, (mean_key, metrics)


@pytest.mark.parametrize("index", range(MODELS))
def test_cold_mix_means_lie_within_four_standard_errors(index):
    model, seed = _cold_mix_request(index)
    metrics = evaluate(model, "montecarlo", seed=seed).metric_dict()
    _assert_within_four_standard_errors(metrics, model, versions=2)


@pytest.mark.parametrize("versions", [2, 3])
def test_dense_engine_means_lie_within_four_standard_errors(versions):
    """A dense model whose one-point sweep would hold about twice
    ``BLOCK_CELLS`` entries, so the request runs the dense engine."""
    model = FaultModel.random(np.random.default_rng(7), n=100, p_range=(0.5, 0.9))
    metrics = evaluate(
        model, "montecarlo", seed=3, versions=versions, replications=4_000
    ).metric_dict()
    _assert_within_four_standard_errors(metrics, model, versions)


def test_correlated_single_mean_lies_within_four_standard_errors():
    """Correlation couples the versions but leaves each one's marginal alone."""
    model, seed = _cold_mix_request(0)
    metrics = evaluate(model, "montecarlo", seed=seed, correlation=0.5).metric_dict()
    truth = pfd_moments(model, 1).mean
    assert 0.0 < metrics["mc_mean_system_se"] < math.inf
    assert abs(metrics["mc_mean_single"] - truth) <= 4.0 * metrics["mc_mean_single_se"]


def test_sweep_standard_errors_scale_with_q_scale():
    model, seed = _cold_mix_request(1)
    base, halved, silent = evaluate_sweep(
        model,
        "montecarlo",
        [{"q_scale": 1.0}, {"q_scale": 0.5}, {"q_scale": 0.0}],
        seed=seed,
    )
    for key in ("mc_mean_single_se", "mc_mean_system_se"):
        assert dict(halved.metrics)[key] == dict(base.metrics)[key] * 0.5
        assert dict(silent.metrics)[key] == 0.0


@pytest.mark.parametrize("correlation", [0.0, 0.5], ids=["sweep-kernel", "dense-engine"])
@pytest.mark.parametrize("versions", [2, 3])
def test_one_replication_records_are_strict_json(versions, correlation):
    model, seed = _cold_mix_request(2)
    metrics = evaluate(
        model, "montecarlo", seed=seed, versions=versions, replications=1, correlation=correlation
    ).metric_dict()
    json.dumps(metrics, allow_nan=False)
    assert metrics["mc_mean_system_se"] is None
    assert metrics.get("mc_mean_single_se") is None


def test_one_replication_sweep_records_are_strict_json():
    model, seed = _cold_mix_request(3)
    results = evaluate_sweep(
        model, "montecarlo", [{"p_scale": 0.5}, {"p_scale": 1.0}], seed=seed, replications=1
    )
    for result in results:
        metrics = result.metric_dict()
        json.dumps(metrics, allow_nan=False)
        assert metrics["mc_mean_single_se"] is None and metrics["mc_mean_system_se"] is None
