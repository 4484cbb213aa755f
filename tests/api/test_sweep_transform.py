"""The sweep transform is checked point by point, before any batched kernel runs.

On a non-strict model a ``q_scale`` can push some ``q_i`` above 1 while its
sibling points stay valid.  Every sweep surface -- the sweep core, studies,
``evaluate_sweep`` -- must give such a point the
error :meth:`FaultModel.rescaled` raises and still compute its siblings, and
must type a scale as the service wire does.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.evaluate import evaluate_sweep, sweep_outcomes
from repro.cache import ResultCache
from repro.core.fault_model import FaultModel
from repro.studies.runner import plan_study, run_study
from repro.studies.spec import StudySpec

VARIATIONS = [{"q_scale": 1.0}, {"q_scale": 2.0}, {"p_scale": 0.5}]


@pytest.fixture
def loose_model() -> FaultModel:
    """Non-strict: sum(q) > 1 is allowed, but every q_i must stay in [0, 1]."""
    return FaultModel(p=np.array([0.3, 0.2]), q=np.array([0.6, 0.6]), strict=False)


def _rescaled_error(model: FaultModel, variation: dict) -> str:
    with pytest.raises(ValueError) as raised:
        model.rescaled(variation.get("p_scale", 1.0), variation.get("q_scale", 1.0))
    return f"ValueError: {raised.value}"


@pytest.mark.parametrize(
    "method, options",
    [
        ("exact", {"max_support": 256}),
        ("tail-quantile", {"max_support": 256}),
        ("montecarlo", {"replications": 2000}),
    ],
)
def test_an_invalid_point_does_not_sink_its_siblings(loose_model, method, options):
    batched, outcomes = sweep_outcomes(loose_model, method, VARIATIONS, options=options, seed=3)
    assert batched
    assert [status for status, _ in outcomes] == ["ok", "error", "ok"]
    assert outcomes[1][1] == _rescaled_error(loose_model, VARIATIONS[1])
    assert outcomes[1][1] == "ValueError: all q_i must lie in [0, 1]"
    for variation, (_, result) in zip(VARIATIONS[::2], outcomes[::2]):
        [alone] = evaluate_sweep(loose_model, method, [variation], seed=3, options=options)
        assert result.metric_dict() == alone.metric_dict()


def test_the_batched_kernel_sees_only_valid_points(loose_model, monkeypatch):
    from repro.stats import batched

    seen = []
    original = batched.batched_scaled_pfd

    def recording(model, p_scales, q_scales=None, **kwargs):
        seen.append(list(q_scales))
        return original(model, p_scales, q_scales, **kwargs)

    monkeypatch.setattr(batched, "batched_scaled_pfd", recording)
    sweep_outcomes(loose_model, "exact", VARIATIONS, options={"max_support": 256})
    assert seen == [[1.0, 1.0]]


@pytest.mark.parametrize("value", ["0.5", True, None, [0.5]])
def test_sweeps_type_a_scale_as_the_wire_does(small_model, value):
    with pytest.raises(ValueError) as raised:
        evaluate_sweep(small_model, "moments", [{"p_scale": value}])
    assert str(raised.value) == (
        f"sweep variation 0: ValueError: 'p_scale' must be a number, got {value!r}"
    )


@pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
def test_sweeps_reject_a_negative_or_non_finite_scale(small_model, value):
    _, outcomes = sweep_outcomes(small_model, "moments", [{"q_scale": value}, {}])
    assert outcomes[0] == (
        "error",
        f"ValueError: 'q_scale' must be a finite non-negative number, got {value!r}",
    )
    assert outcomes[1][0] == "ok"


def _motivation_spec(model: FaultModel) -> StudySpec:
    return StudySpec.from_dict(
        {
            "name": "loose-q-scale",
            "base": {"model": model.to_dict()},
            "sweep": {"grid": [{"name": "q_scale", "values": [1, 2]}]},
            "methods": [
                {"name": "exact", "max_support": 256},
                {"name": "montecarlo", "replications": 2000},
            ],
            "seed": 5,
        }
    )


def test_studies_give_invalid_points_uncached_error_rows(loose_model, tmp_path):
    from repro import evaluate

    spec = _motivation_spec(loose_model)
    cache_dir = str(tmp_path / "cache")
    result = run_study(spec, cache_dir=cache_dir, keep_going=True)
    cache = ResultCache(cache_dir)
    for entry, record in zip(plan_study(spec), result.records):
        assert (cache.load(entry.digest) is not None) == (record.get("status") != "error")
    for row in result.records:
        if row["method"] == "exact" and "status" not in row:
            lone = evaluate(
                loose_model.rescaled(q_scale=row["q_scale"]), "exact", max_support=256
            ).metric_dict()
            assert {key: row[key] for key in lone} == lone
    statuses = {(row["method"], row["q_scale"]): row.get("status", "ok") for row in result.records}
    assert statuses == {
        ("exact", 1): "ok",
        ("exact", 2): "error",
        ("montecarlo", 1): "ok",
        ("montecarlo", 2): "error",
    }
    errors = {row["error"] for row in result.records if "error" in row}
    assert errors == {"all q_i must lie in [0, 1]"}


@pytest.mark.parametrize(
    "value, message",
    [
        ("0.5", "'p_scale' must be a number, got '0.5'"),
        (True, "'p_scale' must be a number, got True"),
        (-0.5, "'p_scale' must be a finite non-negative number, got -0.5"),
    ],
)
def test_study_specs_type_transform_axes_when_parsed(small_model, value, message):
    with pytest.raises(ValueError) as raised:
        StudySpec.from_dict(
            {
                "name": "typed",
                "base": {"model": small_model.to_dict()},
                "sweep": {"grid": [{"name": "p_scale", "values": [0.5, value]}]},
                "methods": [{"name": "moments"}],
            }
        )
    assert str(raised.value) == message
