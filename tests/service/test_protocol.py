"""Tests for the service wire protocol: parsing, validation and identity."""

from __future__ import annotations

import pytest

from repro.cache import result_record
from repro.core.fault_model import FaultModel
from repro.experiments.scenarios import get_scenario
from repro.service.protocol import (
    parse_batch_payload,
    parse_evaluate_payload,
    parse_timeout_ms,
)
from repro.stats.rng import DEFAULT_SEED


def _payload(model: FaultModel, **extra) -> dict:
    return {"model": model.to_dict(), "method": "moments", **extra}


class TestParseEvaluate:
    def test_options_resolve_with_defaults(self, small_model):
        request = parse_evaluate_payload(_payload(small_model))
        assert request.method == "moments"
        assert request.options == {"versions": 2}
        assert request.seed == DEFAULT_SEED
        assert request.p_scale == 1.0 and request.q_scale == 1.0
        assert not request.requires_seed

    def test_scenario_and_inline_model_are_the_same_request(self):
        model = get_scenario("high-quality")
        by_scenario = parse_evaluate_payload({"scenario": "high-quality", "method": "moments"})
        by_model = parse_evaluate_payload({"model": model.to_dict(), "method": "moments"})
        assert by_scenario.digest() == by_model.digest()
        assert by_scenario.group_key() == by_model.group_key()

    def test_transforms_change_digest_but_not_group_key(self, small_model):
        base = parse_evaluate_payload(_payload(small_model))
        scaled = parse_evaluate_payload(_payload(small_model, p_scale=0.5))
        assert base.digest() != scaled.digest()
        assert base.group_key() == scaled.group_key()

    def test_method_options_and_seed_split_groups(self, small_model):
        one = parse_evaluate_payload(_payload(small_model, method="montecarlo", seed=1))
        other_seed = parse_evaluate_payload(_payload(small_model, method="montecarlo", seed=2))
        other_options = parse_evaluate_payload(
            _payload(small_model, method="montecarlo", seed=1, options={"replications": 500})
        )
        assert len({one.group_key(), other_seed.group_key(), other_options.group_key()}) == 3

    def test_seed_is_irrelevant_to_deterministic_identity(self, small_model):
        one = parse_evaluate_payload(_payload(small_model, seed=1))
        two = parse_evaluate_payload(_payload(small_model, seed=2))
        assert one.digest() == two.digest()
        assert one.entropy is None

    def test_stochastic_entropy_is_a_list(self, small_model):
        request = parse_evaluate_payload(_payload(small_model, method="montecarlo", seed=9))
        assert request.entropy == [9]
        assert request.requires_seed

    @pytest.mark.parametrize(
        "mutation, fragment",
        [
            ({"scenario": "high-quality"}, "exactly one of 'model' and 'scenario'"),
            ({"method": "frobnicate"}, "unknown method"),
            ({"method": None}, "'method' name"),
            ({"options": {"bogus": 1}}, "does not accept option"),
            ({"options": {"versions": "two"}}, "expects int"),
            ({"options": [1, 2]}, "'options' must be a JSON object"),
            ({"seed": -1}, "non-negative"),
            ({"seed": True}, "'seed' must be a non-negative integer"),
            ({"seed": 1.5}, "'seed' must be a non-negative integer"),
            ({"p_scale": -0.5}, "'p_scale'"),
            ({"p_scale": float("nan")}, "'p_scale'"),
            ({"q_scale": "big"}, "'q_scale'"),
            ({"frobs": 1}, "unknown request key"),
            ({"method": "montecarlo", "options": {"replications": 0}}, "'replications' must be >= 1"),
            ({"method": "montecarlo", "options": {"replications": -1}}, "'replications' must be >= 1"),
            ({"method": "montecarlo", "options": {"versions": 0}}, "'versions' must be >= 1"),
            ({"options": {"versions": 0}}, "'versions' must be >= 1"),
            ({"method": "exact", "options": {"max_support": 1}}, "'max_support' must be >= 2"),
            ({"method": "exact", "options": {"level": 1.5}}, "'level' must be <= 1"),
            ({"method": "tail-quantile", "options": {"level": -0.1}}, "'level' must be >= 0"),
        ],
    )
    def test_invalid_inputs_rejected(self, small_model, mutation, fragment):
        payload = _payload(small_model)
        payload.update(mutation)
        with pytest.raises(ValueError) as excinfo:
            parse_evaluate_payload(payload)
        assert fragment in str(excinfo.value)

    def test_model_dependent_transform_constraints(self, two_fault_model):
        # p_scale=4 would push p=0.5 to 2.0.
        with pytest.raises(ValueError):
            parse_evaluate_payload(_payload(two_fault_model, p_scale=4.0))

    def test_missing_and_invalid_model(self):
        with pytest.raises(ValueError, match="exactly one of 'model' and 'scenario'"):
            parse_evaluate_payload({"method": "moments"})
        with pytest.raises(ValueError, match="missing required key"):
            parse_evaluate_payload({"model": {"p": [0.1]}, "method": "moments"})
        with pytest.raises(ValueError, match="invalid model"):
            parse_evaluate_payload({"model": {"p": [2.0], "q": [0.1]}, "method": "moments"})
        with pytest.raises(ValueError, match="unknown scenario"):
            parse_evaluate_payload({"scenario": "nope", "method": "moments"})

    def test_non_mapping_payload_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            parse_evaluate_payload([1, 2, 3])


#: Wrong-typed inline model content and the key each rejection must name.
WRONG_TYPED_MODELS = [
    ({"strict": "false"}, "'strict' must be a boolean, got 'false'"),
    ({"strict": None}, "'strict' must be a boolean, got None"),
    ({"strict": 1}, "'strict' must be a boolean, got 1"),
    ({"names": "xyz"}, "'names' must be an array of strings, got str"),
    ({"names": [1, 2, 3]}, "'names' must be an array of strings, got element 1"),
    ({"names": None}, "'names' must be an array of strings, got null"),
    ({"p": ["0.1", "0.2", "0.3"]}, "'p' must be an array of numbers, got element '0.1'"),
    ({"p": [True, False, 0.1]}, "'p' must be an array of numbers, got element True"),
    ({"p": 0.1}, "'p' must be an array of numbers, got float"),
    ({"q": [[0.1], [0.1], [0.1]]}, "'q' must be an array of numbers, got element [0.1]"),
    ({"q": {"0": 0.1}}, "'q' must be an array of numbers, got dict"),
]


class TestStrictModelTyping:
    """Wrong-typed model content is a 400, never a silent coercion."""

    @pytest.mark.parametrize("mutation, message", WRONG_TYPED_MODELS)
    def test_evaluate_rejects_wrong_types(self, small_model, mutation, message):
        payload = _payload(small_model)
        payload["model"].update(mutation)
        with pytest.raises(ValueError) as excinfo:
            parse_evaluate_payload(payload)
        assert str(excinfo.value) == f"invalid model: {message}"

    @pytest.mark.parametrize("mutation, message", WRONG_TYPED_MODELS)
    def test_batch_rejects_wrong_types(self, small_model, mutation, message):
        payload = {"model": {**small_model.to_dict(), **mutation}, "requests": ["moments"]}
        with pytest.raises(ValueError) as excinfo:
            parse_batch_payload(payload)
        assert str(excinfo.value) == f"invalid model: {message}"

    @pytest.mark.parametrize("mutation, message", WRONG_TYPED_MODELS)
    def test_from_dict_rejects_wrong_types(self, small_model, mutation, message):
        with pytest.raises(ValueError) as excinfo:
            FaultModel.from_dict({**small_model.to_dict(), **mutation})
        assert str(excinfo.value) == message

    def test_integer_past_the_float_range_is_not_finite(self):
        with pytest.raises(ValueError, match="invalid model: p and q must be finite"):
            parse_evaluate_payload({"model": {"p": [10**400], "q": [0.1]}, "method": "moments"})


class TestStudyKeySharing:
    """Service digests deliberately share the study cache key space."""

    def test_deterministic_request_matches_study_point_digest(self, small_model):
        from repro.studies.runner import plan_study
        from repro.studies.spec import StudySpec

        spec = StudySpec.from_dict(
            {
                "name": "key-sharing",
                "base": {"model": small_model.to_dict()},
                "sweep": {"grid": [{"name": "p_scale", "values": [0.5, 1.0]}]},
                "methods": [{"name": "moments"}],
                "seed": 123,
            }
        )
        study_digests = {entry.digest for entry in plan_study(spec)}
        for p_scale in (0.5, 1.0):
            request = parse_evaluate_payload(
                _payload(small_model, p_scale=p_scale, seed=999)  # seed irrelevant
            )
            assert request.digest() in study_digests

    def test_stochastic_request_never_matches_study_digest(self, small_model):
        from repro.studies.runner import plan_study
        from repro.studies.spec import StudySpec

        spec = StudySpec.from_dict(
            {
                "name": "key-sharing-mc",
                "base": {"model": small_model.to_dict()},
                "methods": [{"name": "montecarlo", "replications": 1000}],
                "seed": 7,
            }
        )
        study_digests = {entry.digest for entry in plan_study(spec)}
        # The study derives digest-keyed streams from its seed; the service
        # seeds directly.  Equal-looking requests must not share records.
        request = parse_evaluate_payload(
            _payload(small_model, method="montecarlo", options={"replications": 1000}, seed=7)
        )
        assert request.digest() not in study_digests


class TestResultRecord:
    def test_rebuilds_the_wire_record_around_cached_metrics(self, small_model):
        request = parse_evaluate_payload(_payload(small_model, method="montecarlo", seed=3))
        record = result_record(request.payload(), {"mc_mean_system": 1e-6})
        assert record == {
            "method": "montecarlo",
            "options": request.options,
            "metrics": {"mc_mean_system": 1e-6},
            "seed_entropy": [3],
            "elapsed_seconds": 0.0,
        }
        # Served bytes depend on key order: options are sorted, as in a
        # computed record.
        assert list(record["options"]) == sorted(request.options)

    @pytest.mark.parametrize("payload", [None, {}, {"method": "moments"}, {"method": {}}])
    def test_a_payload_without_a_method_rebuilds_nothing(self, payload):
        assert result_record(payload, {"x": 1.0}) is None


class TestParseBatch:
    def test_request_spellings(self, small_model):
        model, requests, seed = parse_batch_payload(
            {
                "model": small_model.to_dict(),
                "requests": ["moments", {"method": "exact", "max_support": 512}],
                "seed": 11,
            }
        )
        assert model == small_model.content()
        assert model.to_dict() == small_model.to_dict()
        assert requests[0] == ("moments", {})
        assert requests[1] == ("exact", {"max_support": 512})
        assert seed == 11

    @pytest.mark.parametrize(
        "mutation, fragment",
        [
            ({"requests": []}, "non-empty list"),
            ({"requests": "moments"}, "non-empty list"),
            ({"requests": [{"no_method": 1}]}, "request 0"),
            ({"requests": ["moments", {"method": "exact", "bogus": 1}]}, "request 1"),
            ({"jobs": 4}, "unknown batch request key"),
            ({"stream_indices": [0]}, "unknown batch request key(s): stream_indices"),
        ],
    )
    def test_invalid_batches_rejected(self, small_model, mutation, fragment):
        payload = {"model": small_model.to_dict(), "requests": ["moments"]}
        payload.update(mutation)
        with pytest.raises(ValueError) as excinfo:
            parse_batch_payload(payload)
        assert fragment in str(excinfo.value)


class TestTimeoutMs:
    """``timeout_ms`` is delivery metadata: parsed, validated, never content."""

    def test_timeout_never_enters_the_request_identity(self, small_model):
        plain = parse_evaluate_payload(_payload(small_model))
        deadlined = parse_evaluate_payload(_payload(small_model, timeout_ms=250))
        assert deadlined.timeout_ms == 250.0
        assert plain.timeout_ms is None
        assert deadlined.digest() == plain.digest()
        assert deadlined.group_key() == plain.group_key()
        assert "timeout_ms" not in str(deadlined.payload())

    def test_parse_timeout_ms_spellings(self):
        assert parse_timeout_ms(None) is None
        assert parse_timeout_ms(250) == 250.0
        assert parse_timeout_ms(0.5) == 0.5
        for bad in (0, -1, True, "fast", float("inf"), float("nan")):
            with pytest.raises(ValueError, match="timeout_ms"):
                parse_timeout_ms(bad)

    def test_batch_payload_validates_the_deadline(self, small_model):
        payload = {"model": small_model.to_dict(), "requests": ["moments"]}
        parse_batch_payload({**payload, "timeout_ms": 100})  # accepted
        with pytest.raises(ValueError, match="timeout_ms"):
            parse_batch_payload({**payload, "timeout_ms": -3})
