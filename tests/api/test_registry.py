"""Tests for the method registry: schemas, resolution and error paths."""

from __future__ import annotations

import pytest

from repro.api import (
    MethodDefinition,
    MethodRegistry,
    OptionSpec,
    default_registry,
    register_method,
)

BUILTIN_METHODS = ("bounds", "exact", "moments", "montecarlo", "normal", "tail-quantile")


def make_definition(name: str = "custom", **kwargs) -> MethodDefinition:
    defaults = dict(
        name=name,
        evaluate=lambda model, options, rng: {"value": 1.0},
        options=(OptionSpec("versions", "int", 2),),
        description="a test method",
    )
    defaults.update(kwargs)
    return MethodDefinition(**defaults)


class TestDefaultRegistry:
    def test_builtins_are_registered(self):
        assert default_registry().names() == BUILTIN_METHODS

    def test_montecarlo_is_the_only_seed_consumer(self):
        registry = default_registry()
        stochastic = tuple(d.name for d in registry if d.requires_seed)
        assert stochastic == ("montecarlo",)

    def test_schema_is_json_friendly(self):
        import json

        for definition in default_registry():
            encoded = json.dumps(definition.schema())
            assert definition.name in encoded


class TestResolveOptions:
    def test_defaults_materialised(self):
        resolved = default_registry().resolve_options("exact")
        assert resolved == {"versions": 2, "max_support": 4096, "level": 0.99, "threshold": None}

    def test_overrides_win_but_values_are_not_coerced(self):
        # Cache keys hash these values: an int given for a float option must
        # stay an int (0 != 0.0 in canonical JSON).
        resolved = default_registry().resolve_options("montecarlo", {"correlation": 0})
        assert resolved["correlation"] == 0
        assert isinstance(resolved["correlation"], int)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method 'frobnicate'"):
            default_registry().resolve_options("frobnicate")
        with pytest.raises(ValueError, match="available:"):
            default_registry().get("frobnicate")

    def test_unknown_option(self):
        with pytest.raises(ValueError, match="does not accept option 'replications'"):
            default_registry().resolve_options("moments", {"replications": 10})

    def test_wrong_option_type(self):
        registry = default_registry()
        with pytest.raises(ValueError, match="'level' expects float"):
            registry.resolve_options("exact", {"level": "high"})
        with pytest.raises(ValueError, match="'replications' expects int"):
            registry.resolve_options("montecarlo", {"replications": 10.5})
        with pytest.raises(ValueError, match="'versions' expects int"):
            registry.resolve_options("moments", {"versions": True})
        with pytest.raises(ValueError, match="must not be None"):
            registry.resolve_options("normal", {"confidence": None})
        with pytest.raises(ValueError, match="must be finite"):
            registry.resolve_options("normal", {"confidence": float("nan")})

    def test_nullable_and_numeric_widening_accepted(self):
        registry = default_registry()
        assert registry.resolve_options("exact", {"max_support": None})["max_support"] is None
        # integral floats pass for int options, ints pass for float options
        assert registry.resolve_options("exact", {"max_support": 512.0})["max_support"] == 512.0
        assert registry.resolve_options("normal", {"confidence": 1})["confidence"] == 1


class TestRegistration:
    def test_duplicate_registration_rejected(self):
        registry = MethodRegistry()
        registry.register(make_definition())
        with pytest.raises(ValueError, match="already registered"):
            registry.register(make_definition())

    def test_duplicate_builtin_rejected_on_default_registry(self):
        with pytest.raises(ValueError, match="'moments' is already registered"):
            default_registry().register(make_definition(name="moments"))

    def test_register_method_decorator_targets_a_registry(self):
        registry = MethodRegistry()

        @register_method(
            "mean-only",
            options=(OptionSpec("versions", "int", 2),),
            description="just the mean",
            registry=registry,
        )
        def mean_only(model, options, rng):
            return {"mean": 0.5}

        assert "mean-only" in registry
        assert "mean-only" not in default_registry()
        assert registry.get("mean-only").evaluate is mean_only
        assert len(registry) == 1

    def test_non_definition_rejected(self):
        with pytest.raises(TypeError, match="MethodDefinition"):
            MethodRegistry().register("moments")

    def test_duplicate_option_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate option"):
            make_definition(
                options=(OptionSpec("versions", "int", 2), OptionSpec("versions", "int", 3))
            )


class TestOptionSpec:
    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown type"):
            OptionSpec("x", "decimal", 1)

    def test_default_must_match_schema(self):
        with pytest.raises(ValueError, match="expects int"):
            OptionSpec("x", "int", "three")
        with pytest.raises(ValueError, match="allow_none"):
            OptionSpec("x", "int", None)

    def test_minimum_bounds_numbers_and_returns_them_unchanged(self):
        spec = OptionSpec("reps", "int", 10, minimum=1)
        assert spec.validate(1) == 1
        value = spec.validate(3.0)
        assert value == 3.0 and type(value) is float  # never coerced
        with pytest.raises(ValueError, match="'reps' must be >= 1, got 0"):
            spec.validate(0)
        assert spec.to_dict()["minimum"] == 1
        nullable = OptionSpec("chunk", "int", None, allow_none=True, minimum=1)
        assert nullable.validate(None) is None
        with pytest.raises(ValueError, match="'support' must be >= 2"):
            OptionSpec("support", "int", 1, minimum=2)

    def test_maximum_bounds_numbers_inclusively(self):
        spec = OptionSpec("share", "float", 0.5, minimum=0, maximum=1)
        assert spec.validate(0) == 0 and spec.validate(1.0) == 1.0
        with pytest.raises(ValueError, match="'share' must be <= 1, got 1.5"):
            spec.validate(1.5)
        with pytest.raises(ValueError, match="'share' must be >= 0, got -0.1"):
            spec.validate(-0.1)
        assert spec.to_dict()["maximum"] == 1
        with pytest.raises(ValueError, match="'cap' must be <= 3"):
            OptionSpec("cap", "int", 4, maximum=3)

    @pytest.mark.parametrize("method", ["exact", "tail-quantile"])
    def test_level_is_bounded_at_resolution(self, method):
        registry = default_registry()
        assert registry.resolve_options(method, {"level": 1})["level"] == 1
        with pytest.raises(ValueError, match="'level' must be <= 1, got 1.5"):
            registry.resolve_options(method, {"level": 1.5})
        with pytest.raises(ValueError, match="'level' must be >= 0"):
            registry.resolve_options(method, {"level": -0.5})

    def test_bool_and_str_options(self):
        assert OptionSpec("flag", "bool", True).validate(False) is False
        with pytest.raises(ValueError, match="expects bool"):
            OptionSpec("flag", "bool", True).validate(1)
        assert OptionSpec("mode", "str", "fast").validate("slow") == "slow"
        with pytest.raises(ValueError, match="expects str"):
            OptionSpec("mode", "str", "fast").validate(3)
