"""Tests for study spec parsing, validation and expansion."""

from __future__ import annotations

import json

import pytest

from repro.studies import MethodSpec, StudySpec, SweepAxis, expand_points


def minimal_spec(**overrides) -> dict:
    data = {
        "name": "test-study",
        "base": {"scenario": "high-quality"},
        "methods": [{"name": "moments"}],
    }
    data.update(overrides)
    return data


class TestSweepAxis:
    def test_explicit_values(self):
        axis = SweepAxis.from_dict({"name": "n", "values": [10, 20, 30]})
        assert axis.values == (10, 20, 30)

    def test_linspace_includes_endpoints(self):
        axis = SweepAxis.from_dict({"name": "p_scale", "linspace": [0.5, 1.0, 3]})
        assert axis.values == pytest.approx((0.5, 0.75, 1.0))

    def test_logspace_is_geometric(self):
        axis = SweepAxis.from_dict({"name": "p_scale", "logspace": [0.01, 1.0, 3]})
        assert axis.values == pytest.approx((0.01, 0.1, 1.0))

    def test_endpoints_land_exactly(self):
        # Cache keys hash these floats, so the documented endpoints must be
        # bit-exact, not off by an ulp.
        axis = SweepAxis.from_dict({"name": "x", "linspace": [-9.8159012289123, 7.6246771784431076, 8]})
        assert axis.values[0] == -9.8159012289123
        assert axis.values[-1] == 7.6246771784431076
        log_axis = SweepAxis.from_dict({"name": "y", "logspace": [0.125, 1.0, 9]})
        assert log_axis.values[0] == 0.125
        assert log_axis.values[-1] == 1.0
        assert all(isinstance(value, float) for value in log_axis.values)

    def test_single_point_ranges(self):
        assert SweepAxis.from_dict({"name": "x", "linspace": [2.0, 5.0, 1]}).values == (2.0,)
        assert SweepAxis.from_dict({"name": "y", "logspace": [0.5, 2.0, 1]}).values == (0.5,)

    def test_range_has_python_semantics(self):
        axis = SweepAxis.from_dict({"name": "n", "range": [50, 250, 50]})
        assert axis.values == (50, 100, 150, 200)

    def test_requires_exactly_one_generator(self):
        with pytest.raises(ValueError, match="exactly one"):
            SweepAxis.from_dict({"name": "n", "values": [1], "range": [0, 5, 1]})
        with pytest.raises(ValueError, match="exactly one"):
            SweepAxis.from_dict({"name": "n"})

    def test_rejects_empty_and_non_scalar_values(self):
        with pytest.raises(ValueError, match="no values"):
            SweepAxis.from_dict({"name": "n", "values": []})
        with pytest.raises(ValueError, match="JSON scalars"):
            SweepAxis.from_dict({"name": "n", "values": [[1, 2]]})

    def test_rejects_non_positive_logspace(self):
        with pytest.raises(ValueError, match="positive"):
            SweepAxis.from_dict({"name": "x", "logspace": [0.0, 1.0, 3]})


class TestMethodSpec:
    def test_options_normalised_with_defaults(self):
        method = MethodSpec.from_dict({"name": "montecarlo", "replications": 500})
        options = dict(method.options)
        assert options["replications"] == 500
        assert options["versions"] == 2  # default filled in

    def test_equivalent_specs_compare_equal(self):
        # Defaults are materialised, so spelling a default out changes nothing.
        assert MethodSpec.from_dict({"name": "moments"}) == MethodSpec.from_dict(
            {"name": "moments", "versions": 2}
        )

    def test_unknown_method_and_option_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            MethodSpec.from_dict({"name": "frobnicate"})
        with pytest.raises(ValueError, match="does not accept option"):
            MethodSpec.from_dict({"name": "moments", "replications": 10})

    def test_out_of_range_option_rejected(self):
        with pytest.raises(ValueError, match="'replications' must be >= 1"):
            MethodSpec.from_dict({"name": "montecarlo", "replications": 0})


class TestStudySpec:
    def test_from_dict_roundtrip(self):
        spec = StudySpec.from_dict(
            minimal_spec(
                sweep={"grid": [{"name": "n", "values": [10, 20]}]},
                description="d",
                seed=7,
            )
        )
        again = StudySpec.from_dict(spec.to_dict())
        assert again == spec

    def test_point_count(self):
        spec = StudySpec.from_dict(
            minimal_spec(
                sweep={
                    "grid": [
                        {"name": "n", "values": [10, 20]},
                        {"name": "p_scale", "values": [0.5, 1.0, 1.5]},
                    ],
                    "zip": [
                        {"name": "confidence", "values": [0.9, 0.99]},
                        {"name": "versions", "values": [2, 3]},
                    ],
                },
                methods=[{"name": "moments"}, {"name": "normal"}],
            )
        )
        assert spec.point_count == 2 * 3 * 2 * 2
        assert len(expand_points(spec)) == spec.point_count

    def test_zip_axes_must_match_lengths(self):
        with pytest.raises(ValueError, match="same length"):
            StudySpec.from_dict(
                minimal_spec(
                    sweep={
                        "zip": [
                            {"name": "a_scale", "values": [1, 2]},
                            {"name": "b_scale", "values": [1, 2, 3]},
                        ]
                    }
                )
            )

    def test_duplicate_axes_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            StudySpec.from_dict(
                minimal_spec(
                    sweep={
                        "grid": [{"name": "n", "values": [1]}],
                        "zip": [{"name": "n", "values": [2]}],
                    }
                )
            )

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown study keys"):
            StudySpec.from_dict(minimal_spec(sweeps={}))
        with pytest.raises(ValueError, match="unknown sweep keys"):
            StudySpec.from_dict(minimal_spec(sweep={"cross": []}))

    def test_base_is_required_and_exclusive(self):
        with pytest.raises(ValueError, match="base"):
            StudySpec.from_dict({"name": "x", "methods": [{"name": "moments"}]})
        with pytest.raises(ValueError, match="exactly one"):
            StudySpec.from_dict(
                minimal_spec(base={"scenario": "high-quality", "model": {"p": [0.1], "q": [0.1]}})
            )

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            StudySpec.from_dict(minimal_spec(base={"scenario": "nope"}))

    def test_model_file_is_inlined(self, tmp_path, small_model):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(small_model.to_dict()), encoding="utf-8")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(minimal_spec(base={"model_file": "model.json"})), encoding="utf-8"
        )
        spec = StudySpec.from_file(spec_path)
        # The base holds the model *content*, so cache keys survive file moves.
        assert dict(spec.base)["model"] == small_model.to_dict()

    def test_invalid_inline_model_fails_at_parse_time(self):
        with pytest.raises(ValueError):
            StudySpec.from_dict(minimal_spec(base={"model": {"p": [2.0], "q": [0.1]}}))

    @pytest.mark.parametrize(
        "mutation, message",
        [
            ({"strict": "false"}, "'strict' must be a boolean, got 'false'"),
            ({"names": "x"}, "'names' must be an array of strings, got str"),
            ({"p": [True]}, "'p' must be an array of numbers, got element True"),
        ],
    )
    def test_wrong_typed_inline_model_rejected(self, mutation, message):
        model = {"p": [0.1], "q": [0.1], **mutation}
        with pytest.raises(ValueError) as excinfo:
            StudySpec.from_dict(minimal_spec(base={"model": model}))
        assert str(excinfo.value) == message

    def test_needs_at_least_one_method(self):
        with pytest.raises(ValueError, match="at least one method"):
            StudySpec.from_dict(minimal_spec(methods=[]))

    def test_wrong_shapes_raise_value_error_not_type_error(self):
        # Valid JSON of the wrong shape must produce clean ValueErrors so the
        # CLI can turn them into exit-code-2 messages.
        with pytest.raises(ValueError, match="JSON object"):
            StudySpec.from_dict([1, 2])
        with pytest.raises(ValueError, match="JSON object"):
            StudySpec.from_dict(minimal_spec(base="high-quality"))
        with pytest.raises(ValueError, match="'sweep'"):
            StudySpec.from_dict(minimal_spec(sweep=[{"name": "n", "values": [1]}]))
        with pytest.raises(ValueError, match="must be a list"):
            StudySpec.from_dict(minimal_spec(sweep={"grid": {"name": "n", "values": [1]}}))
        with pytest.raises(ValueError, match="must be a list"):
            StudySpec.from_dict(
                minimal_spec(sweep={"grid": [{"name": "n", "values": 5}]})
            )
        with pytest.raises(ValueError, match="must be a list"):
            StudySpec.from_dict(
                minimal_spec(sweep={"grid": [{"name": "n", "values": "abc"}]})
            )
        with pytest.raises(ValueError, match="method entry"):
            StudySpec.from_dict(minimal_spec(methods=["moments"]))
        with pytest.raises(ValueError, match="'methods' must be a list"):
            StudySpec.from_dict(minimal_spec(methods="moments"))
        with pytest.raises(ValueError, match="'seed' must be an integer"):
            StudySpec.from_dict(minimal_spec(seed="lucky"))
        with pytest.raises(ValueError, match="linspace"):
            StudySpec.from_dict(
                minimal_spec(sweep={"grid": [{"name": "x_scale", "linspace": [0.0, 1.0]}]})
            )

    def test_non_integer_generator_arguments_fail_loudly(self):
        # int() truncation would silently run (and cache) a different sweep.
        with pytest.raises(ValueError, match="step.*integer"):
            SweepAxis.from_dict({"name": "n", "range": [0, 10, 2.5]})
        with pytest.raises(ValueError, match="num.*integer"):
            SweepAxis.from_dict({"name": "x", "logspace": [0.1, 1.0, 4.9]})
        assert SweepAxis.from_dict({"name": "n", "range": [0, 10, 2.0]}).values == (0, 2, 4, 6, 8)

    def test_name_must_be_filename_safe(self):
        with pytest.raises(ValueError, match="file name"):
            StudySpec.from_dict(minimal_spec(name="gain/v2"))

    def test_model_file_must_contain_an_object(self, tmp_path):
        model_path = tmp_path / "list.json"
        model_path.write_text("[0.05, 0.02]", encoding="utf-8")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(minimal_spec(base={"model_file": "list.json"})), encoding="utf-8"
        )
        with pytest.raises(ValueError, match="JSON object"):
            StudySpec.from_file(spec_path)

    def test_docstring_example_spec_is_valid(self):
        # The module docstring is the primary documentation; its example
        # must parse and plan cleanly.
        from repro.studies import plan_study
        from repro.studies import spec as spec_module

        docstring = spec_module.__doc__
        example = docstring[docstring.index("{") : docstring.index("``grid`` axes") ]
        example = example[: example.rindex("}") + 1]
        parsed = StudySpec.from_dict(json.loads(example))
        assert len(plan_study(parsed)) == parsed.point_count


class TestExpansion:
    def test_grid_order_is_deterministic(self):
        spec = StudySpec.from_dict(
            minimal_spec(
                sweep={"grid": [{"name": "n", "values": [10, 20]}]},
                methods=[{"name": "moments"}, {"name": "bounds"}],
            )
        )
        points = expand_points(spec)
        labels = [(point.param_dict()["n"], point.method.name) for point in points]
        assert labels == [(10, "moments"), (10, "bounds"), (20, "moments"), (20, "bounds")]

    def test_zip_advances_in_lockstep(self):
        spec = StudySpec.from_dict(
            minimal_spec(
                sweep={
                    "zip": [
                        {"name": "p_scale", "values": [0.5, 1.0]},
                        {"name": "q_scale", "values": [2.0, 1.0]},
                    ]
                }
            )
        )
        pairs = [
            (point.param_dict()["p_scale"], point.param_dict()["q_scale"])
            for point in expand_points(spec)
        ]
        assert pairs == [(0.5, 2.0), (1.0, 1.0)]
