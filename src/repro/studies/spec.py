"""Declarative study specifications.

A *study* asks many questions of the fault-creation model at once: sweep the
model parameters (fault count, probability scale, impact scale, correlation)
and the engine knobs, and evaluate one or more assessment methods at every
point.  :class:`StudySpec` is the JSON-serialisable description of such a
study; :mod:`repro.studies.grid` expands it into concrete evaluation points
and :mod:`repro.studies.runner` executes them.

A spec (JSON or plain dict) looks like::

    {
      "name": "gain-vs-pmax",
      "description": "bound gain across process quality and fault count",
      "base": {"scenario": "many-small-faults"},
      "sweep": {
        "grid": [
          {"name": "n", "values": [50, 100, 200]},
          {"name": "p_scale", "logspace": [0.1, 1.0, 5]}
        ],
        "zip": [
          {"name": "confidence", "values": [0.95, 0.99]},
          {"name": "replications", "values": [10000, 50000]}
        ]
      },
      "methods": [
        {"name": "moments"},
        {"name": "bounds"},
        {"name": "montecarlo", "replications": 20000}
      ],
      "seed": 20010704
    }

``grid`` axes are fully crossed; ``zip`` axes (all the same length) advance
in lockstep and the resulting rows are crossed with the grid.  ``base`` names
a registered scenario (``{"scenario": ...}``), an inline fault model
(``{"model": {...}}`` in :meth:`repro.core.fault_model.FaultModel.to_dict`
format) or a model file (``{"model_file": "path.json"}``, inlined at load
time so cache keys depend on the model *content*, never on the path).

``methods`` entries name any method registered on the
:class:`repro.api.MethodRegistry` (``moments``, ``exact``, ``normal``,
``bounds``, ``montecarlo``, ``tail-quantile``, plus custom registrations);
their options are resolved against the registry's typed schemas at parse
time, so unknown methods, unknown options and wrong option types all fail
before any evaluation starts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from repro.api.registry import default_registry
from repro.stats.rng import DEFAULT_SEED

__all__ = ["MethodSpec", "StudySpec", "SweepAxis"]


def _require_mapping(data: Any, what: str) -> Mapping:
    if not isinstance(data, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    return data


def _axis_int(axis_name: str, label: str, value: Any) -> int:
    """An integer axis-generator argument; integral floats pass, 2.5 fails loudly."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"axis {axis_name!r}: {label} must be an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"axis {axis_name!r}: {label} must be an integer, got {value!r}")
    return int(value)


def _check_scalar(axis_name: str, value: Any) -> Any:
    if isinstance(value, bool) or isinstance(value, str):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"axis {axis_name!r} has a non-finite value {value!r}")
        return float(value)
    raise ValueError(
        f"axis {axis_name!r} values must be JSON scalars, got {type(value).__name__}"
    )


@dataclass(frozen=True)
class SweepAxis:
    """One sweep dimension: a parameter name and its materialised values."""

    name: str
    values: tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"axis name must be a non-empty string, got {self.name!r}")
        if not self.values:
            raise ValueError(f"axis {self.name!r} has no values")
        object.__setattr__(
            self, "values", tuple(_check_scalar(self.name, value) for value in self.values)
        )

    @staticmethod
    def from_dict(data: Mapping) -> "SweepAxis":
        """Parse an axis from its dict form.

        Exactly one generator key is required alongside ``name``:

        * ``values`` -- an explicit list;
        * ``linspace: [start, stop, num]`` -- ``num`` evenly spaced floats,
          endpoints included;
        * ``logspace: [start, stop, num]`` -- ``num`` log-evenly spaced
          floats between the (positive) endpoints themselves;
        * ``range: [start, stop, step]`` -- Python ``range`` semantics
          (integers, ``stop`` exclusive).
        """
        _require_mapping(data, "a sweep axis")
        name = data.get("name")
        generators = [key for key in ("values", "linspace", "logspace", "range") if key in data]
        if len(generators) != 1:
            raise ValueError(
                f"axis {name!r} needs exactly one of values/linspace/logspace/range, "
                f"got {generators or 'none'}"
            )
        kind = generators[0]
        raw = data[kind]
        if isinstance(raw, (str, bytes)) or not isinstance(raw, Sequence):
            raise ValueError(
                f"axis {name!r}: {kind!r} must be a list, got {type(raw).__name__}"
            )
        if kind == "values":
            return SweepAxis(name=name, values=tuple(raw))
        if len(raw) != 3:
            raise ValueError(
                f"axis {name!r}: {kind!r} needs [start, stop, {'step' if kind == 'range' else 'num'}], "
                f"got {len(raw)} element(s)"
            )
        if kind == "range":
            start, stop, step = (
                _axis_int(name, label, part)
                for label, part in zip(("start", "stop", "step"), raw)
            )
            values = tuple(range(start, stop, step))
            if not values:
                raise ValueError(f"axis {name!r}: range({start}, {stop}, {step}) is empty")
            return SweepAxis(name=name, values=values)
        start, stop, num = float(raw[0]), float(raw[1]), _axis_int(name, "num", raw[2])
        if num < 1:
            raise ValueError(f"axis {name!r} needs at least one point, got num={num}")
        if kind == "logspace" and (start <= 0.0 or stop <= 0.0):
            raise ValueError(f"axis {name!r}: logspace endpoints must be positive")
        # numpy guarantees both endpoints land exactly; a hand-rolled
        # start + i*step can miss stop by an ulp, which would poison the
        # content-addressed cache keys built from these floats.
        spaced = np.linspace(start, stop, num) if kind == "linspace" else np.geomspace(start, stop, num)
        return SweepAxis(name=name, values=tuple(float(value) for value in spaced))

    def to_dict(self) -> dict:
        """Canonical dict form (always materialised ``values``)."""
        return {"name": self.name, "values": list(self.values)}


@dataclass(frozen=True)
class MethodSpec:
    """One evaluation method with its (normalised) options.

    Method names and option schemas come from the
    :class:`~repro.api.registry.MethodRegistry`: options are resolved to the
    registry's canonical form (every schema default materialised, every
    override validated) at parse time, so two specs that mean the same
    evaluation hash to the same cache key -- and a method registered via
    :func:`repro.api.register_method` is immediately usable in specs.
    """

    name: str
    options: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        # Raises "unknown method ..." / "... does not accept option ..." /
        # wrong-type ValueErrors with the registry's catalogue in the message.
        resolved = default_registry().resolve_options(self.name, dict(self.options))
        object.__setattr__(self, "options", tuple(sorted(resolved.items())))

    @staticmethod
    def from_dict(data: Mapping) -> "MethodSpec":
        """Parse ``{"name": ..., **options}``."""
        payload = dict(_require_mapping(data, "a method entry"))
        name = payload.pop("name", None)
        if not name:
            raise ValueError(f"method entry needs a 'name': {data!r}")
        return MethodSpec(name=name, options=tuple(payload.items()))

    def option(self, key: str) -> Any:
        """Look up a normalised option value."""
        return dict(self.options)[key]

    def to_dict(self) -> dict:
        return {"name": self.name, **dict(self.options)}


def _parse_base(data: Mapping, spec_dir: Path | None) -> dict:
    _require_mapping(data, "the study base")
    sources = [key for key in ("scenario", "model", "model_file") if key in data]
    if len(sources) != 1:
        raise ValueError(
            f"base needs exactly one of scenario/model/model_file, got {sources or 'none'}"
        )
    if "scenario" in data:
        from repro.experiments.scenarios import scenario_names

        name = data["scenario"]
        if name not in scenario_names():
            raise ValueError(
                f"unknown scenario {name!r}; available: {', '.join(scenario_names())}"
            )
        return {"scenario": name}
    if "model" in data:
        model_dict = dict(_require_mapping(data["model"], "the base 'model'"))
    else:
        path = Path(data["model_file"])
        if spec_dir is not None and not path.is_absolute():
            path = spec_dir / path
        with open(path, "r", encoding="utf-8") as handle:
            model_dict = dict(_require_mapping(json.load(handle), f"model file {str(path)!r}"))
    # Validate eagerly so a bad model fails at parse time, not per point.
    from repro.core.model_content import model_content

    try:
        return {"model": model_content(model_dict)}
    except KeyError as error:
        raise ValueError(f"the base model is missing required key {error}") from None


@dataclass(frozen=True)
class StudySpec:
    """A complete, validated study description."""

    name: str
    base: Mapping[str, Any]
    methods: tuple[MethodSpec, ...]
    grid: tuple[SweepAxis, ...] = ()
    zipped: tuple[SweepAxis, ...] = ()
    seed: int = DEFAULT_SEED
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError("a study needs a name")
        # The name becomes the output-table filename stem; reject anything
        # that would only blow up at save time, after the evaluation is paid.
        if any(sep in self.name for sep in ("/", "\\", "\x00")) or self.name in (".", ".."):
            raise ValueError(
                f"study name {self.name!r} must be usable as a file name "
                "(no path separators)"
            )
        if not self.methods:
            raise ValueError("a study needs at least one method")
        axis_names = [axis.name for axis in self.grid] + [axis.name for axis in self.zipped]
        duplicates = {name for name in axis_names if axis_names.count(name) > 1}
        if duplicates:
            raise ValueError(f"duplicate sweep axes: {', '.join(sorted(duplicates))}")
        lengths = {len(axis.values) for axis in self.zipped}
        if len(lengths) > 1:
            raise ValueError(
                f"zipped axes must all have the same length, got {sorted(lengths)}"
            )

    @property
    def point_count(self) -> int:
        """Number of evaluation points the spec expands to."""
        count = len(self.methods)
        for axis in self.grid:
            count *= len(axis.values)
        if self.zipped:
            count *= len(self.zipped[0].values)
        return count

    @staticmethod
    def from_dict(data: Mapping, spec_dir: Path | str | None = None) -> "StudySpec":
        """Parse and validate a spec from its dict / JSON form."""
        _require_mapping(data, "a study spec")
        unknown = set(data) - {"name", "description", "base", "sweep", "methods", "seed"}
        if unknown:
            raise ValueError(f"unknown study keys: {', '.join(sorted(str(k) for k in unknown))}")
        sweep = _require_mapping(data.get("sweep", {}), "'sweep'")
        unknown_sweep = set(sweep) - {"grid", "zip"}
        if unknown_sweep:
            raise ValueError(
                f"unknown sweep keys: {', '.join(sorted(str(k) for k in unknown_sweep))}"
            )
        if "base" not in data:
            raise ValueError("a study needs a 'base' (scenario, model or model_file)")
        axes = {}
        for kind in ("grid", "zip"):
            entries = sweep.get(kind, ())
            if isinstance(entries, (str, bytes)) or not isinstance(entries, Sequence):
                raise ValueError(f"sweep {kind!r} must be a list of axes")
            axes[kind] = tuple(SweepAxis.from_dict(axis) for axis in entries)
        methods = data.get("methods", ())
        if isinstance(methods, (str, bytes)) or not isinstance(methods, Sequence):
            raise ValueError("'methods' must be a list of method entries")
        try:
            seed = int(data.get("seed", DEFAULT_SEED))
        except (TypeError, ValueError):
            raise ValueError(f"'seed' must be an integer, got {data.get('seed')!r}") from None
        return StudySpec(
            name=data.get("name", ""),
            description=data.get("description", ""),
            base=_parse_base(data["base"], Path(spec_dir) if spec_dir is not None else None),
            grid=axes["grid"],
            zipped=axes["zip"],
            methods=tuple(MethodSpec.from_dict(entry) for entry in methods),
            seed=seed,
        )

    @staticmethod
    def from_file(path: str | Path) -> "StudySpec":
        """Load a spec from a JSON file (relative model files resolve beside it)."""
        path = Path(path)
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        return StudySpec.from_dict(data, spec_dir=path.parent)

    def to_dict(self) -> dict:
        """Canonical dict form (axes materialised, options normalised)."""
        return {
            "name": self.name,
            "description": self.description,
            "base": dict(self.base),
            "sweep": {
                "grid": [axis.to_dict() for axis in self.grid],
                "zip": [axis.to_dict() for axis in self.zipped],
            },
            "methods": [method.to_dict() for method in self.methods],
            "seed": self.seed,
        }
