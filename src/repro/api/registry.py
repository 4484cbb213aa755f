"""The method registry: one extensible catalogue of evaluation methods.

Every way of evaluating a :class:`~repro.core.fault_model.FaultModel` --
moments, the exact PFD distribution, the normal approximation, guaranteed
``p_max`` bounds, Monte Carlo simulation, tail quantiles -- is registered
here as a :class:`MethodDefinition`: a name, a typed option schema with
defaults, whether the method consumes randomness, and the evaluation
callable itself.  The CLI, the study subsystem and the top-level
:func:`repro.evaluate` entry point all resolve methods through the same
:class:`MethodRegistry`, so registering a method once makes it available
everywhere, with its options validated identically on every path.

Option values are *validated but never coerced*: the canonical resolved
options (:meth:`MethodRegistry.resolve_options`) are hashed into study cache
keys, so an integer given for a float option must stay an integer or every
warm cache entry would silently invalidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

__all__ = [
    "BatchUnsupported",
    "MethodDefinition",
    "MethodRegistry",
    "OptionSpec",
    "default_registry",
    "register_batch",
    "register_method",
]


class BatchUnsupported(Exception):
    """Raised by a batched evaluator to decline a particular sweep at runtime.

    Which option combinations a kernel serves is declared up front
    (:func:`register_batch`'s ``applies``); this is for what only the
    kernel can tell, e.g. a sweep exceeding its memory budget.  Raising it
    from ``evaluate_batch`` makes :func:`repro.evaluate_sweep` fall back to
    the scalar per-variation path transparently.
    """

#: Accepted option value types, by schema name.
OPTION_TYPES = ("int", "float", "bool", "str")


@dataclass(frozen=True)
class OptionSpec:
    """One typed method option: name, type, default and documentation.

    ``minimum`` and ``maximum`` are inclusive bounds for numeric options
    (``None``: unbounded); ``null`` stays allowed when ``allow_none`` is set.
    """

    name: str
    type: str
    default: Any = None
    allow_none: bool = False
    help: str = ""
    minimum: int | float | None = None
    maximum: int | float | None = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"option name must be a non-empty string, got {self.name!r}")
        if self.type not in OPTION_TYPES:
            raise ValueError(
                f"option {self.name!r} has unknown type {self.type!r}; "
                f"expected one of {', '.join(OPTION_TYPES)}"
            )
        if self.default is not None:
            self.validate(self.default)
        elif not self.allow_none:
            raise ValueError(f"option {self.name!r} defaults to None but allow_none is False")

    def validate(self, value: Any) -> Any:
        """Check ``value`` against the schema and return it *unchanged*.

        Integral floats pass for ``int`` options and integers pass for
        ``float`` options (matching what JSON specs and sweep axes supply),
        but the value is returned as given -- cache keys hash these values,
        so validation must never rewrite them.
        """
        if value is None:
            if self.allow_none:
                return None
            raise ValueError(f"option {self.name!r} must not be None")
        if self.type == "bool":
            if isinstance(value, bool):
                return value
        elif self.type == "str":
            if isinstance(value, str):
                return value
        elif isinstance(value, bool):
            pass  # bool is an int subclass; never accept it for numeric options
        elif self.type == "int":
            if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
                return self._bounded(value)
        elif self.type == "float":
            if isinstance(value, (int, float)):
                if isinstance(value, float) and not math.isfinite(value):
                    raise ValueError(
                        f"option {self.name!r} must be finite, got {value!r}"
                    )
                return self._bounded(value)
        raise ValueError(
            f"option {self.name!r} expects {self.type}"
            f"{' (or null)' if self.allow_none else ''}, got {value!r}"
        )

    def _bounded(self, value: Any) -> Any:
        if self.minimum is not None and value < self.minimum:
            raise ValueError(f"option {self.name!r} must be >= {self.minimum}, got {value!r}")
        if self.maximum is not None and value > self.maximum:
            raise ValueError(f"option {self.name!r} must be <= {self.maximum}, got {value!r}")
        return value

    def to_dict(self) -> dict:
        """JSON-friendly schema entry (used by ``repro methods``)."""
        return {
            "name": self.name,
            "type": self.type,
            "default": self.default,
            "allow_none": self.allow_none,
            "minimum": self.minimum,
            "maximum": self.maximum,
            "help": self.help,
        }


@dataclass(frozen=True)
class MethodDefinition:
    """One registered evaluation method.

    ``evaluate`` is called as ``evaluate(model, options, rng)`` where
    ``options`` is the fully resolved option mapping (every default filled
    in) and ``rng`` is a :class:`numpy.random.Generator` when the method
    declares ``requires_seed`` (``None`` otherwise).  It must return a flat,
    JSON-serialisable mapping of metric names to values.
    """

    name: str
    evaluate: Callable[..., Mapping[str, Any]]
    options: tuple[OptionSpec, ...] = ()
    requires_seed: bool = False
    description: str = ""
    #: Optional batched sweep evaluator ``(model, variations, options, rng)
    #: -> sequence of metric mappings`` where ``variations`` is a tuple of
    #: ``{"p_scale": float, "q_scale": float}`` model transforms.  Methods
    #: opt in via :func:`register_batch`; see :func:`repro.evaluate_sweep`.
    evaluate_batch: Callable[..., Any] | None = None
    #: Which resolved options the batched kernel serves (``None``: all);
    #: declared through :func:`register_batch`'s ``applies``.
    batch_applies: Callable[[Mapping[str, Any]], bool] | None = None

    @property
    def supports_batch(self) -> bool:
        """Whether the method opted into batched sweep evaluation."""
        return self.evaluate_batch is not None

    def batches(self, options: Mapping[str, Any]) -> bool:
        """Whether the batched kernel serves a sweep with these resolved options."""
        return self.supports_batch and (
            self.batch_applies is None or self.batch_applies(options)
        )

    def shares_work(self, options: Mapping[str, Any]) -> bool:
        """Whether a sweep with these resolved options shares work (one
        sampled world) across its points, so its points are grouped; a
        deterministic kernel computes each point on its own."""
        return self.requires_seed and self.batches(options)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"method name must be a non-empty string, got {self.name!r}")
        names = [option.name for option in self.options]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise ValueError(
                f"method {self.name!r} declares duplicate option(s): "
                f"{', '.join(sorted(duplicates))}"
            )

    @property
    def option_names(self) -> tuple[str, ...]:
        """Names of the options this method accepts, in declaration order."""
        return tuple(option.name for option in self.options)

    def defaults(self) -> dict[str, Any]:
        """Default value of every option."""
        return {option.name: option.default for option in self.options}

    def schema(self) -> dict:
        """JSON-friendly description of the method and its options."""
        return {
            "name": self.name,
            "description": self.description,
            "requires_seed": self.requires_seed,
            "options": [option.to_dict() for option in self.options],
        }


class MethodRegistry:
    """A named collection of :class:`MethodDefinition` entries.

    The library-wide instance (:func:`default_registry`) is what the CLI,
    the study subsystem and :func:`repro.evaluate` dispatch through; fresh
    instances can be built for tests or embedding.
    """

    def __init__(self) -> None:
        self._methods: dict[str, MethodDefinition] = {}

    def register(self, definition: MethodDefinition) -> MethodDefinition:
        """Add a method; a name can only be registered once."""
        if not isinstance(definition, MethodDefinition):
            raise TypeError(
                f"expected a MethodDefinition, got {type(definition).__name__}"
            )
        if definition.name in self._methods:
            raise ValueError(f"method {definition.name!r} is already registered")
        self._methods[definition.name] = definition
        return definition

    def unregister(self, name: str) -> MethodDefinition:
        """Remove a method by name and return its definition.

        This is the teardown seam for tests and short-lived plugin
        registrations; unknown names fail with the catalogue, like
        :meth:`get`.
        """
        definition = self.get(name)
        del self._methods[name]
        return definition

    def attach_batch(
        self, name: str, evaluate_batch: Callable, applies: Callable | None = None
    ) -> MethodDefinition:
        """Attach (or replace) the batched sweep evaluator of a registered method.

        The stored :class:`MethodDefinition` is frozen, so attaching swaps in
        a copy with ``evaluate_batch`` and ``batch_applies`` set; everything
        else (options, seed requirement, the scalar evaluator) is untouched.
        """
        import dataclasses

        definition = dataclasses.replace(
            self.get(name), evaluate_batch=evaluate_batch, batch_applies=applies
        )
        self._methods[name] = definition
        return definition

    def get(self, name: str) -> MethodDefinition:
        """Look a method up by name; unknown names fail with the catalogue."""
        try:
            return self._methods[name]
        except KeyError:
            raise ValueError(
                f"unknown method {name!r}; available: {', '.join(self.names())}"
            ) from None

    def names(self) -> tuple[str, ...]:
        """Registered method names, sorted."""
        return tuple(sorted(self._methods))

    def resolve_options(self, name: str, options: Mapping[str, Any] | None = None) -> dict:
        """Merge ``options`` over the method's defaults and validate each value.

        Returns the *canonical resolved options*: every option present with
        either its default or the validated override, values untouched.
        Study cache keys are derived from exactly this mapping, so the same
        evaluation always resolves to the same bytes no matter which surface
        (CLI, spec, Python call) requested it.
        """
        definition = self.get(name)
        specs = {option.name: option for option in definition.options}
        resolved = definition.defaults()
        for key, value in dict(options or {}).items():
            if key not in specs:
                raise ValueError(
                    f"method {name!r} does not accept option {key!r}; "
                    f"accepted: {', '.join(sorted(specs)) or '(none)'}"
                )
            resolved[key] = specs[key].validate(value)
        return resolved

    def __contains__(self, name: object) -> bool:
        return name in self._methods

    def __iter__(self) -> Iterator[MethodDefinition]:
        for name in self.names():
            yield self._methods[name]

    def __len__(self) -> int:
        return len(self._methods)


#: The library-wide registry.  Built-in methods are registered by
#: :mod:`repro.api.methods` when :mod:`repro.api` is imported.
_DEFAULT_REGISTRY = MethodRegistry()


def default_registry() -> MethodRegistry:
    """The registry used by the CLI, studies and :func:`repro.evaluate`."""
    # Importing the built-in methods lazily breaks the import cycle
    # (methods.py needs OptionSpec from this module) while guaranteeing the
    # built-ins are present before anything dispatches.
    from repro.api import methods as _builtin_methods  # noqa: F401

    return _DEFAULT_REGISTRY


def register_method(
    name: str,
    *,
    options: tuple[OptionSpec, ...] | list[OptionSpec] = (),
    requires_seed: bool = False,
    description: str = "",
    registry: MethodRegistry | None = None,
) -> Callable[[Callable], Callable]:
    """Decorator: register ``evaluate(model, options, rng)`` as a method.

    This is the single extension point: one registration makes the method
    available to ``repro evaluate`` / ``repro methods`` on the command line,
    to study specs, and to :func:`repro.evaluate`::

        from repro.api import OptionSpec, register_method

        @register_method(
            "mean-only",
            options=(OptionSpec("versions", "int", 2),),
            description="just the system mean",
        )
        def _mean_only(model, options, rng):
            from repro.core.moments import pfd_moments
            return {"mean": pfd_moments(model, int(options["versions"])).mean}
    """
    target = registry if registry is not None else _DEFAULT_REGISTRY

    def decorator(function: Callable) -> Callable:
        target.register(
            MethodDefinition(
                name=name,
                evaluate=function,
                options=tuple(options),
                requires_seed=requires_seed,
                description=description,
            )
        )
        return function

    return decorator


def register_batch(
    name: str,
    *,
    applies: Callable[[Mapping[str, Any]], bool] | None = None,
    registry: MethodRegistry | None = None,
) -> Callable[[Callable], Callable]:
    """Decorator: attach a batched sweep evaluator to a registered method.

    The decorated function is called as ``evaluate_batch(model, variations,
    options, rng)`` with the *base* (untransformed) model, a tuple of
    ``{"p_scale", "q_scale"}`` float variations, the fully resolved options
    shared by every variation, and one shared random stream (``None`` for
    deterministic methods).  Kernels receive only valid variations: the
    sweep core (:func:`repro.api.evaluate.sweep_outcomes`) has already
    checked each against :meth:`FaultModel.rescaled`'s rules and reports
    the invalid ones as per-point errors without calling the kernel.  It
    must return one metric mapping per variation, in order, or raise
    :class:`BatchUnsupported` to make the caller fall back to per-variation
    scalar evaluation.

    ``applies(options)`` declares which resolved options the kernel serves
    (default: all).  A sweep outside it runs point by point, and the study
    planner reads the same rule (:meth:`MethodDefinition.shares_work`) to
    decide whether its points share work, before any kernel runs.

    A deterministic kernel must return, per variation, exactly the record
    the scalar method gives ``model.rescaled(p_scale, q_scale)``; the study
    runner relies on that and splits deterministic groups across workers.
    Any kernel must give each variation a record that depends on that
    variation alone (and the stream's seed), never on the rest of the
    tuple: the study runner sends each group with its cache misses only.
    A kernel that shares a random stream across its points
    (``requires_seed``) runs each group as one task, so the stream is
    sampled once.  The simplest valid kernel, for the ``mean-only`` method
    of :func:`register_method`'s example::

        @register_batch("mean-only")
        def _mean_only_batch(model, variations, options, rng):
            return [
                _mean_only(model.rescaled(v["p_scale"], v["q_scale"]), options, rng)
                for v in variations
            ]
    """
    target = registry if registry is not None else _DEFAULT_REGISTRY

    def decorator(function: Callable) -> Callable:
        target.attach_batch(name, function, applies)
        return function

    return decorator
