"""The unified evaluation API.

One extensible surface for every way of evaluating a fault model:

* :mod:`~repro.api.registry` -- :class:`MethodRegistry` and
  :class:`MethodDefinition`: named methods with typed option schemas,
  defaults and seed requirements; :func:`register_method` is the single
  extension point that makes a method available to the CLI, study specs and
  the Python API at once;
* :mod:`~repro.api.results` -- :class:`EvaluationResult` /
  :class:`EvaluationRequest`: typed, frozen value objects with lossless
  ``to_dict``/``from_dict`` round trips;
* :mod:`~repro.api.methods` -- the built-in methods (``moments``, ``exact``,
  ``normal``, ``bounds``, ``montecarlo``, ``tail-quantile``);
* :mod:`~repro.api.evaluate` -- :func:`evaluate` and :func:`evaluate_batch`,
  the entry points everything else (CLI, studies, benchmarks) dispatches
  through.
"""

from repro._lazy import lazy_exports

# Importing the built-in methods registers them on the default registry.
from repro.api import methods as _builtin_methods  # noqa: F401  (import for side effect)

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.api.evaluate": ("evaluate", "evaluate_batch", "evaluate_sweep"),
    "repro.api.registry": (
        "BatchUnsupported", "MethodDefinition", "MethodRegistry", "OptionSpec",
        "default_registry", "register_batch", "register_method",
    ),
    "repro.api.results": ("EvaluationRequest", "EvaluationResult"),
})
