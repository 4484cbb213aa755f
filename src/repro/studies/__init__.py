"""Declarative studies: parameter sweeps, a parallel runner and a result cache.

This subsystem turns a JSON/dict *study spec* into a cached, parallel batch
of model evaluations:

* :mod:`~repro.studies.spec` -- :class:`StudySpec`: base scenario/model,
  sweep axes (grid, zipped, lin/log ranges) and the methods to run per point;
* :mod:`~repro.studies.grid` -- expansion into concrete evaluation points;
* :mod:`~repro.studies.methods` -- per-point model resolution and dispatch
  through the unified evaluation API (:mod:`repro.api`), so any method in
  the :class:`~repro.api.registry.MethodRegistry` is usable in a spec;
* :mod:`repro.cache` -- the content-addressed on-disk result cache
  (re-exported here) keyed by point content, so re-runs are incremental;
* :mod:`~repro.studies.runner` -- cache-aware parallel execution with
  per-point reproducible seeds;
* :mod:`~repro.studies.results` -- tidy result table with JSON/JSONL/CSV
  exports and a run summary.

Exposed on the command line as ``python -m repro study run|show``.
"""

from repro.cache import CACHE_FORMAT_VERSION, ResultCache, canonical_json, payload_digest
from repro.studies.grid import StudyPoint, expand_points
from repro.studies.methods import evaluate_study_point, resolve_model, split_point_params
from repro.studies.results import StudyResult
from repro.studies.runner import PlannedPoint, plan_study, point_seed_entropy, run_study
from repro.studies.spec import MethodSpec, StudySpec, SweepAxis

__all__ = [
    "CACHE_FORMAT_VERSION",
    "MethodSpec",
    "PlannedPoint",
    "ResultCache",
    "StudyPoint",
    "StudyResult",
    "StudySpec",
    "SweepAxis",
    "canonical_json",
    "evaluate_study_point",
    "expand_points",
    "payload_digest",
    "plan_study",
    "point_seed_entropy",
    "resolve_model",
    "run_study",
    "split_point_params",
]
