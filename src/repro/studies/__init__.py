"""Declarative studies: parameter sweeps, a parallel runner and a result cache.

This subsystem turns a JSON/dict *study spec* into a cached, parallel batch
of model evaluations:

* :mod:`~repro.studies.spec` -- :class:`StudySpec`: base scenario/model,
  sweep axes (grid, zipped, lin/log ranges) and the methods to run per point;
* :mod:`~repro.studies.grid` -- expansion into concrete evaluation points;
* :mod:`~repro.studies.methods` -- point model resolution and group dispatch
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

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.cache": (
        "CACHE_FORMAT_VERSION", "ResultCache", "canonical_json", "payload_digest",
    ),
    "repro.studies.grid": ("StudyPoint", "expand_points"),
    "repro.studies.methods": (
        "resolve_model", "split_point_params",
    ),
    "repro.studies.results": ("StudyResult",),
    "repro.studies.runner": (
        "PlannedPoint", "plan_study", "point_seed_entropy", "run_study",
    ),
    "repro.studies.spec": ("MethodSpec", "StudySpec", "SweepAxis"),
})
