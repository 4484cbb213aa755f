"""The evaluation service: an async HTTP server over the method registry.

A dependency-free (stdlib only) serving layer that answers each evaluation
request from its cache tiers or computes it on arrival in a worker pool,
byte-identical to :func:`repro.evaluate` on the rescaled model:

* :mod:`~repro.service.protocol` -- the JSON wire protocol: a lossless
  transport of :class:`~repro.api.EvaluationRequest` /
  :class:`~repro.api.EvaluationResult` plus the content-addressed request
  identity (one content digest: the cache key and the router's placement
  key);
* :mod:`~repro.service.batcher` -- the dispatcher: each computed request
  goes to the pool on arrival as one job;
* :mod:`~repro.service.worker` -- the picklable execution functions the
  process worker pool runs, byte-identical to :func:`repro.evaluate` /
  :func:`repro.evaluate_batch`;
* :mod:`~repro.service.cache` -- :class:`~repro.service.cache.ResponseCache`,
  the in-process LRU tier (a shard's disk and peer tiers live in
  :mod:`~repro.service.server`);
* :mod:`~repro.service.http` -- the shared asyncio HTTP/1.1 framing used by
  both this server and the cluster shard router, and by the router to read
  shard responses;
* :mod:`~repro.service.server` -- the asyncio HTTP server
  (``/v1/evaluate``, ``/v1/evaluate/batch``, ``/v1/methods``, ``/v1/cache``,
  ``/healthz``, ``/metrics``) behind ``repro serve``; a batch element is
  served exactly as its own ``/v1/evaluate`` request;
* :mod:`~repro.service.client` -- :class:`ServiceClient`, the stdlib Python
  client (per-thread keep-alive connections, typed retries) and the
  program's one blocking HTTP client.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.service.client": ("BackoffPolicy", "ServiceClient", "ServiceError"),
    "repro.service.server": ("EvaluationServer", "WorkerCrashError", "start_in_background"),
})
