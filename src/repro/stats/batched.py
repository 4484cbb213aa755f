"""Exact PFD distribution brackets of a family of rescaled models.

Parameter sweeps over scalar model knobs -- the Appendix B process-quality
scale ``p_scale`` (every ``p_i`` multiplied by ``k``) and the uniform
failure-region scale ``q_scale`` -- evaluate one exact distribution per sweep
point.  :func:`batched_scaled_pfd` runs the scalar kernel
:func:`~repro.core.pfd_distribution.exact_pfd_distribution` once per point on
``model.rescaled(p_scale, q_scale)``, so a swept bracket is exactly the one a
lone evaluation of that point computes: it depends on the point alone, never
on which other points share the sweep.

The loop is deliberate: a stacked ``(points, cells)`` fold over the whole
family would share one lattice across points, which makes each point's
values depend on its groupmates.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.stats.discrete import DistributionBracket

__all__ = ["batched_scaled_pfd"]


def batched_scaled_pfd(
    model,
    p_scales,
    q_scales=None,
    versions: int = 1,
    max_support: int | None = 4096,
    reach: float | None = None,
) -> list[DistributionBracket]:
    """PFD distribution brackets of a family of rescaled models, one per point.

    Point ``j`` is ``exact_pfd_distribution(model.rescaled(p_scales[j],
    q_scales[j]), versions, max_support, reach)``: every ``p_i`` multiplied
    by ``p_scales[j]`` and every ``q_i`` by ``q_scales[j]`` (``q_scales``
    defaults to all ones), combined 1-out-of-``versions``, each lattice
    folded only as far as the ``reach`` quantile can lie (``None``, the
    default, folds the full lattice).  The scales are
    applied by :meth:`FaultModel.rescaled` itself, so an invalid point
    raises its ``ValueError`` and no bracket is returned; the sweep core
    (:func:`repro.api.evaluate.sweep_outcomes`) checks every point first and
    sends only valid ones here, so one bad point never sinks its siblings.
    """
    from repro.core import pfd_distribution

    p_scales = np.atleast_1d(np.asarray(p_scales, dtype=float))
    q_scales = np.ones_like(p_scales) if q_scales is None else np.atleast_1d(
        np.asarray(q_scales, dtype=float)
    )
    if p_scales.shape != q_scales.shape or p_scales.ndim != 1:
        raise ValueError("p_scales and q_scales must be 1-D arrays of equal length")
    with telemetry.span("kernel.batched_pmf", points=int(p_scales.size), faults=int(model.n)):
        return [
            pfd_distribution.exact_pfd_distribution(
                model.rescaled(float(p_scale), float(q_scale)), versions, max_support, reach
            )
            for p_scale, q_scale in zip(p_scales, q_scales)
        ]
