"""Exact distribution of the probability of failure on demand.

The paper works with means, standard deviations, the probability of zero PFD,
and normal approximations, because the full distribution of the PFD has
``2^n`` atoms in general.  For models of moderate size, however, the exact
distribution *can* be computed by convolving the ``n`` independent two-point
contributions; past a support cap it is bracketed instead, by two lattice
distributions that bound the PFD from below and from above outcome by
outcome (:func:`repro.stats.discrete.bracket_two_points`), so every
percentile and exceedance comes with a guaranteed ``[lo, hi]``.  This lets
the library:

* check the quality of the Section 5 normal approximation exactly
  (experiment E10);
* answer percentile questions ("what bound is not exceeded with 99%
  probability?") without the normal approximation;
* validate the Monte Carlo engine.

The ``exact`` and ``tail-quantile`` evaluation methods are both readouts of
one :func:`exact_pfd_distribution`.  Inside a :func:`shared_distributions`
scope that distribution is computed once per point model and reach (the
highest quantile level read) and every later request for it is served
from the scope; outside a scope nothing is kept between calls.
"""

from __future__ import annotations

import contextlib
import contextvars
from collections.abc import Iterator

import numpy as np

from repro.core.fault_model import FaultModel
from repro.stats.discrete import DistributionBracket, bracket_two_points

__all__ = [
    "DistributionScope",
    "exact_pfd_distribution",
    "pfd_exceedance_probability",
    "pfd_percentile",
    "pfd_quantiles",
    "prob_pfd_zero",
    "shared_distributions",
]


class DistributionScope:
    """The distributions computed inside one :func:`shared_distributions` block.

    ``computed`` counts kernel runs (misses) and ``shared`` the calls served
    from the scope (hits).
    """

    __slots__ = ("distributions", "computed", "shared")

    def __init__(self) -> None:
        self.distributions: dict[tuple, DistributionBracket] = {}
        self.computed = 0
        self.shared = 0


_SCOPE: contextvars.ContextVar[DistributionScope | None] = contextvars.ContextVar(
    "repro_shared_distributions", default=None
)


@contextlib.contextmanager
def shared_distributions() -> Iterator[DistributionScope]:
    """Compute each distinct exact PFD distribution once inside the block.

    While the block runs, :func:`exact_pfd_distribution` memoises its result
    on ``(versions, max_support, q, p)`` plus the ``reach`` of a lattice
    bracket and returns the *same* object for every repeat call, so
    ``exact`` and ``tail-quantile`` readouts of one point model at one reach
    cost one kernel run.  The cached arrays are read-only.
    The memo lives in the yielded :class:`DistributionScope` and is dropped
    when the block exits; a nested block starts an empty scope of its own.
    """
    scope = DistributionScope()
    token = _SCOPE.set(scope)
    try:
        yield scope
    finally:
        _SCOPE.reset(token)


def exact_pfd_distribution(
    model: FaultModel,
    versions: int = 1,
    max_support: int | None = 4096,
    reach: float | None = None,
) -> DistributionBracket:
    """The distribution of the PFD of a 1-out-of-``versions`` system, bracketed.

    Parameters
    ----------
    model:
        The fault-creation model.
    versions:
        Number of independently developed versions combined 1-out-of-r;
        ``1`` gives the single-version distribution, ``2`` the paper's
        two-version system.
    max_support:
        Largest full support computed exactly.  A model whose support may
        exceed it is bracketed on a lattice of ``4 * max_support`` cells
        instead.  ``None`` always keeps the full support (exact but
        exponential in ``n``).
    reach:
        The highest quantile level the caller reads.  A lattice is then
        folded only as far as that quantile can lie: the bracket stays
        rigorous at every level, each quantile up to ``reach`` is the one
        the full lattice gives unless the shorter normaliser rounds a
        cumulative weight across a ``level +- slack`` boundary (see
        :func:`repro.stats.discrete._lattice_bracket`), the bracket is
        coarser above it, and the support counts only the cells folded.
        ``None`` (the default) folds the full lattice, for callers that
        read any level or an exceedance probability.

    Returns a :class:`~repro.stats.discrete.DistributionBracket`: lower and
    upper distributions with lower <= PFD <= upper outcome by outcome (one
    and the same distribution when exact).  A caller that needs a single
    distribution takes the conservative upper one.

    Inside a :func:`shared_distributions` scope a repeat call with an equal
    model, ``versions``, ``max_support`` and ``reach`` returns the bracket
    the first call computed; an exact bracket does not depend on ``reach``
    and serves every reach.  Outside a scope every call computes afresh.

    Whether a bracket comes out exact is known only once the kernel has
    grouped the faults, so the memo looks a model up twice: under its
    reach-free key (an exact bracket) and then with the reach (a lattice
    one).  The second probe is one dict lookup; without it a small model
    read by ``exact`` at ``level=0.999`` and by ``tail-quantile`` at 0.99
    would fold its full support once per reach.
    """
    if versions < 1:
        raise ValueError(f"versions must be a positive integer, got {versions}")
    scope = _SCOPE.get()
    if scope is None:
        return bracket_two_points(
            model.q, model.p ** versions, max_support=max_support, reach=reach
        )
    key = (versions, max_support, model.q.tobytes(), model.p.tobytes())
    bracket = scope.distributions.get(key)
    if bracket is None:
        bracket = scope.distributions.get(key + (reach,))
    if bracket is not None:
        scope.shared += 1
        return bracket
    bracket = bracket_two_points(
        model.q, model.p ** versions, max_support=max_support, reach=reach
    )
    if bracket.exact is not None:
        bracket.exact.support.setflags(write=False)
        bracket.exact.probabilities.setflags(write=False)
    else:
        key += (reach,)
    scope.distributions[key] = bracket
    scope.computed += 1
    return bracket


def pfd_exceedance_probability(
    model: FaultModel,
    threshold: float,
    versions: int = 1,
    max_support: int | None = 4096,
) -> float:
    """Conservative (upper) ``P(Theta_r > threshold)`` from the PFD bracket.

    This is the risk of violating a required PFD bound ``theta_R``
    (the paper's Section 3 second scenario) without invoking the normal
    approximation.  The value is the bracket's upper end, never below the
    true risk; it is the true risk when the bracket is exact.
    """
    if threshold < 0.0:
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    return exact_pfd_distribution(model, versions, max_support).survival(threshold)[1]


def pfd_percentile(
    model: FaultModel,
    level: float,
    versions: int = 1,
    max_support: int | None = 4096,
) -> float:
    """Conservative (upper) ``level`` percentile of the PFD.

    E.g. ``level=0.99`` answers the paper's "what is the 99th percentile of
    the distribution of the system PFD?" without the normal approximation:
    the value is the bracket's upper end, never below the true percentile.
    """
    bracket = exact_pfd_distribution(model, versions, max_support)
    return pfd_quantiles(bracket, [level], prob_pfd_zero(model, versions))[0][1]


def pfd_quantiles(
    bracket: DistributionBracket, levels, prob_zero: float
) -> list[tuple[float, float]]:
    """``(lo, hi)`` bracketing each ``level`` quantile of a PFD whose zero atom is ``prob_zero``.

    Given the closed-form ``prob_zero`` (:func:`prob_pfd_zero`), every level
    at or below it has quantile 0 exactly.
    """
    return [
        (0.0, 0.0) if 0.0 < prob_zero and level <= prob_zero else bounds
        for level, bounds in zip(levels, bracket.quantiles(levels))
    ]


def prob_pfd_zero(model: FaultModel, versions: int = 1) -> float:
    """``P(Theta_r = 0)``.

    Under the non-overlap assumption the PFD is zero exactly when no fault
    (common fault, for ``versions >= 2``) with a non-empty failure region is
    present; for models where every ``q_i > 0`` this coincides with
    ``P(N_r = 0)`` from :mod:`repro.core.no_common_faults`.  Faults with
    ``q_i = 0`` are excluded here because their presence does not affect the
    PFD.
    """
    if versions < 1:
        raise ValueError(f"versions must be a positive integer, got {versions}")
    effective = model.q > 0.0
    if not np.any(effective):
        return 1.0
    present = model.p[effective] ** versions
    return float(np.prod(1.0 - present))
