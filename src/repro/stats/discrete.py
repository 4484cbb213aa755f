"""Finite discrete probability distributions.

The probability of failure on demand (PFD) of a version in the fault-creation
model is a sum of independent two-point random variables: the ``i``-th takes
the value ``q_i`` with probability ``p_i`` and ``0`` otherwise (Section 3 of
the paper).  Its exact distribution is therefore a finite discrete distribution
whose support grows by convolution, up to ``2^n`` points.

Two layers are provided:

* :class:`DiscreteDistribution` -- the generic, validating constructor and
  :meth:`DiscreteDistribution.convolve`, for arbitrary finite distributions,
  with an ``O(m log m)`` kernel for adding one two-point fault contribution
  (:meth:`DiscreteDistribution.convolve_two_point`);
* :func:`bracket_two_points` -- the kernel for sums of thousands of
  two-point contributions.  It returns a :class:`DistributionBracket`: the
  exact distribution when its support fits a cap, and otherwise two integer
  shift-add folds on one lattice whose values bound the sum from below and
  from above outcome by outcome, so every quantile and exceedance probability
  read from them is a guaranteed ``[lo, hi]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DiscreteDistribution", "DistributionBracket", "bracket_two_points"]


@dataclass(frozen=True)
class DiscreteDistribution:
    """A probability distribution on a finite set of real support points.

    Parameters
    ----------
    support:
        Sorted, strictly increasing array of support points.
    probabilities:
        Probabilities associated with each support point; non-negative and
        summing to 1 (within floating-point tolerance).
    """

    support: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        support = np.asarray(self.support, dtype=float)
        probabilities = np.asarray(self.probabilities, dtype=float)
        if support.ndim != 1 or probabilities.ndim != 1:
            raise ValueError("support and probabilities must be 1-D arrays")
        if support.size != probabilities.size:
            raise ValueError(
                f"support ({support.size}) and probabilities ({probabilities.size}) "
                "must have the same length"
            )
        if support.size == 0:
            raise ValueError("distribution must have at least one support point")
        if np.any(probabilities < -1e-12):
            raise ValueError("probabilities must be non-negative")
        probabilities = np.clip(probabilities, 0.0, None)
        total = probabilities.sum()
        if not np.isclose(total, 1.0, rtol=0.0, atol=1e-8):
            raise ValueError(f"probabilities must sum to 1, got {total}")
        order = np.argsort(support, kind="stable")
        support = support[order]
        probabilities = probabilities[order] / total
        # Merge duplicate support points.
        if support.size > 1 and np.any(np.diff(support) == 0.0):
            unique, inverse = np.unique(support, return_inverse=True)
            merged = np.zeros_like(unique)
            np.add.at(merged, inverse, probabilities)
            support, probabilities = unique, merged
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probabilities", probabilities)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def _trusted(cls, support: np.ndarray, probabilities: np.ndarray) -> "DiscreteDistribution":
        """Build an instance from arrays already known to be valid.

        ``support`` must be sorted ascending with no duplicates and
        ``probabilities`` non-negative and summing to 1 (within tolerance).
        Used by the convolution kernels, where intermediate results satisfy
        these invariants by construction and re-validating/re-sorting them on
        every step dominates the runtime.
        """
        instance = object.__new__(cls)
        object.__setattr__(instance, "support", support)
        object.__setattr__(instance, "probabilities", probabilities)
        return instance

    @classmethod
    def _from_sorted(
        cls, support: np.ndarray, probabilities: np.ndarray
    ) -> "DiscreteDistribution":
        """Build from sorted (possibly duplicated) support, merging duplicates."""
        if support.size > 1:
            boundaries = np.empty(support.size, dtype=bool)
            boundaries[0] = True
            np.not_equal(support[1:], support[:-1], out=boundaries[1:])
            if not boundaries.all():
                starts = np.flatnonzero(boundaries)
                support = support[starts]
                probabilities = np.add.reduceat(probabilities, starts)
        return cls._trusted(support, probabilities)

    @staticmethod
    def point_mass(value: float) -> "DiscreteDistribution":
        """Distribution concentrated at a single value."""
        return DiscreteDistribution._trusted(np.array([float(value)]), np.array([1.0]))

    @staticmethod
    def two_point(value: float, probability: float) -> "DiscreteDistribution":
        """Distribution of a variable equal to ``value`` w.p. ``probability``, else 0.

        This is the contribution of a single potential fault to the PFD: the
        fault's failure-region probability ``q_i`` with probability ``p_i``,
        zero otherwise.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        if value == 0.0 or probability == 0.0:
            return DiscreteDistribution.point_mass(0.0)
        if probability == 1.0:
            return DiscreteDistribution.point_mass(value)
        return DiscreteDistribution(
            np.array([0.0, float(value)]), np.array([1.0 - probability, probability])
        )

    # ------------------------------------------------------------------ #
    # Moments and probabilities
    # ------------------------------------------------------------------ #
    def mean(self) -> float:
        """Expected value."""
        return float(np.dot(self.support, self.probabilities))

    def variance(self) -> float:
        """Variance."""
        mean = self.mean()
        return float(np.dot((self.support - mean) ** 2, self.probabilities))

    def std(self) -> float:
        """Standard deviation."""
        return float(np.sqrt(self.variance()))

    def _cumulative(self) -> np.ndarray:
        """Cumulative probabilities, computed once and cached (read-only)."""
        cached = self.__dict__.get("_cumulative_cache")
        if cached is None:
            cached = np.cumsum(self.probabilities)
            cached.setflags(write=False)
            object.__setattr__(self, "_cumulative_cache", cached)
        return cached

    def cdf(self, x: float | np.ndarray) -> np.ndarray | float:
        """``P(X <= x)`` evaluated at scalar or array ``x``."""
        x_array = np.asarray(x, dtype=float)
        cumulative = self._cumulative()
        indices = np.searchsorted(self.support, x_array, side="right")
        values = np.where(indices > 0, cumulative[np.minimum(indices, cumulative.size) - 1], 0.0)
        if np.isscalar(x) or x_array.ndim == 0:
            return float(values)
        return values

    def survival(self, x: float) -> float:
        """``P(X > x)``, the exceedance probability used for PFD-bound risks.

        Summed over the tail rather than taken as ``1 - cdf(x)``, so a small
        exceedance keeps its relative precision (and capped at 1 against
        rounding).
        """
        index = int(np.searchsorted(self.support, float(x), side="right"))
        return min(1.0, float(self.probabilities[index:].sum()))

    def quantile(self, level: float) -> float:
        """Smallest support point ``x`` with ``P(X <= x) >= level``."""
        if not 0.0 <= level <= 1.0:
            raise ValueError(f"level must be in [0, 1], got {level}")
        cumulative = self._cumulative()
        index = int(np.searchsorted(cumulative, level - 1e-15, side="left"))
        index = min(index, self.support.size - 1)
        return float(self.support[index])

    def prob_zero(self) -> float:
        """``P(X = 0)`` -- for PFD distributions, the probability of a fault-free product."""
        zero_indices = np.isclose(self.support, 0.0, atol=0.0)
        return float(np.sum(self.probabilities[zero_indices]))

    # ------------------------------------------------------------------ #
    # Convolution
    # ------------------------------------------------------------------ #
    def shifted(self, offset: float) -> "DiscreteDistribution":
        """Distribution of ``X + offset`` (convolution with a point mass)."""
        offset = float(offset)
        if offset == 0.0:
            return self
        return DiscreteDistribution._trusted(self.support + offset, self.probabilities)

    def convolve_two_point(self, value: float, probability: float) -> "DiscreteDistribution":
        """Distribution of ``X + B`` where ``B`` is ``value`` w.p. ``probability``, else 0.

        The specialised kernel for adding one fault contribution: instead of
        the generic outer-product convolution it merges the current support
        with a shifted copy, costing ``O(m log m)`` for a support of size
        ``m`` and skipping re-validation of the result.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        value = float(value)
        if value == 0.0 or probability == 0.0:
            return self
        if probability == 1.0:
            return self.shifted(value)
        support = np.concatenate([self.support, self.support + value])
        weights = np.concatenate(
            [self.probabilities * (1.0 - probability), self.probabilities * probability]
        )
        order = np.argsort(support, kind="stable")
        return DiscreteDistribution._from_sorted(support[order], weights[order])

    def convolve(self, other: "DiscreteDistribution") -> "DiscreteDistribution":
        """Distribution of the sum of two independent variables.

        Point masses and two-point summands are dispatched to the specialised
        ``O(m log m)`` kernels; the general case falls back to the
        outer-product convolution.
        """
        if other.support.size == 1:
            return self.shifted(float(other.support[0]))
        if self.support.size == 1:
            return other.shifted(float(self.support[0]))
        if other.support.size == 2 and other.support[0] == 0.0:
            return self.convolve_two_point(float(other.support[1]), float(other.probabilities[1]))
        if self.support.size == 2 and self.support[0] == 0.0:
            return other.convolve_two_point(float(self.support[1]), float(self.probabilities[1]))
        sums = self.support[:, np.newaxis] + other.support[np.newaxis, :]
        weights = self.probabilities[:, np.newaxis] * other.probabilities[np.newaxis, :]
        flat_sums = sums.ravel()
        flat_weights = weights.ravel()
        order = np.argsort(flat_sums, kind="stable")
        return DiscreteDistribution._from_sorted(flat_sums[order], flat_weights[order])

    @staticmethod
    def convolve_many(components: list["DiscreteDistribution"]) -> "DiscreteDistribution":
        """Convolve a list of independent components.

        Components are combined pairwise (balanced tree order) which keeps
        intermediate supports small compared to a left fold.
        """
        if not components:
            return DiscreteDistribution.point_mass(0.0)
        current = list(components)
        while len(current) > 1:
            next_round: list[DiscreteDistribution] = []
            for index in range(0, len(current) - 1, 2):
                next_round.append(current[index].convolve(current[index + 1]))
            if len(current) % 2 == 1:
                next_round.append(current[-1])
            current = next_round
        return current[0]

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` independent values from the distribution."""
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        return rng.choice(self.support, size=size, p=self.probabilities)


def _binomial_contribution(value: float, probability: float, count: int) -> DiscreteDistribution:
    """Exact distribution of the sum of ``count`` i.i.d. two-point contributions.

    ``count`` faults with identical ``(q, p)`` sum to ``q * Binomial(count, p)``,
    so the group collapses to a ``count + 1``-point distribution instead of
    ``count`` explicit convolutions.  The PMF is built with the same stable
    dynamic-programming recursion as :class:`repro.stats.poisson_binomial.PoissonBinomial`
    (it only adds and multiplies probabilities in ``[0, 1]``, so it cannot
    overflow for extreme ``p`` the way closed-form binomial coefficients can).
    """
    pmf = np.zeros(count + 1, dtype=float)
    pmf[0] = 1.0
    complement = 1.0 - probability
    for occupied in range(count):
        shifted = pmf[: occupied + 1] * probability
        pmf[: occupied + 2] *= complement
        pmf[1 : occupied + 2] += shifted
    total = pmf.sum()
    if total > 0.0:
        pmf /= total
    return DiscreteDistribution._trusted(value * np.arange(count + 1, dtype=float), pmf)


#: Relative rounding error of one float operation (unit roundoff).
_EPS = float(np.finfo(float).eps)
#: Smallest normal float; below it rounding errors are absolute, not relative.
_MIN_NORMAL = float(np.finfo(float).tiny)
#: Smallest positive (subnormal) float.
_TINY = float(np.nextafter(0.0, 1.0))
#: Standard deviations of the remaining sum the lattice spans above its mean.
_SPAN_STDS = 40.0


@dataclass(frozen=True, eq=False)
class DistributionBracket:
    """Two distributions that bound a non-negative random variable pointwise.

    ``lower <= X <= upper`` holds outcome by outcome, so every quantile and
    every exceedance probability of ``X`` lies between those of the two
    bounds.  Two forms share the class:

    * *exact* -- ``exact`` holds the distribution of ``X`` itself and both
      bounds are it;
    * *lattice* -- cell ``k`` of ``lower_weights`` and ``upper_weights``
      (read-only) holds the value ``offset + k * delta``, and the upper bound
      also puts ``overflow`` mass on ``ceiling``, a value no outcome exceeds.

    ``slack`` is a relative bound on the rounding error of the lattice
    weights, of their partial sums and of the lattice values; every readout
    moves its ends outward by it (:func:`_outward`), so containment survives
    floating-point arithmetic (a full-support distribution computed in
    another order may differ from the lattice in the last few bits).
    """

    exact: DiscreteDistribution | None = None
    delta: float = 0.0
    offset: float = 0.0
    lower_weights: np.ndarray | None = None
    upper_weights: np.ndarray | None = None
    overflow: float = 0.0
    ceiling: float = 0.0
    slack: float = 0.0

    @property
    def is_exact(self) -> bool:
        """Whether both bounds are the distribution itself (``lo == hi``)."""
        return self.exact is not None

    @property
    def support_size(self) -> int:
        """Number of support points of the upper bound."""
        if self.exact is not None:
            return int(self.exact.support.size)
        return int(np.count_nonzero(self.upper_weights)) + int(self.overflow > 0.0)

    def _value(self, cell: int, sign: int) -> float:
        """The value of lattice ``cell``, moved outward (see :func:`_outward`)."""
        return _outward(self.offset + cell * self.delta, self.slack, sign)

    def _first_above(self, x: float, sign: int) -> int:
        """Index of the first cell whose outward value exceeds ``x``."""
        size = self.upper_weights.size
        # Clamped as a float first: with a subnormal ``delta`` the ratio can
        # overflow to infinity, which has no integer.
        first = int(min(max(np.floor((x - self.offset) / self.delta) + 1.0, 0.0), size))
        while first > 0 and self._value(first - 1, sign) > x:
            first -= 1
        while first < size and self._value(first, sign) <= x:
            first += 1
        return first

    def quantiles(self, levels) -> list[tuple[float, float]]:
        """``(lo, hi)`` bracketing the ``level`` quantile of ``X``, per level.

        The quantile is the smallest value ``x`` with ``P(X <= x) >= level``.
        """
        levels = [float(level) for level in levels]
        for level in levels:
            if not 0.0 <= level <= 1.0:
                raise ValueError(f"level must be in [0, 1], got {level}")
        if self.exact is not None:
            return [(value, value) for value in map(self.exact.quantile, levels)]
        lower = np.searchsorted(np.cumsum(self.lower_weights), [lv - self.slack for lv in levels])
        upper = np.searchsorted(np.cumsum(self.upper_weights), [lv + self.slack for lv in levels])
        if self.overflow > 0.0:
            top = self.ceiling
        else:
            top = self._value(int(np.flatnonzero(self.upper_weights)[-1]), +1)
        last = self.upper_weights.size - 1
        return [
            (
                self._value(min(int(low), last), -1),
                top if high > last else min(self._value(int(high), +1), top),
            )
            for low, high in zip(lower, upper)
        ]

    def quantile(self, level: float) -> tuple[float, float]:
        """``(lo, hi)`` bracketing the ``level`` quantile of ``X``."""
        return self.quantiles([level])[0]

    def survival(self, x: float) -> tuple[float, float]:
        """``(lo, hi)`` bracketing the exceedance probability ``P(X > x)``."""
        if self.exact is not None:
            value = self.exact.survival(x)
            return value, value
        low = float(self.lower_weights[self._first_above(x, -1):].sum())
        high = float(self.upper_weights[self._first_above(x, +1):].sum())
        if self.ceiling > x:
            high += self.overflow
        return _outward(low, self.slack, -1), min(1.0, _outward(high, self.slack, +1))

    def lower(self) -> DiscreteDistribution:
        """The lower bound as a distribution (``X`` itself when exact)."""
        if self.exact is not None:
            return self.exact
        return self._distribution(self.lower_weights, 0.0)

    def upper(self) -> DiscreteDistribution:
        """The upper bound as a distribution (``X`` itself when exact).

        This is the conservative choice wherever one distribution must stand
        for ``X``: every quantile and exceedance it gives is at least the
        true one.
        """
        if self.exact is not None:
            return self.exact
        return self._distribution(self.upper_weights, self.overflow)

    def _distribution(self, weights: np.ndarray, overflow: float) -> DiscreteDistribution:
        occupied = np.flatnonzero(weights)
        support = self.offset + occupied * self.delta
        probabilities = weights[occupied]
        if overflow > 0.0:
            support = np.append(support, max(self.ceiling, float(support[-1])))
            probabilities = np.append(probabilities, overflow)
        return DiscreteDistribution._from_sorted(support, probabilities)


def _outward(value: float, slack: float, sign: int) -> float:
    """``value`` moved away from the truth by its rounding ``slack``.

    Down for ``sign=-1``, up for ``sign=+1``, and never below 0: a relative
    ``slack`` plus the matching absolute error of subnormal arithmetic.
    """
    return max(0.0, value + sign * slack * (abs(value) + _MIN_NORMAL))


def _fold(
    shifts: np.ndarray, probabilities: np.ndarray, cells: int, clamp: bool
) -> tuple[np.ndarray, float]:
    """Fold two-point contributions as integer shifts on a lattice of ``cells``.

    Contribution ``i`` moves mass ``probabilities[i]`` up by ``shifts[i]``
    cells.  Mass pushed past the top cell is clamped into it when ``clamp``
    is set (which can only lower a value) and otherwise returned apart as
    the overflow (to be placed at or above every value).  Returns the
    normalised weights and the overflow mass.

    The fold keeps unnormalised weights ``u`` scaled by ``1 / prod(1 - p)``,
    so each contribution costs one multiply and one shift-add over the
    occupied cells: ``u[s:] += p / (1 - p) * u[:-s]``.
    """
    weights = np.zeros(cells)
    weights[0] = 1.0
    scratch = np.empty(cells)
    top = 0
    spilled = 0.0
    scale = 1.0
    for shift, probability in zip(shifts.tolist(), probabilities.tolist()):
        if shift == 0:
            continue
        odds = probability / (1.0 - probability)
        # Overflow stays past the lattice whether or not this fault is present.
        spilled *= 1.0 + odds
        occupied = top + 1
        kept = max(0, min(occupied, cells - shift))
        if kept < occupied:
            spill = odds * float(weights[kept:occupied].sum())
            if clamp:
                weights[-1] += spill
            else:
                spilled += spill
        np.multiply(weights[:kept], odds, out=scratch[:kept])
        weights[shift : shift + kept] += scratch[:kept]
        top = min(top + shift, cells - 1)
        scale *= 1.0 + odds
        if scale > 1e150:
            weights /= scale
            spilled /= scale
            scale = 1.0
    total = float(weights.sum()) + spilled
    weights /= total
    return weights, spilled / total


def _lattice_bracket(
    values: np.ndarray, probabilities: np.ndarray, cells: int, offset: float
) -> DistributionBracket:
    """The lower and upper lattice folds of ``sum_i B_i`` (see :func:`bracket_two_points`)."""
    mean = float(np.dot(values, probabilities))
    variance = float(np.dot(values * values, probabilities * (1.0 - probabilities)))
    total = float(values.sum())
    span = min(total, mean + _SPAN_STDS * float(np.sqrt(variance)) + float(values.max()))
    # The smallest positive float keeps delta positive for subnormal spans.
    delta = max(span / (cells - 1), _TINY)
    ratios = values / delta
    down = np.floor(ratios)
    down -= down * delta > values
    up = np.ceil(ratios)
    up += up * delta < values
    slack = (cells + 3 * values.size) * _EPS
    lower, _ = _fold(down.astype(np.int64), probabilities, cells, clamp=True)
    upper, overflow = _fold(up.astype(np.int64), probabilities, cells, clamp=False)
    lower.setflags(write=False)
    upper.setflags(write=False)
    return DistributionBracket(
        delta=delta,
        offset=offset,
        lower_weights=lower,
        upper_weights=upper,
        overflow=overflow,
        ceiling=_outward(offset + total, slack, +1),
        slack=slack,
    )


def bracket_two_points(
    values: np.ndarray,
    probabilities: np.ndarray,
    max_support: int | None = None,
) -> DistributionBracket:
    """Bracket the distribution of ``sum_i B_i`` for independent two-point variables.

    ``B_i`` equals ``values[i]`` with probability ``probabilities[i]`` and 0
    otherwise -- exactly the structure of the PFD of a version (Section 3).
    This is the kernel behind
    :func:`repro.core.pfd_distribution.exact_pfd_distribution`:

    * contributions with ``value == 0`` or ``probability == 0`` are dropped;
    * contributions with ``probability == 1`` are an exact constant shift;
    * when the full support fits in ``max_support`` points (a bound taken
      over groups of identical ``(value, probability)``, each of which has
      ``count + 1`` points) -- or ``max_support`` is ``None`` -- the sum is
      folded exactly: singles with the ``O(m log m)`` two-point kernel,
      groups in closed form through the binomial distribution.  The result
      is an exact bracket (``lo == hi``);
    * otherwise two integer folds run on a lattice of ``4 * max_support``
      cells of spacing ``delta``: the lower fold rounds each value down to a
      multiple of ``delta`` and clamps mass past the lattice into its top
      cell, the upper fold rounds each value up and sends mass past the
      lattice to one atom at ``sum(values)``, which no outcome exceeds.  So
      lower <= sum <= upper outcome by outcome; a group of ``k`` identical
      faults shifts by ``k * floor`` / ``k * ceil`` of ``value / delta``.  In
      the upper fold every present fault moves at least one cell, so its
      atom at zero is exact.

    The lattice spans the statistically attainable range -- the mean plus
    40 standard deviations plus the largest value, capped at
    ``sum(values)`` -- which keeps ``delta`` small for long-tailed models;
    the clamp and the overflow atom keep the bracket rigorous beyond it.

    Parameters
    ----------
    values, probabilities:
        Equal-length 1-D arrays; each ``probabilities[i]`` must lie in
        ``[0, 1]`` and ``values`` must be non-negative.
    max_support:
        Largest full support folded exactly, and a quarter of the lattice
        size otherwise (``None`` always folds exactly, exponential in ``n``).
    """
    values = np.atleast_1d(np.asarray(values, dtype=float))
    probabilities = np.atleast_1d(np.asarray(probabilities, dtype=float))
    if values.ndim != 1 or probabilities.ndim != 1 or values.size != probabilities.size:
        raise ValueError("values and probabilities must be 1-D arrays of equal length")
    if np.any(~np.isfinite(values)) or np.any(~np.isfinite(probabilities)):
        raise ValueError("values and probabilities must be finite")
    if np.any((probabilities < 0.0) | (probabilities > 1.0)):
        raise ValueError("all probabilities must lie in [0, 1]")
    if np.any(values < 0.0):
        raise ValueError("all values must be non-negative")
    if max_support is not None and max_support < 2:
        raise ValueError(f"max_support must be >= 2, got {max_support}")
    offset = float(np.sum(values[probabilities == 1.0]))
    active = (probabilities > 0.0) & (probabilities < 1.0) & (values != 0.0)
    result = DiscreteDistribution.point_mass(0.0)
    if not np.any(active):
        return DistributionBracket(exact=result.shifted(offset))
    pairs = np.stack([values[active], probabilities[active]], axis=1)
    unique_pairs, counts = np.unique(pairs, axis=0, return_counts=True)
    support_bound = 1
    for count in counts.tolist():
        support_bound *= count + 1
        if max_support is not None and support_bound > max_support:
            # Ascending values, identical pairs adjacent: a fixed fold order.
            return _lattice_bracket(
                np.repeat(unique_pairs[:, 0], counts),
                np.repeat(unique_pairs[:, 1], counts),
                4 * max_support,
                offset,
            )
    grouped = counts >= 2
    # Singles are folded largest-value first (fixed, reproducible order).
    singles = unique_pairs[~grouped][::-1]
    for value, probability in singles.tolist():
        result = result.convolve_two_point(value, probability)
    for group_index in np.flatnonzero(grouped):
        result = result.convolve(
            _binomial_contribution(
                float(unique_pairs[group_index, 0]),
                float(unique_pairs[group_index, 1]),
                int(counts[group_index]),
            )
        )
    return DistributionBracket(exact=result.shifted(offset))
