"""Effects of process improvement on the gain from diversity (Section 4.2).

The paper asks how the eq. (10) gain ratio ``P(N_2 > 0) / P(N_1 > 0)`` changes
when the development process improves, i.e. when fault-introduction
probabilities ``p_i`` decrease.  Two stylised improvements are analysed:

* **A single ``p_i`` decreases** (Section 4.2.1, Appendix A).  The partial
  derivative of the ratio with respect to ``p_i`` can be positive *or*
  negative, so improving the process can *reduce* the gain from diversity --
  the paper's counter-intuitive headline result.  For ``n = 2`` there is a
  closed-form reversal point (the value of ``p_1`` at which the derivative
  changes sign), implemented in :func:`two_fault_reversal_point`.

  *Reproduction note.*  Re-deriving the n = 2 stationarity condition gives
  ``p_1* = p_2 (sqrt(2 (1 + p_2)) - (1 + p_2)) / (1 - p_2^2)``, which is
  *smaller* than ``p_2`` (e.g. ``p_2 = 0.5 -> p_1* ~= 0.155``), whereas the
  paper's prose asserts the root exceeds the other fault's probability.
  Numerical evaluation of the ratio confirms the root computed here; the
  qualitative conclusion (the sign can go either way) is unchanged.  See
  DESIGN.md section 3.5 and experiment E4.

* **All ``p_i`` decrease proportionally** (Section 4.2.2, Appendix B): writing
  ``p_i = k b_i``, the derivative of the ratio with respect to ``k`` is always
  non-negative, so this kind of improvement always *increases* the gain from
  diversity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.fault_model import FaultModel
from repro.core.no_common_faults import prob_any_common_fault, prob_any_fault, risk_ratio

__all__ = [
    "risk_ratio_partial_derivative",
    "risk_ratio_gradient",
    "proportional_improvement_derivative",
    "two_fault_reversal_point",
    "single_fault_reversal_point",
    "risk_ratio_single_fault_sweep",
    "risk_ratio_proportional_sweep",
    "ImprovementSweepResult",
]


def risk_ratio_partial_derivative(model: FaultModel, index: int) -> float:
    """Analytic partial derivative of the eq. (10) ratio with respect to ``p_index``.

    Writing ``A = 1 - prod(1 - p_j^2)`` and ``B = 1 - prod(1 - p_j)``:

    * ``dA/dp_i = 2 p_i prod_{j != i} (1 - p_j^2)``
    * ``dB/dp_i = prod_{j != i} (1 - p_j)``
    * ``d(A/B)/dp_i = (dA/dp_i * B - A * dB/dp_i) / B^2``

    A *negative* value means that decreasing ``p_index`` (improving the
    process on that fault class) increases the ratio, i.e. reduces the gain
    from diversity.  Raises :class:`ValueError` when ``B = 0`` (all ``p_i``
    zero), where the ratio is not differentiable in a useful sense.
    """
    if not 0 <= index < model.n:
        raise IndexError(f"fault index {index} out of range for n={model.n}")
    p = model.p
    risk_single = prob_any_fault(model)
    if risk_single == 0.0:
        raise ValueError("the risk ratio derivative is undefined when all p_i are zero")
    risk_common = prob_any_common_fault(model)
    others = np.ones(model.n, dtype=bool)
    others[index] = False
    partial_common = 2.0 * p[index] * float(np.prod(1.0 - p[others] ** 2))
    partial_single = float(np.prod(1.0 - p[others]))
    return (partial_common * risk_single - risk_common * partial_single) / risk_single**2


def risk_ratio_gradient(model: FaultModel) -> np.ndarray:
    """Vector of partial derivatives of the eq. (10) ratio with respect to every ``p_i``."""
    return np.array([risk_ratio_partial_derivative(model, i) for i in range(model.n)])


def proportional_improvement_derivative(base_model: FaultModel, k: float) -> float:
    """Derivative of the eq. (10) ratio with respect to the quality factor ``k``.

    The Appendix B parameterisation writes ``p_i = k b_i`` with ``b_i`` the
    probabilities of ``base_model``.  By the chain rule the derivative with
    respect to ``k`` is ``sum_i b_i * d(ratio)/dp_i`` evaluated at
    ``p = k b``.  Appendix B proves this is non-negative for all admissible
    parameters, i.e. proportional process improvement (decreasing ``k``)
    always decreases the ratio and therefore always increases the gain from
    diversity.
    """
    if k <= 0.0:
        raise ValueError(f"k must be positive, got {k}")
    scaled = base_model.scaled(k)
    gradient = risk_ratio_gradient(scaled)
    return float(np.dot(gradient, base_model.p))


def two_fault_reversal_point(p_other: float) -> float:
    """Closed-form reversal point for a model with exactly two potential faults.

    For ``n = 2`` the derivative of the eq. (10) ratio with respect to ``p_1``
    (holding ``p_2 = p_other`` fixed) vanishes at::

        p_1* = p_other * (sqrt(2 (1 + p_other)) - (1 + p_other)) / (1 - p_other^2)

    For ``p_1 < p_1*`` the derivative is negative (further improving that
    single fault class reduces the gain from diversity); for ``p_1 > p_1*`` it
    is positive.  This corresponds to Appendix A of the paper (see the module
    docstring for the erratum on the root's location relative to ``p_other``).
    """
    if not 0.0 < p_other < 1.0:
        raise ValueError(f"p_other must be in (0, 1), got {p_other}")
    return float(
        p_other
        * (np.sqrt(2.0 * (1.0 + p_other)) - (1.0 + p_other))
        / (1.0 - p_other**2)
    )


def single_fault_reversal_point(
    model: FaultModel, index: int, tolerance: float = 1e-12
) -> float | None:
    """Numerically locate the reversal point of fault ``index`` for a general model.

    Returns the value of ``p_index`` (all other parameters held fixed) at which
    the partial derivative of the eq. (10) ratio changes sign, or ``None`` when
    the derivative keeps the same sign throughout ``(0, 1)``.
    """
    if not 0 <= index < model.n:
        raise IndexError(f"fault index {index} out of range for n={model.n}")

    def derivative_at(value: float) -> float:
        return risk_ratio_partial_derivative(model.with_probability(index, value), index)

    low, high = 1e-9, 1.0 - 1e-9
    derivative_low, derivative_high = derivative_at(low), derivative_at(high)
    if np.sign(derivative_low) == np.sign(derivative_high):
        return None
    from scipy import optimize

    root = optimize.brentq(derivative_at, low, high, xtol=tolerance)
    return float(root)


@dataclass(frozen=True)
class ImprovementSweepResult:
    """The result of sweeping a process-improvement parameter.

    Attributes
    ----------
    parameter_values:
        The swept values (either a single ``p_i`` or the quality factor ``k``).
    risk_ratios:
        The eq. (10) ratio at each value.
    risk_single:
        ``P(N_1 > 0)`` at each value (the single-version risk, to show that the
        process improvement does improve reliability even when it reduces the
        diversity gain).
    risk_common:
        ``P(N_2 > 0)`` at each value.
    """

    parameter_values: np.ndarray
    risk_ratios: np.ndarray
    risk_single: np.ndarray
    risk_common: np.ndarray

    def ratio_is_monotone_nondecreasing(self, atol: float = 1e-12) -> bool:
        """True when the ratio never decreases as the parameter increases."""
        return bool(np.all(np.diff(self.risk_ratios) >= -atol))

    def argmin_ratio(self) -> float:
        """Parameter value at which the ratio (and hence the gain loss) is smallest."""
        return float(self.parameter_values[int(np.argmin(self.risk_ratios))])


def risk_ratio_single_fault_sweep(
    model: FaultModel, index: int, values: Sequence[float]
) -> ImprovementSweepResult:
    """Sweep ``p_index`` over ``values`` and record the eq. (10) ratio (Section 4.2.1)."""
    value_array = np.asarray(values, dtype=float)
    ratios = np.empty_like(value_array)
    singles = np.empty_like(value_array)
    commons = np.empty_like(value_array)
    for position, value in enumerate(value_array):
        candidate = model.with_probability(index, float(value))
        ratios[position] = risk_ratio(candidate)
        singles[position] = prob_any_fault(candidate)
        commons[position] = prob_any_common_fault(candidate)
    return ImprovementSweepResult(
        parameter_values=value_array,
        risk_ratios=ratios,
        risk_single=singles,
        risk_common=commons,
    )


def risk_ratio_proportional_sweep(
    base_model: FaultModel, k_values: Sequence[float]
) -> ImprovementSweepResult:
    """Sweep the quality factor ``k`` (``p_i = k b_i``) and record the ratio (Section 4.2.2)."""
    k_array = np.asarray(k_values, dtype=float)
    if np.any(k_array <= 0.0):
        raise ValueError("all k values must be positive")
    ratios = np.empty_like(k_array)
    singles = np.empty_like(k_array)
    commons = np.empty_like(k_array)
    for position, k in enumerate(k_array):
        candidate = base_model.scaled(float(k))
        ratios[position] = risk_ratio(candidate)
        singles[position] = prob_any_fault(candidate)
        commons[position] = prob_any_common_fault(candidate)
    return ImprovementSweepResult(
        parameter_values=k_array,
        risk_ratios=ratios,
        risk_single=singles,
        risk_common=commons,
    )
