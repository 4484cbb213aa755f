"""Confidence claims about the probability of failure on demand.

Section 5 of the paper phrases reliability claims as "x is a 99% confidence
bound on Theta", meaning ``P(Theta <= x) = 0.99``.  :class:`ConfidenceClaim`
is that statement as a value object, and :func:`claim_from_system` derives one
from a system facade using either the exact PFD distribution or the normal
approximation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.system import OneOutOfRSystem

__all__ = ["ConfidenceClaim", "claim_from_system"]


@dataclass(frozen=True)
class ConfidenceClaim:
    """The claim ``P(PFD <= bound) >= confidence``.

    Attributes
    ----------
    bound:
        The claimed upper bound on the PFD.
    confidence:
        The probability with which the bound holds.
    method:
        How the claim was derived ("normal-approximation", "exact-distribution"
        or "pmax-bound").
    """

    bound: float
    confidence: float
    method: str

    def __post_init__(self) -> None:
        if self.bound < 0.0:
            raise ValueError(f"bound must be non-negative, got {self.bound}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence}")

    def satisfies(self, required_bound: float) -> bool:
        """True when the claimed bound meets a required bound ``theta_R``."""
        return self.bound <= required_bound

    def describe(self) -> str:
        """A human-readable sentence in the paper's phrasing."""
        return (
            f"P(PFD <= {self.bound:.3e}) >= {self.confidence:.4f} "
            f"(derived via {self.method})"
        )


def claim_from_system(
    system: OneOutOfRSystem, confidence: float, method: str = "normal-approximation"
) -> ConfidenceClaim:
    """Derive a confidence claim for a system.

    Parameters
    ----------
    system:
        A :class:`~repro.core.system.SingleVersionSystem` or
        :class:`~repro.core.system.OneOutOfTwoSystem` (or any
        :class:`~repro.core.system.OneOutOfRSystem`).
    confidence:
        Required confidence level.
    method:
        ``"normal-approximation"`` (Section 5) or ``"exact-distribution"``
        (the upper end of the exact percentile's guaranteed bracket).
    """
    if method == "normal-approximation":
        bound = system.normal_bound(confidence)
    elif method == "exact-distribution":
        bound = system.exact_bound(confidence)
    else:
        raise ValueError(
            f"unknown method {method!r}; expected 'normal-approximation' or 'exact-distribution'"
        )
    return ConfidenceClaim(bound=max(bound, 0.0), confidence=confidence, method=method)
