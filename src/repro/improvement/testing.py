"""Pre-release testing as a concrete process-improvement mechanism.

A *testing campaign* executes ``t`` test demands, drawn from the operational
profile, against each developed version before release.  Under the
fault-creation model a fault ``i`` present in the version is detected by at
least one test demand with probability ``1 - (1 - e_i q_i)^t``, where ``e_i``
is the campaign's per-demand *detection effectiveness* for that fault
(1 means every demand hitting the region exposes the fault and the failure is
recognised; lower values model imperfect oracles or regions only partially
covered by the test profile).  Detected faults are removed, so the
probability that fault ``i`` survives into the released version becomes::

    p_i' = p_i * (1 - e_i q_i)^t        (imperfect repair can be modelled too)

This is exactly the kind of *non-proportional* improvement the paper's
Section 4.2.1 / Appendix A warns about: testing preferentially removes faults
with large failure regions, so as testing effort grows the released versions
become dominated by small, hard-to-find faults -- reliability improves, but
the gain from diversity may first grow and then shrink (or vice versa),
rather than improving monotonically.  Reference [13] of the paper reports the
analogous observation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.fault_model import FaultModel
from repro.core.moments import r_version_mean
from repro.core.no_common_faults import risk_ratio
from repro.core.normal_approximation import bound_gain_ratio

__all__ = ["TestingCampaign", "TestingTrajectory"]


@dataclass(frozen=True)
class TestingCampaign:
    """A pre-release testing campaign applied independently to every version.

    Parameters
    ----------
    model:
        The fault-creation model describing the versions *before* testing.
    effectiveness:
        Per-fault, per-demand detection effectiveness ``e_i`` in ``[0, 1]``.
        A scalar applies the same effectiveness to every fault; the default 1.0
        means any test demand falling in a failure region reveals the fault.
    repair_probability:
        Probability that a detected fault is actually (and correctly) removed.
        The default 1.0 is perfect repair; lower values model partial fixes,
        one of the ingredients of the paper's notion of a "mistake of the
        whole development process".
    """

    #: Not a test class, whatever its name: keeps pytest from collecting it.
    __test__ = False

    model: FaultModel
    effectiveness: np.ndarray | float = 1.0
    repair_probability: float = 1.0

    def __post_init__(self) -> None:
        effectiveness = np.asarray(self.effectiveness, dtype=float)
        if effectiveness.ndim == 0:
            effectiveness = np.full(self.model.n, float(effectiveness))
        if effectiveness.shape != (self.model.n,):
            raise ValueError(
                f"effectiveness must be a scalar or a vector of length {self.model.n}, "
                f"got shape {effectiveness.shape}"
            )
        if np.any((effectiveness < 0.0) | (effectiveness > 1.0)):
            raise ValueError("effectiveness values must lie in [0, 1]")
        if not 0.0 <= self.repair_probability <= 1.0:
            raise ValueError(
                f"repair_probability must be in [0, 1], got {self.repair_probability}"
            )
        object.__setattr__(self, "effectiveness", effectiveness)

    # ------------------------------------------------------------------ #
    # The transformation of the fault model
    # ------------------------------------------------------------------ #
    def detection_probability(self, test_demands: int) -> np.ndarray:
        """Probability that each fault, if present, is detected by the campaign."""
        if test_demands < 0:
            raise ValueError(f"test_demands must be non-negative, got {test_demands}")
        per_demand_miss = 1.0 - self.effectiveness * self.model.q
        return 1.0 - per_demand_miss**test_demands

    def survival_probability(self, test_demands: int) -> np.ndarray:
        """Probability that each fault, if present, survives testing (and repair)."""
        detected_and_fixed = self.detection_probability(test_demands) * self.repair_probability
        return 1.0 - detected_and_fixed

    def released_model(self, test_demands: int) -> FaultModel:
        """The fault-creation model of the *released* versions after testing.

        Every ``p_i`` is multiplied by the fault's survival probability; the
        failure regions themselves (the ``q_i``) are unchanged, because testing
        removes faults rather than shrinking their regions.
        """
        released_p = self.model.p * self.survival_probability(test_demands)
        return FaultModel(
            p=released_p, q=self.model.q.copy(), names=self.model.names, strict=self.model.strict
        )

    # ------------------------------------------------------------------ #
    # Trajectories of reliability and diversity gain versus testing effort
    # ------------------------------------------------------------------ #
    def trajectory(self, test_demand_schedule: Sequence[int], k_factor: float = 2.33) -> "TestingTrajectory":
        """Evaluate reliability and gain measures over a schedule of testing efforts.

        Parameters
        ----------
        test_demand_schedule:
            Increasing sequence of testing efforts (numbers of test demands).
        k_factor:
            ``k`` used for the Section 5 bound-ratio gain measure.
        """
        schedule = [int(value) for value in test_demand_schedule]
        if not schedule:
            raise ValueError("test_demand_schedule must not be empty")
        if any(value < 0 for value in schedule):
            raise ValueError("testing efforts must be non-negative")
        single_means, pair_means, risk_ratios, bound_ratios = [], [], [], []
        for effort in schedule:
            released = self.released_model(effort)
            single_means.append(r_version_mean(released, 1))
            pair_means.append(r_version_mean(released, 2))
            risk_ratios.append(risk_ratio(released))
            bound_ratios.append(bound_gain_ratio(released, k_factor))
        return TestingTrajectory(
            test_demands=np.asarray(schedule, dtype=int),
            single_version_means=np.asarray(single_means),
            system_means=np.asarray(pair_means),
            risk_ratios=np.asarray(risk_ratios),
            bound_ratios=np.asarray(bound_ratios),
        )


@dataclass(frozen=True)
class TestingTrajectory:
    """Reliability and diversity-gain measures as functions of testing effort."""

    test_demands: np.ndarray
    single_version_means: np.ndarray
    system_means: np.ndarray
    risk_ratios: np.ndarray
    bound_ratios: np.ndarray

    def reliability_always_improves(self, atol: float = 1e-15) -> bool:
        """True when more testing never increases the single-version mean PFD."""
        return bool(np.all(np.diff(self.single_version_means) <= atol))

    def gain_is_monotone(self, atol: float = 1e-12) -> bool:
        """True when the eq. (10) gain never decreases as testing effort grows.

        The interesting (and, per Appendix A / reference [13], common) case is
        ``False``: testing improves reliability while the relative advantage of
        the 1-out-of-2 configuration eventually shrinks.
        """
        return bool(np.all(np.diff(self.risk_ratios) <= atol))

    def rows(self) -> list[dict]:
        """One summary dictionary per testing effort, for tabular reporting."""
        return [
            {
                "test_demands": int(self.test_demands[index]),
                "single_mean_pfd": float(self.single_version_means[index]),
                "system_mean_pfd": float(self.system_means[index]),
                "risk_ratio": float(self.risk_ratios[index]),
                "bound_ratio": float(self.bound_ratios[index]),
            }
            for index in range(self.test_demands.size)
        ]
