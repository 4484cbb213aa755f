"""Development processes with correlated fault introduction (Section 6.1).

The paper's independence-of-mistakes assumption is acknowledged to be
"obviously false" in general; Section 6.1 discusses both positive correlation
(mistakes sharing a common conceptual error) and negative correlation (effort
spent avoiding one class of faults comes at the expense of others).  Two
concrete relaxations are provided so the library can quantify how much the
independent-model predictions move when the assumption is violated:

* :class:`CommonCauseDevelopmentProcess` -- a two-state mixture: with
  probability ``bad_day_weight`` the development happens in a "degraded" state
  in which all fault probabilities are inflated, otherwise in a "careful"
  state in which they are deflated.  The mixture is constructed so each
  fault's *marginal* probability stays exactly ``p_i``; the shared state
  induces positive correlation between faults within a version (and, when
  ``shared_across_channels`` is set, between the two channels of a pair --
  modelling organisational common causes such as a flawed specification).
* :class:`CopulaDevelopmentProcess` -- a Gaussian one-factor copula: a latent
  standard-normal factor shared by all faults of a version shifts each fault's
  effective introduction threshold.  ``correlation`` is the pairwise latent
  correlation; marginals are again exactly ``p_i``.  Negative values model the
  resource-competition effect described in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fault_model import FaultModel
from repro.stats.normal import normal_quantile
from repro.versions.generation import DevelopmentProcess
from repro.versions.version import DevelopedVersion, VersionPair

__all__ = ["CommonCauseDevelopmentProcess", "CopulaDevelopmentProcess"]


@dataclass(frozen=True)
class CommonCauseDevelopmentProcess(DevelopmentProcess):
    """Mixture-of-states process with exact marginals and positive correlation.

    Parameters
    ----------
    model:
        The fault-creation model providing marginal probabilities ``p_i``.
    bad_day_weight:
        Probability ``w`` of the degraded development state.
    inflation:
        Multiplier applied to every ``p_i`` in the degraded state (must keep
        all inflated probabilities <= 1).  The careful-state probabilities are
        chosen as ``p_i (1 - w * inflation) / (1 - w)`` so that the marginal
        probability of each fault remains exactly ``p_i``.
    shared_across_channels:
        When ``True``, both channels of a pair produced by
        :meth:`sample_pair` / :meth:`sample_pairs` experience the *same*
        development state, modelling a common cause acting on both teams
        (e.g. a flawed common specification).  When ``False`` the state is
        redrawn independently per version.
    """

    model: FaultModel
    bad_day_weight: float
    inflation: float
    shared_across_channels: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.bad_day_weight < 1.0:
            raise ValueError(f"bad_day_weight must be in (0, 1), got {self.bad_day_weight}")
        if self.inflation < 1.0:
            raise ValueError(f"inflation must be >= 1, got {self.inflation}")
        if np.any(self.model.p * self.inflation > 1.0):
            raise ValueError("inflation pushes some fault probability above 1")
        careful = self._careful_probabilities()
        if np.any(careful < 0.0):
            raise ValueError(
                "the requested bad_day_weight and inflation leave no admissible "
                "careful-state probabilities (they would be negative)"
            )

    def _degraded_probabilities(self) -> np.ndarray:
        return self.model.p * self.inflation

    def _careful_probabilities(self) -> np.ndarray:
        w = self.bad_day_weight
        return self.model.p * (1.0 - w * self.inflation) / (1.0 - w)

    def sample_fault_matrix(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return np.zeros((0, self.model.n), dtype=bool)
        # One draw per call, consumed row-by-row (column 0 selects the
        # development state, the rest drive the faults), so chunked sampling
        # consumes the stream identically to a single monolithic call --
        # preserving the engine's bitwise chunked-equals-in-memory guarantee.
        uniforms = rng.random((count, self.model.n + 1))
        degraded = uniforms[:, 0] < self.bad_day_weight
        probabilities = np.where(
            degraded[:, np.newaxis],
            self._degraded_probabilities()[np.newaxis, :],
            self._careful_probabilities()[np.newaxis, :],
        )
        return uniforms[:, 1:] < probabilities

    def sample_pairs(self, rng: np.random.Generator, count: int) -> list[VersionPair]:
        """Develop ``count`` version pairs, honouring ``shared_across_channels``."""
        if not self.shared_across_channels:
            return super().sample_pairs(rng, count)
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        pairs: list[VersionPair] = []
        degraded_flags = rng.random(count) < self.bad_day_weight
        degraded_p = self._degraded_probabilities()
        careful_p = self._careful_probabilities()
        for degraded in degraded_flags:
            probabilities = degraded_p if degraded else careful_p
            matrix = rng.random((2, self.model.n)) < probabilities[np.newaxis, :]
            pairs.append(
                VersionPair(
                    channel_a=DevelopedVersion(model=self.model, fault_present=matrix[0]),
                    channel_b=DevelopedVersion(model=self.model, fault_present=matrix[1]),
                )
            )
        return pairs

    def sample_pair(self, rng: np.random.Generator) -> VersionPair:
        """Develop a single pair, honouring ``shared_across_channels``."""
        return self.sample_pairs(rng, 1)[0]

    def sample_system_pfds(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Sample 1-out-of-2 system PFDs, honouring ``shared_across_channels``."""
        if not self.shared_across_channels:
            return super().sample_system_pfds(rng, count)
        pairs = self.sample_pairs(rng, count)
        return np.array([pair.system_pfd() for pair in pairs])


@dataclass(frozen=True)
class CopulaDevelopmentProcess(DevelopmentProcess):
    """Gaussian one-factor copula over the fault-introduction indicators.

    Fault ``i`` is present when ``sqrt(|rho|) * sign * Z + sqrt(1 - |rho|) * e_i``
    falls below the normal quantile of ``p_i``, where ``Z`` is a latent factor
    shared by the whole version and ``e_i`` are independent standard normals.
    ``correlation`` in ``(-1, 1)`` sets the latent pairwise correlation;
    positive values make faults co-occur, negative values make them compete.
    Marginals remain exactly ``p_i``.
    """

    model: FaultModel
    correlation: float

    def __post_init__(self) -> None:
        if not -1.0 < self.correlation < 1.0:
            raise ValueError(f"correlation must be in (-1, 1), got {self.correlation}")

    def sample_fault_matrix(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return np.zeros((0, self.model.n), dtype=bool)
        thresholds = normal_quantile(np.clip(self.model.p, 1e-15, 1.0 - 1e-15))
        loading = np.sqrt(abs(self.correlation))
        residual_scale = np.sqrt(1.0 - abs(self.correlation))
        # One draw per call, consumed row-by-row (column 0 is the shared
        # factor), so chunked sampling is bitwise-identical to monolithic.
        normals = rng.standard_normal((count, self.model.n + 1))
        factor = normals[:, :1]
        residuals = normals[:, 1:]
        if self.correlation >= 0.0:
            latent = loading * factor + residual_scale * residuals
        else:
            # Alternate the sign of the loading across faults so that pairs of
            # faults receive opposite pushes from the common factor, producing
            # negative pairwise dependence while keeping marginals exact.
            signs = np.where(np.arange(self.model.n) % 2 == 0, 1.0, -1.0)
            latent = loading * factor * signs[np.newaxis, :] + residual_scale * residuals
        matrix = latent < thresholds[np.newaxis, :]
        # Faults with p_i == 0 or 1 are handled exactly.
        matrix[:, self.model.p <= 0.0] = False
        matrix[:, self.model.p >= 1.0] = True
        return matrix
