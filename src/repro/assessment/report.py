"""A complete, human-readable assessment report for a diverse system.

Pulls together everything the paper offers an assessor -- the moments, the
guaranteed ``p_max`` bounds, the probability of no common fault, confidence
bounds (exact and normal-approximation), SIL banding and the beta factor --
into a single structured report that can be rendered as text or serialised to
a plain dictionary.  This is the "what would current practice do with these
results" artefact the paper's Section 7 calls for ("Assessors can use our
results ... for comparison with their current practice in judging diversity").

The numbers themselves come from the unified evaluation API: ``assess``
dispatches one :func:`repro.api.evaluate_batch` over the registered
``moments``, ``exact`` and ``normal`` methods and assembles the report from
their typed results, so the report, the CLI and study tables can never
disagree about what a method computes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.evaluate import evaluate_batch
from repro.assessment.beta_factor import beta_factor, guaranteed_beta_factor, guaranteed_bound_beta_factor
from repro.assessment.confidence import ConfidenceClaim
from repro.assessment.sil import SafetyIntegrityLevel, sil_for_pfd
from repro.core.fault_model import FaultModel
from repro.core.gain import DiversityGainSummary, diversity_gain_summary
from repro.core.no_common_faults import prob_any_common_fault

__all__ = ["SystemAssessment", "AssessmentReport", "assess"]


@dataclass(frozen=True)
class SystemAssessment:
    """Assessment of one system (single version or 1-out-of-2)."""

    label: str
    mean_pfd: float
    std_pfd: float
    prob_any_fault: float
    exact_claim: ConfidenceClaim
    normal_claim: ConfidenceClaim
    normal_error_bound: float
    sil: SafetyIntegrityLevel

    def lines(self) -> list[str]:
        """Render the assessment as indented report lines."""
        return [
            f"{self.label}:",
            f"  mean PFD                      {self.mean_pfd:.3e}",
            f"  std of PFD                    {self.std_pfd:.3e}",
            f"  P(at least one fault)         {self.prob_any_fault:.5f}",
            f"  {self.exact_claim.confidence:.0%} bound (exact)            {self.exact_claim.bound:.3e}",
            f"  {self.normal_claim.confidence:.0%} bound (normal approx.)   {self.normal_claim.bound:.3e}"
            f"  [CDF error <= {self.normal_error_bound:.2f}]",
            f"  supportable SIL               {self.sil.name}",
        ]


@dataclass(frozen=True)
class AssessmentReport:
    """The full report: both systems plus the diversity-gain section."""

    model: FaultModel
    confidence: float
    single: SystemAssessment
    pair: SystemAssessment
    gain: DiversityGainSummary

    def to_dict(self) -> dict:
        """Plain-dictionary form (JSON-serialisable)."""
        def system_dict(assessment: SystemAssessment) -> dict:
            return {
                "mean_pfd": assessment.mean_pfd,
                "std_pfd": assessment.std_pfd,
                "prob_any_fault": assessment.prob_any_fault,
                "exact_bound": assessment.exact_claim.bound,
                "normal_bound": assessment.normal_claim.bound,
                "normal_error_bound": assessment.normal_error_bound,
                "sil": assessment.sil.name,
            }

        return {
            "confidence": self.confidence,
            "p_max": self.model.p_max,
            "fault_count": self.model.n,
            "single_version": system_dict(self.single),
            "one_out_of_two": system_dict(self.pair),
            "gain": self.gain.as_dict(),
            "guaranteed_beta_factor": guaranteed_beta_factor(self.model.p_max),
            "guaranteed_bound_reduction": guaranteed_bound_beta_factor(self.model.p_max),
            "beta_factor": beta_factor(self.model),
        }

    def render(self) -> str:
        """Render the whole report as text."""
        lines: list[str] = [
            "Diverse-system assessment (fault-creation-process model, Popov & Strigini 2001)",
            f"  potential faults: {self.model.n}, p_max = {self.model.p_max:.4f}, "
            f"confidence level {self.confidence:.0%}",
            "",
        ]
        lines.extend(self.single.lines())
        lines.append("")
        lines.extend(self.pair.lines())
        lines.extend(
            [
                "",
                "Gain from diversity:",
                f"  mean ratio mu2/mu1            {self.gain.mean_ratio:.4f}"
                f"   (guaranteed <= {self.gain.guaranteed_mean_ratio:.4f}, eq. 4)",
                f"  risk ratio P(N2>0)/P(N1>0)    {self.gain.risk_ratio:.4f}   (eq. 10)",
                f"  bound ratio at {self.confidence:.0%}            {self.gain.bound_ratio:.4f}"
                f"   (guaranteed <= {self.gain.guaranteed_bound_ratio:.4f}, eq. 12)",
                f"  equivalent beta factor        {self.gain.beta_factor:.4f}",
                f"  independence claim would give mu2 = {self.gain.independence_mean:.3e}; "
                f"model gives {self.gain.mean_pair:.3e}"
                + (" (worse than independence)" if self.gain.independence_is_optimistic else ""),
            ]
        )
        return "\n".join(lines)


def _assess_system(
    label: str,
    model: FaultModel,
    versions: int,
    confidence: float,
    moments: dict,
    exact: dict,
    normal: dict,
) -> SystemAssessment:
    """Assemble one system's assessment from registry-method metrics."""
    suffix = "single" if versions == 1 else "system"
    exact_claim = ConfidenceClaim(
        bound=max(exact["exact_percentile"], 0.0),
        confidence=confidence,
        method="exact-distribution",
    )
    normal_claim = ConfidenceClaim(
        bound=max(normal[f"normal_bound_{suffix}"], 0.0),
        confidence=confidence,
        method="normal-approximation",
    )
    return SystemAssessment(
        label=label,
        mean_pfd=moments[f"mean_{suffix}"],
        std_pfd=moments[f"std_{suffix}"],
        prob_any_fault=prob_any_common_fault(model, versions),
        exact_claim=exact_claim,
        normal_claim=normal_claim,
        normal_error_bound=normal[f"berry_esseen_{suffix}"],
        sil=sil_for_pfd(exact_claim.bound),
    )


def assess(model: FaultModel, confidence: float = 0.99) -> AssessmentReport:
    """Produce the full assessment report for a fault-creation model.

    The metric values are obtained through the unified evaluation API (one
    ``evaluate_batch`` over the ``moments``, ``exact`` and ``normal``
    registered methods), so they are bitwise the numbers ``repro evaluate``
    and study tables report for the same model and options.

    Parameters
    ----------
    model:
        The fault-creation model describing the development process and the
        problem's potential faults.
    confidence:
        Confidence level used for every bound in the report.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    moments, exact_single, exact_pair, normal = (
        result.metric_dict()
        for result in evaluate_batch(
            model,
            [
                ("moments", {"versions": 2}),
                ("exact", {"versions": 1, "level": confidence}),
                ("exact", {"versions": 2, "level": confidence}),
                ("normal", {"versions": 2, "confidence": confidence}),
            ],
        )
    )
    single = _assess_system(
        "Single version", model, 1, confidence, moments, exact_single, normal
    )
    pair = _assess_system(
        "1-out-of-2 diverse system", model, 2, confidence, moments, exact_pair, normal
    )
    return AssessmentReport(
        model=model,
        confidence=confidence,
        single=single,
        pair=pair,
        gain=diversity_gain_summary(model, confidence),
    )
