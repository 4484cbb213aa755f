"""Monte Carlo records agree with the closed forms, within five standard errors.

Every ``montecarlo`` record -- a lone ``evaluate`` of ``model.rescaled(k)``
and each point of a ``p_scale`` sweep over ``model`` -- is checked against
the analytic moments of the rescaled model (:func:`pfd_moments`) and, where
the record has it, the closed-form ``P(PFD = 0)``:

* ``|mc_mean_system - mean| <= 5 * mc_std_system / sqrt(R)``, and the same
  for ``mc_mean_single`` when the record carries it (two versions);
* ``mc_prob_pfd_zero`` lies within five binomial standard errors of
  ``prob_pfd_zero``.

The seeds are fixed, so a pass is reproducible; the replication counts are
chosen so that every tally sees faults (a zero sample deviation would make
the bound vacuous).  A sampler whose presence probabilities or thresholds
are biased fails here by many standard errors.
"""

from __future__ import annotations

import math

import pytest

from repro.api import evaluate, evaluate_sweep
from repro.core.moments import pfd_moments
from repro.core.pfd_distribution import prob_pfd_zero
from repro.experiments.scenarios import get_scenario

SCALES = (0.5, 1.0, 2.0)
SEED = 20010704
#: Replications per scenario: the two small scenarios see about ten
#: three-version common faults at ``p_scale`` 0.5.
REPLICATIONS = {
    "high-quality": 500_000,
    "many-small-faults": 50_000,
    "protection-system": 700_000,
}
CASES = [(name, versions) for name in REPLICATIONS for versions in (1, 2, 3)]


def assert_consistent(record: dict, model, versions: int) -> None:
    replications = record["mc_replications"]
    root = math.sqrt(replications)
    sides = [("system", versions)]
    if "mc_mean_single" in record:
        sides.append(("single", 1))
    for side, order in sides:
        std = record[f"mc_std_{side}"]
        assert std > 0.0, f"{side}: no fault sampled, the bound is vacuous"
        mean = pfd_moments(model, order).mean
        assert abs(record[f"mc_mean_{side}"] - mean) <= 5.0 * std / root, side
    if "mc_prob_pfd_zero" in record:
        truth = prob_pfd_zero(model, versions)
        error = math.sqrt(truth * (1.0 - truth) / replications)
        assert abs(record["mc_prob_pfd_zero"] - truth) <= 5.0 * error


@pytest.mark.parametrize(("scenario", "versions"), CASES)
def test_lone_records_match_the_closed_forms(scenario, versions):
    model = get_scenario(scenario)
    for scale in SCALES:
        scaled = model.rescaled(scale)
        record = evaluate(
            scaled,
            "montecarlo",
            seed=SEED,
            versions=versions,
            replications=REPLICATIONS[scenario],
        ).metric_dict()
        assert_consistent(record, scaled, versions)


@pytest.mark.parametrize(("scenario", "versions"), CASES)
def test_sweep_points_match_the_closed_forms(scenario, versions):
    model = get_scenario(scenario)
    results = evaluate_sweep(
        model,
        "montecarlo",
        [{"p_scale": scale} for scale in SCALES],
        seed=SEED,
        versions=versions,
        replications=REPLICATIONS[scenario],
    )
    for scale, result in zip(SCALES, results):
        assert_consistent(result.metric_dict(), model.rescaled(scale), versions)
