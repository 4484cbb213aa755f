"""Monte Carlo quantiles lie inside the exact bracket, widened by a DKW band.

By the Dvoretzky-Kiefer-Wolfowitz inequality with Massart's constant
(Ann. Probab. 18, 1990), the empirical CDF of R replications is within

    eps = sqrt(ln(2 / alpha) / (2 R))

of the true CDF everywhere, except with probability at most ``alpha``.  The
empirical ``q`` quantile then lies between the true ``q - eps`` and
``q + eps`` quantiles, which the exact kernel brackets by ``lo`` and ``hi``
(:func:`pfd_quantiles` on :func:`exact_pfd_distribution`, with the
closed-form ``P(PFD = 0)``).  The streaming histogram reports the upper edge
of the bin holding the empirical quantile, so one bin width ``w`` widens
both ends:

    lo(q - eps) - w  <=  pfd_percentile(q)  <=  hi(q + eps) + w.

``alpha = 1e-6`` and the seeds are fixed, so a pass is reproducible and a
failure is a biased sampler or a wrong bracket, not bad luck.
"""

from __future__ import annotations

import math

import pytest

from repro.core.pfd_distribution import exact_pfd_distribution, pfd_quantiles, prob_pfd_zero
from repro.experiments.scenarios import get_scenario
from repro.montecarlo.engine import MonteCarloEngine

REPLICATIONS = 50_000
ALPHA = 1e-6
LEVELS = (0.9, 0.99)
SEEDS = {"high-quality": 11, "many-small-faults": 12, "protection-system": 13}


@pytest.mark.parametrize("scenario", sorted(SEEDS))
def test_streamed_quantiles_lie_in_the_widened_exact_bracket(scenario):
    model = get_scenario(scenario)
    pair = MonteCarloEngine(model).simulate_paired_streaming(REPLICATIONS, SEEDS[scenario])
    eps = math.sqrt(math.log(2.0 / ALPHA) / (2.0 * REPLICATIONS))
    for versions, side in ((1, pair.single), (2, pair.system)):
        bracket = exact_pfd_distribution(model, versions)
        prob_zero = prob_pfd_zero(model, versions)
        width = float(side.pfd_histogram.edges[1] - side.pfd_histogram.edges[0])
        for level in LEVELS:
            below = max(0.0, level - eps)
            above = min(1.0, level + eps)
            (lo, _), (_, hi) = pfd_quantiles(bracket, (below, above), prob_zero)
            value = side.pfd_percentile(level)
            assert lo - width <= value <= hi + width, (versions, level, lo, value, hi)
