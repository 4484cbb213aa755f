"""E10 -- Section 5's caveat: how good is the normal approximation?

The paper uses the central limit theorem to approximate the PFD distribution
but warns that "as this is an asymptotic result, we will not know in practice
how good an approximation it is in a specific case".  This bench quantifies
the approximation error -- exact distribution versus normal approximation
versus Berry-Esseen bound -- across the fault-count regimes, and confirms the
paper's implicit expectation that the approximation is poor in the Section 4
regime (few, unlikely faults) and respectable in the Section 5 regime (many
small faults).

The exact distribution is a guaranteed bracket ``[lo, hi]``
(:func:`~repro.core.pfd_distribution.exact_pfd_distribution`), so every
verdict below holds for the true distribution, not for a point estimate: a
confidence bound is *conservative* when it is at or above the bracket's upper
quantile, *optimistic* when it is below its lower quantile, and *undecided*
otherwise.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import print_table
from repro.core.bounds import confidence_bound_from_bound
from repro.core.fault_model import FaultModel
from repro.core.normal_approximation import berry_esseen_error, normal_approximation
from repro.core.pfd_distribution import exact_pfd_distribution, pfd_quantiles, prob_pfd_zero
from repro.experiments.scenarios import high_quality_scenario, many_small_faults_scenario
from repro.stats.rng import default_rng


def _scenarios() -> dict[str, FaultModel]:
    return {
        "Section 4 regime (5 unlikely faults)": high_quality_scenario(),
        "Section 5 regime (200 small faults)": many_small_faults_scenario(n=200),
        "intermediate (50 faults)": FaultModel.random(
            default_rng(3), n=50, p_range=(0.05, 0.3), total_impact=0.6
        ),
    }


def _max_cdf_error(model: FaultModel, versions: int) -> tuple[float, float]:
    """Guaranteed ``(least, most)`` of max |exact CDF - normal CDF| over a threshold grid.

    At each threshold the exact CDF lies in ``[1 - hi, 1 - lo]`` for the
    bracketed exceedance ``(lo, hi)``; the error there is at least the
    normal CDF's distance to that interval and at most its distance to the
    farther end.
    """
    bracket = exact_pfd_distribution(model, versions, max_support=2048)
    approximation = normal_approximation(model, versions)
    least = most = 0.0
    for threshold in np.linspace(0.0, float(model.q.sum()), 400):
        low, high = bracket.survival(float(threshold))
        normal = approximation.confidence_of_bound(float(threshold))
        cdf_low, cdf_high = 1.0 - high, 1.0 - low
        least = max(least, cdf_low - normal, normal - cdf_high)
        most = max(most, abs(cdf_low - normal), abs(cdf_high - normal))
    return least, most


def _verdict(bound: float, low: float, high: float) -> str:
    """Whether a claimed confidence bound is conservative against the bracket ``[low, high]``."""
    if bound >= high:
        return "conservative"
    if bound < low:
        return "optimistic"
    return "undecided"


def test_e10_normal_approximation_accuracy(benchmark):
    scenarios = _scenarios()

    def workload():
        rows = []
        for name, model in scenarios.items():
            least, most = _max_cdf_error(model, 1)
            rows.append(
                (
                    name,
                    least,
                    most,
                    berry_esseen_error(model, 1),
                    _max_cdf_error(model, 2)[1],
                )
            )
        return rows

    rows = benchmark.pedantic(workload, rounds=1, iterations=1)
    print_table(
        "E10: normal-approximation error for the PFD distribution",
        [
            "scenario",
            "max CDF error >= (1 version)",
            "max CDF error <= (1 version)",
            "Berry-Esseen bound",
            "max CDF error <= (1oo2)",
        ],
        [list(row) for row in rows],
    )
    by_name = {row[0]: row for row in rows}
    few = by_name["Section 4 regime (5 unlikely faults)"]
    many = by_name["Section 5 regime (200 small faults)"]
    # The approximation is much better in the many-small-faults regime ...
    assert many[2] < few[1]
    # ... and is actually usable there (max CDF error below ~15%), while in the
    # few-faults regime it is hopeless (error of the order of the large
    # probability mass sitting at PFD = 0, several tens of percent).
    assert many[2] < 0.15
    assert few[1] > 0.3
    # The observed error never exceeds its Berry-Esseen bound (when finite).
    for _, _, observed, bound, _ in rows:
        if np.isfinite(bound):
            assert observed <= bound + 1e-9


def test_e10_bound_verdicts(benchmark):
    """Are the Section 5 normal bound and the eq. 12 guaranteed bound conservative?

    Both are 99% bounds on the 1-out-of-2 system's PFD, judged against the
    bracket of its exact 99% quantile.  Eq. 12 scales the single-version
    normal bound ``mu_1 + k sigma_1`` by ``sqrt(p_max (1 + p_max))``.
    """
    scenarios = _scenarios()

    def workload():
        rows = []
        for name, model in scenarios.items():
            bracket = exact_pfd_distribution(model, 2, max_support=2048)
            [(low, high)] = pfd_quantiles(bracket, [0.99], prob_pfd_zero(model, 2))
            normal = normal_approximation(model, 2).bound_for_confidence(0.99)
            guaranteed = confidence_bound_from_bound(
                normal_approximation(model, 1).bound_for_confidence(0.99), model.p_max
            )
            rows.append(
                (
                    name,
                    low,
                    high,
                    normal,
                    _verdict(normal, low, high),
                    guaranteed,
                    _verdict(guaranteed, low, high),
                )
            )
        return rows

    rows = benchmark.pedantic(workload, rounds=1, iterations=1)
    print_table(
        "E10: 99% bounds on the 1oo2 PFD against the exact quantile bracket",
        ["scenario", "exact lo", "exact hi", "normal", "verdict", "eq. 12", "verdict"],
        [list(row) for row in rows],
    )
    by_name = {row[0]: row for row in rows}
    # The eq. 12 guaranteed bound lives up to its name in every regime ...
    assert all(row[6] == "conservative" for row in rows)
    # ... while the normal bound is optimistic wherever the PFD has a real
    # right-skewed tail (and trivially conservative when the 99% quantile is
    # zero, as in the Section 4 regime).
    assert by_name["Section 5 regime (200 small faults)"][4] == "optimistic"
    assert by_name["intermediate (50 faults)"][4] == "optimistic"
    assert by_name["Section 4 regime (5 unlikely faults)"][4] == "conservative"


def test_e10_quantile_comparison(benchmark):
    """99% bounds: exact distribution vs normal approximation in the CLT regime."""
    model = many_small_faults_scenario(n=200)

    def workload():
        low, high = exact_pfd_distribution(model, 1, max_support=2048).quantile(0.99)
        approximate = normal_approximation(model, 1).bound_for_confidence(0.99)
        return low, high, approximate

    low, high, approximate = benchmark.pedantic(workload, rounds=1, iterations=1)
    print_table(
        "E10: 99% PFD bound, exact bracket vs normal (200-fault model)",
        ["exact lo", "exact hi", "normal approximation", "relative difference <="],
        [[low, high, approximate, (high - approximate) / high]],
    )
    # The normal bound is in the right ballpark but optimistic in the far
    # tail (the PFD distribution is right-skewed) -- below even the lower
    # end of the exact bracket, exactly the paper's caveat that the
    # approximation quality is unknown a priori.  With approximate < lo the
    # relative shortfall (x - approximate) / x grows with x, so its value at
    # hi bounds the true one.
    assert approximate < low
    assert (high - approximate) / high < 0.25
