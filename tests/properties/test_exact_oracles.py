"""Cross-method oracles for the exact PFD distribution.

* The zero atom is exact: ``tail_prob_zero`` is the closed form
  ``prod(1 - p_i^r)`` over faults with ``q_i > 0`` -- the ``moments``
  method's ``prob_pfd_zero_system`` -- and every quantile at a level at or
  below it is 0, however coarse the support cap.
* ``exact`` agrees with ``moments`` on the mean, and ``montecarlo`` lands
  within four standard errors of it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import evaluate
from repro.core.fault_model import FaultModel
from repro.core.pfd_distribution import pfd_percentile
from repro.experiments.scenarios import many_small_faults_scenario


def random_model(seed: int, n: int) -> FaultModel:
    rng = np.random.default_rng(seed)
    return FaultModel.random(rng, n=n, p_range=(0.005, 0.2), total_impact=0.4)


class TestZeroAtom:
    def test_many_small_faults_percentile_is_zero(self):
        # P(PFD = 0) = 0.99821 here, so the 99th percentile is 0; a capped
        # distribution alone reads 9.9e-10 at the default cap.
        model = many_small_faults_scenario(n=200).rescaled(0.1)
        moments = evaluate(model, "moments")
        assert moments["prob_pfd_zero_system"] == pytest.approx(0.99821, abs=1e-5)
        assert evaluate(model, "exact")["exact_percentile"] == 0.0
        tail = evaluate(model, "tail-quantile")
        assert tail["tail_prob_zero"] == moments["prob_pfd_zero_system"]
        assert tail["tail_quantile"] == tail["tail_median"] == tail["tail_q99"] == 0.0
        assert pfd_percentile(model, 0.99, versions=2) == 0.0

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 120),
        p_scale=st.floats(0.001, 0.3),
        fraction=st.floats(0.0, 1.0),
        versions=st.integers(1, 3),
        max_support=st.sampled_from([8, 64, 4096]),
    )
    @settings(max_examples=60, deadline=None)
    def test_quantiles_below_the_zero_atom_are_zero(
        self, seed, n, p_scale, fraction, versions, max_support
    ):
        model = random_model(seed, n).rescaled(p_scale)
        prob_zero = evaluate(model, "moments", versions=versions)["prob_pfd_zero_system"]
        level = fraction * prob_zero
        options = {"versions": versions, "max_support": max_support, "level": level}
        exact = evaluate(model, "exact", options=options)
        tail = evaluate(model, "tail-quantile", options=options)
        assert exact["exact_percentile"] == 0.0
        assert tail["tail_quantile"] == 0.0
        assert tail["tail_prob_zero"] == prob_zero
        for key, named_level in (("tail_median", 0.5), ("tail_q90", 0.9), ("tail_q99", 0.99)):
            if named_level <= prob_zero:
                assert tail[key] == 0.0


class TestCrossMethodOracle:
    @pytest.mark.parametrize("seed,n,versions", [(1, 20, 2), (2, 80, 2), (3, 200, 2), (4, 60, 1)])
    def test_exact_moments_and_montecarlo_agree(self, seed, n, versions):
        model = random_model(seed, n)
        moments = evaluate(model, "moments", versions=versions)
        exact = evaluate(model, "exact", versions=versions)
        tail = evaluate(model, "tail-quantile", versions=versions)
        assert exact["exact_mean"] == pytest.approx(moments["mean_system"], rel=1e-9)
        assert tail["tail_prob_zero"] == moments["prob_pfd_zero_system"]
        replications = 20_000
        mc = evaluate(model, "montecarlo", versions=versions, replications=replications, seed=seed)
        standard_error = mc["mc_std_system"] / np.sqrt(replications)
        assert abs(mc["mc_mean_system"] - exact["exact_mean"]) <= 4.0 * standard_error
