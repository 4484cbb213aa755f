"""The lattice bracket of the PFD contains the full-support distribution.

Past ``max_support`` the PFD distribution is computed as two integer folds
on one lattice (:func:`repro.stats.discrete.bracket_two_points`): a lower
fold that rounds every ``q_i`` down and an upper fold that rounds every
``q_i`` up.  Outcome by outcome lower <= PFD <= upper, so every quantile and
every exceedance of the true distribution -- computed here with the full
support, ``max_support=None`` -- must fall inside the reported ``[lo, hi]``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.fault_model import FaultModel
from repro.core.pfd_distribution import exact_pfd_distribution, prob_pfd_zero

LEVELS = (0.5, 0.9, 0.99, 0.999)


@st.composite
def fault_models(draw, max_faults: int = 16):
    n = draw(st.integers(min_value=1, max_value=max_faults))
    unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    p = draw(hnp.arrays(dtype=float, shape=n, elements=unit))
    q = draw(hnp.arrays(dtype=float, shape=n, elements=unit))
    total = q.sum()
    return FaultModel(p=p, q=q / total if total > 1.0 else q)


class TestBracketContainsTheFullSupport:
    @given(
        fault_models(),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=2, max_value=64),
    )
    @settings(max_examples=200, deadline=None)
    def test_quantiles_are_contained(self, model, versions, max_support):
        truth = exact_pfd_distribution(model, versions, max_support=None).exact
        bracket = exact_pfd_distribution(model, versions, max_support=max_support)
        for level, (low, high) in zip(LEVELS, bracket.quantiles(LEVELS)):
            assert low <= truth.quantile(level) <= high

    @given(
        fault_models(),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=2, max_value=64),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_exceedances_are_contained(self, model, versions, max_support, data):
        truth = exact_pfd_distribution(model, versions, max_support=None).exact
        bracket = exact_pfd_distribution(model, versions, max_support=max_support)
        thresholds = data.draw(
            st.lists(st.sampled_from(truth.support.tolist()), min_size=1, max_size=6)
        )
        for threshold in thresholds:
            low, high = bracket.survival(threshold)
            assert low <= truth.survival(threshold) <= high


class TestBracketEnds:
    def test_upper_zero_atom_is_the_closed_form(self):
        for seed, versions in ((1, 1), (2, 2), (3, 3)):
            model = FaultModel.random(np.random.default_rng(seed), n=60)
            bracket = exact_pfd_distribution(model, versions, max_support=64)
            assert not bracket.is_exact
            expected = prob_pfd_zero(model, versions)
            assert bracket.upper_weights[0] == pytest.approx(expected, rel=1e-12)
            assert bracket.upper().prob_zero() == pytest.approx(expected, rel=1e-12)

    def test_full_support_that_fits_is_returned_exactly(self):
        model = FaultModel.random(np.random.default_rng(4), n=10)
        full = exact_pfd_distribution(model, 2, max_support=None).exact
        assert full.support.size <= 2**10
        bracket = exact_pfd_distribution(model, 2, max_support=2**10)
        assert bracket.is_exact
        for distribution in (bracket.lower(), bracket.upper()):
            assert distribution.support.tobytes() == full.support.tobytes()
            assert distribution.probabilities.tobytes() == full.probabilities.tobytes()
        for level, (low, high) in zip(LEVELS, bracket.quantiles(LEVELS)):
            assert low == high == full.quantile(level)
        for threshold in full.support[::97]:
            assert bracket.survival(threshold) == (full.survival(threshold),) * 2

    def test_overflow_sits_at_the_total_impact(self):
        # A lattice much shorter than the attainable range: mass folded past
        # it lands on one atom at sum(q), which no outcome exceeds.
        model = FaultModel(p=np.full(12, 0.9), q=np.linspace(0.01, 0.12, 12))
        bracket = exact_pfd_distribution(model, 1, max_support=2)
        assert bracket.overflow > 0.0
        assert bracket.ceiling == pytest.approx(model.q.sum())
        assert bracket.quantile(1.0)[1] == bracket.ceiling
        assert bracket.upper().support[-1] == bracket.ceiling
