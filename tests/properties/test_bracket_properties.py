"""The lattice bracket of the PFD contains the full-support distribution.

Past ``max_support`` the PFD distribution is computed as two integer folds
on one lattice (:func:`repro.stats.discrete.bracket_two_points`): a lower
fold that rounds every ``q_i`` down and an upper fold that rounds every
``q_i`` up.  Outcome by outcome lower <= PFD <= upper, so every quantile and
every exceedance of the true distribution -- computed here with the full
support, ``max_support=None`` -- must fall inside the reported ``[lo, hi]``.

With a ``reach`` -- the highest quantile level the caller reads -- each fold
stops at the cell past which Cantelli's one-sided inequality shows that
level cannot lie.  The cut bracket must still contain the full-support
distribution at every level and threshold.  Every quantile at a level up to
the reach should also read bit for bit as on the full lattice: every cell
below the cut is folded by the same operations, but the shorter lattice
sums its normaliser over fewer cells, and a rounding there could move a
cumulative weight that sits within a few ulps of a ``level +- slack``
boundary.  No model has shown that, so the equality property runs
derandomized, on the same examples every run, plus pinned ones.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.fault_model import FaultModel
from repro.core.pfd_distribution import exact_pfd_distribution, prob_pfd_zero

LEVELS = (0.5, 0.9, 0.99, 0.999)

_unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def fault_models(draw, max_faults: int = 16):
    n = draw(st.integers(min_value=1, max_value=max_faults))
    p = draw(hnp.arrays(dtype=float, shape=n, elements=_unit))
    q = draw(hnp.arrays(dtype=float, shape=n, elements=_unit))
    total = q.sum()
    return FaultModel(p=p, q=q / total if total > 1.0 else q)


@st.composite
def lattice_models(draw):
    """Models whose support passes 4096 points: 20 to 150 distinct faults present."""
    n = draw(st.integers(min_value=20, max_value=150))
    p = draw(hnp.arrays(dtype=float, shape=n, elements=st.floats(1e-3, 0.5)))
    q = draw(hnp.arrays(dtype=float, shape=n, elements=st.floats(1e-6, 1.0), unique=True))
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


class TestReachCut:
    @given(
        lattice_models(),
        st.integers(min_value=1, max_value=3),
        st.sampled_from([64, 512, 4096]),
        _unit,
        st.lists(_unit, min_size=1, max_size=6),
    )
    @example(  # the benchmark's ``cold_mix`` shape at the default reach
        FaultModel.random(np.random.default_rng(0), n=100, p_range=(0.001, 0.1),
                          total_impact=0.5),
        2, 4096, 0.99, [0.5, 0.9],
    )
    @example(FaultModel.random(np.random.default_rng(3), n=80), 1, 512, 0.999, [0.99, 0.5])
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_quantiles_up_to_the_reach_equal_the_full_lattices(
        self, model, versions, max_support, reach, levels
    ):
        full = exact_pfd_distribution(model, versions, max_support)
        cut = exact_pfd_distribution(model, versions, max_support, reach=reach)
        assert not full.is_exact
        assert cut.upper_weights.size <= full.upper_weights.size
        assert cut.lower_weights.size <= full.lower_weights.size
        read = [level for level in levels if level <= reach] + [reach]
        assert cut.quantiles(read) == full.quantiles(read)

    @given(
        fault_models(),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=2, max_value=64),
        _unit,
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_the_cut_bracket_contains_the_full_support(
        self, model, versions, max_support, reach, data
    ):
        truth = exact_pfd_distribution(model, versions, max_support=None).exact
        cut = exact_pfd_distribution(model, versions, max_support, reach=reach)
        levels = [*LEVELS, *data.draw(st.lists(_unit, max_size=4)), reach]
        for level, (low, high) in zip(levels, cut.quantiles(levels)):
            assert low <= truth.quantile(level) <= high
        thresholds = data.draw(
            st.lists(st.sampled_from(truth.support.tolist()), min_size=1, max_size=6)
        )
        for threshold in thresholds:
            low, high = cut.survival(threshold)
            assert low <= truth.survival(threshold) <= high

    def test_a_reach_of_one_folds_the_full_lattice(self):
        model = FaultModel.random(np.random.default_rng(3), n=80)
        full = exact_pfd_distribution(model, 2, 4096)
        whole = exact_pfd_distribution(model, 2, 4096, reach=1.0)
        cut = exact_pfd_distribution(model, 2, 4096, reach=0.99)
        np.testing.assert_array_equal(whole.upper_weights, full.upper_weights)
        np.testing.assert_array_equal(whole.lower_weights, full.lower_weights)
        assert cut.upper_weights.size < full.upper_weights.size
        assert cut.support_size < full.support_size
