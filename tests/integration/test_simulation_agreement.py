"""Integration tests: Monte Carlo simulation versus the analytic model.

These tests close the loop across subpackages: the analytic formulas of
:mod:`repro.core`, the fault-creation simulation of :mod:`repro.versions` /
:mod:`repro.montecarlo`, and the demand-space geometry of
:mod:`repro.demandspace` must all tell the same story.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adjudication.architectures import NVersionSystem
from repro.core.fault_model import FaultModel
from repro.core.moments import pfd_moments
from repro.core.no_common_faults import risk_ratio
from repro.core.pfd_distribution import exact_pfd_distribution
from repro.core.system import OneOutOfTwoSystem
from repro.experiments.scenarios import protection_system_scenario
from repro.montecarlo.engine import MonteCarloEngine
from repro.versions.generation import IndependentDevelopmentProcess


@pytest.fixture(scope="module")
def moderate_model() -> FaultModel:
    return FaultModel(
        p=np.array([0.25, 0.15, 0.1, 0.05]),
        q=np.array([0.05, 0.1, 0.02, 0.2]),
    )


class TestAnalyticVersusSimulation:
    def test_headline_quantities_agree(self, moderate_model: FaultModel):
        comparison = MonteCarloEngine(moderate_model).compare_with_analytic(150_000, rng=0)
        for key in ("mean_single", "mean_system"):
            entry = comparison[key]
            assert entry["simulated"] == pytest.approx(
                entry["analytic"], abs=5 * entry["standard_error"]
            )
        for key in ("std_single", "std_system", "prob_any_fault", "prob_any_common_fault"):
            entry = comparison[key]
            assert entry["simulated"] == pytest.approx(entry["analytic"], rel=0.05)

    def test_risk_ratio_agreement(self, moderate_model: FaultModel):
        result = MonteCarloEngine(moderate_model).simulate_paired(150_000, rng=1)
        assert result.risk_ratio() == pytest.approx(risk_ratio(moderate_model), rel=0.05)

    def test_exact_distribution_matches_simulation_cdf(self, moderate_model: FaultModel):
        distribution = exact_pfd_distribution(moderate_model, 2, max_support=None).exact
        samples = OneOutOfTwoSystem(moderate_model).sample_pfd(np.random.default_rng(2), 200_000)
        for threshold in (0.0, 0.02, 0.05, 0.1, 0.2):
            empirical = float(np.mean(samples <= threshold))
            assert distribution.cdf(threshold) == pytest.approx(empirical, abs=0.01)


class TestGeometryConsistency:
    def test_protection_scenario_end_to_end(self):
        """Fault model derived from geometry == architecture simulation == formulas."""
        scenario = protection_system_scenario(rng=11)
        process = IndependentDevelopmentProcess(scenario.model)
        rng = np.random.default_rng(3)

        # Develop many pairs; compare the average simulated *demand-level*
        # system failure rate against the analytic mean system PFD.
        pair_count, demands_per_pair = 60, 4_000
        failure_rates = []
        analytic_pair_pfds = []
        for _ in range(pair_count):
            pair = process.sample_pair(rng)
            system = NVersionSystem(
                [pair.channel_a, pair.channel_b], scenario.regions, scenario.profile
            )
            simulated = system.simulate(rng, demands_per_pair)
            failure_rates.append(simulated.system_pfd_estimate)
            analytic_pair_pfds.append(pair.system_pfd())
        simulated_mean = float(np.mean(failure_rates))
        analytic_mean = pfd_moments(scenario.model, 2).mean
        per_pair_mean = float(np.mean(analytic_pair_pfds))

        # The demand-level simulation should agree with the per-pair analytic
        # PFDs it realised, and the per-pair values should be in the right
        # ballpark of the population mean (they are a small sample of a very
        # skewed distribution, hence the loose tolerance).
        assert simulated_mean == pytest.approx(per_pair_mean, abs=2e-3)
        assert abs(per_pair_mean - analytic_mean) < 0.02

    def test_single_channel_demand_simulation_matches_version_pfd(self):
        scenario = protection_system_scenario(rng=11)
        process = IndependentDevelopmentProcess(scenario.model)
        rng = np.random.default_rng(4)
        version = None
        # Find a version with at least one fault so the comparison is non-trivial.
        for _ in range(200):
            candidate = process.sample_version(rng)
            if not candidate.is_fault_free():
                version = candidate
                break
        assert version is not None
        system = NVersionSystem([version], scenario.regions, scenario.profile)
        result = system.simulate(rng, 60_000)
        assert result.system_pfd_estimate == pytest.approx(
            version.pfd(), abs=max(5 * result.system_pfd_standard_error, 2e-3)
        )
