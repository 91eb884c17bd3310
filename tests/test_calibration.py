"""Penalty calibration plumbing: plans, perturbations, determinism."""

import dataclasses

import numpy as np
import pytest

from ebmix import (
    CalibrationPlan,
    ContractError,
    DegenerateRangeError,
    FitConfig,
    FitError,
    NullMode,
    Observations,
    UnsupportedError,
    calibrate_penalty,
    default_plan,
)
from ebmix import calibration
from ebmix.calibration import perturb_null, perturbed_models
from ebmix.harness import fdr_scenario_deltas, fdr_scenario_sample
from ebmix.mixture import em_fit


def scenario_obs(seed=0):
    deltas = fdr_scenario_deltas(seed)
    return Observations.normal(fdr_scenario_sample(deltas, seed, 0))


def small_plan(candidates, seed=0, n_bootstrap=2, n_perturbed=2):
    return CalibrationPlan(
        candidates=np.asarray(candidates, dtype=float),
        preliminary_penalty=200.0,
        n_perturbed=n_perturbed,
        n_bootstrap=n_bootstrap,
        null_mean_jitter=0.05,
        null_sd_scales=(0.95, 1.0, 1.05, 1.1),
        seed=seed,
    )


class TestDefaultPlan:
    def test_candidate_range_for_n1000(self):
        plan = default_plan(1000)
        assert plan.candidates.size == 20
        np.testing.assert_allclose(plan.candidates[0], 100.0)
        np.testing.assert_allclose(plan.candidates[-1], 500.0)
        np.testing.assert_allclose(np.diff(plan.candidates), 400.0 / 19.0)
        assert plan.preliminary_penalty == 200.0

    def test_degenerate_range_rejected(self):
        with pytest.raises(DegenerateRangeError):
            default_plan(200)

    def test_large_n_preliminary(self):
        assert default_plan(10000).preliminary_penalty == 2000.0

    def test_plan_shape(self):
        plan = default_plan(1000)
        assert plan.n_perturbed == 4 and plan.n_bootstrap == 20
        assert plan.null_mean_jitter == 0.05
        assert plan.null_sd_scales == (0.95, 1.0, 1.05, 1.1)


class TestPerturbations:
    def test_null_sd_scale_acts_on_prior_sd(self):
        obs = scenario_obs()
        config = FitConfig(n_components=3, penalty=200.0, null_mode=NullMode.EMPIRICAL, n_restarts=1)
        model = em_fit(obs, config)
        pert = perturb_null(model, mean_shift=0.05, sd_scale=1.1)
        c0, p0 = model.components[0], pert.components[0]
        np.testing.assert_allclose(p0.mean, c0.mean + 0.05)
        np.testing.assert_allclose(p0.var, 1.1**2 * c0.var)
        assert pert.components[1:] == model.components[1:]

    def test_jitter_alternates_sign(self):
        obs = scenario_obs()
        config = FitConfig(n_components=3, penalty=200.0, null_mode=NullMode.EMPIRICAL, n_restarts=1)
        model = em_fit(obs, config)
        gens = perturbed_models(model, default_plan(1000))
        shifts = [g.components[0].mean - model.components[0].mean for g in gens]
        np.testing.assert_allclose(shifts, [0.05, -0.05, 0.05, -0.05])

    def test_theoretical_null_perturbation_becomes_empirical(self):
        obs = scenario_obs()
        model = em_fit(obs, FitConfig(n_components=3, penalty=50.0, n_restarts=1))
        pert = perturb_null(model, mean_shift=0.05, sd_scale=1.0)
        assert pert.null_mode is NullMode.EMPIRICAL

    def test_theoretical_null_scaled_in_place_stays_theoretical(self):
        obs = scenario_obs()
        model = em_fit(obs, FitConfig(n_components=3, penalty=50.0, n_restarts=1))
        pert = perturb_null(model, mean_shift=0.0, sd_scale=1.1)
        assert pert.components[0].var == 0.0
        assert pert.null_mode is NullMode.THEORETICAL


class TestCalibratePenalty:
    def test_single_candidate_returned(self):
        obs = scenario_obs()
        base = FitConfig(n_components=3, null_mode=NullMode.EMPIRICAL, n_restarts=1, rel_tol=1e-6)
        result = calibrate_penalty(obs, base, small_plan([150.0], n_bootstrap=1, n_perturbed=1))
        assert result.chosen_penalty == 150.0
        assert result.scores.shape == (1, 1)

    def test_score_table_shape_and_membership(self):
        obs = scenario_obs()
        base = FitConfig(n_components=3, null_mode=NullMode.EMPIRICAL, n_restarts=1, rel_tol=1e-6)
        plan = small_plan([100.0, 300.0, 500.0], n_bootstrap=2, n_perturbed=2)
        result = calibrate_penalty(obs, base, plan)
        assert result.scores.shape == (3, 4)
        assert np.all(np.isfinite(result.scores) | result.failed)
        assert result.chosen_penalty in plan.candidates
        rows = list(result.rows())
        assert len(rows) == 12

    def test_deterministic(self):
        obs = scenario_obs()
        base = FitConfig(n_components=3, null_mode=NullMode.EMPIRICAL, n_restarts=1, rel_tol=1e-6)
        plan = small_plan([120.0, 400.0], seed=5)
        a = calibrate_penalty(obs, base, plan)
        b = calibrate_penalty(obs, base, plan)
        assert a.chosen_penalty == b.chosen_penalty
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_ties_break_to_larger_penalty(self):
        # duplicate candidates produce identical columns, so an exact tie
        obs = scenario_obs()
        base = FitConfig(n_components=3, null_mode=NullMode.EMPIRICAL, n_restarts=1, rel_tol=1e-6)
        plan = small_plan([250.0, 250.0], n_bootstrap=1, n_perturbed=1)
        result = calibrate_penalty(obs, base, plan)
        assert result.chosen_penalty == 250.0

    def test_binomial_unsupported(self):
        obs = Observations.binomial([1, 2, 3], [5, 5, 5])
        base = FitConfig(n_components=1, null_mode=NullMode.NONE, n_restarts=1)
        with pytest.raises(UnsupportedError):
            calibrate_penalty(obs, base, small_plan([10.0, 20.0]))

    def test_failed_fit_scores_worst(self, monkeypatch):
        def em_fit_failing_at_300(data, config):
            if config.penalty == 300.0:
                raise FitError("forced failure")
            return em_fit(data, config)

        monkeypatch.setattr(calibration, "em_fit", em_fit_failing_at_300)
        obs = scenario_obs()
        base = FitConfig(n_components=3, null_mode=NullMode.EMPIRICAL, n_restarts=1, rel_tol=1e-6)
        result = calibrate_penalty(obs, base, small_plan([150.0, 300.0], n_bootstrap=1, n_perturbed=1))
        np.testing.assert_array_equal(result.failed, [[False], [True]])
        assert result.scores[1, 0] == 1.0
        assert result.scores[0, 0] < 1.0
        assert result.chosen_penalty == 150.0

    def test_plan_validation(self):
        with pytest.raises(ContractError):
            CalibrationPlan(
                candidates=np.array([]),
                preliminary_penalty=100.0,
                n_perturbed=1,
                n_bootstrap=1,
                null_mean_jitter=0.05,
                null_sd_scales=(1.0,),
            )
        with pytest.raises(ContractError):
            small_plan([100.0], n_perturbed=5)  # more perturbed models than scales
