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
from ebmix.inference import fdr_curve
from ebmix.mixture import em_fit


def scenario_obs(seed=0):
    deltas = fdr_scenario_deltas(seed)
    return Observations.normal(fdr_scenario_sample(deltas, seed, 0))


def small_plan(candidates, n_bootstrap=2, n_perturbed=2):
    return CalibrationPlan(
        candidates=np.asarray(candidates, dtype=float),
        n_perturbed=n_perturbed,
        n_bootstrap=n_bootstrap,
    )


class TestDefaultPlan:
    def test_candidate_range_for_n1000(self):
        plan = default_plan(1000)
        assert plan.candidates.size == 20
        np.testing.assert_allclose(plan.candidates[0], 100.0)
        np.testing.assert_allclose(plan.candidates[-1], 500.0)
        np.testing.assert_allclose(np.diff(plan.candidates), 400.0 / 19.0)

    def test_degenerate_range_rejected(self):
        with pytest.raises(DegenerateRangeError):
            default_plan(200)

    def test_large_n_preliminary(self, monkeypatch):
        """The preliminary fit takes the fit's default penalty N/5, whatever the base config sets."""
        seen = []

        def record_and_stop(data, config):
            seen.append(config.penalty_vector(len(data))[0])
            raise FitError("stop after the preliminary fit")

        monkeypatch.setattr(calibration, "em_fit", record_and_stop)
        obs = Observations.normal(np.linspace(-3.0, 3.0, 10000))
        with pytest.raises(FitError):
            calibrate_penalty(obs, FitConfig(n_components=3, penalty=7.0), default_plan(10000))
        assert seen == [2000.0]

    def test_plan_shape(self):
        plan = default_plan(1000)
        assert plan.n_perturbed == 4 and plan.n_bootstrap == 20
        assert calibration.NULL_MEAN_JITTER == 0.05
        assert calibration.NULL_SD_SCALES == (0.95, 1.0, 1.05, 1.1)


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
        base = FitConfig(n_components=3, null_mode=NullMode.EMPIRICAL, n_restarts=1, rel_tol=1e-6, seed=5)
        plan = small_plan([120.0, 400.0])
        a = calibrate_penalty(obs, base, plan)
        b = calibrate_penalty(obs, base, plan)
        assert a.chosen_penalty == b.chosen_penalty
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_each_generator_curve_computed_once(self, monkeypatch):
        """K L B + L fdr curves: one per fitted cell and one per generator, not two per cell."""
        calls = []

        def counted(model, *args, **kwargs):
            calls.append(model)
            return fdr_curve(model, *args, **kwargs)

        monkeypatch.setattr(calibration, "fdr_curve", counted)
        obs = scenario_obs()
        base = FitConfig(n_components=3, null_mode=NullMode.EMPIRICAL, n_restarts=1, rel_tol=1e-6)
        plan = small_plan([120.0, 400.0], n_bootstrap=2, n_perturbed=2)
        result = calibrate_penalty(obs, base, plan)
        assert not result.failed.any()
        assert len(calls) == 2 * 2 * 2 + 2

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
                n_perturbed=1,
                n_bootstrap=1,
            )
        with pytest.raises(ContractError):
            small_plan([100.0], n_perturbed=5)  # more perturbed models than scales

    @pytest.mark.parametrize(
        "field, value",
        [("n_bootstrap", 1.5), ("n_bootstrap", 2.0), ("n_bootstrap", True), ("n_perturbed", 1.0), ("n_perturbed", False)],
    )
    def test_plan_counts_must_be_integers(self, field, value):
        """Refused when the plan is made, not after calibrate_penalty's preliminary fit; a bool is not 1 or 0."""
        with pytest.raises(ContractError, match=f"^{field} must be an integer, got {value!r}$"):
            small_plan([100.0], **{field: value})

    def test_numpy_integer_plan_counts_accepted(self):
        plan = small_plan([100.0], n_bootstrap=np.int64(2), n_perturbed=np.int32(1))
        assert (plan.n_bootstrap, plan.n_perturbed) == (2, 1)
