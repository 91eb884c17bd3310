"""Posterior summaries, fdr/FDR curves, thresholds and Tweedie routes."""

import numpy as np
import pytest
from scipy.stats import norm

import oracles
from conftest import random_normal_model
from oracles import tweedie_continuous
from ebmix import (
    ContractError,
    MixtureModel,
    NoRejectionRegionError,
    NormalComponent,
    NullMode,
    Observations,
    UnsupportedError,
    fdr_curve,
    nearly_null_grouping,
    posterior_summary,
    rejection_threshold,
    tail_fdr_curve,
)
from ebmix.families import normal_logpdf


def pure_null_model():
    return MixtureModel(
        pi=np.array([1.0, 0.0]),
        components=(NormalComponent(0.0, 0.0), NormalComponent(2.0, 1.0)),
        null_mode=NullMode.THEORETICAL,
        penalty=np.zeros(2),
    )


class TestPosteriorSummary:
    def test_worked_example(self, two_component_model):
        """Frozen from the quadrature oracle (mixture_posterior_moments_quad)."""
        s = posterior_summary(Observations.normal([2.0]), two_component_model)
        np.testing.assert_allclose(s.fdr[0], 0.3085615459637724, atol=1e-9)
        np.testing.assert_allclose(s.effect_mean[0], 1.0371576810543417, atol=1e-9)
        np.testing.assert_allclose(s.effect_var[0], 0.9986193067386633, atol=1e-9)

    def test_matches_quadrature_on_grid(self, two_component_model):
        for z in (-3.0, -0.5, 0.0, 1.0, 4.0):
            s = posterior_summary(Observations.normal([z]), two_component_model)
            em, vm, wts = oracles.mixture_posterior_moments_quad(
                z, [0.5, 0.5], [(0.0, 0.0), (0.0, 3.0)]
            )
            np.testing.assert_allclose(s.effect_mean[0], em, atol=1e-7)
            np.testing.assert_allclose(s.effect_var[0], vm, atol=1e-7)
            np.testing.assert_allclose(s.fdr[0], wts[0], atol=1e-7)

    def test_all_null_grouping_degenerates(self, two_component_model):
        grouping = frozenset({0, 1})
        s = posterior_summary(Observations.normal([1.3]), two_component_model, grouping)
        np.testing.assert_allclose(s.fdr, 1.0, atol=1e-15)
        # effect mean still the full-prior posterior mean
        np.testing.assert_allclose(s.effect_mean[0], 0.75 * 1.3 * 0.5 / (0.5 * 1.0), atol=1.0)

    def test_tail_fdr_at_zero_is_null_mass(self, two_component_model):
        s = posterior_summary(Observations.normal([0.0]), two_component_model)
        np.testing.assert_allclose(s.tail_fdr[0], 0.5, atol=1e-14)

    def test_fdr_equals_null_weight_sum(self, two_component_model):
        rng = np.random.default_rng(4)
        obs = Observations.normal(rng.normal(size=100))
        s = posterior_summary(obs, two_component_model)
        np.testing.assert_allclose(s.fdr, s.weights[0], atol=1e-15)

    def test_weights_sum_to_one(self, two_component_model):
        rng = np.random.default_rng(5)
        obs = Observations.normal(rng.normal(size=100) * 3)
        s = posterior_summary(obs, two_component_model)
        np.testing.assert_allclose(s.weights.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(s.effect_var >= 0)
        assert np.all((0 <= s.fdr) & (s.fdr <= 1))
        assert np.all((0 <= s.tail_fdr) & (s.tail_fdr <= 1))

    def test_binomial_has_no_tail_fdr(self):
        from ebmix import BetaComponent

        model = MixtureModel(
            pi=np.array([1.0]),
            components=(BetaComponent.from_shapes(2.0, 5.0),),
            null_mode=NullMode.NONE,
            penalty=np.zeros(1),
        )
        s = posterior_summary(Observations.binomial([3], [10]), model)
        assert s.fdr is None and s.tail_fdr is None
        np.testing.assert_allclose(s.effect_mean[0], 5.0 / 17.0, rtol=1e-12)

    @pytest.mark.parametrize("family", ["normal", "normal-s2", "binomial"])
    def test_empty_batch_gives_empty_results(self, family):
        from ebmix import BetaComponent
        from ebmix.baseball import posterior_mean_arcsin

        if family == "binomial":
            comps, null_mode, obs = (
                (BetaComponent.from_shapes(2.0, 5.0), BetaComponent(0.3, 0.0)),
                NullMode.NONE,
                Observations.binomial([], []),
            )
        else:
            comps, null_mode = (NormalComponent(0.0, 0.0), NormalComponent(2.0, 1.0)), NullMode.THEORETICAL
            obs = Observations.normal([], s2=[] if family == "normal-s2" else 1.0)
        model = MixtureModel(pi=np.array([0.5, 0.5]), components=comps, null_mode=null_mode, penalty=np.zeros(2))
        s = posterior_summary(obs, model)
        assert s.effect_mean.shape == (0,) and s.effect_var.shape == (0,)
        assert model.log_marginal(obs).shape == (0,)
        if family == "binomial":
            assert posterior_mean_arcsin(model, [], []).shape == (0,)
        else:
            assert s.fdr.shape == (0,) and s.tail_fdr.shape == (0,)
            assert posterior_summary(obs, model, frozenset({0, 1})).fdr.shape == (0,)

    def test_family_mismatch(self, two_component_model):
        with pytest.raises(ContractError):
            posterior_summary(Observations.binomial([1], [2]), two_component_model)

    def test_grouping_monotonicity(self, two_component_model):
        rng = np.random.default_rng(6)
        model = random_normal_model(rng, n_components=4)
        obs = Observations.normal(np.linspace(-5, 5, 41))
        small = posterior_summary(obs, model, frozenset({0}))
        big = posterior_summary(obs, model, frozenset({0, 1}))
        assert np.all(big.fdr >= small.fdr - 1e-15)

    @pytest.mark.parametrize("grouping", [{0, -1}, {0, 3}, {0, 5}])
    def test_null_set_index_out_of_range(self, grouping):
        """A null set names components 0..J-1; -1 is not an alias of the last one."""
        model = random_normal_model(np.random.default_rng(7), n_components=3)
        z = np.array([0.5, 2.0, 4.0])
        with pytest.raises(ContractError, match=r"null set indices must be in 0\.\.2"):
            posterior_summary(Observations.normal(z), model, grouping)
        for curve in (fdr_curve, tail_fdr_curve):
            with pytest.raises(ContractError, match=r"null set indices must be in 0\.\.2"):
                curve(model, z, grouping=grouping)


class TestCurves:
    def test_pure_null_curve_is_one(self):
        grid = np.linspace(-4, 4, 33)
        np.testing.assert_allclose(fdr_curve(pure_null_model(), grid), 1.0, atol=1e-15)

    def test_symmetric_model_symmetric_curve(self, two_component_model):
        grid = np.linspace(-5, 5, 101)
        vals = fdr_curve(two_component_model, grid)
        np.testing.assert_allclose(vals, vals[::-1], atol=1e-12)

    def test_truth_model_matches_bruteforce(self):
        """fdr on the sparse-truth model equals pi0*phi / f computed directly."""
        from ebmix.harness import fdr_scenario_deltas, fdr_truth_model

        deltas = fdr_scenario_deltas(3)
        model = fdr_truth_model(deltas)
        grid = np.array([2.0, 3.0, 4.0])
        got = fdr_curve(model, grid, grouping=frozenset({0}))
        phi = lambda x: np.exp(-0.5 * x**2) / np.sqrt(2 * np.pi)
        f_true = 0.95 * phi(grid) + np.array(
            [np.sum(phi(g - deltas)) / 1000.0 for g in grid]
        )
        np.testing.assert_allclose(got, 0.95 * phi(grid) / f_true, atol=1e-10)

    def test_empty_grid_rejected(self, two_component_model):
        for curve in (fdr_curve, tail_fdr_curve):
            with pytest.raises(ContractError, match="z grid must be nonempty"):
                curve(two_component_model, np.array([]))

    @pytest.mark.parametrize("curve", [fdr_curve, tail_fdr_curve])
    def test_scalar_grid_is_one_point(self, curve):
        """A scalar z is a grid of one point, with the value that point has on a longer grid."""
        model = MixtureModel(
            pi=np.array([0.9, 0.1]),
            components=(NormalComponent(0.0, 0.0), NormalComponent(2.0, 1.0)),
            null_mode=NullMode.THEORETICAL,
            penalty=np.zeros(2),
        )
        got = curve(model, 0.5)
        assert got.shape == (1,)
        assert got[0] == curve(model, [0.5, 1.0, 2.0, 3.0])[0]

    @pytest.mark.parametrize("curve", [fdr_curve, tail_fdr_curve])
    def test_two_dimensional_grid_rejected(self, two_component_model, curve):
        """A 2-D grid is refused, not broadcast against the components."""
        with pytest.raises(ContractError, match="z grid must be one-dimensional"):
            curve(two_component_model, [[0.5, 1.0], [2.0, 3.0]])

    def test_tail_fdr_bounds(self, two_component_model):
        grid = np.linspace(-4, 6, 101)
        vals = tail_fdr_curve(two_component_model, grid)
        assert np.all((0 <= vals) & (vals <= 1))

    def test_tail_fdr_matches_two_sided_closed_form(self):
        """FDR(z) = sum_null pi_j P_j(|Z| >= |z|) / sum_j pi_j P_j(|Z| >= |z|), at z and -z."""
        rng = np.random.default_rng(31)
        # far tails too, where FDR is tiny: there 1 - cdf would lose the null's right tail
        a = np.concatenate([np.linspace(0.0, 6.0, 61), [8.0, 10.0, 12.0]])
        for _ in range(10):
            model = random_normal_model(rng)
            tails = np.array([
                norm.sf(a, c.mean, np.sqrt(c.var + 1.0)) + norm.cdf(-a, c.mean, np.sqrt(c.var + 1.0))
                for c in model.components
            ])
            want = model.pi[0] * tails[0] / (model.pi @ tails)
            np.testing.assert_allclose(tail_fdr_curve(model, a), want, rtol=0, atol=1e-12)
            np.testing.assert_allclose(tail_fdr_curve(model, -a), want, rtol=0, atol=1e-12)
            np.testing.assert_allclose(tail_fdr_curve(model, a[-3:]), want[-3:], rtol=1e-9)

    def test_tail_fdr_curve_binomial_unsupported(self):
        from ebmix import BetaComponent

        model = MixtureModel(
            pi=np.array([0.6, 0.4]),
            components=(BetaComponent(0.3, 0.01), BetaComponent(0.5, 0.0)),
            null_mode=NullMode.EMPIRICAL,
            penalty=np.array([5.0, 0.0]),
        )
        with pytest.raises(UnsupportedError):
            tail_fdr_curve(model, np.array([1.0, 2.0]))

    def test_tail_fdr_symmetric_in_z(self):
        rng = np.random.default_rng(32)
        z = rng.normal(scale=3.0, size=50)
        model = random_normal_model(rng, n_components=4)
        np.testing.assert_array_equal(tail_fdr_curve(model, -z), tail_fdr_curve(model, z))
        s = posterior_summary(Observations.normal(np.concatenate([z, -z])), model)
        np.testing.assert_array_equal(s.tail_fdr[:50], s.tail_fdr[50:])


class TestRejectionThreshold:
    def test_everything_rejected_at_large_q(self, two_component_model):
        t = rejection_threshold(two_component_model, q=0.99)
        assert t == 0.0

    def test_pure_null_has_no_rejection_region(self):
        with pytest.raises(NoRejectionRegionError):
            rejection_threshold(pure_null_model(), q=0.5)

    def test_truth_model_matches_dense_scan(self):
        from ebmix.harness import fdr_scenario_deltas, fdr_truth_model

        deltas = fdr_scenario_deltas(3)
        model = fdr_truth_model(deltas)
        grouping = frozenset({0})
        t = rejection_threshold(model, q=0.1, kind="fdr", grouping=grouping)
        t_scan = oracles.dense_threshold_scan(
            lambda grid: fdr_curve(model, grid, grouping=grouping), q=0.1
        )
        assert abs(t - t_scan) <= 1e-3

    def test_invalid_q(self, two_component_model):
        with pytest.raises(ContractError):
            rejection_threshold(two_component_model, q=0.0)

    def test_curve_below_q_beyond_threshold(self, two_component_model):
        t = rejection_threshold(two_component_model, q=0.2)
        grid = np.arange(t, 10.0, 0.001)
        assert np.all(fdr_curve(two_component_model, grid) <= 0.2 + 1e-9)


class TestNearlyNullGrouping:
    def make(self, comps, pi=None):
        j = len(comps)
        return MixtureModel(
            pi=np.full(j, 1.0 / j) if pi is None else np.asarray(pi),
            components=tuple(NormalComponent(m, v) for m, v in comps),
            null_mode=NullMode.THEORETICAL,
            penalty=np.zeros(j),
        )

    def test_far_components_stay_out(self):
        model = self.make([(0.0, 0.0), (2.0, 1.0), (-3.0, 0.5)])
        assert nearly_null_grouping(model) == {0}

    def test_near_component_included(self):
        model = self.make([(0.0, 0.0), (0.1, 0.05), (2.5, 1.0)])
        assert nearly_null_grouping(model) == {0, 1}

    def test_tolerance_edges(self):
        model = self.make([(0.0, 0.0), (0.25, 0.25), (0.26, 0.1)])
        grouping = nearly_null_grouping(model)
        assert 1 in grouping and 2 not in grouping

    def test_no_null_model_unsupported(self):
        model = MixtureModel(
            pi=np.array([1.0]),
            components=(NormalComponent(0.0, 1.0),),
            null_mode=NullMode.NONE,
            penalty=np.zeros(1),
        )
        with pytest.raises(UnsupportedError):
            nearly_null_grouping(model)

    @pytest.mark.parametrize("mean_tol, var_tol", [(np.nan, 0.25), (np.inf, 0.25), (0.25, -1.0), (0.25, np.nan)])
    def test_tolerances_must_be_finite_and_nonnegative(self, mean_tol, var_tol):
        model = self.make([(0.0, 0.0), (0.1, 0.05), (2.5, 1.0)])
        with pytest.raises(ContractError, match="mean_tol and var_tol must be finite and >= 0"):
            nearly_null_grouping(model, mean_tol, var_tol)


class TestTweedieContinuous:
    def test_no_signal_when_f_equals_f0(self):
        f = lambda z: normal_logpdf(z, 0.0, 1.0)
        mean, var = tweedie_continuous(f, f, np.array([-2.0, 0.0, 3.0]))
        np.testing.assert_allclose(mean, 0.0, atol=1e-12)
        np.testing.assert_allclose(var, 0.0, atol=1e-12)

    def test_quadratic_log_ratio(self):
        """f/f0 = exp(z^2/4) up to constants: mean z/2, variance 1/2."""
        log_f = lambda z: 0.25 * z**2
        log_f0 = lambda z: np.zeros_like(np.asarray(z, dtype=float))
        mean, var = tweedie_continuous(log_f, log_f0, np.array([1.0, 2.0, -3.0]))
        np.testing.assert_allclose(mean, [0.5, 1.0, -1.5], atol=1e-6)
        np.testing.assert_allclose(var, 0.5, atol=1e-4)

    @staticmethod
    def numeric_moments(model, z, s2=1.0):
        """E(delta | z) and Var(delta | z) as s2 and s2^2 times the log(f/f0) derivatives.

        f0 = phi(z; 0, s2); the case variance makes the natural parameter
        delta/s2, so the derivatives are rescaled to the effect scale.
        """
        log_f = lambda x: model.log_marginal(Observations.normal(x, s2))
        log_f0 = lambda x: normal_logpdf(x, 0.0, s2)
        mean, var = tweedie_continuous(log_f, log_f0, z)
        return s2 * mean, s2 * s2 * var

    def test_equivalence_over_random_models(self):
        """Closed-form posterior moments equal log f / f0 derivatives."""
        rng = np.random.default_rng(123)
        grid = np.linspace(-6.0, 6.0, 201)
        obs = Observations.normal(grid)
        for _ in range(10):
            model = random_normal_model(rng)
            s = posterior_summary(obs, model)
            mean, var = self.numeric_moments(model, grid)
            np.testing.assert_allclose(mean, s.effect_mean, atol=1e-6)
            np.testing.assert_allclose(var, s.effect_var, atol=1e-5)

    def test_case_variance_scaling(self):
        model = MixtureModel(
            pi=np.array([0.6, 0.4]),
            components=(NormalComponent(0.0, 0.0), NormalComponent(1.0, 2.0)),
            null_mode=NullMode.THEORETICAL,
            penalty=np.zeros(2),
        )
        s2 = 2.5
        obs = Observations.normal([1.7], [s2])
        s = posterior_summary(obs, model)
        mean, var = self.numeric_moments(model, np.array([1.7]), s2=s2)
        np.testing.assert_allclose(mean, s.effect_mean, atol=1e-6)
        np.testing.assert_allclose(var, s.effect_var, atol=1e-5)

    def test_analytic_derivatives_match_numeric(self, two_component_model):
        """The closed form agrees with central differences of the model's log marginal."""
        z = np.array([-1.5, 0.3, 2.7])
        s = posterior_summary(Observations.normal(z), two_component_model)
        num_mean, num_var = self.numeric_moments(two_component_model, z)
        np.testing.assert_allclose(s.effect_mean, num_mean, atol=1e-6)
        np.testing.assert_allclose(s.effect_var, num_var, atol=1e-5)
