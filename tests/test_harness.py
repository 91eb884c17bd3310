"""Scenario generators, baselines, Bayes oracle and the two studies."""

import numpy as np
import pytest

import oracles
from ebmix import ContractError, NullMode
from ebmix.harness import (
    FdrMethod,
    ScenarioKind,
    ScenarioSpec,
    baseline_estimate,
    bayes_oracle_estimate,
    bh_threshold,
    fdr_scenario_deltas,
    fdr_scenario_sample,
    fdr_truth_model,
    generate_effect_scenario,
    make_baseline_method,
    make_bayes_oracle_method,
    make_mixture_method,
    negative_count,
    run_effect_study,
    run_fdr_study,
    scenario_noise,
    sure_threshold,
    universal_threshold,
)
from ebmix.inference import NullGrouping


def spec_for(kind=ScenarioKind.EFFECT_ONE_SIDED, n=1000, k=50, mu=3.0, reps=1, seed=0):
    return ScenarioSpec(kind=kind, n_cases=n, n_nonzero=k, mu=mu, reps=reps, seed=seed)


class TestEffectGenerator:
    def test_no_signal_is_pure_noise(self):
        spec = spec_for(k=0)
        delta, z = generate_effect_scenario(spec, rep=0)
        assert np.all(delta == 0)
        np.testing.assert_array_equal(z, scenario_noise(0, 0, 1000))

    def test_one_sided_support(self):
        spec = spec_for(k=1000, mu=4.0)
        delta, _ = generate_effect_scenario(spec, rep=0)
        assert np.all((delta >= 3.5) & (delta <= 4.5))

    def test_two_sided_exact_third_split(self):
        spec = spec_for(kind=ScenarioKind.EFFECT_TWO_SIDED, k=300, mu=3.0)
        delta, _ = generate_effect_scenario(spec, rep=0)
        assert np.sum(delta < 0) == 100
        assert np.sum(delta > 0) == 200

    def test_rounding_rule_for_small_k(self):
        assert negative_count(5) == 2
        assert negative_count(50) == 17
        assert negative_count(500) == 167

    def test_nonzero_count_exact(self):
        spec = spec_for(k=50)
        delta, _ = generate_effect_scenario(spec, rep=3)
        assert np.sum(delta != 0) == 50

    def test_noise_shared_across_scenarios(self):
        a = spec_for(k=5, mu=2.0)
        b = spec_for(kind=ScenarioKind.EFFECT_TWO_SIDED, k=500, mu=5.0)
        da, za = generate_effect_scenario(a, rep=2)
        db, zb = generate_effect_scenario(b, rep=2)
        # z - delta recovers the common noise up to float rounding
        np.testing.assert_allclose(za - da, zb - db, atol=1e-12)
        null_cases = (da == 0) & (db == 0)
        np.testing.assert_array_equal(za[null_cases], zb[null_cases])

    def test_replications_differ(self):
        spec = spec_for()
        _, z0 = generate_effect_scenario(spec, rep=0)
        _, z1 = generate_effect_scenario(spec, rep=1)
        assert not np.array_equal(z0, z1)


class TestBaselines:
    def test_universal_hard_kills_subthreshold(self):
        z = np.zeros(1000)
        z[0] = 3.0
        est = baseline_estimate("universal_hard", z)
        assert est[0] == 0.0  # threshold ~ 3.717

    def test_universal_soft_arithmetic(self):
        z = np.zeros(1000)
        z[0] = 5.0
        est = baseline_estimate("universal_soft", z)
        np.testing.assert_allclose(est[0], 5.0 - np.sqrt(2 * np.log(1000)), rtol=1e-12)
        np.testing.assert_allclose(est[0], 1.283, atol=1e-3)

    def test_naive_is_identity(self):
        z = np.array([-1.0, 0.5, 2.0])
        np.testing.assert_array_equal(baseline_estimate("naive", z), z)

    def test_sure_on_zero_data(self):
        est = baseline_estimate("sure_shrink", np.zeros(100))
        np.testing.assert_array_equal(est, 0.0)

    def test_sure_threshold_minimizes_risk(self):
        rng = np.random.default_rng(8)
        z = np.concatenate([rng.normal(size=950), rng.normal(4, 1, size=50)])
        t = sure_threshold(z)
        n = z.size
        def sure(tv):
            return n + np.sum(np.minimum(z**2, tv**2)) - 2 * np.sum(np.abs(z) <= tv)
        dense = np.linspace(0, universal_threshold(n), 5001)
        assert sure(t) <= np.min([sure(tv) for tv in dense]) + 1e-9

    def test_bh_threshold_step_up(self):
        # hand-checked: p-values 2*Phi(-|z|), BH at q=0.1
        z = np.array([4.0, 3.5, 0.5, -0.2, 1.0])
        t = bh_threshold(z, q=0.1)
        assert t == 3.5  # two smallest p-values rejected
        est = baseline_estimate("fdr_threshold", z, q=0.1)
        np.testing.assert_array_equal(est, [4.0, 3.5, 0.0, 0.0, 0.0])

    def test_bh_no_rejection(self):
        z = np.array([0.1, -0.3, 0.2])
        assert bh_threshold(z, q=0.05) == np.inf
        np.testing.assert_array_equal(baseline_estimate("fdr_threshold", z), 0.0)

    def test_james_stein_forms(self):
        z = np.array([1.0, 2.0, -1.0, 0.5, 3.0])
        est = baseline_estimate("james_stein", z)
        factor = 1 - (5 - 2) / np.sum(z**2)
        np.testing.assert_allclose(est, factor * z, rtol=1e-12)
        cent = baseline_estimate("james_stein_centered", z)
        resid = z - z.mean()
        cfactor = max(0.0, 1 - (5 - 3) / np.sum(resid**2))
        np.testing.assert_allclose(cent, z.mean() + cfactor * resid, rtol=1e-12)

    def test_grand_mean(self):
        z = np.array([1.0, 3.0])
        np.testing.assert_array_equal(baseline_estimate("grand_mean", z), 2.0)

    def test_unknown_name_rejected(self):
        with pytest.raises(ContractError):
            baseline_estimate("wavelets", np.zeros(3))


class TestBayesOracle:
    def test_pure_null_shrinks_to_zero(self):
        spec = spec_for(k=0)
        np.testing.assert_array_equal(
            bayes_oracle_estimate(np.array([0.0, 2.0, -4.0]), spec), 0.0
        )

    def test_symmetric_prior_at_origin(self):
        """Symmetric variant: equal +/- weights must give 0 at z = 0."""
        from ebmix.harness import SparseUniformPrior

        prior = SparseUniformPrior(
            null_weight=0.9, intervals=((2.5, 3.5, 0.05), (-3.5, -2.5, 0.05))
        )
        np.testing.assert_allclose(prior.posterior_mean(np.array([0.0])), 0.0, atol=1e-15)

    def test_riemann_oracle_values(self):
        # frozen from oracles.sparse_prior_posterior_mean_riemann; the
        # off-center points catch sign errors the symmetric one cannot
        spec = spec_for(k=50, mu=3.0)
        got = bayes_oracle_estimate(np.array([2.2, 3.0, 4.4]), spec)
        want = [0.8731870640886281, 2.4592183405798367, 3.1000519101409125]
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_riemann_oracle_two_sided(self):
        from ebmix.harness import SparseUniformPrior

        prior = SparseUniformPrior(
            null_weight=0.95,
            intervals=((2.5, 3.5, 0.05 * 2 / 3), (-3.5, -2.5, 0.05 / 3)),
        )
        got = prior.posterior_mean(np.array([-2.8]))
        np.testing.assert_allclose(got, -1.3562429037107668, atol=1e-6)

    def test_two_sided_prior_uses_count_split(self):
        spec = spec_for(kind=ScenarioKind.EFFECT_TWO_SIDED, k=5, mu=2.0)
        from ebmix.harness import scenario_prior

        prior = scenario_prior(spec)
        weights = sorted(w for _, _, w in prior.intervals)
        np.testing.assert_allclose(weights, [2 / 1000, 3 / 1000])


class TestEffectStudy:
    def test_bayes_oracle_normalizes_to_one(self):
        result = run_effect_study(
            [make_bayes_oracle_method()], reps=2, seed=1,
            n_nonzero_grid=(5, 50), mu_grid=(2.0, 4.0),
        )
        rel = result.rel_errors("bayes_oracle")
        np.testing.assert_allclose(rel, 1.0, rtol=1e-12)

    def test_naive_never_beats_bayes(self):
        result = run_effect_study(
            [make_baseline_method("naive")], reps=3, seed=2,
            n_nonzero_grid=(5, 500), mu_grid=(3.0,),
        )
        assert np.all(result.rel_errors("naive") >= 1.0)

    def test_cell_count(self):
        methods = [make_baseline_method("naive"), make_bayes_oracle_method()]
        result = run_effect_study(methods, reps=1, seed=0)
        assert len(result.cells) == 24 * 2
        summary = result.summary()
        assert set(summary) == {"naive", "bayes_oracle"}

    def test_mixture_method_shrinks(self):
        """Fitted posterior means never exceed the data in magnitude when
        all fitted component means sit between 0 and z."""
        method = make_mixture_method(n_components=3, penalty=50.0)
        spec = spec_for(k=50, mu=3.0)
        _, z = generate_effect_scenario(spec, rep=0)
        est = method.estimate(z, spec)

        from ebmix import FitConfig, Observations, em_fit

        model = em_fit(Observations.normal(z), FitConfig(n_components=3, penalty=50.0, n_restarts=1))
        mu_max = max(c.mean for c in model.components)
        ok = z >= mu_max
        assert np.all(np.abs(est[ok]) <= np.abs(z[ok]) + 1e-12)


class TestFdrStudy:
    def test_fixed_alternatives_reused(self):
        d1 = fdr_scenario_deltas(9)
        d2 = fdr_scenario_deltas(9)
        np.testing.assert_array_equal(d1, d2)
        assert np.all((d1 >= 2.0) & (d1 <= 4.0)) and d1.size == 50

    def test_truth_model_matches_sample(self):
        deltas = fdr_scenario_deltas(3)
        z = fdr_scenario_sample(deltas, 3, 0)
        assert z.size == 1000
        model = fdr_truth_model(deltas)
        assert model.n_components == 51
        np.testing.assert_allclose(model.pi[0], 0.95)

    def test_truth_as_method_has_zero_bias(self):
        class TruthMethod:
            name = "truth_plugin"
            null_mode = NullMode.THEORETICAL

            def __init__(self, model):
                self.model = model
                self.grouping = NullGrouping(null_set=frozenset({0}))

            def fit(self, z):
                return self.model, self.grouping

        deltas = fdr_scenario_deltas(0)
        truth = fdr_truth_model(deltas)
        result = run_fdr_study([TruthMethod(truth)], reps=2, seed=0)
        mean, sd = result.curve_stats("truth_plugin", "fdr")
        np.testing.assert_allclose(mean, result.true_fdr, atol=1e-12)
        np.testing.assert_allclose(sd, 0.0, atol=1e-12)
        tmean, tsd = result.threshold_stats("truth_plugin", "fdr")
        np.testing.assert_allclose(tmean, result.true_thresholds["fdr"], atol=1e-12)

    @pytest.mark.slow
    def test_small_mixture_run_shapes(self):
        methods = [FdrMethod(name="mix_th", null_mode=NullMode.THEORETICAL)]
        result = run_fdr_study(methods, reps=2, seed=4)
        assert result.fdr_curves["mix_th"].shape == (2, result.z_grid.size)
        assert result.thresholds[("mix_th", "FDR")].shape == (2, 5)
        assert np.all(np.isfinite(result.thresholds[("mix_th", "fdr")]))
