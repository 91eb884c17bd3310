"""Scenario generators, baselines, Bayes oracle and the two studies."""

import numpy as np
import pytest

import oracles
from ebmix import ContractError, NullMode, UnsupportedError, fdr_curve, nearly_null_grouping, rejection_threshold, tail_fdr_curve
from ebmix import harness
from ebmix.harness import (
    FDR_QS,
    FDR_Z_GRID,
    ScenarioKind,
    ScenarioSpec,
    baseline_estimate,
    bayes_oracle_estimate,
    bh_threshold,
    default_effect_methods,
    effect_summary,
    fdr_scenario_deltas,
    fdr_scenario_sample,
    fdr_truth_model,
    generate_effect_scenario,
    james_stein,
    negative_count,
    run_effect_study,
    run_fdr_study,
    scenario_noise,
    sure_threshold,
    universal_threshold,
)


def spec_for(kind=ScenarioKind.EFFECT_ONE_SIDED, k=50, mu=3.0, seed=0):
    return ScenarioSpec(kind=kind, n_nonzero=k, mu=mu, seed=seed)


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
        est = baseline_estimate("fdr_threshold", z)
        np.testing.assert_array_equal(est, [4.0, 3.5, 0.0, 0.0, 0.0])

    def test_bh_no_rejection(self):
        z = np.array([0.1, -0.3, 0.2])
        assert bh_threshold(z, q=0.05) == np.inf
        np.testing.assert_array_equal(baseline_estimate("fdr_threshold", z), 0.0)

    def test_james_stein_forms(self):
        z = np.array([1.0, 2.0, -1.0, 0.5, 3.0])
        cent = james_stein(z)
        resid = z - z.mean()
        cfactor = max(0.0, 1 - (5 - 3) / np.sum(resid**2))
        np.testing.assert_allclose(cent, z.mean() + cfactor * resid, rtol=1e-12)

    @pytest.mark.parametrize("z", [[0.2], [0.2, 0.3], [0.2, 0.3, -0.1]], ids=["n1", "n2", "n3"])
    def test_james_stein_never_expands(self, z):
        """Below n = 4 the factor 1 - (n - 3)/ss is at least 1; clamped to 1, the estimate is the data."""
        np.testing.assert_allclose(james_stein(z, var=0.01), z, rtol=1e-14, atol=1e-15)

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


def rel_errors(rows, method):
    return np.array([rel for *_, name, rel in rows if name == method])


def baseline(name):
    return lambda z, spec: baseline_estimate(name, z)


class TestEffectStudy:
    def test_bayes_oracle_normalizes_to_one(self):
        rows = run_effect_study({"bayes_oracle": bayes_oracle_estimate}, reps=2, seed=1)
        np.testing.assert_allclose(rel_errors(rows, "bayes_oracle"), 1.0, rtol=1e-12)

    def test_naive_never_beats_bayes(self):
        rows = run_effect_study({"naive": baseline("naive")}, reps=3, seed=2)
        assert np.all(rel_errors(rows, "naive") >= 1.0)

    def test_cell_count(self):
        rows = run_effect_study({"naive": baseline("naive"), "bayes_oracle": bayes_oracle_estimate}, reps=1, seed=0)
        assert len(rows) == 24 * 2
        assert {name for name, _, _ in effect_summary(rows)} == {"naive", "bayes_oracle"}

    def test_rows_run_over_the_grid_then_the_methods(self):
        rows = run_effect_study({"naive": baseline("naive"), "bayes_oracle": bayes_oracle_estimate}, reps=1, seed=0)
        assert [row[:4] for row in rows[:3]] == [
            (5, 2.0, "one", "naive"),
            (5, 2.0, "one", "bayes_oracle"),
            (5, 3.0, "one", "naive"),
        ]
        assert rows[-1][:4] == (500, 5.0, "two", "bayes_oracle")
        # Python scalars only, so that the CLI's csv writer gives each float its repr
        assert all(type(cell) in (int, float, str) for row in rows for cell in row)

    def test_summary_is_mean_and_median_by_name(self):
        rows = [
            (5, 2.0, "one", "b", 1.0),
            (5, 2.0, "one", "a", 4.0),
            (5, 3.0, "one", "b", 2.0),
            (5, 3.0, "one", "a", 1.0),
            (50, 2.0, "one", "b", 6.0),
            (50, 2.0, "one", "a", 1.0),
        ]
        assert effect_summary(rows) == [("a", 2.0, 1.0), ("b", 3.0, 2.0)]

    def test_default_methods_names_and_order(self):
        methods = default_effect_methods(3, 50.0)
        assert list(methods) == [
            "mixture_J3_P50", "naive", "universal_soft", "universal_hard", "fdr_threshold_q0.1", "sure_shrink",
            "bayes_oracle",
        ]
        z = np.array([0.5, -4.0, 6.0])
        spec = spec_for()
        np.testing.assert_array_equal(methods["fdr_threshold_q0.1"](z, spec), baseline_estimate("fdr_threshold", z))
        np.testing.assert_array_equal(methods["bayes_oracle"](z, spec), bayes_oracle_estimate(z, spec))

    @pytest.mark.parametrize("reps", [1.5, 2.0, True, "2"])
    def test_reps_must_be_an_integer(self, reps):
        with pytest.raises(ContractError, match="reps must be an integer"):
            run_effect_study({"naive": baseline("naive")}, reps=reps)

    @pytest.mark.parametrize("seed", [1.5, True])
    def test_seed_must_be_an_integer(self, seed):
        """A float or bool seed is refused, not truncated to the seed 1 it would draw as."""
        with pytest.raises(ContractError, match="seed must be an integer"):
            run_effect_study({"naive": baseline("naive")}, reps=1, seed=seed)

    def test_mixture_method_shrinks(self):
        """Fitted posterior means never exceed the data in magnitude when
        all fitted component means sit between 0 and z."""
        mixture = default_effect_methods(n_components=3, penalty=50.0)["mixture_J3_P50"]
        spec = spec_for(k=50, mu=3.0)
        _, z = generate_effect_scenario(spec, rep=0)
        est = mixture(z, spec)

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

    def test_truth_as_method_has_zero_bias(self, monkeypatch):
        # every replication is "fitted" by the plug-in truth; its deltas lie in U(2, 4),
        # so the nearly null grouping of the truth is the point-mass null alone
        truth = fdr_truth_model(fdr_scenario_deltas(0))
        assert nearly_null_grouping(truth) == frozenset({0})
        monkeypatch.setattr(harness, "em_fit", lambda obs, config: truth)
        fdr_rows, tail_rows, threshold_rows = run_fdr_study(["theoretical"], 3, 50.0, reps=2, seed=0)
        n_grid, n_qs = FDR_Z_GRID.size, len(FDR_QS)
        for rows, curve in ((fdr_rows, fdr_curve), (tail_rows, tail_fdr_curve)):
            true, plugin = rows[:n_grid], rows[n_grid:]
            assert [row[:3] for row in true] == [(z, "truth", "") for z in FDR_Z_GRID.tolist()]
            assert [row[:3] for row in plugin] == [(z, "mixture_theoretical", "theoretical") for z in FDR_Z_GRID.tolist()]
            np.testing.assert_array_equal([row[3] for row in true], curve(truth, FDR_Z_GRID))
            assert [row[4] for row in true] == [0.0] * n_grid
            np.testing.assert_allclose([row[3] for row in plugin], [row[3] for row in true], atol=1e-12)
            np.testing.assert_allclose([row[4] for row in plugin], 0.0, atol=1e-12)
        assert len(threshold_rows) == 4 * n_qs
        for i, kind in enumerate(("fdr", "FDR")):
            true = threshold_rows[2 * i * n_qs:][:n_qs]
            plugin = threshold_rows[(2 * i + 1) * n_qs:][:n_qs]
            assert [row[:4] for row in true] == [(q, kind, "truth", "") for q in FDR_QS]
            assert [row[:4] for row in plugin] == [(q, kind, "mixture_theoretical", "theoretical") for q in FDR_QS]
            want = [rejection_threshold(truth, q, kind=kind) for q in FDR_QS]
            np.testing.assert_array_equal([row[4] for row in true], want)
            assert [row[5] for row in true] == [0.0] * n_qs
            np.testing.assert_allclose([row[4] for row in plugin], want, atol=1e-12)

    def test_small_mixture_run_shapes(self):
        fdr_rows, tail_rows, threshold_rows = run_fdr_study([NullMode.THEORETICAL], 3, 50.0, reps=2, seed=4)
        assert len(fdr_rows) == len(tail_rows) == 2 * FDR_Z_GRID.size
        assert [row[0] for row in fdr_rows] == FDR_Z_GRID.tolist() * 2
        assert len(threshold_rows) == 2 * 2 * len(FDR_QS)
        fitted = [row for row in threshold_rows if row[2] == "mixture_theoretical"]
        assert [row[1] for row in fitted] == ["fdr"] * 5 + ["FDR"] * 5
        assert np.all(np.isfinite([row[4:] for row in fitted]))

    @pytest.mark.parametrize("reps", [2.5, 3.0, True])
    def test_reps_must_be_an_integer(self, reps):
        with pytest.raises(ContractError, match="reps must be an integer"):
            run_fdr_study(["theoretical"], 3, 50.0, reps=reps)

    def test_no_null_mode_rejected(self):
        with pytest.raises(ContractError, match="at least one null mode is required"):
            run_fdr_study([], 3, 50.0, reps=2)

    def test_null_less_mode_refused_before_any_fit(self, monkeypatch):
        """A mode with no null has no fdr to study: refused on entry, after a bad J, and before rep 0 is fitted."""

        def no_fit(obs, config):
            raise AssertionError("fitted")

        monkeypatch.setattr(harness, "em_fit", no_fit)
        with pytest.raises(UnsupportedError, match="^model has no designated null component$"):
            run_fdr_study(["theoretical", "none"], 3, 50.0, reps=2)
        with pytest.raises(ContractError, match="n_components must be >= 1"):
            run_fdr_study(["none"], 0, 50.0, reps=2)
