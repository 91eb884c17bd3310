"""EM fitting contracts: E/M steps, penalties, pinning, determinism, BIC."""

import dataclasses

import numpy as np
import pytest

import oracles
from ebmix import (
    BetaComponent,
    ContractError,
    Family,
    FitConfig,
    MixtureModel,
    NormalComponent,
    NullMode,
    Observations,
    bic,
    e_step,
    em_fit,
    initialize,
    m_step,
)
from ebmix import mixture
from ebmix.mixture import n_free_parameters, unpenalized_loglik
from ebmix.seeding import derive_rng


def fdr_scenario_obs(seed=7, rep=0):
    from ebmix.harness import fdr_scenario_deltas, fdr_scenario_sample

    deltas = fdr_scenario_deltas(seed)
    return Observations.normal(fdr_scenario_sample(deltas, seed, rep))


class TestEStep:
    def test_single_component_gets_all_weight(self):
        model = MixtureModel(
            family=Family.NORMAL,
            pi=np.array([1.0]),
            components=(NormalComponent(0.3, 1.0),),
            null_mode=NullMode.NONE,
            penalty=np.zeros(1),
        )
        w, _ = e_step(Observations.normal([-1.0, 0.0, 2.0]), model)
        np.testing.assert_array_equal(w, 1.0)

    def test_zero_proportion_component_gets_zero_weight(self):
        model = MixtureModel(
            family=Family.NORMAL,
            pi=np.array([1.0, 0.0]),
            components=(NormalComponent(0.0, 1.0), NormalComponent(2.0, 1.0)),
            null_mode=NullMode.NONE,
            penalty=np.zeros(2),
        )
        w, _ = e_step(Observations.normal([0.0, 2.0, 4.0]), model)
        np.testing.assert_array_equal(w[:, 1], 0.0)

    def test_density_ratio(self, two_component_model):
        # oracle: phi(2;0,1)=0.05399097, phi(2;0,4)=0.12098536
        w, _ = e_step(Observations.normal([2.0]), two_component_model)
        np.testing.assert_allclose(w[0], [0.30856, 0.69144], atol=1e-3)

    def test_rows_sum_to_one(self, two_component_model):
        rng = np.random.default_rng(0)
        w, _ = e_step(Observations.normal(rng.normal(size=200)), two_component_model)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_penalized_loglik_value(self, two_component_model):
        obs = Observations.normal([0.5, -1.0])
        model = dataclasses.replace(two_component_model, penalty=np.array([3.0, 0.0]))
        _, pll = e_step(obs, model)
        logf = model.log_marginal(obs).sum()
        np.testing.assert_allclose(pll, logf + 3.0 * np.log(0.5), rtol=1e-12)


class TestMStep:
    def test_unweighted_moment_match(self):
        rng = np.random.default_rng(1)
        z = rng.normal(1.0, 2.0, size=400)
        obs = Observations.normal(z)
        model = MixtureModel(
            family=Family.NORMAL,
            pi=np.array([1.0]),
            components=(NormalComponent(0.0, 5.0),),
            null_mode=NullMode.NONE,
            penalty=np.zeros(1),
        )
        w = np.ones((400, 1))
        config = FitConfig(n_components=1, penalty=0.0, null_mode=NullMode.NONE)
        updated, reinit = m_step(obs, w, config, model)
        assert not reinit
        np.testing.assert_allclose(updated.components[0].mean, z.mean(), rtol=1e-12)
        np.testing.assert_allclose(
            updated.components[0].var, max(0.0, z.var() - 1.0), rtol=1e-12
        )

    def test_pseudo_count_proportions(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=100)
        obs = Observations.normal(z)
        config = FitConfig(n_components=2, penalty=30.0, null_mode=NullMode.THEORETICAL)
        model = initialize(obs, config)
        w = np.zeros((100, 2))
        w[:60, 0] = 1.0
        w[60:, 1] = 1.0
        updated, _ = m_step(obs, w, config, model)
        np.testing.assert_allclose(updated.pi[0], (60 + 30) / 130, rtol=1e-12)
        np.testing.assert_allclose(updated.pi[1], 40 / 130, rtol=1e-12)

    def test_binomial_newton_matches_grid_search(self):
        rng = derive_rng(11, 99)
        n_tr = rng.integers(50, 51, size=2000)
        delta = rng.beta(2.0, 2.0, size=2000)
        h = rng.binomial(n_tr, delta)
        obs = Observations.binomial(h, n_tr)
        w = np.ones((2000, 1))
        config = FitConfig(n_components=1, penalty=0.0, null_mode=NullMode.NONE)
        model = initialize(obs, config)
        updated, _ = m_step(obs, w, config, model)
        # run the inner solver to convergence by iterating the M-step
        for _ in range(5):
            updated, _ = m_step(obs, w, config, updated)
        fit = updated.components[0]
        (a_star, b_star), _ = oracles.grid_search_beta_fit(
            h.astype(float), n_tr.astype(float), np.ones(2000)
        )
        assert abs(fit.alpha - a_star) / a_star < 0.01
        assert abs(fit.beta - b_star) / b_star < 0.01

    @staticmethod
    def underdispersed_season():
        """Season 2 of seed 9, 400 players: every beta MLE is at infinite concentration."""
        from ebmix.baseball import synthetic_season

        records, _ = synthetic_season(n_players=400, seed=9, season_index=2)
        return np.array([r.h1 for r in records]), np.array([r.n1 for r in records])

    def test_binomial_underdispersed_fit_at_concentration_cap(self):
        h, n = self.underdispersed_season()
        obs = Observations.binomial(h, n)
        config = FitConfig(n_components=1, penalty=0.0, null_mode=NullMode.NONE)
        updated, _ = m_step(obs, np.ones((400, 1)), config, initialize(obs, config))
        fit = updated.components[0]
        np.testing.assert_allclose(fit.alpha + fit.beta, 2e8, rtol=1e-12)
        np.testing.assert_allclose(fit.mean, h.sum() / n.sum(), rtol=1e-9)

    def test_binomial_m_step_never_lowers_weighted_objective(self):
        h, n = self.underdispersed_season()
        rng = np.random.default_rng(4)
        idx = rng.choice(len(h), 30, replace=False)
        h, n = h[idx], n[idx]
        w = rng.uniform(0.05, 1.0, 30)
        obs = Observations.binomial(h, n)
        config = FitConfig(n_components=1, penalty=0.0, null_mode=NullMode.NONE)
        for _ in range(30):
            mean = 1.0 / (1.0 + np.exp(-(np.log(1 / 3) + rng.standard_normal())))
            conc = 10.0 ** rng.uniform(-1.0, np.log10(2e8))
            start = BetaComponent(conc * mean, conc * (1.0 - mean))
            model = MixtureModel(
                family=Family.BINOMIAL,
                pi=np.array([1.0]),
                components=(start,),
                null_mode=NullMode.NONE,
                penalty=np.zeros(1),
            )
            fit = m_step(obs, w[:, None], config, model)[0].components[0]
            before = oracles.weighted_betabinom_loglik_mp(h, n, w, start.alpha, start.beta)
            after = oracles.weighted_betabinom_loglik_mp(h, n, w, fit.alpha, fit.beta)
            assert after >= before

    def test_binomial_large_trials_optimal_in_bounded_memory(self):
        """N near 1e6: memory does not grow with N, and the fit is a local maximum.

        Counts beyond the table length come from series, one term per
        distinct count, so an M-step allocates well under 2 MB here, where
        tables up to max N would take tens of MB.
        """
        import tracemalloc

        rng = np.random.default_rng(8)
        n = (1e6 * rng.uniform(0.5, 1.5, 200)).astype(np.int64)
        h = rng.binomial(n, rng.beta(30.0, 70.0, 200))
        w = rng.uniform(0.05, 1.0, 200)
        obs = Observations.binomial(h, n)
        config = FitConfig(n_components=1, penalty=0.0, null_mode=NullMode.NONE)
        model = initialize(obs, config)
        tracemalloc.start()
        try:
            fit = m_step(obs, w[:, None], config, model)[0].components[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

        def loglik(m, t):
            c = np.exp(t)
            return oracles.weighted_betabinom_loglik_mp(h, n, w, c / (1 + np.exp(-m)), c / (1 + np.exp(m)))

        m0, t0 = np.log(fit.alpha / fit.beta), np.log(fit.alpha + fit.beta)
        best = loglik(m0, t0)
        start = model.components[0]
        assert best >= oracles.weighted_betabinom_loglik_mp(h, n, w, start.alpha, start.beta)
        for dm, dt in [(1e-3, 0), (-1e-3, 0), (0, 1e-3), (0, -1e-3)]:
            assert best > loglik(m0 + dm, t0 + dt)

    @pytest.mark.parametrize(
        "mode, k",
        [(NullMode.THEORETICAL, 2), (NullMode.EMPIRICAL, 0), (NullMode.EMPIRICAL, 2), (NullMode.NONE, 1)],
    )
    def test_empty_component_restarts_from_initial_model(self, monkeypatch, mode, k):
        obs = Observations.normal(derive_rng(5, 0).standard_normal(200))
        config = FitConfig(n_components=3, penalty=0.0, null_mode=mode, n_restarts=1)
        start = initialize(obs, config)
        comps = list(start.components)
        comps[k] = NormalComponent(1000.0, 0.0)
        model = dataclasses.replace(start, components=tuple(comps))
        w, _ = e_step(obs, model)
        assert np.all(w[:, k] == 0.0)
        updated, reinit = m_step(obs, w, config, model)
        assert reinit
        assert updated.components[k] == start.components[k]

        # EM from the emptied start restarts it and keeps the objective monotone
        calls = []

        def initialize_empty_first(data, cfg, restart_index=0):
            calls.append(restart_index)
            return model if len(calls) == 1 else initialize(data, cfg, restart_index)

        monkeypatch.setattr(mixture, "initialize", initialize_empty_first)
        fitted = em_fit(obs, config)
        assert calls[0] == 0
        assert fitted.components[k].mean != 1000.0


class TestInitialize:
    def test_deterministic(self):
        obs = fdr_scenario_obs()
        config = FitConfig(n_components=3, penalty=50.0, seed=42)
        a = initialize(obs, config, restart_index=2)
        b = initialize(obs, config, restart_index=2)
        assert a == b

    def test_restarts_differ(self):
        obs = fdr_scenario_obs()
        config = FitConfig(n_components=3, penalty=50.0, seed=42)
        assert initialize(obs, config, 0) != initialize(obs, config, 1)

    def test_theoretical_null_pinned_at_zero(self):
        obs = fdr_scenario_obs()
        config = FitConfig(n_components=3, penalty=50.0)
        model = initialize(obs, config, restart_index=5)
        assert model.components[0] == NormalComponent(0.0, 0.0)

    def test_empirical_null_starts_at_median(self):
        z = np.concatenate([np.full(50, 4.2), np.full(49, 0.0), np.full(50, 8.0)])
        obs = Observations.normal(z)
        config = FitConfig(n_components=3, penalty=10.0, null_mode=NullMode.EMPIRICAL)
        model = initialize(obs, config, restart_index=0)
        assert model.components[0].mean == 4.2

    def test_proportions(self):
        obs = fdr_scenario_obs()
        model = initialize(obs, FitConfig(n_components=4, penalty=50.0))
        np.testing.assert_allclose(model.pi, [0.9, 0.1 / 3, 0.1 / 3, 0.1 / 3])


class TestEmFit:
    def test_binomial_large_trials_converges(self):
        """N near 1e6: E-step and M-step agree closely enough for EM's 1e-9 monotonicity check."""
        rng = np.random.default_rng(1)
        n = (1e6 * rng.uniform(0.5, 1.5, 200)).astype(np.int64)
        p = np.where(rng.uniform(size=200) < 0.7, rng.beta(30.0, 70.0, 200), rng.beta(60.0, 40.0, 200))
        obs = Observations.binomial(rng.binomial(n, p), n)
        config = FitConfig(n_components=2, penalty=0.0, null_mode=NullMode.NONE, n_restarts=1)
        model = em_fit(obs, config)
        assert model.diagnostics.converged
        np.testing.assert_allclose(sorted(c.mean for c in model.components), [0.3, 0.6], atol=0.03)

    def test_fdr_scenario_recovers_null_fraction(self):
        obs = fdr_scenario_obs()
        config = FitConfig(n_components=3, penalty=50.0, null_mode=NullMode.THEORETICAL)
        model = em_fit(obs, config)
        assert abs(model.pi[0] - 0.95) <= 0.05
        assert model.diagnostics.converged

    def test_null_only_data_absorbed_by_null(self):
        rng = derive_rng(5, 1)
        obs = Observations.normal(rng.standard_normal(1000))
        config = FitConfig(n_components=3, penalty=200.0, null_mode=NullMode.THEORETICAL)
        model = em_fit(obs, config)
        assert model.pi[0] >= 0.9
        assert all(c.var <= 0.2 for c in model.components[1:])

    def test_binomial_single_component_recovery(self):
        rng = derive_rng(3, 2)
        n_tr = rng.integers(50, 400, size=500)
        delta = rng.beta(302.0, 884.0, size=500)
        h = rng.binomial(n_tr, delta)
        obs = Observations.binomial(h, n_tr)
        config = FitConfig(n_components=1, penalty=0.0, null_mode=NullMode.NONE)
        model = em_fit(obs, config)
        fit = model.components[0]
        target = 302.0 / 1186.0
        assert abs(fit.mean - target) <= 0.01
        # method-of-moments oracle on the same synthetic data
        mom = np.average(h / n_tr)
        assert abs(fit.mean - mom) <= 0.01

    def test_monotone_penalized_loglik(self):
        obs = fdr_scenario_obs()
        for null_mode, penalty in [
            (NullMode.THEORETICAL, 50.0),
            (NullMode.EMPIRICAL, 200.0),
            (NullMode.NONE, 0.0),
        ]:
            config = FitConfig(
                n_components=3 if null_mode is not NullMode.NONE else 2,
                penalty=penalty,
                null_mode=null_mode,
            )
            model = em_fit(obs, config)
            trace = np.array(model.diagnostics.trace)
            assert np.all(np.diff(trace) >= -1e-9)

    def test_monotone_with_heteroscedastic_nuisance(self):
        rng = derive_rng(9, 4)
        s2 = rng.uniform(0.5, 3.0, size=600)
        delta = np.where(rng.random(600) < 0.1, rng.uniform(2, 4, 600), 0.0)
        z = delta + np.sqrt(s2) * rng.standard_normal(600)
        obs = Observations.normal(z, s2)
        model = em_fit(obs, FitConfig(n_components=3, penalty=50.0))
        trace = np.array(model.diagnostics.trace)
        assert np.all(np.diff(trace) >= -1e-9)

    def test_simplex_preserved(self):
        obs = fdr_scenario_obs()
        model = em_fit(obs, FitConfig(n_components=4, penalty=50.0))
        assert abs(model.pi.sum() - 1.0) <= 1e-12
        assert np.all(model.pi >= 0)

    def test_theoretical_null_pinned_bit_identical(self):
        obs = fdr_scenario_obs()
        model = em_fit(obs, FitConfig(n_components=3, penalty=50.0))
        assert model.components[0].mean == 0.0
        assert model.components[0].var == 0.0

    def test_penalty_direction(self):
        """Raising P from 50 to N/2 never decreases the fitted null weight."""
        for seed in range(10):
            obs = fdr_scenario_obs(seed=seed)
            small = em_fit(obs, FitConfig(n_components=3, penalty=50.0, seed=seed))
            large = em_fit(obs, FitConfig(n_components=3, penalty=500.0, seed=seed))
            assert large.pi[0] >= small.pi[0] - 1e-9

    def test_seeded_determinism(self):
        obs = fdr_scenario_obs()
        config = FitConfig(n_components=3, penalty=50.0, seed=11, n_restarts=3)
        assert em_fit(obs, config) == em_fit(obs, config)

    def test_restart_selection_takes_best(self):
        obs = fdr_scenario_obs()
        config = FitConfig(n_components=3, penalty=50.0, n_restarts=4)
        best = em_fit(obs, config)
        singles = [
            em_fit(obs, dataclasses.replace(config, n_restarts=1))
        ]  # restart 0 only
        assert (
            best.diagnostics.penalized_loglik
            >= singles[0].diagnostics.penalized_loglik - 1e-9
        )

    def test_empty_data_rejected(self):
        with pytest.raises(ContractError):
            em_fit(
                Observations.normal(np.array([])),
                FitConfig(n_components=2, penalty=0.0),
            )

    def test_binomial_theoretical_null_rejected(self):
        obs = Observations.binomial([1, 2], [5, 5])
        with pytest.raises(ContractError):
            em_fit(obs, FitConfig(n_components=2, penalty=0.0, null_mode=NullMode.THEORETICAL))


class TestConfigValidation:
    def test_null_requires_two_components(self):
        with pytest.raises(ContractError):
            FitConfig(n_components=1, null_mode=NullMode.THEORETICAL)

    def test_penalty_vector_shape(self):
        config = FitConfig(n_components=3, penalty=50.0)
        np.testing.assert_array_equal(config.penalty_vector(1000), [50.0, 0.0, 0.0])

    def test_default_penalty_is_fifth_of_n(self):
        config = FitConfig(n_components=3, penalty=None)
        np.testing.assert_array_equal(config.penalty_vector(1000), [200.0, 0.0, 0.0])


class TestBic:
    def test_parameter_counts(self):
        binom = MixtureModel(
            family=Family.BINOMIAL,
            pi=np.array([1.0]),
            components=(BetaComponent(2.0, 2.0),),
            null_mode=NullMode.NONE,
            penalty=np.zeros(1),
        )
        assert n_free_parameters(binom) == 2
        normal3 = MixtureModel(
            family=Family.NORMAL,
            pi=np.array([0.8, 0.1, 0.1]),
            components=(
                NormalComponent(0.0, 0.0),
                NormalComponent(1.0, 1.0),
                NormalComponent(-1.0, 1.0),
            ),
            null_mode=NullMode.THEORETICAL,
            penalty=np.zeros(3),
        )
        assert n_free_parameters(normal3) == 6

    def test_bic_formula(self):
        obs = Observations.binomial([1, 4, 2], [5, 8, 6])
        model = em_fit(obs, FitConfig(n_components=1, penalty=0.0, null_mode=NullMode.NONE))
        expected = -2.0 * unpenalized_loglik(obs, model) + 2.0 * np.log(3)
        np.testing.assert_allclose(bic(obs, model), expected, rtol=1e-12)

    def test_selects_true_order_on_separated_mixture(self):
        rng = derive_rng(21, 6)
        delta = np.where(rng.random(2000) < 0.5, 0.0, 4.0)
        obs = Observations.normal(delta + rng.standard_normal(2000))
        scores = {}
        for j in (1, 2, 3):
            mode = NullMode.NONE if j == 1 else NullMode.THEORETICAL
            model = em_fit(
                obs, FitConfig(n_components=j, penalty=50.0, null_mode=mode, n_restarts=1)
            )
            scores[j] = bic(obs, model)
        assert min(scores, key=scores.get) == 2


class TestSample:
    def test_binomial_counts_follow_the_prior(self):
        model = MixtureModel(
            family=Family.BINOMIAL,
            pi=np.array([0.5, 0.5]),
            components=(BetaComponent(30.0, 70.0), BetaComponent(60.0, 40.0)),
            null_mode=NullMode.NONE,
            penalty=np.zeros(2),
        )
        trials = np.arange(1, 2001) % 50 + 1
        obs = model.sample(2000, derive_rng(0, 99), trials=trials)
        assert obs.family is Family.BINOMIAL
        np.testing.assert_array_equal(obs.trials, trials)
        assert np.all((obs.counts >= 0) & (obs.counts <= trials))
        # prior mean rate 0.45; the sd of the mean of 2000 rates is below 0.005
        assert abs(np.mean(obs.counts / trials) - 0.45) < 0.02
        with pytest.raises(ContractError):
            model.sample(10, derive_rng(0, 99))
