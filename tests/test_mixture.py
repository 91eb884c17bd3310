"""EM fitting contracts: E/M steps, penalties, pinning, determinism, BIC."""

import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ebmix import (
    BetaComponent,
    ContractError,
    Family,
    FitConfig,
    FitError,
    MixtureModel,
    NormalComponent,
    NullMode,
    NumericError,
    Observations,
    bic,
    e_step,
    em_fit,
    initialize,
    m_step,
)
from ebmix import mixture
from ebmix.families import NormalObservations, log_marginal_matrix
from ebmix.mixture import n_free_parameters, unpenalized_loglik
from ebmix.seeding import derive_rng


def fdr_scenario_obs(seed=7, rep=0):
    from ebmix.harness import fdr_scenario_deltas, fdr_scenario_sample

    deltas = fdr_scenario_deltas(seed)
    return Observations.normal(fdr_scenario_sample(deltas, seed, rep))


class TestEStep:
    def test_single_component_gets_all_weight(self):
        model = MixtureModel(
            pi=np.array([1.0]),
            components=(NormalComponent(0.3, 1.0),),
            null_mode=NullMode.NONE,
            penalty=np.zeros(1),
        )
        w, _ = e_step(Observations.normal([-1.0, 0.0, 2.0]), model)
        np.testing.assert_array_equal(w, 1.0)

    def test_zero_proportion_component_gets_zero_weight(self):
        model = MixtureModel(
            pi=np.array([1.0, 0.0]),
            components=(NormalComponent(0.0, 1.0), NormalComponent(2.0, 1.0)),
            null_mode=NullMode.NONE,
            penalty=np.zeros(2),
        )
        w, _ = e_step(Observations.normal([0.0, 2.0, 4.0]), model)
        np.testing.assert_array_equal(w[1], 0.0)

    def test_density_ratio(self, two_component_model):
        # oracle: phi(2;0,1)=0.05399097, phi(2;0,4)=0.12098536
        w, _ = e_step(Observations.normal([2.0]), two_component_model)
        np.testing.assert_allclose(w[:, 0], [0.30856, 0.69144], atol=1e-3)

    def test_each_case_sums_to_one(self, two_component_model):
        rng = np.random.default_rng(0)
        w, _ = e_step(Observations.normal(rng.normal(size=200)), two_component_model)
        np.testing.assert_allclose(w.sum(axis=0), 1.0, atol=1e-12)

    def test_penalized_loglik_value(self, two_component_model):
        obs = Observations.normal([0.5, -1.0])
        model = dataclasses.replace(two_component_model, penalty=np.array([3.0, 0.0]))
        _, pll = e_step(obs, model)
        logf = model.log_marginal(obs).sum()
        np.testing.assert_allclose(pll, logf + 3.0 * np.log(0.5), rtol=1e-12)

    @pytest.mark.parametrize(
        "obs, components",
        [
            (Observations.normal(np.linspace(-3.0, 3.0, 50)), (NormalComponent(0.0, 0.0), NormalComponent(1.0, 2.0))),
            (
                Observations.normal(np.linspace(-3.0, 3.0, 50), np.linspace(0.5, 2.0, 50)),
                (NormalComponent(0.0, 0.0), NormalComponent(1.0, 2.0), NormalComponent(-2.0, 0.5)),
            ),
            (
                Observations.binomial(np.arange(40), np.full(40, 60)),
                (BetaComponent(0.3, 0.0), BetaComponent(0.5, 0.02), BetaComponent(0.7, 0.2)),
            ),
        ],
        ids=["normal", "normal-varying-s2", "binomial"],
    )
    def test_matrices_are_component_major(self, monkeypatch, obs, components):
        """Every components x cases matrix is C-contiguous (J, n), and the weights are the kernel's own buffer."""
        j = len(components)
        model = MixtureModel(pi=np.full(j, 1.0 / j), components=components, null_mode=NullMode.NONE, penalty=np.zeros(j))
        made = []

        def recording(data, comps, _real=mixture.families.log_marginal_matrix):
            made.append(_real(data, comps))
            return made[-1]

        monkeypatch.setattr(mixture.families, "log_marginal_matrix", recording)
        w = model.posterior_weights(obs)[0]
        assert len(made) == 1 and np.shares_memory(w, made[0])
        for mat in (log_marginal_matrix(obs, components), w, e_step(obs, model)[0]):
            assert mat.shape == (j, len(obs))
            assert mat.flags.c_contiguous


def _weights_case(kind):
    """(batch, components, pi) of 300 cases; one component has pi_j = 0."""
    rng = np.random.default_rng(12)
    n = 300
    if kind == "binomial":
        trials = rng.integers(1, 400, n)
        obs = Observations.binomial(rng.binomial(trials, rng.uniform(0.1, 0.9, n)), trials)
        comps = (BetaComponent(0.2, 0.0), BetaComponent(0.5, 0.02), BetaComponent(0.8, 0.1), BetaComponent(0.4, 0.3))
    else:
        s2 = 1.0 if kind == "normal" else rng.uniform(0.5, 2.0, n)
        obs = Observations.normal(rng.normal(0.0, 3.0, n), s2)
        comps = (NormalComponent(0.0, 0.0), NormalComponent(2.0, 1.0), NormalComponent(-1.0, 4.0), NormalComponent(6.0, 0.0))
    return obs, comps, np.array([0.5, 0.0, 0.3, 0.2])


def _model(comps, pi):
    return MixtureModel(pi=pi, components=comps, null_mode=NullMode.NONE, penalty=np.zeros(len(comps)))


@pytest.mark.parametrize("kind", ["normal", "normal-varying-s2", "binomial"])
class TestPosteriorWeights:
    """The kernel turns into the weights in place, with one exp per cell."""

    def test_weights_exact_to_rounding(self, kind):
        """Each w_ji is within 4 ulps of exp(logw_ji - log f_i), the exact value at the float log terms.

        The one rounding every float evaluation shares, that of the
        shifted log term logw_ji - max_j logw_ji, is allowed on top.  Each
        case's weights sum to 1 within J ulps, and a component with
        pi_j = 0 gets exactly 0.
        """
        obs, comps, pi = _weights_case(kind)
        w, _ = _model(comps, pi).posterior_weights(obs)
        live = pi > 0
        assert np.all(w[~live] == 0.0)
        logw = log_marginal_matrix(obs, comps)[live] + np.log(pi[live])[:, None]
        shift = logw - logw.max(axis=0)
        with mpmath.workdps(30):
            exact = np.array([
                [float(mpmath.exp(x - mpmath.log(mpmath.fsum(mpmath.exp(y) for y in case)))) for x in case]
                for case in logw.T.tolist()
            ]).T
        eps = np.finfo(float).eps
        assert np.all(np.abs(w[live] - exact) <= 4 * np.spacing(exact) - shift * (eps / 2) * exact)
        case_error = np.array([math.fsum(case) for case in w.T.tolist()]) - 1.0
        assert np.all(np.abs(case_error) <= len(comps) * eps)

    def test_log_marginal_keeps_its_bits(self, kind):
        """log f = m + log sum exp(logw - m), the log-sum-exp the weights were once formed from."""
        obs, comps, pi = _weights_case(kind)
        _, logf = _model(comps, pi).posterior_weights(obs)
        with np.errstate(divide="ignore"):
            logw = log_marginal_matrix(obs, comps) + np.log(pi)[:, None]
        m = logw.max(axis=0)
        assert logf.tobytes() == (m + np.log(np.exp(logw - m).sum(axis=0))).tobytes()

    def test_zero_marginal_density_names_the_first_bad_case(self, monkeypatch, kind):
        """A kernel with no finite entry at a case (which `log_marginal_matrix` itself would refuse)."""
        obs, comps, pi = _weights_case(kind)

        def vanishing(data, components, _real=mixture.families.log_marginal_matrix):
            out = _real(data, components)
            out[:, [7, 3, 200]] = -np.inf
            return out

        monkeypatch.setattr(mixture.families, "log_marginal_matrix", vanishing)
        with pytest.raises(NumericError, match=r"^zero marginal density at case 3$"):
            _model(comps, pi).posterior_weights(obs)

    def test_returned_arrays_belong_to_the_caller(self, kind):
        """Later calls on the same batch leave earlier results alone; nothing returned is the batch's scratch."""
        obs, comps, pi = _weights_case(kind)
        first, other = _model(comps, pi), _model(comps, np.array([0.1, 0.2, 0.3, 0.4]))
        w, logf = first.posterior_weights(obs)
        log_marginal = first.log_marginal(obs)
        kept = [a.copy() for a in (w, logf, log_marginal)]
        e_step(obs, other)
        other.posterior_weights(obs)
        other.log_marginal(obs)
        for a, copy in zip((w, logf, log_marginal), kept):
            assert a.tobytes() == copy.tobytes()
            assert a.flags.writeable and not np.shares_memory(a, obs.scratch)
        assert not np.shares_memory(w, logf)

    def test_m_step_leaves_its_weights_alone(self, kind):
        """bench/replay.py runs ``m_step`` on one captured w again and again."""
        obs, comps, pi = _weights_case(kind)
        config = FitConfig(n_components=4, null_mode=NullMode.NONE)
        w, _ = e_step(obs, _model(comps, np.full(4, 0.25)))
        kept = w.copy()
        updated, _ = m_step(obs, w, config, _model(comps, np.full(4, 0.25)))
        e_step(obs, updated)
        m_step(obs, w, config, updated)
        assert w.tobytes() == kept.tobytes()


def test_bound_kernel_outlives_the_e_step():
    """With varying s2 the E-step reads the M-step's bound rows into a new buffer, never over them."""
    obs, comps, _ = _weights_case("normal-varying-s2")
    config = FitConfig(n_components=4, null_mode=NullMode.NONE)
    w, _ = e_step(obs, _model(comps, np.full(4, 0.25)))
    updated, _ = m_step(obs, w, config, _model(comps, np.full(4, 0.25)))
    w1, pll1 = e_step(obs, updated)
    w2, pll2 = e_step(obs, updated)
    assert pll1 == pll2 and w1.tobytes() == w2.tobytes()
    assert w1.flags.writeable and not np.shares_memory(w1, w2)


def test_steady_map_allocates_only_its_results():
    """A map's new memory is its w and log f and little more: the kernel becomes w in place.

    tracemalloc sees numpy's buffers.  The bound is (J + 2) n doubles; w
    alone is J n and log f n.
    """
    n, j = 20_000, 3
    rng = np.random.default_rng(8)
    data = Observations.normal(rng.normal(size=n) + np.where(rng.uniform(size=n) < 0.1, 3.0, 0.0))
    config = FitConfig(n_components=j)
    model = initialize(data, config)
    w, _ = e_step(data, model)
    for _ in range(2):
        model, _ = m_step(data, w, config, model)
        w, _ = e_step(data, model)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        model, _ = m_step(data, w, config, model)
        e_step(data, model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= (j + 2) * n * 8


class TestMStep:
    def test_unweighted_moment_match(self):
        rng = np.random.default_rng(1)
        z = rng.normal(1.0, 2.0, size=400)
        obs = Observations.normal(z)
        model = MixtureModel(
            pi=np.array([1.0]),
            components=(NormalComponent(0.0, 5.0),),
            null_mode=NullMode.NONE,
            penalty=np.zeros(1),
        )
        w = np.ones((1, 400))
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
        w = np.zeros((2, 100))
        w[0, :60] = 1.0
        w[1, 60:] = 1.0
        updated, _ = m_step(obs, w, config, model)
        np.testing.assert_allclose(updated.pi[0], (60 + 30) / 130, rtol=1e-12)
        np.testing.assert_allclose(updated.pi[1], 40 / 130, rtol=1e-12)

    def test_binomial_newton_matches_grid_search(self):
        rng = derive_rng(11, 99)
        n_tr = rng.integers(50, 51, size=2000)
        delta = rng.beta(2.0, 2.0, size=2000)
        h = rng.binomial(n_tr, delta)
        obs = Observations.binomial(h, n_tr)
        w = np.ones((1, 2000))
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

    def test_binomial_underdispersed_fit_is_point_mass(self):
        """The overdispersion score at kappa = 0 is negative: one M-step lands on the point mass."""
        h, n = self.underdispersed_season()
        obs = Observations.binomial(h, n)
        config = FitConfig(n_components=1, penalty=0.0, null_mode=NullMode.NONE)
        updated, _ = m_step(obs, np.ones((1, 400)), config, initialize(obs, config))
        fit = updated.components[0]
        assert fit.kappa == 0.0
        np.testing.assert_allclose(fit.mean, h.sum() / n.sum(), rtol=1e-15)
        # Tarone's score at the fitted rate is indeed <= 0
        p = fit.mean
        assert np.sum(h * (h - 1) / (2 * p) + (n - h) * (n - h - 1) / (2 * (1 - p)) - n * (n - 1) / 2) <= 0

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
            start = BetaComponent.from_shapes(conc * mean, conc * (1.0 - mean))
            model = MixtureModel(
                pi=np.array([1.0]),
                components=(start,),
                null_mode=NullMode.NONE,
                penalty=np.zeros(1),
            )
            fit = m_step(obs, w[None], config, model)[0].components[0]
            before = oracles.weighted_component_loglik_mp(h, n, w, start)
            after = oracles.weighted_component_loglik_mp(h, n, w, fit)
            assert after >= before

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_binomial_m_step_beats_start_and_box_newton(self, seed):
        """On random weights F(update) >= F(start), and >= F of the box-clipped (alpha, beta) Newton.

        Seasons 0-5 of seed 9 hold both underdispersed data (the update is
        the point mass; the box solver stops at its cap c = 2e8) and
        overdispersed data.  F is the 40-digit weighted log-likelihood;
        where both solvers reach the same optimum they agree to rounding.
        """
        from ebmix.baseball import synthetic_season
        from ebmix.families import _fit_beta_newton

        rng = np.random.default_rng(seed)
        records, _ = synthetic_season(n_players=400, seed=9, season_index=int(rng.integers(0, 6)))
        idx = rng.choice(len(records), 30, replace=False)
        h = np.array([records[i].h1 for i in idx])
        n = np.array([records[i].n1 for i in idx])
        w = rng.uniform(0.05, 1.0, 30)
        mean = 1.0 / (1.0 + np.exp(-(np.log(1 / 3) + rng.standard_normal())))
        conc = 10.0 ** rng.uniform(-1.0, np.log10(2e8))
        start = BetaComponent.from_shapes(conc * mean, conc * (1.0 - mean))
        fit = _fit_beta_newton(Observations.binomial(h, n), w, start)
        f_fit = oracles.weighted_component_loglik_mp(h, n, w, fit)
        assert f_fit >= oracles.weighted_component_loglik_mp(h, n, w, start)
        f_box = oracles.weighted_betabinom_loglik_mp(h, n, w, *oracles.box_newton_beta_fit(h, n, w, start.alpha, start.beta))
        assert f_fit >= f_box - 1e-12 * (1 + abs(f_box))

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
            fit = m_step(obs, w[None], config, model)[0].components[0]
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
        "mode, j, k",
        [
            pytest.param(NullMode.THEORETICAL, 3, 2, id="theoretical-2"),
            pytest.param(NullMode.THEORETICAL, 2, 1, id="theoretical-1-J2"),
            pytest.param(NullMode.EMPIRICAL, 3, 0, id="empirical-0"),
            pytest.param(NullMode.EMPIRICAL, 3, 2, id="empirical-2"),
            pytest.param(NullMode.NONE, 3, 1, id="none-1"),
        ],
    )
    def test_empty_component_restarts_from_initial_model(self, monkeypatch, mode, j, k):
        """The emptied component k restarts; ``update`` gets the other free rows, each fitted as on its own.

        With a theoretical null and J = 2 no row is left to fit, so
        ``update`` is not called.  With no null and k = 1 the fitted rows
        0 and 2 are not adjacent.
        """
        obs = Observations.normal(derive_rng(5, 0).standard_normal(200))
        config = FitConfig(n_components=j, penalty=0.0, null_mode=mode, n_restarts=1)
        start = initialize(obs, config)
        comps = list(start.components)
        comps[k] = NormalComponent(1000.0, 0.0)
        model = dataclasses.replace(start, components=tuple(comps))
        w, _ = e_step(obs, model)
        assert np.all(w[k] == 0.0)
        real_update = NormalObservations.update
        calls = []

        def counted_update(data, *args):
            calls.append(args)
            return real_update(data, *args)

        monkeypatch.setattr(NormalObservations, "update", counted_update)
        updated, reinit = m_step(obs, w, config, model)
        assert reinit
        assert updated.components[k] == start.components[k]
        fitted = [i for i in range(j) if i != k and (i > 0 or mode is not NullMode.THEORETICAL)]
        assert len(calls) == (1 if fitted else 0)
        for i in fitted:
            (alone,) = real_update(obs, w[[i]], w[[i]].sum(axis=1), [comps[i]])
            assert updated.components[i] == alone

        # EM from the emptied start restarts it and keeps the objective monotone
        calls = []

        def initialize_empty_first(data, cfg, restart_index=0):
            calls.append(restart_index)
            return model if len(calls) == 1 else initialize(data, cfg, restart_index)

        monkeypatch.setattr(mixture, "initialize", initialize_empty_first)
        fitted = em_fit(obs, config)
        assert calls[0] == 0
        assert fitted.components[k].mean != 1000.0

    @staticmethod
    def _two_fit_plus_empty(monkeypatch):
        """200 N(0, 1) cases, a config of J = 3, and EM started from a fitted J = 2 model plus a third component at pi = 0."""
        obs = Observations.normal(derive_rng(5, 0).standard_normal(200))
        config = FitConfig(n_components=2, penalty=0.0, null_mode=NullMode.NONE, n_restarts=1)
        two = em_fit(obs, config)
        start = MixtureModel(
            pi=np.append(two.pi, 0.0),
            components=two.components + (NormalComponent(0.0, 1.0),),
            null_mode=NullMode.NONE,
            penalty=np.zeros(3),
        )
        real_initialize = mixture.initialize
        calls = []

        def initialize_from_start(data, cfg, restart_index=0):
            calls.append(restart_index)
            return start if len(calls) == 1 else real_initialize(data, cfg, restart_index)

        monkeypatch.setattr(mixture, "initialize", initialize_from_start)
        return obs, dataclasses.replace(config, n_components=3)

    def test_reinit_dip_excused_at_its_own_iteration_only(self, monkeypatch):
        obs, config = self._two_fit_plus_empty(monkeypatch)
        fitted = em_fit(obs, config)
        steps = np.diff(fitted.diagnostics.trace)
        # the reinit is at iteration 1, and only there may the pll fall
        assert np.flatnonzero(steps < -1e-9).tolist() == [0]

    def test_fall_after_reinit_iteration_raises(self, monkeypatch):
        obs, config = self._two_fit_plus_empty(monkeypatch)
        real_m_step = mixture.m_step
        calls = []

        def m_step_worse_second_time(data, w, cfg, model):
            calls.append(1)
            updated, reinit = real_m_step(data, w, cfg, model)
            if len(calls) == 2:
                comps = (NormalComponent(5.0, 0.0),) + updated.components[1:]
                updated = dataclasses.replace(updated, components=comps)
            return updated, reinit

        monkeypatch.setattr(mixture, "m_step", m_step_worse_second_time)
        with pytest.raises(FitError, match=r"^all 1 restarts failed: iteration 2: penalized log-likelihood decreased"):
            em_fit(obs, config)


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

    def test_seed_taken_mod_2_64(self):
        np.testing.assert_array_equal(
            derive_rng(-1, 1, 2).standard_normal(8), derive_rng(2**64 - 1, 1, 2).standard_normal(8)
        )
        np.testing.assert_array_equal(derive_rng(2**64, 3).random(8), derive_rng(0, 3).random(8))

    @pytest.mark.parametrize("seed, key", [(1.5, ()), (True, ()), (1.0, ()), (1, (2.0,)), (1, (False,)), ("1", ())])
    def test_seed_must_be_an_integer(self, seed, key):
        with pytest.raises(ContractError, match="seed must be an integer"):
            derive_rng(seed, *key)

    def test_numpy_integer_seed_accepted(self):
        np.testing.assert_array_equal(derive_rng(np.int64(7), np.uint8(2)).random(4), derive_rng(7, 2).random(4))

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

    @staticmethod
    def point_mass_cases(seed, n_trials=1e9):
        """200 cases with N near n_trials, from a 70/30 mixture of the point masses 0.3 and 0.6."""
        rng = np.random.default_rng(seed)
        n = (n_trials * rng.uniform(0.5, 1.5, 200)).astype(np.int64)
        p = np.where(rng.uniform(size=200) < 0.7, 0.3, 0.6)
        return Observations.binomial(rng.binomial(n, p), n)

    def test_binomial_huge_trials_no_restart_fails(self):
        """N near 1e9, J=3, seed 1: no restart trips EM's 1e-9 monotonicity check.

        The kernel's terms have size N log N; without the data-only
        saturated terms split off, their rounding made restarts 1 and 2
        stop with "penalized log-likelihood decreased".
        """
        obs = self.point_mass_cases(1)
        config = FitConfig(n_components=3, penalty=0.0, null_mode=NullMode.NONE, seed=1)
        for restart in range(config.n_restarts):
            model = mixture._run_em(obs, config, restart)  # raises NumericError if the check trips
            assert model.diagnostics.converged
            means = sorted(c.mean for c, p in zip(model.components, model.pi) if p > 0.01)
            np.testing.assert_allclose([means[0], means[-1]], [0.3, 0.6], atol=1e-4)
            assert np.all(np.diff(model.diagnostics.trace) >= -1e-9)

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

    @staticmethod
    def _null_free_start(monkeypatch, bad_restarts):
        """Restarts in ``bad_restarts`` start with pi_0 = 0 under a null penalty, which e_step rejects."""
        real_initialize = mixture.initialize

        def initialize_null_free(data, cfg, restart_index=0):
            start = real_initialize(data, cfg, restart_index)
            if restart_index not in bad_restarts:
                return start
            j = cfg.n_components
            return dataclasses.replace(start, pi=np.append(0.0, np.full(j - 1, 1.0 / (j - 1))))

        monkeypatch.setattr(mixture, "initialize", initialize_null_free)

    def test_failed_restart_dropped(self, monkeypatch):
        obs = fdr_scenario_obs()
        config = FitConfig(n_components=3, penalty=50.0, n_restarts=3)
        self._null_free_start(monkeypatch, bad_restarts={1})
        with pytest.raises(NumericError, match="penalized component has zero proportion"):
            mixture._run_em(obs, config, 1)
        others = [mixture._run_em(obs, config, r) for r in (0, 2)]
        best = max(others, key=lambda m: m.diagnostics.penalized_loglik)
        assert em_fit(obs, config) == best

    def test_all_restarts_failed(self, monkeypatch):
        obs = fdr_scenario_obs()
        config = FitConfig(n_components=3, penalty=50.0, n_restarts=3)
        self._null_free_start(monkeypatch, bad_restarts={0, 1, 2})
        with pytest.raises(FitError, match=r"^all 3 restarts failed: penalized component has zero proportion$"):
            em_fit(obs, config)

    def test_e_step_error_names_iteration(self, monkeypatch):
        obs = fdr_scenario_obs()
        config = FitConfig(n_components=3, penalty=50.0, n_restarts=1)
        real_e_step = mixture.e_step
        calls = []

        def e_step_fails_third_call(data, model):
            calls.append(1)
            if len(calls) == 3:
                raise NumericError("injected")
            return real_e_step(data, model)

        monkeypatch.setattr(mixture, "e_step", e_step_fails_third_call)
        with pytest.raises(NumericError, match=r"^iteration 2: injected$"):
            mixture._run_em(obs, config, 0)

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

    @pytest.mark.parametrize("rel_tol", [0.0, -1e-8, np.nan, np.inf])
    def test_rel_tol_must_be_finite_and_positive(self, rel_tol):
        with pytest.raises(ContractError, match="invalid convergence controls"):
            FitConfig(rel_tol=rel_tol)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_components", 3.0),
            ("n_components", True),
            ("max_iters", 2.5),
            ("max_iters", 100.0),
            ("n_restarts", True),
            ("n_restarts", 2.0),
            ("seed", 1.5),
            ("seed", False),
        ],
    )
    def test_integer_controls_must_be_integers(self, field, value):
        """A float or a bool is refused, not truncated by ``range`` or the seed stream, nor read as 1 or 0."""
        with pytest.raises(ContractError, match=f"^{field} must be an integer, got {value!r}$"):
            FitConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [("penalty", True), ("penalty", "5"), ("rel_tol", True), ("rel_tol", "1e-6")])
    def test_real_controls_must_be_real_numbers(self, field, value):
        """A bool is not read as 1 or 0, and a string is refused before any comparison."""
        with pytest.raises(ContractError, match=f"^{field} must be a real number, got {value!r}$"):
            FitConfig(**{field: value})

    def test_numpy_real_controls_accepted(self):
        config = FitConfig(penalty=np.float64(5.0), rel_tol=np.float32(1e-6))
        assert config.penalty_vector(10)[0] == 5.0
        assert FitConfig(penalty=4).penalty_vector(10)[0] == 4.0

    def test_numpy_integer_controls_accepted(self):
        config = FitConfig(n_components=np.int64(2), max_iters=np.int32(5), n_restarts=np.int64(1), seed=np.uint64(7))
        obs = Observations.normal(derive_rng(5, 0).standard_normal(50))
        assert em_fit(obs, config).n_components == 2


class TestBic:
    def test_parameter_counts(self):
        binom = MixtureModel(
            pi=np.array([1.0]),
            components=(BetaComponent.from_shapes(2.0, 2.0),),
            null_mode=NullMode.NONE,
            penalty=np.zeros(1),
        )
        assert n_free_parameters(binom) == 2
        normal3 = MixtureModel(
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
            pi=np.array([0.5, 0.5]),
            components=(BetaComponent.from_shapes(30.0, 70.0), BetaComponent.from_shapes(60.0, 40.0)),
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

    def test_binomial_point_mass_draws_binomial_counts(self):
        """A kappa = 0 component draws delta = mean: counts are binomial, with no overdispersion."""
        model = MixtureModel(
            pi=np.array([0.5, 0.5]),
            components=(BetaComponent(0.3, 0.0), BetaComponent.from_shapes(90.0, 10.0)),
            null_mode=NullMode.NONE,
            penalty=np.zeros(2),
        )
        obs = model.sample(4000, derive_rng(1, 99), trials=400)
        low = obs.counts[obs.counts < 240] / 400.0  # the point-mass draws; the Be(90, 10) ones sit near 0.9
        assert abs(low.mean() - 0.3) < 0.002
        np.testing.assert_allclose(low.var(), 0.3 * 0.7 / 400, rtol=0.1)
