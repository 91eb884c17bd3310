"""Component marginals and posteriors against quadrature oracles."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from ebmix import (
    BetaComponent,
    ContractError,
    Family,
    FitConfig,
    MixtureModel,
    NormalComponent,
    NullMode,
    NumericError,
    Observations,
    component_log_marginal,
)
from ebmix import families, mixture
from ebmix.families import OBSERVATIONS, RISING_TABLE, log_marginal_matrix, rising_beyond


class TestComponentMarginal:
    def test_standard_normal_at_mode(self):
        obs = Observations.normal([0.0])
        lp = component_log_marginal(obs, NormalComponent(0.0, 0.0))
        np.testing.assert_allclose(lp, np.log(1.0 / np.sqrt(2 * np.pi)), rtol=1e-12)

    def test_uniform_beta_prior_gives_flat_counts(self):
        """Be(1,1) prior makes every count equally likely: pmf = 1/(N+1)."""
        comp = BetaComponent.from_shapes(1.0, 1.0)
        obs = Observations.binomial(np.arange(4), np.full(4, 3))
        lp = component_log_marginal(obs, comp)
        np.testing.assert_allclose(lp, np.log(0.25), atol=1e-12)

    def test_betabinom_against_quadrature_oracle(self):
        # frozen from oracles.betabinom_pmf_grid(1, 3, 2, 2) = 0.3
        obs = Observations.binomial([1], [3])
        lp = component_log_marginal(obs, BetaComponent.from_shapes(2.0, 2.0))
        np.testing.assert_allclose(lp, np.log(0.3), atol=1e-10)
        np.testing.assert_allclose(
            np.exp(lp[0]), oracles.betabinom_pmf_grid(1, 3, 2.0, 2.0), atol=1e-8
        )

    def test_normal_marginal_matches_quadrature(self):
        for z, m, v, s2 in [(1.3, 0.5, 2.0, 1.0), (-2.0, 1.0, 0.5, 2.5), (4.0, 3.0, 0.0, 1.0)]:
            obs = Observations.normal([z], [s2])
            lp = component_log_marginal(obs, NormalComponent(m, v))
            np.testing.assert_allclose(
                np.exp(lp[0]), oracles.normal_marginal_quad(z, m, v, s2), rtol=1e-9
            )

    @given(
        n=st.integers(1, 200),
        alpha=st.floats(0.05, 50.0),
        beta=st.floats(0.05, 50.0),
    )
    def test_betabinom_pmf_normalizes(self, n, alpha, beta):
        comp = BetaComponent.from_shapes(alpha, beta)
        obs = Observations.binomial(np.arange(n + 1), np.full(n + 1, n))
        total = np.exp(component_log_marginal(obs, comp)).sum()
        np.testing.assert_allclose(total, 1.0, atol=1e-10)

    def test_normal_marginal_integrates_to_one(self):
        from scipy import integrate

        for m, v, s2 in [(0.0, 0.0, 1.0), (1.5, 2.0, 1.0), (-2.0, 0.3, 0.7)]:
            comp = NormalComponent(m, v)
            width = 10 * np.sqrt(v + s2)
            val, _ = integrate.quad(
                lambda z: np.exp(
                    component_log_marginal(Observations.normal([z], [s2]), comp)[0]
                ),
                m - width,
                m + width,
                limit=200,
            )
            np.testing.assert_allclose(val, 1.0, atol=1e-8)

    def test_family_mismatch_rejected(self):
        with pytest.raises(ContractError):
            component_log_marginal(Observations.normal([1.0]), BetaComponent.from_shapes(1.0, 1.0))
        with pytest.raises(ContractError):
            component_log_marginal(
                Observations.binomial([1], [2]), NormalComponent(0.0, 1.0)
            )

    def test_matrix_rows_are_component_marginals(self):
        cases = [
            (
                Observations.normal([-1.0, 0.5, 3.2], [1.0, 2.0, 0.5]),
                (NormalComponent(0.0, 0.0), NormalComponent(1.0, 2.0)),
            ),
            (
                Observations.binomial([0, 3, 40, 150], [11, 40, 150, 150]),
                (
                    BetaComponent.from_shapes(0.5, 0.3),
                    BetaComponent.from_shapes(302.0, 884.0),
                    BetaComponent.from_shapes(3.42e7, 9.95e7),
                    BetaComponent.from_shapes(0.255 * 2e8, 0.745 * 2e8),  # at the concentration cap
                ),
            ),
        ]
        for obs, comps in cases:
            mat = log_marginal_matrix(obs, comps)
            for j, c in enumerate(comps):
                np.testing.assert_allclose(mat[j] + obs.saturated, component_log_marginal(obs, c), rtol=1e-14)

    @pytest.mark.parametrize(
        "shape",
        [(0.5, 0.3), (3.0, 7.0), (302.0, 884.0), (1e-8, 2.0), (3.4e7, 9.95e7), (1e8, 1e8)],
        ids=lambda ab: f"{ab[0]:g}-{ab[1]:g}",
    )
    def test_betabinom_matches_mpmath(self, shape):
        """Full precision at any concentration; a betaln difference is off by ~7e-7 at 1e8."""
        rng = np.random.default_rng(20)
        n = 11 + rng.poisson(140, 20)
        h = rng.integers(0, n + 1)
        got = component_log_marginal(Observations.binomial(h, n), BetaComponent.from_shapes(*shape))
        want = [float(oracles.betabinom_log_pmf_mp(int(hi), int(ni), *shape)) for hi, ni in zip(h, n)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("kappa", [0.0, 1e-9, 1e-6])
    @pytest.mark.parametrize("n_trials", [150, 5000, 10**6, 10**9])
    def test_near_point_mass_matches_mpmath(self, kappa, n_trials):
        """At kappa = 0 the kernel is the binomial pmf; at and near it, at any N, it matches 40-digit mpmath.

        The tolerance grows with N like the rounding of the data-only
        saturated term, whose summands have size N log N.
        """
        rng = np.random.default_rng(n_trials)
        n = (n_trials * rng.uniform(0.9, 1.1, 8)).astype(np.int64)
        for mean in (0.02, 0.3, 0.9):
            h = rng.binomial(n, mean)
            h[:2] = 0, n[1]
            obs = Observations.binomial(h, n)
            got = component_log_marginal(obs, BetaComponent(mean, kappa))
            want = [float(oracles.beta_component_log_pmf_mp(int(hi), int(ni), mean, kappa)) for hi, ni in zip(h, n)]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 + 1e-14 * n_trials)
            post = obs.posterior((BetaComponent(mean, kappa),))
            if kappa == 0.0:
                assert np.all(post.mean == mean) and np.all(post.var == 0.0)
            else:
                a, b = mean / kappa + h, (1.0 - mean) / kappa + n - h
                np.testing.assert_allclose(post.mean[0], a / (a + b), rtol=1e-13)
                np.testing.assert_allclose(post.var[0], a * b / ((a + b) ** 2 * (a + b + 1)), rtol=1e-9)

    @pytest.mark.parametrize("n_trials", [2047, 2048, 2049, 5000, 10**6])
    def test_betabinom_large_trials_matches_mpmath(self, n_trials):
        """Counts around and beyond the table length, where the Stirling series take over.

        Every summand is O(N), so the tolerance grows with N; a betaln
        difference is off by ~8e-7 at N = 1e6 and c = 1.3e8.
        """
        n = n_trials + np.array([-1, 0, 1, 0, 0, 0])
        rng = np.random.default_rng(5)
        for shape in [(0.5, 0.3), (302.0, 884.0), (1e-8, 2.0), (3.4e7, 9.95e7), (1e8, 1e8)]:
            h = rng.binomial(n, shape[0] / sum(shape))
            h[:2] = 0, n[1]
            got = component_log_marginal(Observations.binomial(h, n), BetaComponent.from_shapes(*shape))
            want = [float(oracles.betabinom_log_pmf_mp(int(hi), int(ni), *shape)) for hi, ni in zip(h, n)]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 + 1e-14 * n_trials)

    @pytest.mark.parametrize("x", [1e-8, 0.3, 1.0, 302.0, 3.4e7, 2e8])
    def test_rising_beyond_matches_mpmath(self, x):
        """The series sum at rate r = 1/x and its two r-derivatives, against 40-digit log-gamma and psi."""
        import mpmath

        cut = RISING_TABLE
        m = np.array([1.0, 7.0, 1000.0, 1e6])
        value, d1, d2 = rising_beyond(1.0 / x, m, cut, derivs=True)
        with mpmath.workdps(40):
            xm, y = mpmath.mpf(x), mpmath.mpf(x) + cut
            for j, mj in enumerate(m):
                z = y + int(mj)
                dpsi = mpmath.psi(0, z) - mpmath.psi(0, y)
                dtri = mpmath.psi(1, y) - mpmath.psi(1, z)
                want = (
                    mpmath.loggamma(z) - mpmath.loggamma(y) - int(mj) * mpmath.log(xm),
                    xm * (int(mj) - xm * dpsi),  # sum i/(1 + i r) = sum i x/(x + i)
                    xm**2 * (int(mj) - 2 * xm * dpsi + xm**2 * dtri),  # sum i^2/(1 + i r)^2
                )
                for got, w in zip((value[j], d1[j], d2[j]), want):
                    np.testing.assert_allclose(got, float(w), rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(rising_beyond(1.0 / x, m, cut), value)

    @pytest.mark.parametrize("r", [0.0, 1e-15, 1e-9, 1e-6])
    def test_rising_beyond_at_small_rates(self, r):
        """At and near r = 0 (the point mass) the sums need no limit: 0, sum i and sum i^2 at r = 0."""
        import mpmath

        cut = RISING_TABLE
        m = np.array([1.0, 7.0, 1000.0, 1e6, 1e9])
        value, d1, d2 = rising_beyond(r, m, cut, derivs=True)
        if r == 0.0:
            b = cut + m
            np.testing.assert_array_equal(value, 0.0)
            np.testing.assert_allclose(d1, (b * (b - 1) - cut * (cut - 1)) / 2, rtol=1e-15)
            np.testing.assert_allclose(d2, (b * (b - 1) * (2 * b - 1) - cut * (cut - 1) * (2 * cut - 1)) / 6, rtol=1e-14)
            return
        with mpmath.workdps(60):
            rm = mpmath.mpf(r)
            for j, mj in enumerate(m):
                # sum_{i=cut}^{cut+m-1} of log1p(i r), i/(1+ir), i^2/(1+ir)^2 by Euler-Maclaurin, exact to 60 digits
                want = [
                    mpmath.sumem(f, [cut, cut + int(mj) - 1])
                    for f in (lambda i: mpmath.log1p(i * rm), lambda i: i / (1 + i * rm), lambda i: (i / (1 + i * rm)) ** 2)
                ]
                for got, w in zip((value[j], d1[j], d2[j]), want):
                    np.testing.assert_allclose(got, float(w), rtol=1e-13)


@pytest.mark.parametrize("var_shape", ["column", "cases"])
def test_normal_logpdf_has_the_bits_of_its_closed_form(var_shape):
    """The in-place steps give the bits of -0.5 (log 2pi + log var) - (x - mean)^2 (0.5 / var)."""
    rng = np.random.default_rng(9)
    x, mean = rng.normal(0.0, 3.0, 500), rng.normal(0.0, 3.0, (4, 1))
    var = rng.uniform(0.0, 2.0, (4, 1)) + (rng.uniform(0.5, 2.0, 500) if var_shape == "cases" else 1.0)
    closed = -0.5 * (families.LOG_2PI + np.log(var)) - (x - mean) ** 2 * (0.5 / var)
    assert families.normal_logpdf(x, mean, var).tobytes() == closed.tobytes()


@pytest.mark.parametrize("var_shape", ["column", "cases"])
def test_normal_logpdf_is_within_ulps_of_the_exact_density(var_shape):
    """Each entry is within 4 ulps of the exact log-density at its float arguments, against the size of its terms.

    The size is 0.5 (log 2pi + |log var|) + (x - mean)^2 / (2 var): a
    rounding of each term, not of their difference, is all a float
    evaluation can promise.
    """
    import mpmath

    rng = np.random.default_rng(3)
    x, mean = rng.normal(0.0, 5.0, 120), rng.normal(0.0, 3.0, (4, 1))
    var = np.exp(rng.uniform(-4.0, 6.0, (4, 1))) + (np.exp(rng.uniform(-3.0, 3.0, 120)) if var_shape == "cases" else 0.0)
    got = families.normal_logpdf(x, mean, var)
    var = np.broadcast_to(var, got.shape)
    with mpmath.workdps(40):
        log_2pi = mpmath.log(2 * mpmath.pi)
        for (j, i), value in np.ndenumerate(got):
            v, d = mpmath.mpf(var[j, i]), mpmath.mpf(x[i]) - mpmath.mpf(mean[j, 0])
            log_v, quad = mpmath.log(v), d * d / (2 * v)
            exact = -(log_2pi + log_v) / 2 - quad
            size = (log_2pi + abs(log_v)) / 2 + quad
            assert abs(value - exact) <= 4 * np.finfo(float).eps * size


class TestKernelFiniteness:
    """A normal kernel is shown finite from the batch's extent where it can be, and scanned where it cannot."""

    @pytest.mark.parametrize("s2", [1.0, [1.0, 2.0, 0.5]], ids=["common", "per-case"])
    def test_overflowing_kernel_raises(self, s2):
        obs = Observations.normal([0.0, 1e200, -3.0], s2)
        model = mixture.initialize(obs, FitConfig(n_components=2))
        assert not obs.proves_finite(model.components)
        with np.errstate(over="ignore"):  # (z - mean)^2 overflows to inf
            with pytest.raises(NumericError, match="non-finite component log marginal"):
                log_marginal_matrix(obs, model.components)
            with pytest.raises(NumericError, match="non-finite component log marginal"):
                mixture.e_step(obs, model)

    def test_finite_batch_past_the_bound_fits(self):
        """(1.2e152)^2 is past the proof's bound, so the kernel is scanned, and every entry is finite."""
        z = np.append(np.random.default_rng(0).standard_normal(50), 1.2e152)
        obs = Observations.normal(z)
        fitted = mixture.em_fit(obs, FitConfig(n_components=3))
        assert not obs.proves_finite(fitted.components)
        assert math.isfinite(fitted.diagnostics.penalized_loglik)
        assert fitted.components[2] == NormalComponent(1.2e152, 0.0)

    def test_proof_holds_on_ordinary_batches(self):
        rng = np.random.default_rng(1)
        obs = _normal_batch(rng, 40)
        comps = [_normal_component(rng) for _ in range(3)]
        assert obs.proves_finite(comps)
        assert not FAMILY_CASES[Family.BINOMIAL][0](rng, 40).proves_finite([_beta_component(rng)])


class TestComponentPosterior:
    def test_point_mass_prior_is_unmoved(self):
        post = Observations.normal([5.0]).posterior((NormalComponent(0.0, 0.0),))
        assert post.mean[0] == 0.0 and post.var[0] == 0.0
        # exactly: (s2 * 0.1) / s2 is 0.10000000000000002 at s2 = 3
        post = Observations.normal([5.0], [3.0]).posterior((NormalComponent(0.1, 0.0),))
        assert post.mean[0, 0] == 0.1 and post.var[0, 0] == 0.0

    def test_shrinkage_factor(self):
        post = Observations.normal([2.0]).posterior((NormalComponent(0.0, 3.0),))
        np.testing.assert_allclose(post.mean, 1.5, rtol=1e-14)
        np.testing.assert_allclose(post.var, 0.75, rtol=1e-14)

    def test_conjugate_beta_update(self):
        post = Observations.binomial([10], [30]).posterior((BetaComponent.from_shapes(302.0, 884.0),))
        # Be(302 + 10, 884 + 20)
        np.testing.assert_allclose(post.mean, 312.0 / 1216.0, rtol=1e-14)
        np.testing.assert_allclose(post.var, 312.0 * 904.0 / (1216.0**2 * 1217.0), rtol=1e-13)

    def test_posterior_moments_match_quadrature_normal(self):
        cases = [(1.0, 0.5, 2.0, 1.0), (-2.5, 0.0, 1.0, 0.5), (3.0, 2.0, 4.0, 2.0)]
        for z, m, v, s2 in cases:
            post = Observations.normal([z], [s2]).posterior((NormalComponent(m, v),))
            em, vm = oracles.normal_posterior_moments_quad(z, m, v, s2)
            np.testing.assert_allclose(post.mean[0], em, atol=1e-6)
            np.testing.assert_allclose(post.var[0], vm, atol=1e-6)

    def test_posterior_moments_match_quadrature_binomial(self):
        cases = [(3, 10, 2.0, 5.0), (0, 4, 1.0, 1.0), (40, 120, 302.0, 884.0)]
        for h, n, a, b in cases:
            post = Observations.binomial([h], [n]).posterior((BetaComponent.from_shapes(a, b),))
            em, vm = oracles.betabinom_posterior_moments_quad(h, n, a, b)
            np.testing.assert_allclose(post.mean[0], em, atol=1e-6)
            np.testing.assert_allclose(post.var[0], vm, atol=1e-6)


class TestObservations:
    def test_binomial_count_bounds(self):
        with pytest.raises(ContractError):
            Observations.binomial([5], [3])
        with pytest.raises(ContractError):
            Observations.binomial([-1], [3])
        with pytest.raises(ContractError):
            Observations.binomial([0], [0])

    @pytest.mark.parametrize(
        "counts, trials, message",
        [
            ([np.inf], [3], "must be finite"),
            ([-np.inf], [3], "must be finite"),
            ([1.0], [np.inf], "must be finite"),
            ([1.0], [-np.inf], "must be finite"),
            ([np.nan], [3.0], "must be finite"),
            ([1.0], [1e30], r"below 2\*\*63"),
            ([1e30], [3.0], r"below 2\*\*63"),
            ([-1e30], [3.0], r"below 2\*\*63"),
        ],
    )
    def test_binomial_float_values_checked_before_the_cast(self, counts, trials, message):
        """Non-finite or out-of-range float counts are named, with no cast warning on the way."""
        with pytest.raises(ContractError, match=message):
            Observations.binomial(counts, trials)

    @pytest.mark.parametrize(
        "make, args",
        [(Observations.normal, ([1.0, 2.0],)), (Observations.binomial, ([1, 2], [3, 3]))],
        ids=["normal", "binomial"],
    )
    def test_batches_compare_and_hash_by_identity(self, make, args):
        a, b = make(*args), make(*args)
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2

    @pytest.mark.parametrize(
        "make, args",
        [(Observations.normal, ([[1.0, 2.0, 0.5], [3.0, 4.0, 0.1]],)), (Observations.binomial, ([[1, 2], [3, 4]], 5))],
        ids=["normal", "binomial"],
    )
    def test_two_dimensional_cases_are_refused(self, make, args):
        with pytest.raises(ContractError, match="must be one-dimensional, one value per case"):
            make(*args)

    def test_normal_s2_positive(self):
        with pytest.raises(ContractError):
            Observations.normal([1.0], [0.0])

    @pytest.mark.parametrize("s2", [np.inf, -np.inf, np.nan])
    def test_normal_s2_finite(self, s2):
        with pytest.raises(ContractError, match="s2 must be finite"):
            Observations.normal([1.0, 2.0], [1.0, s2])

    @pytest.mark.parametrize(
        "make, values, per_case, name",
        [
            (Observations.normal, [1.0, 2.0, 3.0], [1.0, 2.0], "s2"),
            (Observations.normal, [1.0, 2.0], [[1.0], [2.0]], "s2"),
            (Observations.binomial, [1, 2], [3, 4, 5], "trials"),
            (Observations.binomial, [1.0, 2.0, 3.0], [4.0, 5.0], "trials"),
        ],
    )
    def test_per_case_length_must_match(self, make, values, per_case, name):
        with pytest.raises(ContractError, match=f"{name} must be a scalar or one value per case"):
            make(values, per_case)

    def test_scalar_or_single_value_broadcasts(self):
        assert Observations.normal([1.0, 2.0], [3.0]).s2.tolist() == [3.0, 3.0]
        assert Observations.binomial([1, 2], 3).trials.tolist() == [3, 3]
        assert len(Observations.normal(2.0)) == len(Observations.binomial(1, 3)) == 1  # a scalar is one case

    def test_default_unit_variance(self):
        obs = Observations.normal([1.0, 2.0])
        np.testing.assert_array_equal(obs.s2, [1.0, 1.0])

    @pytest.mark.parametrize(
        "make, fields, dtype",
        [
            (Observations.normal, ("z", "s2"), float),
            (Observations.binomial, ("counts", "trials"), np.int64),
        ],
        ids=["normal", "binomial"],
    )
    def test_batch_owns_read_only_arrays(self, make, fields, dtype):
        """A batch copies its arrays and cannot be written through, so its cached terms stay true."""
        given = (np.array([1, 2, 3], dtype=dtype), np.array([4, 5, 6], dtype=dtype))
        obs = make(*given)
        for name, array in zip(fields, given):
            held = getattr(obs, name)
            with pytest.raises(ValueError):
                held[0] = 0
            array[0] = 3  # the caller's array stays writable, and the batch does not see the write
            assert held[0] != 3


def _normal_batch(rng, n):
    """Normal cases with s2 from 0.05 to 20, wide enough that a moment update would often lose to its start."""
    s2 = np.exp(rng.uniform(np.log(0.05), np.log(20.0), n))
    return Observations.normal(rng.normal(1.0, 1.0, n) + np.sqrt(s2) * rng.standard_normal(n), s2)


def _binomial_batch(rng, n):
    trials = rng.integers(5, 300, n)
    return Observations.binomial(rng.binomial(trials, rng.beta(6.0, 14.0, n)), trials)


def _normal_component(rng):
    return NormalComponent(float(rng.uniform(-1.0, 3.0)), float(rng.uniform(0.0, 3.0)))


def _beta_component(rng):
    return BetaComponent(float(rng.uniform(0.05, 0.7)), float(10.0 ** rng.uniform(-4.0, 0.0)))


# per family: a random batch of cases and a random prior component
FAMILY_CASES = {
    Family.NORMAL: (_normal_batch, _normal_component),
    Family.BINOMIAL: (_binomial_batch, _beta_component),
}

_SPREAD = Observations.normal([-4.0, 3.5, -3.0, 4.2, 0.3], [0.5, 1.0, 2.0, 1.5, 0.8])
_TIGHT = Observations.normal([0.9, 1.1, 1.0, 0.95, 1.05], [0.5, 1.0, 2.0, 1.5, 0.8])

# per family: (batch, weights, start, None or a check of the updated component) at the edges of its update
EDGE_CASES = {
    Family.NORMAL: [
        # var 0 with a positive score in var: the variance leaves 0
        (_SPREAD, np.ones(5), NormalComponent(0.0, 0.0), lambda c: c.var > 0.0),
        # var 0 with a negative score: it stays exactly 0
        (_TIGHT, np.ones(5), NormalComponent(1.0, 0.0), lambda c: c.var == 0.0),
        # every weighted residual 0 (the one case off the mean has no weight): var becomes 0, with no warning
        (Observations.normal([1.5, 1.5, 1.5, 4.0], [0.5, 1.0, 2.0, 1.0]), np.array([1.0, 2.0, 0.5, 0.0]),
         NormalComponent(1.5, 2.0), lambda c: c.var == 0.0),
        # one case (a common s2, by definition) and two cases with varying s2
        (Observations.normal([2.0], [0.7]), np.array([0.6]), NormalComponent(0.0, 1.0), lambda c: c == NormalComponent(2.0, 0.0)),
        (Observations.normal([-1.0, 2.5], [0.5, 2.0]), np.array([0.7, 0.4]), NormalComponent(0.0, 1.0), None),
        (Observations.normal([-1.0, 2.5], [0.5, 2.0]), np.array([0.7, 0.4]), NormalComponent(0.0, 0.0), None),
        # far above the maximum: the downward Newton step overshoots, and the MM step is taken
        (_SPREAD, np.ones(5), NormalComponent(0.5, 1e6), lambda c: 0.0 < c.var < 1e6),
    ],
    Family.BINOMIAL: [],
}


@pytest.mark.parametrize("family", list(Family))
class TestFamilyContract:
    """What every family class supplies, checked alike for each family."""

    def test_update_never_lowers_weighted_objective(self, family):
        """The update, as `mixture.m_step` applies it, does not lower the component's weighted log marginal, to rounding.

        Random weights and starts on a random batch, then each of the
        family's edge cases (`EDGE_CASES`), with what each must give.
        ``m_step`` keeps every update as it is: no family needs a guard.
        """
        batch, component = FAMILY_CASES[family]
        rng = np.random.default_rng(11)
        obs = batch(rng, 60)
        cases = [(obs, rng.uniform(0.0, 1.0, len(obs)) ** 2, component(rng), None) for _ in range(30)]
        config = FitConfig(n_components=1, penalty=0.0, null_mode=NullMode.NONE)
        for obs, w, start, check in cases + EDGE_CASES[family]:
            (moved,) = obs.update(w[None], np.array([w.sum()]), [start])
            model = MixtureModel(pi=np.ones(1), components=(start,), null_mode=NullMode.NONE, penalty=np.zeros(1))
            updated, _ = mixture.m_step(obs, w[None], config, model)
            (fit,) = updated.components
            assert type(fit) is OBSERVATIONS[family].component
            assert fit == moved
            before = w @ component_log_marginal(obs, start)
            after = w @ component_log_marginal(obs, fit)
            assert after >= before - 1e-12 * abs(before)
            if check is not None:
                assert check(fit)

    def test_update_leaves_components_outside_fit(self, family):
        """`mixture.m_step` fits only row 1 and keeps components 0 and 2, which have penalty mass but no weight.

        ``update`` returns one component per row it is given, and ``m_step``
        puts it in its place.
        """
        batch, component = FAMILY_CASES[family]
        rng = np.random.default_rng(15)
        obs = batch(rng, 40)
        comps = [component(rng) for _ in range(3)]
        w = rng.uniform(0.0, 1.0, (3, len(obs)))
        w[[0, 2]] = 0.0
        model = MixtureModel(pi=np.full(3, 1.0 / 3.0), components=comps, null_mode=NullMode.NONE, penalty=np.array([1.0, 0.0, 1.0]))
        updated, reinit = mixture.m_step(obs, w, FitConfig(n_components=3, null_mode=NullMode.NONE), model)
        out = updated.components
        assert not reinit and out[0] is comps[0] and out[2] is comps[2]
        alone = obs.update(w[1:2], w[1:2].sum(axis=1), [comps[1]])
        assert type(alone) is list and len(alone) == 1
        assert type(out[1]) is OBSERVATIONS[family].component and out[1] == alone[0]

    def test_draw_gives_n_cases_of_the_family(self, family):
        obs_type = OBSERVATIONS[family]
        rng = np.random.default_rng(12)
        comps = [FAMILY_CASES[family][1](rng) for _ in range(3)]
        drawn = obs_type.draw(comps, rng.integers(0, 3, 25), rng, s2=2.0, trials=40)
        assert type(drawn) is obs_type and len(drawn) == 25

    def test_start_gives_j_components_for_every_accepted_null_mode(self, family):
        obs_type = OBSERVATIONS[family]
        obs = FAMILY_CASES[family][0](np.random.default_rng(13), 50)
        assert type(obs) is obs_type and obs.family is family
        modes = [m for m in NullMode if m is not NullMode.THEORETICAL or obs_type.theoretical_null is not None]
        for mode in modes:
            for rng in (None, np.random.default_rng(14)):
                comps = obs.start(4, mode, rng)
                assert len(comps) == 4 and all(type(c) is obs_type.component for c in comps)


def _newton_kept(obs, w, start):
    """(kept, var): whether the varying-s2 step of the `families` docstring keeps its Newton step, and the step's var.

    In plain numpy sums.  Not kept only where a downward Newton step
    would lower the minorizer, and the MM step is taken instead.
    """
    v = start.var + obs.s2
    r2 = (obs.z - start.mean) ** 2
    a, b, c = np.sum(w / v), np.sum(w * r2 / v**2), np.sum(w * r2 / v**3)
    t = max(0.0, start.var + (b - a) / (2.0 * c))
    if t >= start.var or np.sum(w * r2 / (v * (t + obs.s2))) <= a:
        return True, t
    return False, start.var * math.sqrt(b / a)


@pytest.mark.parametrize(
    "seed, kept",
    [(1, [True, True]), (6, [True, True]), (10, [True, True]), (23, [True, True]),
     (8, [False, True]), (19, [True, False]), (35, [True, False])],
)
def test_varying_s2_guard_decides_each_component_on_its_own_row(seed, kept):
    """The varying-s2 step's check keeps or replaces each fitted component's Newton step on that component's own row.

    Components 1 and 2 of four are fitted by `mixture.m_step`.  Each
    comes back with the bits of a one-component update on its own row
    of w, and with the variance of its own sums' branch: the Newton step
    (upward, or downward where it does not lower the minorizer), or else
    the MM step.  At seeds 8, 19 and 35 the check replaces one
    component's Newton step and keeps the other's, so deciding a
    component on the other's row would show; at seeds 6 and 23 one step
    is downward and kept.  Components 0 and 3, with penalty mass but no
    weight, are not fitted and come back as the same objects.
    """
    rng = np.random.default_rng(seed)
    obs = _normal_batch(rng, 60)
    comps = [_normal_component(rng) for _ in range(4)]
    w = rng.uniform(0.0, 1.0, (4, 60)) ** 2  # (J, n), as e_step lays it out
    w[[0, 3]] = 0.0
    model = MixtureModel(pi=np.full(4, 0.25), components=comps, null_mode=NullMode.NONE, penalty=np.array([1.0, 0, 0, 1]))
    updated, _ = mixture.m_step(obs, w, FitConfig(n_components=4, null_mode=NullMode.NONE), model)
    out = updated.components
    assert out[0] is comps[0] and out[3] is comps[3]
    decisions = []
    for k in (1, 2):
        (alone,) = obs.update(w[[k]], w[[k]].sum(axis=1), [comps[k]])
        assert (out[k].mean, out[k].var) == (alone.mean, alone.var)
        newton, var = _newton_kept(obs, w[k], comps[k])
        decisions.append(newton)
        np.testing.assert_allclose(out[k].var, var, rtol=1e-12)
        u = w[k] / (var + obs.s2)
        np.testing.assert_allclose(out[k].mean, u @ obs.z / u.sum(), rtol=1e-12)
    assert decisions == kept


@pytest.mark.parametrize("s2", ["common"])
def test_normal_update_gives_closed_form_moments(s2):
    """Each fitted component's mean and variance, taken for all of them at once, equal their fsum closed forms.

    With a common s2 the normal M-step is the weighted moments.
    `mixture.m_step` fits rows 1 and 3, which are not adjacent, and keeps
    components 0 and 2 (penalty mass, no weight); ``update`` on those two
    rows gives ``m_step``'s components.  The data spread far beyond s2, so no
    variance is clipped at 0.
    """
    rng = np.random.default_rng(5)
    n = 80
    s2_values = np.full(n, 1.5)
    obs = Observations.normal(rng.normal(1.0, 2.0, n) + np.sqrt(s2_values) * rng.standard_normal(n), s2_values)
    comps = [_normal_component(rng) for _ in range(4)]
    w = np.ascontiguousarray(rng.uniform(0.0, 1.0, (n, 4)).T ** 2)
    w[[0, 2]] = 0.0
    model = MixtureModel(pi=np.full(4, 0.25), components=comps, null_mode=NullMode.NONE, penalty=np.array([1.0, 0, 1.0, 0]))
    updated, _ = mixture.m_step(obs, w, FitConfig(n_components=4, null_mode=NullMode.NONE), model)
    out = updated.components
    assert out[0] is comps[0] and out[2] is comps[2]
    rows = w[[1, 3]]
    assert obs.update(rows, rows.sum(axis=1), [comps[1], comps[3]]) == [out[1], out[3]]
    z, v = obs.z.tolist(), obs.s2.tolist()
    for k in (1, 3):
        w_k = w[k].tolist()
        total = math.fsum(w_k)
        mean = math.fsum(a * b for a, b in zip(w_k, z)) / total
        var = (math.fsum(a * (b - mean) ** 2 for a, b in zip(w_k, z)) - math.fsum(a * b for a, b in zip(w_k, v))) / total
        assert var > 0.5
        np.testing.assert_allclose([out[k].mean, out[k].var], [mean, var], rtol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_iterated_varying_s2_update_reaches_the_weighted_maximum(seed):
    """With w fixed, the varying-s2 update iterated from a random start reaches the weighted likelihood's maximum.

    The maximum is `oracles.weighted_normal_fit`'s brute-force search;
    the update's limit is within 1e-12 nats of it, on either side.  The
    effects spread by 0 (the maximum is the point mass), 0.5 or 2.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 100))
    s2 = np.exp(rng.uniform(np.log(0.05), np.log(20.0), n))
    z = rng.normal(1.0, [0.0, 0.5, 2.0][seed % 3], n) + np.sqrt(s2) * rng.standard_normal(n)
    obs = Observations.normal(z, s2)
    w = rng.uniform(0.0, 1.0, n) ** 2
    comp = _normal_component(rng)
    for _ in range(200):
        (comp,) = obs.update(w[None], np.array([w.sum()]), [comp])
    mean, var = oracles.weighted_normal_fit(z, s2, w)
    best = oracles.weighted_normal_loglik(z, s2, w, mean, var)
    reached = oracles.weighted_normal_loglik(z, s2, w, comp.mean, comp.var)
    assert abs(reached - best) <= 1e-12


@pytest.mark.parametrize("components", [
    (NormalComponent(0.0, 1.0), BetaComponent(0.5, 0.1)),
    (BetaComponent(0.5, 0.1), NormalComponent(0.0, 1.0)),
])
def test_model_mixing_families_rejected(components):
    with pytest.raises(ContractError):
        MixtureModel(pi=np.array([0.5, 0.5]), components=components, null_mode=NullMode.NONE, penalty=np.zeros(2))
