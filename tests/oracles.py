"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the package's closed-form paths:
quadrature, dense grids and exhaustive scans only, so the main code and
these checks can only agree by both being right.
"""

import numpy as np
from scipy import integrate
from scipy.special import betaln, gammaln
from scipy.stats import beta as beta_dist
from scipy.stats import norm


def normal_marginal_quad(z, prior_mean, prior_var, s2=1.0):
    """f^(j)(z) = int phi(z; d, s2) phi(d; m, v) dd by adaptive quadrature."""
    if prior_var == 0.0:
        return norm.pdf(z, loc=prior_mean, scale=np.sqrt(s2))
    sd = np.sqrt(prior_var)
    lo, hi = prior_mean - 12 * sd, prior_mean + 12 * sd
    val, _ = integrate.quad(
        lambda d: norm.pdf(z, loc=d, scale=np.sqrt(s2)) * norm.pdf(d, loc=prior_mean, scale=sd),
        lo,
        hi,
        limit=200,
    )
    return val


def normal_posterior_moments_quad(z, prior_mean, prior_var, s2=1.0):
    """(E, Var) of delta | z for one normal component, by quadrature."""
    if prior_var == 0.0:
        return prior_mean, 0.0
    sd = np.sqrt(prior_var)
    lo, hi = prior_mean - 12 * sd, prior_mean + 12 * sd

    def joint(d):
        return norm.pdf(z, loc=d, scale=np.sqrt(s2)) * norm.pdf(d, loc=prior_mean, scale=sd)

    mass, _ = integrate.quad(joint, lo, hi, limit=200)
    m1, _ = integrate.quad(lambda d: d * joint(d), lo, hi, limit=200)
    m2, _ = integrate.quad(lambda d: d * d * joint(d), lo, hi, limit=200)
    mean = m1 / mass
    return mean, m2 / mass - mean**2


def betabinom_pmf_grid(h, n, alpha, beta, n_grid=200001):
    """Beta-binomial pmf by midpoint quadrature over a fine delta grid."""
    edges = np.linspace(0.0, 1.0, n_grid)
    mid = 0.5 * (edges[:-1] + edges[1:])
    width = np.diff(edges)
    log_binom = (
        gammaln(n + 1)
        - gammaln(h + 1)
        - gammaln(n - h + 1)
        + h * np.log(mid)
        + (n - h) * np.log1p(-mid)
    )
    log_prior = (
        (alpha - 1) * np.log(mid) + (beta - 1) * np.log1p(-mid) - betaln(alpha, beta)
    )
    return float(np.sum(np.exp(log_binom + log_prior) * width))


def betabinom_posterior_moments_quad(h, n, alpha, beta, n_grid=200001):
    """(E, Var) of delta | h for one beta component, fine-grid quadrature."""
    edges = np.linspace(0.0, 1.0, n_grid)
    mid = 0.5 * (edges[:-1] + edges[1:])
    width = np.diff(edges)
    logw = (
        h * np.log(mid)
        + (n - h) * np.log1p(-mid)
        + (alpha - 1) * np.log(mid)
        + (beta - 1) * np.log1p(-mid)
    )
    w = np.exp(logw - logw.max()) * width
    w /= w.sum()
    mean = float(np.sum(w * mid))
    return mean, float(np.sum(w * mid**2) - mean**2)


def weighted_betabinom_loglik(h, n, w, alpha, beta):
    return float(np.sum(w * (betaln(alpha + h, beta + n - h) - betaln(alpha, beta))))


def betabinom_log_pmf_mp(h, n, alpha, beta, dps=40):
    """Beta-binomial log pmf as an mpmath number, log-gamma at `dps` digits."""
    import mpmath

    with mpmath.workdps(dps):
        a, b = mpmath.mpf(float(alpha)), mpmath.mpf(float(beta))
        lg = mpmath.loggamma
        return (
            lg(n + 1) - lg(h + 1) - lg(n - h + 1)
            + lg(a + h) + lg(b + n - h) - lg(a + b + n)
            - lg(a) - lg(b) + lg(a + b)
        )


def weighted_betabinom_loglik_mp(h, n, w, alpha, beta, dps=40):
    """sum_i w_i log BB(h_i | n_i, alpha, beta) as an mpmath number."""
    import mpmath

    with mpmath.workdps(dps):
        return mpmath.fsum(
            mpmath.mpf(float(wi)) * betabinom_log_pmf_mp(int(hi), int(ni), alpha, beta, dps)
            for hi, ni, wi in zip(h, n, w)
        )


def grid_search_beta_fit(h, n, w, lo=0.1, hi=100.0):
    """Exhaustive log-grid maximizer of the weighted beta-binomial loglik.

    Coarse scan over [lo, hi]^2 followed by one zoom around the argmax;
    final resolution is ~0.2% per coordinate.
    """

    def scan(a_grid, b_grid):
        best, best_ab = -np.inf, (None, None)
        for a in a_grid:
            vals = np.array([weighted_betabinom_loglik(h, n, w, a, b) for b in b_grid])
            k = int(np.argmax(vals))
            if vals[k] > best:
                best, best_ab = vals[k], (a, b_grid[k])
        return best_ab, best

    coarse = np.exp(np.linspace(np.log(lo), np.log(hi), 61))
    (a0, b0), _ = scan(coarse, coarse)
    step = np.log(hi / lo) / 60
    fine_a = np.exp(np.linspace(np.log(a0) - step, np.log(a0) + step, 41))
    fine_b = np.exp(np.linspace(np.log(b0) - step, np.log(b0) + step, 41))
    return scan(fine_a, fine_b)


def sparse_prior_posterior_mean_riemann(z, null_weight, intervals, n_points=1_000_000):
    """Bayes posterior mean under point-mass + uniform prior, Riemann sum."""
    num = 0.0
    den = null_weight * norm.pdf(z)
    for lo, hi, weight in intervals:
        d = np.linspace(lo, hi, n_points)
        f = norm.pdf(z - d)
        width = (hi - lo) / (n_points - 1)
        den += weight / (hi - lo) * np.trapezoid(f, dx=width)
        num += weight / (hi - lo) * np.trapezoid(d * f, dx=width)
    return num / den


def mixture_posterior_moments_quad(z, pi, comps, s2=1.0):
    """(E, Var, fdr-weights) under a normal mixture prior via quadrature."""
    mass = []
    m1 = []
    m2 = []
    for (mean, var), p in zip(comps, pi):
        f = normal_marginal_quad(z, mean, var, s2)
        cm, cv = normal_posterior_moments_quad(z, mean, var, s2)
        mass.append(p * f)
        m1.append(p * f * cm)
        m2.append(p * f * (cv + cm**2))
    mass, m1, m2 = np.array(mass), np.array(m1), np.array(m2)
    total = mass.sum()
    mean = m1.sum() / total
    var = m2.sum() / total - mean**2
    return mean, var, mass / total


def dense_threshold_scan(curve_fn, q, lo=0.0, hi=10.0, step=1e-4):
    """Smallest t with curve <= q for all grid points >= t, brute force."""
    grid = np.arange(lo, hi + step / 2, step)
    vals = curve_fn(grid)
    above = vals > q
    if above[-1]:
        return None
    if not above.any():
        return lo
    return float(grid[int(np.flatnonzero(above)[-1]) + 1])


def poisson_gamma_log_marginal(z_max, shape, rate):
    """log f(z) for z ~ Poisson(lam), lam ~ Gamma(shape, rate), z = 0..z_max."""
    z = np.arange(z_max + 1)
    return (
        gammaln(shape + z)
        - gammaln(shape)
        - gammaln(z + 1)
        + shape * np.log(rate / (rate + 1.0))
        - z * np.log(rate + 1.0)
    )


def poisson_log_pmf(z_max, lam):
    z = np.arange(z_max + 1)
    return z * np.log(lam) - lam - gammaln(z + 1)


def poisson_gamma_posterior_mean_loglam(z, shape, rate):
    """E(log lam | z) by quadrature against the Gamma(shape+z, rate+1) posterior."""
    a, b = shape + z, rate + 1.0
    mode_sd = np.sqrt(a) / b
    lo = max(1e-12, a / b - 12 * mode_sd)
    hi = a / b + 12 * mode_sd

    def w(lam):
        return np.exp((a - 1) * np.log(lam) - b * lam - gammaln(a) + a * np.log(b))

    mass, _ = integrate.quad(w, lo, hi, limit=200)
    val, _ = integrate.quad(lambda lam: np.log(lam) * w(lam), lo, hi, limit=200)
    return val / mass


def beta_mixture_arcsin_mean_quad(h, n, pi, comps):
    """E(arcsin sqrt(delta) | h) under a beta-mixture prior, by quadrature.

    Each posterior integral is split at its mean +- 10 and +- 60 sds, so
    adaptive quadrature finds the mass of a posterior of any width.
    """
    num = 0.0
    den = 0.0
    for (a, b), p in zip(comps, pi):
        marg = np.exp(
            gammaln(n + 1)
            - gammaln(h + 1)
            - gammaln(n - h + 1)
            + betaln(a + h, b + n - h)
            - betaln(a, b)
        )
        pa, pb = a + h, b + n - h
        mean = pa / (pa + pb)
        sd = np.sqrt(mean * (1.0 - mean) / (pa + pb + 1.0))
        cuts = {mean + k * sd for k in (-60, -10, 10, 60)}
        edges = [0.0] + sorted(c for c in cuts if 0.0 < c < 1.0) + [1.0]
        post_mean = sum(
            integrate.quad(
                lambda d: np.arcsin(np.sqrt(d)) * beta_dist.pdf(d, pa, pb), lo, hi, limit=200
            )[0]
            for lo, hi in zip(edges[:-1], edges[1:])
        )
        num += p * marg * post_mean
        den += p * marg
    return num / den
