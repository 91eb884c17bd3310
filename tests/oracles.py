"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the package's closed-form paths:
quadrature, dense grids and exhaustive scans only, so the main code and
these checks can only agree by both being right.
"""

import math

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


def weighted_normal_loglik(z, s2, w, mean, var):
    """sum w log phi(z; mean, var + s2), summed with math.fsum."""
    z, s2, w = (np.asarray(a, dtype=float) for a in (z, s2, w))
    v = var + s2
    return math.fsum((w * -0.5 * (np.log(2.0 * np.pi * v) + (z - mean) ** 2 / v)).tolist())


def weighted_normal_fit(z, s2, w, n_grid=2001):
    """Brute-force maximizer (mean, var) of ``weighted_normal_loglik`` over the mean and var >= 0.

    The mean is profiled out: at a given var it is the mean of z weighted
    by w/(var + s2).  The profile is scanned over var on a grid from 0 to
    (max z - min z)^2, past which every v exceeds every squared residual
    and the profile only falls, linear and geometric so that a narrow
    peak near 0 is seen.  The best grid point's two neighbours bracket
    the maximum, and golden-section search narrows the bracket to width
    1e-12 (relative to 1 + var).  The best of its last point and the
    bracket's ends is returned.
    """
    z, s2, w = (np.asarray(a, dtype=float) for a in (z, s2, w))

    def profile(var):
        u = w / (var + s2)
        mean = math.fsum((u * z).tolist()) / math.fsum(u.tolist())
        return weighted_normal_loglik(z, s2, w, mean, var), mean

    top = float(np.ptp(z)) ** 2
    if top == 0.0:
        return profile(0.0)[1], 0.0
    grid = np.unique(np.concatenate([[0.0], np.linspace(0.0, top, n_grid), top * np.geomspace(1e-12, 1.0, n_grid)]))
    v = grid[:, None] + s2
    mean = np.sum(w * z / v, axis=1) / np.sum(w / v, axis=1)
    k = int(np.argmax(np.sum(w * -0.5 * (np.log(v) + (z - mean[:, None]) ** 2 / v), axis=1)))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    ends = [lo, hi]
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    fa, fb = profile(a)[0], profile(b)[0]
    while hi - lo > 1e-12 * (1.0 + hi):
        if fa >= fb:
            hi, b, fb = b, a, fa
            a = hi - ratio * (hi - lo)
            fa = profile(a)[0]
        else:
            lo, a, fa = a, b, fb
            b = lo + ratio * (hi - lo)
            fb = profile(b)[0]
    best = max([0.5 * (lo + hi)] + ends, key=lambda v: profile(v)[0])
    return profile(best)[1], float(best)


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
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        lg = mpmath.loggamma
        return (
            lg(n + 1) - lg(h + 1) - lg(n - h + 1)
            + lg(a + h) + lg(b + n - h) - lg(a + b + n)
            - lg(a) - lg(b) + lg(a + b)
        )


def beta_component_log_pmf_mp(h, n, mean, kappa, dps=40):
    """log BB(h | n) of the beta component (mean, kappa = 1/(alpha + beta)) in mpmath.

    At kappa = 0 the component is the point mass at `mean` and this is the
    binomial log pmf; otherwise alpha = mean/kappa and beta = (1 - mean)/kappa
    are formed at `dps` digits from the exact float inputs.
    """
    import mpmath

    with mpmath.workdps(dps):
        p, k = mpmath.mpf(float(mean)), mpmath.mpf(float(kappa))
        if k == 0:
            lg = mpmath.loggamma
            return lg(n + 1) - lg(h + 1) - lg(n - h + 1) + h * mpmath.log(p) + (n - h) * mpmath.log1p(-p)
        return betabinom_log_pmf_mp(h, n, p / k, (1 - p) / k, dps)


def beta_mixture_posterior_moments_mp(h, n, pi, components, dps=50):
    """E(delta | h, n) and Var(delta | h, n) under a mixture of beta components with kappa > 0, in mpmath.

    Component j has weight pi_j BB(h | n) and posterior Be(alpha + h,
    beta + n - h), whose second moment is a (a + 1)/((a + b)(a + b + 1));
    the variance is formed from the raw moments at `dps` digits.
    """
    import mpmath

    with mpmath.workdps(dps):
        logw = [mpmath.log(mpmath.mpf(float(p))) + beta_component_log_pmf_mp(h, n, c.mean, c.kappa, dps)
                for p, c in zip(pi, components)]
        top = max(logw)
        w = [mpmath.exp(lw - top) for lw in logw]
        m1 = m2 = mpmath.mpf(0)
        for wj, c in zip(w, components):
            p, k = mpmath.mpf(float(c.mean)), mpmath.mpf(float(c.kappa))
            a, b = p / k + h, (1 - p) / k + n - h
            m1 += wj * a / (a + b)
            m2 += wj * a * (a + 1) / ((a + b) * (a + b + 1))
        m1, m2 = m1 / mpmath.fsum(w), m2 / mpmath.fsum(w)
        return m1, m2 - m1 * m1


def weighted_component_loglik_mp(h, n, w, comp, dps=40):
    """sum_i w_i log BB(h_i | n_i) of a component with ``mean`` and ``kappa``, in mpmath."""
    import mpmath

    with mpmath.workdps(dps):
        return mpmath.fsum(
            mpmath.mpf(float(wi)) * beta_component_log_pmf_mp(int(hi), int(ni), comp.mean, comp.kappa, dps)
            for hi, ni, wi in zip(h, n, w)
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


def tweedie_continuous(log_f, log_f0, z):
    """Posterior mean and variance as central differences of log f - log f0.

    Tweedie's formula: for z ~ N(delta, 1) the posterior mean and variance
    of delta are the first and second derivatives of log(f/f0) at z.  Any
    pair of callables that take and return arrays will do.
    """
    z = np.asarray(z, dtype=float)

    def ratio(x):
        return log_f(x) - log_f0(x)

    h1, h2 = 1e-5, 1e-4
    mean = (ratio(z + h1) - ratio(z - h1)) / (2.0 * h1)
    var = (ratio(z + h2) - 2.0 * ratio(z) + ratio(z - h2)) / (h2 * h2)
    assert np.all(np.isfinite(mean)) and np.all(np.isfinite(var)), "non-finite derivative"
    return mean, var


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


def _beta_arcsin_terms(h, n, a, b):
    """(marginal pmf of h, E(arcsin sqrt(delta) | h)) for a Be(a, b) prior, by quadrature.

    The posterior integral is split at its mean +- 10 and +- 60 sds, so
    adaptive quadrature finds the mass of a posterior of any width.  The
    marginal comes from 40-digit log-gamma: a difference of `betaln`
    values loses about 1e-6 at shapes near 1e9.
    """
    import mpmath

    marg = float(mpmath.exp(betabinom_log_pmf_mp(h, n, a, b)))
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
    return marg, post_mean


def beta_mixture_arcsin_mean_quad(h, n, pi, comps):
    """E(arcsin sqrt(delta) | h) under a beta-mixture prior given as (alpha, beta) pairs, by quadrature."""
    terms = [_beta_arcsin_terms(h, n, a, b) for a, b in comps]
    return sum(p * m * e for p, (m, e) in zip(pi, terms)) / sum(p * m for p, (m, _) in zip(pi, terms))


def point_beta_mixture_arcsin_mean(h, n, pi, comps):
    """As `beta_mixture_arcsin_mean_quad`, for components given as (mean, kappa).

    A point mass (kappa = 0) has the binomial pmf as its marginal and
    arcsin sqrt(mean) as its posterior mean, whatever h is.
    """
    import mpmath

    terms = []
    for mean, kappa in comps:
        if kappa == 0.0:
            marg = float(mpmath.exp(beta_component_log_pmf_mp(h, n, mean, 0.0)))
            terms.append((marg, np.arcsin(np.sqrt(mean))))
        else:
            terms.append(_beta_arcsin_terms(h, n, mean / kappa, (1.0 - mean) / kappa))
    return sum(p * m * e for p, (m, e) in zip(pi, terms)) / sum(p * m for p, (m, _) in zip(pi, terms))


def box_newton_beta_fit(h, n, w, alpha, beta):
    """The beta M-step before kappa: Newton in (log(alpha/beta), log(alpha + beta)) on a box.

    A reference for the current solver, restricted to trial counts whose
    rising sums fit one table.  The box is |log(alpha/beta)| <= log 1e16 and
    alpha + beta in [2e-8, 2e8], so underdispersed data end at the cap
    2e8, not at the point mass.  Returns (alpha, beta).
    """
    m_max, t_min, t_max = np.log(1e16), np.log(2e-8), np.log(2e8)
    k_max = int(n.max())
    tails = np.zeros((3, k_max))
    for row, k in zip(tails, (h, n - h, n)):
        row[:] = np.cumsum(np.bincount(k, weights=w, minlength=k_max + 1)[::-1])[::-1][1:]
    s_h, s_f = tails[:2].sum(axis=1)
    signed = tails * np.array([1.0, 1.0, -1.0])[:, None]
    i = np.arange(k_max)

    def shapes(m, t):
        c = np.exp(t)
        return np.array([c / (1.0 + np.exp(-m)), c / (1.0 + np.exp(m)), c])

    def objective(m, t):
        x = shapes(m, t)
        rising = np.sum(signed * np.log1p(i / x[:, None]))
        return float(rising - s_h * np.log1p(np.exp(-m)) - s_f * np.log1p(np.exp(m)))

    m = min(max(np.log(alpha) - np.log(beta), -m_max), m_max)
    t = min(max(np.log(alpha + beta), t_min), t_max)
    obj = objective(m, t)
    for _ in range(50):
        p, q = 1.0 / (1.0 + np.exp(-m)), 1.0 / (1.0 + np.exp(m))
        x = shapes(m, t)
        r = i / (x[:, None] + i)
        s = x[:, None] / (x[:, None] + i)
        (da, db, dc), (ha, hb, hc), (ra, rb, _) = (tails * r).sum(1), (tails * r * s).sum(1), (tails * s).sum(1)
        g_m, g_t = q * ra - p * rb, dc - da - db
        h_mm = q * q * ha + p * p * hb - p * q * (ra + rb)
        h_mt, h_tt = q * ha - p * hb, ha + hb - hc
        if (m >= m_max and g_m > 0) or (m <= -m_max and g_m < 0):
            g_m, h_mm, h_mt = 0.0, -1.0, 0.0
        if (t >= t_max and g_t > 0) or (t <= t_min and g_t < 0):
            g_t, h_tt, h_mt = 0.0, -1.0, 0.0
        det = h_mm * h_tt - h_mt * h_mt
        if h_mm < 0 and det > 0:
            step_m, step_t = (h_mt * g_t - h_tt * g_m) / det, (h_mt * g_m - h_mm * g_t) / det
        else:
            scale = max(abs(g_m), abs(g_t), 1e-300)
            step_m, step_t = g_m / scale, g_t / scale
        if 0.5 * (g_m * step_m + g_t * step_t) < 1e-13 * (1.0 + abs(obj)):
            break
        shrink = min(1.0, 2.0 / max(abs(step_m), abs(step_t)))
        step_m, step_t = step_m * shrink, step_t * shrink
        for _ in range(30):
            cand_m, cand_t = min(max(m + step_m, -m_max), m_max), min(max(t + step_t, t_min), t_max)
            cand_obj = objective(cand_m, cand_t)
            if cand_obj > obj:
                m, t, obj = cand_m, cand_t, cand_obj
                break
            step_m, step_t = step_m * 0.5, step_t * 0.5
        else:
            break
    a, b, _ = shapes(m, t)
    return float(a), float(b)
