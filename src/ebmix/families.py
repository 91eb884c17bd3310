"""Exponential-family kernels and their conjugate priors.

Two sampling families are supported:

* normal with known (possibly case-specific) variance, conjugate normal
  prior components ``N(mean, var)``; ``var = 0`` encodes a point mass,
* binomial with case-specific trial counts, conjugate beta prior
  components given by their mean p and kappa = 1/(alpha + beta);
  ``kappa = 0`` is the point mass at p, where the beta-binomial is the
  binomial.

Component marginals f^(j), component posteriors g_j(delta | z) and the
normal marginal cdfs F^(j) are computed here.  Everything is evaluated
in log space and vectorized over cases.

The beta-binomial marginal uses one exact, cancellation-free form
(Minka 2000, "Estimating a Dirichlet distribution").  With q = 1 - p and

    R_r(k) = sum_{i<k} log1p(i r),

    log BB(H | N, p, kappa) = log C(N, H) + H log p + (N-H) log q
        + R_{kappa/p}(H) + R_{kappa/q}(N-H) - R_kappa(N),

the rising factorials of alpha = p/kappa, beta = q/kappa and
c = 1/kappa written step by step.  Every step is exactly 0 at
kappa = 0, so the point mass needs no branch.  Each case's data-only
saturated term, the binomial log pmf at its own rate h = H/N,

    s = H log h + (N-H) log(1-h) + log C(N, H),   log C(N, H) = R_1(N) - R_1(H) - R_1(N-H),

is split off (`Observations.saturated`) and added back once to a sum
over cases.  The parameter-dependent rest, H log(p/h) + (N-H) log(q/(1-h))
plus the rising sums, then has no terms of size N log N at or near the
point mass; the rising sums themselves still grow like N log(N kappa)
where N kappa is large.  Counts up to RISING_TABLE are read from cumulative tables of
the steps; the rest of a longer sum comes from series (`rising_beyond`),
so time and memory do not grow with the trial counts.  The beta M-step
in `mixture` maximizes the weighted sum of the same terms, so the E-step
and the M-step agree to rounding.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np
from scipy.special import ndtr, xlogy

from .errors import ContractError, NumericError, UnsupportedError

LOG_2PI = float(np.log(2.0 * np.pi))


def logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """Row-wise log-sum-exp of a 2-D array whose every row has a finite maximum.

    A row with a nan, or with no finite entry, comes back non-finite.
    """
    m = np.max(a, axis=1)
    return m + np.log(np.exp(a - m[:, None]).sum(axis=1))


class Family(str, Enum):
    NORMAL = "normal"
    BINOMIAL = "binomial"


@dataclass(frozen=True)
class NormalComponent:
    """Normal prior component N(mean, var) on the effect scale.

    ``var = 0`` is an exact point mass and is handled as a degenerate
    branch everywhere, never as a small-variance limit.
    """

    mean: float
    var: float

    def __post_init__(self):
        if not (np.isfinite(self.mean) and np.isfinite(self.var)):
            raise ContractError("normal component parameters must be finite")
        if self.var < 0:
            raise ContractError(f"component variance must be >= 0, got {self.var}")


@dataclass(frozen=True)
class BetaComponent:
    """Beta prior component on the success probability, by mean and kappa = 1/(alpha + beta).

    ``kappa = 0`` is an exact point mass at ``mean``, an ordinary value
    rather than a limit: there the beta-binomial marginal is the
    binomial pmf and the data cannot move the posterior.
    """

    mean: float
    kappa: float

    def __post_init__(self):
        if not (np.isfinite(self.mean) and np.isfinite(self.kappa)):
            raise ContractError("beta component parameters must be finite")
        if not 0.0 < self.mean < 1.0 or self.kappa < 0:
            raise ContractError(
                f"beta components need 0 < mean < 1 and kappa >= 0, got ({self.mean}, {self.kappa})"
            )

    @classmethod
    def from_shapes(cls, alpha: float, beta: float) -> "BetaComponent":
        """The component Be(alpha, beta), for finite alpha, beta > 0."""
        if not (np.isfinite(alpha) and np.isfinite(beta)) or alpha <= 0 or beta <= 0:
            raise ContractError(f"beta shapes must be finite and > 0, got ({alpha}, {beta})")
        c = alpha + beta
        return cls(mean=alpha / c, kappa=1.0 / c)

    @property
    def alpha(self) -> float:
        """mean / kappa; inf at the point mass."""
        return beta_shapes(self.mean, self.kappa)[0] if self.kappa > 0 else float("inf")

    @property
    def beta(self) -> float:
        """(1 - mean) / kappa; inf at the point mass."""
        return beta_shapes(self.mean, self.kappa)[1] if self.kappa > 0 else float("inf")


def beta_shapes(mean, kappa):
    """(alpha, beta) = (mean/kappa, (1 - mean)/kappa) for kappa > 0; the arguments broadcast."""
    return mean / kappa, (1.0 - mean) / kappa


Component = Union[NormalComponent, BetaComponent]

COMPONENT_TYPES = {Family.NORMAL: NormalComponent, Family.BINOMIAL: BetaComponent}


def check_components(family: Family, components) -> None:
    """Raise ContractError unless every component has `family`'s component type."""
    want = COMPONENT_TYPES[family]
    if not all(isinstance(c, want) for c in components):
        raise ContractError(f"{family.value} components must be {want.__name__}")


@dataclass(frozen=True)
class Observations:
    """A batch of cases from one sampling family.

    Normal cases carry a statistic ``z`` and a known sampling variance
    ``s2`` (default 1 for every case).  Binomial cases carry success
    counts ``counts`` and trial counts ``trials``.
    """

    family: Family
    z: np.ndarray | None = None
    s2: np.ndarray | None = None
    counts: np.ndarray | None = None
    trials: np.ndarray | None = None

    @classmethod
    def normal(cls, z, s2=None) -> "Observations":
        z = np.atleast_1d(np.asarray(z, dtype=float))
        if s2 is None:
            s2 = np.ones_like(z)
        else:
            s2 = np.broadcast_to(np.asarray(s2, dtype=float), z.shape).copy()
        if not np.all(np.isfinite(z)):
            raise ContractError("normal statistics must be finite")
        if not np.all(s2 > 0):
            raise ContractError("per-case variances s2 must be > 0")
        return cls(family=Family.NORMAL, z=z, s2=s2)

    @classmethod
    def binomial(cls, counts, trials) -> "Observations":
        counts = np.atleast_1d(np.asarray(counts))
        trials = np.broadcast_to(np.atleast_1d(np.asarray(trials)), counts.shape).copy()
        if not (np.issubdtype(counts.dtype, np.integer) and np.issubdtype(trials.dtype, np.integer)):
            counts_f, trials_f = np.asarray(counts, dtype=float), np.asarray(trials, dtype=float)
            if np.any(counts_f != np.round(counts_f)) or np.any(trials_f != np.round(trials_f)):
                raise ContractError("binomial counts and trials must be integers")
            counts = counts_f.astype(np.int64)
            trials = trials_f.astype(np.int64)
        counts = counts.astype(np.int64)
        trials = trials.astype(np.int64)
        if np.any(trials < 1):
            raise ContractError("trial counts must be >= 1")
        if np.any(counts < 0) or np.any(counts > trials):
            raise ContractError("counts must satisfy 0 <= H <= N")
        return cls(family=Family.BINOMIAL, counts=counts, trials=trials)

    def __len__(self) -> int:
        arr = self.z if self.family is Family.NORMAL else self.counts
        return int(arr.shape[0])

    @functools.cached_property
    def saturated(self) -> np.ndarray:
        """Each case's data-only term of the log marginal, computed once per batch.

        Binomial: the binomial log pmf at the case's own rate h = H/N,
        H log h + (N-H) log(1-h) + log C(N, H).  Normal: 0.
        `log_marginal_matrix` leaves it out.
        """
        if self.family is Family.NORMAL:
            return np.broadcast_to(0.0, (len(self),))
        h, n = self.counts, self.trials
        f = n - h
        cut = min(int(n.max(initial=0)), RISING_TABLE)
        log_fact = _rising(np.ones(1), np.stack([n, h, f]).ravel(), cut).reshape(3, -1)  # R_1(k) = log k!
        out = xlogy(h, h / n) + xlogy(f, f / n) + log_fact[0] - log_fact[1] - log_fact[2]
        out.flags.writeable = False  # shared by every caller
        return out


@dataclass(frozen=True)
class ComponentPosterior:
    """Per-case posterior mean and variance of one prior component's effect.

    Binomial posteriors, beta again, also carry their kappa = 1/(alpha + beta).
    """

    mean: np.ndarray
    var: np.ndarray
    kappa: np.ndarray | None = None


def normal_logpdf(x, mean, var):
    """log phi(x; mean, var); the arguments broadcast."""
    return -0.5 * (LOG_2PI + np.log(var)) - 0.5 * (x - mean) ** 2 / var


def component_log_marginal(obs: Observations, comp: Component) -> np.ndarray:
    """Log of the component marginal density f^(j) at each case.

    Normal:   log phi(z; mean, var + s2).
    Binomial: log of the beta-binomial pmf C(N,H) B(alpha+H, beta+N-H) / B(alpha, beta),
              the binomial pmf at kappa = 0.
    One column of `log_marginal_matrix` with ``obs.saturated`` added back.
    """
    return log_marginal_matrix(obs, (comp,))[:, 0] + obs.saturated


def component_posterior(obs: Observations, comp: Component) -> ComponentPosterior:
    """Posterior of one component's effect given each case.

    Normal with case variance s2: N((s2*mean + var*z)/(var + s2),
    var*s2/(var + s2)); a point-mass prior (var = 0) stays a point mass.
    Binomial: the Beta with mean (p + H kappa)/(1 + N kappa) and kappa
    kappa/(1 + N kappa), Be(alpha + H, beta + N - H) written in (mean,
    kappa); a point-mass prior (kappa = 0) stays the point mass at p,
    with variance 0.  Binomial posteriors also carry their kappa.
    """
    check_components(obs.family, (comp,))
    if obs.family is Family.NORMAL:
        if comp.var == 0.0:
            # degenerate branch: data cannot move a point mass
            mean = np.full(len(obs), comp.mean)
            var = np.zeros(len(obs))
        else:
            denom = comp.var + obs.s2
            mean = (obs.s2 * comp.mean + comp.var * obs.z) / denom
            var = comp.var * obs.s2 / denom
        return ComponentPosterior(mean=mean, var=var)
    denom = 1.0 + obs.trials * comp.kappa
    mean = (comp.mean + obs.counts * comp.kappa) / denom
    rest = (1.0 - comp.mean + (obs.trials - obs.counts) * comp.kappa) / denom
    kappa = comp.kappa / denom
    return ComponentPosterior(mean=mean, var=mean * rest * kappa / (1.0 + kappa), kappa=kappa)


# Length of the cumulative tables.  The Stirling series used beyond it are
# exact to rounding (the first omitted term is below 1e-18 relative there).
RISING_TABLE = 2048


def log_rising_steps(r, k_max: int) -> np.ndarray:
    """log1p(i r) for i = 0 .. k_max-1, the steps of R_r(k) = sum_{i<k} log1p(i r).

    R_r(k) = log Gamma(1/r + k)/Gamma(1/r) + k log r, the rising-factorial
    part of the beta-binomial kernel (see the module docstring); every
    step is 0 at r = 0.  ``r`` may be an array; the steps run along a new
    last axis.
    """
    return np.log1p(np.arange(k_max) * np.asarray(r, dtype=float)[..., None])


# chi(u) = (u - log1p(u))/u^2 = sum_k (-1)^k u^k/(k+2) and its derivative, as series for u < 0.1
_CHI_SERIES = (-1.0) ** np.arange(17) / np.arange(2, 19)
_DCHI_SERIES = (-1.0) ** np.arange(1, 17) * np.arange(1, 17) / np.arange(3, 19)


def _chi(u):
    """(chi(u), chi'(u)) for u >= 0, with chi(u) = (u - log1p(u))/u^2 and chi(0) = 1/2."""
    small = u < 0.1
    us = np.where(small, u, 0.0)
    ul = np.where(small, 1.0, u)
    chi_l = (ul - np.log1p(ul)) / (ul * ul)
    poly = np.polynomial.polynomial.polyval
    chi = np.where(small, poly(us, _CHI_SERIES), chi_l)
    dchi = np.where(small, poly(us, _DCHI_SERIES), (1.0 / (1.0 + ul) - 2.0 * chi_l) / ul)
    return chi, dchi


def rising_beyond(r, m, cut: int, derivs: bool = False):
    """Sums over i = cut .. cut+m-1, for cut >= RISING_TABLE, in closed form.

    Returns V = sum log1p(i r) = R_r(cut + m) - R_r(cut); with ``derivs``
    also V' = sum i/(1 + i r) and -V'' = sum i^2/(1 + i r)^2, its first
    two derivatives in r.  With s_a = 1 + cut r, s_b = s_a + m r,
    u = m r / s_a and chi(u) = (u - log1p(u))/u^2,

        V = m log1p(cut r) + m (log1p(u) - u chi(u)) - log1p(u)/2 + S(r/s_b) - S(r/s_a),

    which is the Stirling series of log Gamma(1/r + cut + m)/Gamma(1/r + cut)
    + m log r, with S(t) = t/12 - t^3/360 its remainder, rearranged so
    that every term vanishes at r = 0; V' and V'' are its exact
    derivatives.  No term cancels at small r, and r = 0 (the point mass)
    gives 0, sum i and sum i^2 exactly.  The first omitted term is below
    1e-18 relative for cut >= RISING_TABLE.  ``r`` and ``m`` broadcast.
    """
    r = np.asarray(r, dtype=float)
    m = np.asarray(m, dtype=float)
    a = float(cut)
    sa = 1.0 + a * r
    sb = sa + m * r
    u = m * r / sa
    chi, dchi = _chi(u)
    lu = np.log1p(u)
    ta, tb = r / sa, r / sb
    value = m * np.log1p(a * r) + m * (lu - u * chi) - 0.5 * lu + (tb - ta) / 12.0 - (tb**3 - ta**3) / 360.0
    if not derivs:
        return value
    b = a + m
    d1 = (
        m * a / sa + m * m * chi / sa**2 - 0.5 * m / (sa * sb)
        + (sb**-2 - sa**-2) / 12.0 - (tb**2 / sb**2 - ta**2 / sa**2) / 120.0
    )
    d2 = (
        -m * a * a / sa**2 + m**3 * dchi / sa**4 - 2.0 * a * m * m * chi / sa**3
        + 0.5 * m * (a / (sa**2 * sb) + b / (sa * sb**2)) + (a / sa**3 - b / sb**3) / 6.0
        - (2.0 * r / sb**4 - 4.0 * b * r * r / sb**5 - 2.0 * r / sa**4 + 4.0 * a * r * r / sa**5) / 120.0
    )
    return value, d1, -d2


def _rising(rates, counts, cut: int) -> np.ndarray:
    """R_r(k) for every rate r (rows) at every count k (columns); tables up to ``cut``."""
    table = np.zeros((rates.size, cut + 1))
    np.cumsum(log_rising_steps(rates, cut), axis=1, out=table[:, 1:])
    out = np.take(table, counts, axis=1, mode="clip")  # R at min(k, cut)
    big = counts > cut
    if np.any(big):
        out[:, big] += rising_beyond(rates[:, None], counts[big] - cut, cut)
    return out


def _log_ratio(a, b):
    """log(a/b) for a, b > 0, to full relative precision also where a is close to b."""
    t = (a - b) / b
    return np.where(np.abs(t) < 0.5, np.log1p(t), np.log(a / b))


def _xlog_ratio(k, p, rate):
    """k log(p/rate) per case (rows) and component (columns); 0 where k = 0."""
    safe = np.where(k > 0, rate, 1.0)
    return k[:, None] * _log_ratio(p[None, :], safe[:, None])


def _betabinom_log_marginal(obs: Observations, components) -> np.ndarray:
    """log BB(H | N, p, kappa) - obs.saturated, shape (n, J)."""
    h, n = obs.counts, obs.trials
    f = n - h
    p = np.array([c.mean for c in components])
    kappa = np.array([c.kappa for c in components])
    q = 1.0 - p
    out = _xlog_ratio(h, p, h / n) + _xlog_ratio(f, q, f / n)
    live = kappa > 0  # the rising sums of a point mass are 0
    if np.any(live):
        k = kappa[live]
        cut = min(int(n.max(initial=0)), RISING_TABLE)
        rising = _rising(k / p[live], h, cut) + _rising(k / q[live], f, cut) - _rising(k, n, cut)
        out[:, live] += rising.T
    return out


def log_marginal_matrix(obs: Observations, components) -> np.ndarray:
    """Stacked component log marginals less ``obs.saturated``, shape (n, J), one vectorized pass.

    Normal components are evaluated in closed form over all cases at
    once.  Beta components use the form of the module docstring: the
    per-case log ratios, plus R_{kappa/p}, R_{kappa/q} and R_kappa of each
    component with kappa > 0 gathered at H, N-H and N from cumulative
    tables up to RISING_TABLE and `rising_beyond` for larger counts, at
    O(n + RISING_TABLE) cost per component and with no special function.
    Each case's data-only term ``obs.saturated`` (0 for normal cases) is
    left out: posterior weights do not depend on it, and sums over cases
    add it back once.
    """
    components = tuple(components)
    check_components(obs.family, components)
    if obs.family is Family.NORMAL:
        mu = np.array([c.mean for c in components])
        var = np.array([c.var for c in components])
        out = normal_logpdf(obs.z[:, None], mu, var[None, :] + obs.s2[:, None])
    else:
        out = _betabinom_log_marginal(obs, components)
    if not np.all(np.isfinite(out)):
        raise NumericError("non-finite component log marginal")
    return out


def _standardized(z, comp: Component, s2) -> np.ndarray:
    if not isinstance(comp, NormalComponent):
        raise UnsupportedError("marginal cdfs are defined for the normal family only")
    return (np.asarray(z, dtype=float) - comp.mean) / np.sqrt(comp.var + np.asarray(s2, dtype=float))


def component_marginal_cdf(z, comp: Component, s2=1.0) -> np.ndarray:
    """Marginal cdf F^(j)(z) = Phi((z - mean)/sqrt(var + s2)); normal only."""
    return ndtr(_standardized(z, comp, s2))


def component_marginal_sf(z, comp: Component, s2=1.0) -> np.ndarray:
    """Upper tail 1 - F^(j)(z), computed directly for tail accuracy."""
    return ndtr(-_standardized(z, comp, s2))
