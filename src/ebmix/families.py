"""Exponential-family kernels and their conjugate priors.

Two sampling families are supported:

* normal with known (possibly case-specific) variance, conjugate normal
  prior components ``N(mean, var)``; ``var = 0`` encodes a point mass,
* binomial with case-specific trial counts, conjugate beta prior
  components ``Be(alpha, beta)``.

Component marginals f^(j), component posteriors g_j(delta | z) and the
normal marginal cdfs F^(j) are computed here.  Everything is evaluated
in log space and vectorized over cases.

The beta-binomial marginal uses one exact, cancellation-free form
(Minka 2000, "Estimating a Dirichlet distribution").  With mean
mu = alpha/c, concentration c = alpha + beta and

    L_x(k) = sum_{i<k} log1p(i/x) = log Gamma(x + k)/Gamma(x) - k log x,

    log B(alpha+H, beta+N-H) - log B(alpha, beta)
        = H log mu + (N-H) log(1-mu) + L_alpha(H) + L_beta(N-H) - L_c(N),

and log C(N, H) = L_1(N) - L_1(H) - L_1(N-H), since L_1(k) = log k!.
Every term is a sum of positive, well-scaled logs, so the value keeps
full precision at any concentration; a difference of `betaln` values is
off by up to 1e-6 per case near c = 1e8.  Counts up to RISING_TABLE are
read from cumulative tables of the steps log1p(i/x); the rest of a longer
sum comes from Stirling series (`rising_beyond`), so time and memory do
not grow with the trial counts; rounding then grows like eps N log N, the
size of the terms.  The beta M-step in `mixture`
maximizes the weighted sum of the same terms, so the E-step and the
M-step agree to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np
from scipy.special import ndtr

from .errors import ContractError, NumericError, UnsupportedError

LOG_2PI = float(np.log(2.0 * np.pi))


def logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """Row-wise log-sum-exp of a 2-D array; lean hot-path variant.

    Rows that are identically -inf come back as -inf rather than nan.
    """
    m = np.max(a, axis=1)
    ok = np.isfinite(m)
    out = np.full(a.shape[0], -np.inf)
    if np.all(ok):
        return m + np.log(np.exp(a - m[:, None]).sum(axis=1))
    if np.any(ok):
        sub = a[ok]
        out[ok] = m[ok] + np.log(np.exp(sub - m[ok, None]).sum(axis=1))
    # +inf rows propagate for the caller's finiteness checks
    out[np.isposinf(m)] = np.inf
    return out


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
    """Beta prior component Be(alpha, beta) on the success probability."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta)):
            raise ContractError("beta component parameters must be finite")
        if self.alpha <= 0 or self.beta <= 0:
            raise ContractError(
                f"beta shapes must be > 0, got ({self.alpha}, {self.beta})"
            )

    @property
    def mean(self):
        return self.alpha / (self.alpha + self.beta)


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


@dataclass(frozen=True)
class ComponentPosterior:
    """Per-case posterior of one prior component given the data.

    ``mean`` and ``var`` are always populated; for the binomial family
    ``alpha`` and ``beta`` carry the updated Beta shapes.
    """

    mean: np.ndarray
    var: np.ndarray
    alpha: np.ndarray | None = None
    beta: np.ndarray | None = None


def normal_logpdf(x, mean, var):
    """log phi(x; mean, var); the arguments broadcast."""
    return -0.5 * (LOG_2PI + np.log(var)) - 0.5 * (x - mean) ** 2 / var


def component_log_marginal(obs: Observations, comp: Component) -> np.ndarray:
    """Log of the component marginal density f^(j) at each case.

    Normal:   log phi(z; mean, var + s2).
    Binomial: log of the beta-binomial pmf C(N,H) B(alpha+H, beta+N-H) / B(alpha, beta).
    One column of `log_marginal_matrix`.
    """
    return log_marginal_matrix(obs, (comp,))[:, 0]


def component_posterior(obs: Observations, comp: Component) -> ComponentPosterior:
    """Posterior of one component's effect given each case.

    Normal with case variance s2: N((s2*mean + var*z)/(var + s2),
    var*s2/(var + s2)); a point-mass prior (var = 0) stays a point mass.
    Binomial: Be(alpha + H, beta + N - H) with standard Beta moments.
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
    a = comp.alpha + obs.counts.astype(float)
    b = comp.beta + (obs.trials - obs.counts).astype(float)
    tot = a + b
    mean = a / tot
    var = a * b / (tot**2 * (tot + 1.0))
    return ComponentPosterior(mean=mean, var=var, alpha=a, beta=b)


# Length of the cumulative tables.  The Stirling series used beyond it are
# exact to rounding (each first omitted term, scaled as in `rising_beyond`,
# is below 1e-18 at y >= RISING_TABLE).
RISING_TABLE = 2048


def log_rising_steps(x, k_max: int) -> np.ndarray:
    """log1p(i/x) for i = 0 .. k_max-1, the steps of L_x(k) = sum_{i<k} log1p(i/x).

    L_x(k) = log Gamma(x + k)/Gamma(x) - k log x, the rising-factorial
    part of the beta-binomial kernel (see the module docstring).  ``x``
    may be an array; the steps run along a new last axis.
    """
    return np.log1p(np.arange(k_max) / np.asarray(x, dtype=float)[..., None])


def rising_beyond(x, m, cut: int, derivs: bool = False):
    """Sums over i = cut .. cut+m-1, for cut >= RISING_TABLE, from Stirling series.

    Returns sum log1p(i/x) = L_x(cut + m) - L_x(cut); with ``derivs``
    also sum x/(x+i) and sum i x/(x+i)^2, the pieces of its first two
    derivatives in log x.  With y = x + cut and z = y + m,

        sum log1p(i/x) = m log1p(cut/x) + (z - 1/2) log1p(m/y) - m + s(z) - s(y),
        sum x/(x+i)    = x (psi(z) - psi(y)),
        sum i x/(x+i)^2 = x (psi(z) - psi(y)) - x^2 (psi'(y) - psi'(z)),

    where s is the Stirling remainder of log Gamma.  Every difference of
    series terms is formed term by term, so nothing cancels beyond the
    size of the sums themselves.  ``x`` and ``m`` broadcast.
    """
    x = np.asarray(x, dtype=float)
    m = np.asarray(m, dtype=float)
    y = x + cut
    z = y + m
    iy, iz = 1.0 / y, 1.0 / z
    lr = np.log1p(m / y)
    value = (
        m * np.log1p(cut / x) + (z - 0.5) * lr - m
        + (iz - iy) / 12.0 - (iz**3 - iy**3) / 360.0
    )
    if not derivs:
        return value
    # psi(z) - psi(y) and psi'(y) - psi'(z) from their asymptotic series
    dpsi = lr - 0.5 * (iz - iy) - (iz**2 - iy**2) / 12.0 + (iz**4 - iy**4) / 120.0
    dtri = m * iy * iz + 0.5 * (iy**2 - iz**2) + (iy**3 - iz**3) / 6.0 - (iy**5 - iz**5) / 30.0
    s_sum = x * dpsi
    return value, s_sum, s_sum - x * x * dtri


def _betabinom_log_marginal(obs: Observations, components) -> np.ndarray:
    h, n = obs.counts, obs.trials
    f = n - h
    a, b = np.array([(c.alpha, c.beta) for c in components]).T
    c = a + b
    shapes = np.stack([a, b, c])
    counts = (h, f, n)
    n_max = int(n.max(initial=0))
    cut = min(n_max, RISING_TABLE)
    # L_x(k) - L_1(k) for every shape; L_1(k) = log k!, so gathering the alpha,
    # beta and c rows at H, N-H and N adds log C(N, H) = L_1(N) - L_1(H) - L_1(N-H)
    steps = log_rising_steps(np.append(shapes.ravel(), 1.0), cut)
    table = np.zeros((steps.shape[0], cut + 1))
    np.cumsum(steps, axis=1, out=table[:, 1:])
    table = (table[:-1] - table[-1]).reshape(3, len(components), -1)
    rising = [np.take(t, k, axis=1, mode="clip") for t, k in zip(table, counts)]  # L at min(k, cut)
    if n_max > cut:
        for x, k, r in zip(shapes, counts, rising):
            big = k > cut
            m = k[big] - cut
            r[:, big] += rising_beyond(x[:, None], m, cut) - rising_beyond(1.0, m, cut)
    return h[:, None] * np.log(a / c) + f[:, None] * np.log(b / c) + (rising[0] + rising[1] - rising[2]).T


def log_marginal_matrix(obs: Observations, components) -> np.ndarray:
    """Stacked component log marginals, shape (n, J), one vectorized pass.

    Normal components are evaluated in closed form over all cases at
    once.  Beta components use the rising-factorial identity of the
    module docstring: L_alpha, L_beta and L_c of each component, and L_1,
    are gathered at H, N-H and N from cumulative tables up to
    RISING_TABLE, plus `rising_beyond` for larger counts, at
    O(n + RISING_TABLE) cost per component and with no special function.
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
