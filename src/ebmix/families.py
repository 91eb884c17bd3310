"""Exponential-family kernels and their conjugate priors.

Two sampling families are supported:

* normal with known (possibly case-specific) variance, conjugate normal
  prior components ``N(mean, var)``; ``var = 0`` encodes a point mass,
* binomial with case-specific trial counts, conjugate beta prior
  components given by their mean p and kappa = 1/(alpha + beta);
  ``kappa = 0`` is the point mass at p, where the beta-binomial is the
  binomial.

Each family is one subclass of `Observations`, listed in `OBSERVATIONS`,
and it holds every choice that depends on the family:

* ``family``, ``component`` (the prior component type), ``theoretical_null``
  (None where the family has none) and the case-file header, as shown
  (``csv_header``) and as accepted (``csv_headers``);
* ``saturated``, each case's data-only term of the log marginal;
* ``log_kernel``, the kernel behind `log_marginal_matrix`;
* ``posterior``, one component's posterior given each case;
* ``start``, the EM starting components;
* ``update``, the weighted M-step of one component;
* ``draw``, cases drawn from a mixture's marginal;
* ``parse_row``, one case-file row, and ``statistic``, the column that
  `estimate` writes as z.

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
(`_fit_beta_newton`) maximizes the weighted sum of the same terms, so the
E-step and the M-step agree to rounding.
"""

from __future__ import annotations

import functools
import math
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


class NullMode(str, Enum):
    THEORETICAL = "theoretical"
    EMPIRICAL = "empirical"
    NONE = "none"


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


class Observations:
    """A batch of cases from one sampling family, of that family's class (see the module docstring)."""

    def __len__(self) -> int:
        return int(self.statistic.shape[0])

    @staticmethod
    def normal(z, s2=None) -> "NormalObservations":
        """Normal cases: statistics ``z`` with known sampling variances ``s2`` (default 1 for every case)."""
        return NormalObservations(z, 1.0 if s2 is None else s2)

    @staticmethod
    def binomial(counts, trials) -> "BinomialObservations":
        """Binomial cases: success counts ``counts`` out of ``trials``."""
        return BinomialObservations(counts, trials)


@dataclass(frozen=True)
class NormalObservations(Observations):
    """Normal cases: statistics ``z`` with known sampling variances ``s2``, broadcast to z's shape."""

    z: np.ndarray
    s2: np.ndarray

    family = Family.NORMAL
    component = NormalComponent
    theoretical_null = NormalComponent(0.0, 0.0)
    csv_header = "id,z[,s2]"
    csv_headers = (["id", "z"], ["id", "z", "s2"])

    def __post_init__(self):
        z = np.atleast_1d(np.asarray(self.z, dtype=float))
        s2 = np.broadcast_to(np.asarray(self.s2, dtype=float), z.shape).copy()
        if not np.all(np.isfinite(z)):
            raise ContractError("normal statistics must be finite")
        if not np.all(s2 > 0):
            raise ContractError("per-case variances s2 must be > 0")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "s2", s2)

    @property
    def statistic(self) -> np.ndarray:
        return self.z

    @functools.cached_property
    def saturated(self) -> np.ndarray:
        """0 for every case: the normal marginal has no data-only term."""
        return np.broadcast_to(0.0, (len(self),))

    @functools.cached_property
    def homoscedastic(self) -> bool:
        """Whether every case has the same s2, where the moment update is exact."""
        return bool(self.s2.min() == self.s2.max())

    def log_kernel(self, components) -> np.ndarray:
        """log phi(z; mean, var + s2) per component (rows) and case (columns), in closed form.

        Built (J, n) so that `log_marginal_matrix`'s transpose has contiguous
        columns; with a common s2 each component's log(var + s2) is taken once.
        """
        mu = np.array([c.mean for c in components])
        var = np.array([c.var for c in components])
        s2 = self.s2[:1] if self.homoscedastic else self.s2
        return normal_logpdf(self.z, mu[:, None], var[:, None] + s2)

    def posterior(self, comp: NormalComponent) -> ComponentPosterior:
        """N((s2*mean + var*z)/(var + s2), var*s2/(var + s2)); a point mass (var = 0) stays one."""
        if comp.var == 0.0:
            # degenerate branch: data cannot move a point mass
            return ComponentPosterior(mean=np.full(len(self), comp.mean), var=np.zeros(len(self)))
        denom = comp.var + self.s2
        mean = (self.s2 * comp.mean + comp.var * self.z) / denom
        return ComponentPosterior(mean=mean, var=comp.var * self.s2 / denom)

    def start(self, j: int, null_mode: NullMode, rng) -> list:
        """Any null (point mass at 0 or at the median), then N(c, 1) at evenly spaced quantiles c of z.

        Given ``rng``, each center but the theoretical null's gets standard-normal jitter.
        """
        jitter = rng.standard_normal(j) if rng is not None else np.zeros(j)
        comps = []
        if null_mode is NullMode.THEORETICAL:
            comps.append(self.theoretical_null)
        elif null_mode is NullMode.EMPIRICAL:
            comps.append(NormalComponent(float(np.median(self.z)) + jitter[0], 0.0))
        n_free = j - len(comps)  # >= 1: a designated null needs J >= 2
        for c in np.quantile(self.z, np.arange(1, n_free + 1) / (n_free + 1)):
            comps.append(NormalComponent(float(c) + jitter[len(comps)], 1.0))
        return comps

    def update(self, w: np.ndarray, n_w, comp: NormalComponent) -> NormalComponent:
        """Weighted moment update of ``comp`` (weights ``w`` summing to ``n_w``), exact for constant s2.

        With varying s2 it is kept only if it does not lower the weighted
        log marginal (a generalized EM step).
        """
        mu = float(np.sum(w * self.z) / n_w)
        s2bar = float(np.sum(w * self.s2) / n_w)
        var = max(0.0, float(np.sum(w * (self.z - mu) ** 2) / n_w) - s2bar)
        if self.homoscedastic or np.sum(w * normal_logpdf(self.z, mu, var + self.s2)) >= np.sum(
            w * normal_logpdf(self.z, comp.mean, comp.var + self.s2)
        ):
            return NormalComponent(mu, var)
        return comp

    @staticmethod
    def draw(components, which, rng, s2=1.0, trials=None) -> "NormalObservations":
        n = len(which)
        mu = np.array([c.mean for c in components])[which]
        var = np.array([c.var for c in components])[which]
        s2 = np.broadcast_to(np.asarray(s2, dtype=float), (n,))
        return NormalObservations(mu + np.sqrt(var + s2) * rng.standard_normal(n), s2)

    @staticmethod
    def parse_row(row, n_cols: int):
        if not 2 <= len(row) <= n_cols:
            raise ValueError(f"expected {n_cols} columns, got {len(row)}")
        s2 = row[2].strip() if len(row) == 3 else ""
        return float(row[1]), float(s2) if s2 else 1.0


@dataclass(frozen=True)
class BinomialObservations(Observations):
    """Binomial cases: integer success counts ``counts`` out of ``trials``, broadcast to their shape."""

    counts: np.ndarray
    trials: np.ndarray

    family = Family.BINOMIAL
    component = BetaComponent
    theoretical_null = None  # no binomial null rate is supported
    csv_header = "id,H,N"
    csv_headers = (["id", "h", "n"],)

    def __post_init__(self):
        counts = np.atleast_1d(np.asarray(self.counts))
        trials = np.broadcast_to(np.atleast_1d(np.asarray(self.trials)), counts.shape).copy()
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
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "trials", trials)

    @property
    def statistic(self) -> np.ndarray:
        return self.counts

    @functools.cached_property
    def saturated(self) -> np.ndarray:
        """Each case's data-only term of the log marginal, computed once per batch.

        The binomial log pmf at the case's own rate h = H/N,
        H log h + (N-H) log(1-h) + log C(N, H).  `log_marginal_matrix`
        leaves it out.
        """
        h, n = self.counts, self.trials
        f = n - h
        cut = min(int(n.max(initial=0)), RISING_TABLE)
        log_fact = _rising(np.ones(1), np.stack([n, h, f]).ravel(), cut).reshape(3, -1)  # R_1(k) = log k!
        out = xlogy(h, h / n) + xlogy(f, f / n) + log_fact[0] - log_fact[1] - log_fact[2]
        out.flags.writeable = False  # shared by every caller
        return out

    def log_kernel(self, components) -> np.ndarray:
        """log BB(H | N, p, kappa) - saturated per component (rows) and case (columns), built (J, n).

        The form of the module docstring: the per-case log ratios, plus
        R_{kappa/p}, R_{kappa/q} and R_kappa of each component with kappa > 0
        gathered at H, N-H and N from cumulative tables up to RISING_TABLE
        and `rising_beyond` for larger counts, at O(n + RISING_TABLE) cost
        per component and with no special function.
        """
        h, n = self.counts, self.trials
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
            out[live] += rising
        return out

    def posterior(self, comp: BetaComponent) -> ComponentPosterior:
        """Be(alpha + H, beta + N - H): mean (p + H kappa)/(1 + N kappa), kappa kappa/(1 + N kappa).

        A point mass (kappa = 0) stays the point mass at p, with variance 0.
        """
        denom = 1.0 + self.trials * comp.kappa
        mean = (comp.mean + self.counts * comp.kappa) / denom
        rest = (1.0 - comp.mean + (self.trials - self.counts) * comp.kappa) / denom
        kappa = comp.kappa / denom
        return ComponentPosterior(mean=mean, var=mean * rest * kappa / (1.0 + kappa), kappa=kappa)

    def start(self, j: int, null_mode: NullMode, rng) -> list:
        """Moment-matched betas of J groups of cases in order of H/N; the lowest is any null.

        Given ``rng``, each alpha and beta is scaled by exp(e/4), e standard normal.
        """
        jitter = rng.standard_normal(j) if rng is not None else np.zeros(j)
        rate = self.counts / self.trials
        order = np.argsort(rate, kind="stable")
        comps = []
        for g, idx in enumerate(np.array_split(order, j)):
            base = _beta_mom(rate[idx] if len(idx) else rate)
            if rng is not None:
                base = BetaComponent.from_shapes(
                    float(base.alpha * np.exp(0.25 * jitter[g])),
                    float(base.beta * np.exp(0.25 * rng.standard_normal())),
                )
            comps.append(base)
        return comps

    def update(self, w: np.ndarray, n_w, comp: BetaComponent) -> BetaComponent:
        return _fit_beta_newton(self.counts, self.trials, w, comp)

    @staticmethod
    def draw(components, which, rng, s2=1.0, trials=None) -> "BinomialObservations":
        if trials is None:
            raise ContractError("binomial sampling requires per-case trial counts")
        trials = np.broadcast_to(np.asarray(trials, dtype=np.int64), (len(which),))
        mean = np.array([c.mean for c in components])[which]
        kappa = np.array([c.kappa for c in components])[which]
        point = kappa == 0.0
        shapes = beta_shapes(mean, np.where(point, 1.0, kappa))  # a point mass draws delta = mean
        delta = np.where(point, mean, rng.beta(*shapes))
        return BinomialObservations(rng.binomial(trials, delta), trials)

    @staticmethod
    def parse_row(row, n_cols: int):
        if len(row) != n_cols:
            raise ValueError(f"expected {n_cols} columns, got {len(row)}")
        return int(row[1]), int(row[2])


OBSERVATIONS = {Family.NORMAL: NormalObservations, Family.BINOMIAL: BinomialObservations}


def family_of(components) -> Family:
    """The family whose component type every one of ``components`` has; ContractError if none has."""
    for family, obs_type in OBSERVATIONS.items():
        if all(isinstance(c, obs_type.component) for c in components):
            return family
    raise ContractError("components must all have one family's component type")


def check_components(family: Family, components) -> None:
    """Raise ContractError unless every component has `family`'s component type."""
    want = OBSERVATIONS[family].component
    if not all(isinstance(c, want) for c in components):
        raise ContractError(f"{family.value} components must be {want.__name__}")


def component_log_marginal(obs: Observations, comp: Component) -> np.ndarray:
    """Log of the component marginal density f^(j) at each case.

    Normal:   log phi(z; mean, var + s2).
    Binomial: log of the beta-binomial pmf C(N,H) B(alpha+H, beta+N-H) / B(alpha, beta),
              the binomial pmf at kappa = 0.
    One column of `log_marginal_matrix` with ``obs.saturated`` added back.
    """
    return log_marginal_matrix(obs, (comp,))[:, 0] + obs.saturated


def component_posterior(obs: Observations, comp: Component) -> ComponentPosterior:
    """Posterior of one component's effect given each case: the family class's ``posterior``."""
    check_components(obs.family, (comp,))
    return obs.posterior(comp)


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
    """k log(p/rate) per component (rows) and case (columns); 0 where k = 0."""
    safe = np.where(k > 0, rate, 1.0)
    return k * _log_ratio(p[:, None], safe)


def log_marginal_matrix(obs: Observations, components) -> np.ndarray:
    """Stacked component log marginals less ``obs.saturated``, shape (n, J): the family's ``log_kernel``.

    Each case's data-only term ``obs.saturated`` (0 for normal cases) is
    left out: posterior weights do not depend on it, and sums over cases
    add it back once.  The result is the transpose of the (J, n) kernel,
    so each column is contiguous: numpy reduces a 100k x 3 array along
    its short rows many times faster in this order, and every array
    computed from it (posterior weights, `posterior_summary`'s buffers)
    keeps the order.
    """
    components = tuple(components)
    check_components(obs.family, components)
    out = obs.log_kernel(components)
    if not np.all(np.isfinite(out)):
        raise NumericError("non-finite component log marginal")
    return out.T


def _beta_mom(p: np.ndarray) -> BetaComponent:
    """Method-of-moments Beta fit to raw proportions, with safe fallbacks."""
    m = float(np.clip(np.mean(p), 1e-4, 1.0 - 1e-4))
    v = float(np.var(p))
    if v <= 1e-12 or v >= m * (1.0 - m):
        conc = 30.0
    else:
        conc = m * (1.0 - m) / v - 1.0
    conc = float(np.clip(conc, 0.01, 1e5))
    return BetaComponent(mean=m, kappa=1.0 / conc)


# Bounds of the beta M-step: the mean within [1e-15, 1 - 1e-15], and
# kappa = 1/(alpha + beta) within [0, 5e7], so alpha + beta >= 2e-8.
_BETA_MEAN_MIN = 1e-15
_BETA_LOGIT_MAX = math.log((1.0 - _BETA_MEAN_MIN) / _BETA_MEAN_MIN)
_BETA_KAPPA_MAX = 5e7
_ROUNDING = 1e-15


def _fit_beta_newton(h, n, w_j, start: BetaComponent) -> BetaComponent:
    """Weighted beta-binomial MLE in (p, kappa), closed form at kappa = 0.

    With q = 1 - p, rates r = (kappa/p, kappa/q, kappa) and tail weights
    W_H(i) = sum of w over cases with H > i (likewise W_F for N-H and W_N
    for N), the weighted log-likelihood is, up to a constant,

        F = S_H log(p/p*) + S_F log(q/q*)
            + sum_i [W_H(i) log1p(i kappa/p) + W_F(i) log1p(i kappa/q) - W_N(i) log1p(i kappa)],

    the kernel of `BinomialObservations.log_kernel` summed by parts, with S_H = sum w H,
    S_F = sum w (N-H) and p* = S_H/(S_H + S_F), q* = 1 - p*.  Its
    derivatives are rational sums over i, such as d/dr sum_i W(i)
    log1p(i r) = sum_i W(i) i/(1 + i r), so no special function is
    needed.  The sums run over i < RISING_TABLE; the rest of each case's
    sum comes from `rising_beyond`, evaluated once per distinct
    count, so a call costs O(RISING_TABLE + distinct N) at any trial
    count.

    At kappa = 0 (the point mass) the rising sums vanish and p* is the
    maximizer over p.  The one-sided score there,

        dF/dkappa = sum w [H(H-1)/(2p) + (N-H)(N-H-1)/(2q) - N(N-1)/2],

    is Tarone's (1979) C(alpha) statistic for overdispersion.  If it is
    <= 0 at p* and F(p*, 0) >= F(start), the update is (p*, 0) in closed
    form.  Otherwise Newton runs in (logit p, kappa) from the better of
    the start and (p*, 0), held to logit p within +-log((1 - 1e-15)/1e-15)
    and kappa in [0, 5e7]: a coordinate at its bound whose gradient points
    outward is held fixed, and Newton continues on the other; where the
    free Hessian is not negative definite each coordinate steps by its
    gradient over its curvature.  Steps are scaled to move logit p by at
    most 2, projected onto the bounds, and halved until F improves by
    more than its rounding, tol = 1e-15 (1 + the sum of |F's terms|): at
    large trial counts the rising sums are of size N log N, and steps
    that only chase their rounding would be seen by the E-step as a
    falling likelihood.  The solve stops when the predicted gain
    g.step/2, or that of the halved step, falls below tol, when 30
    halvings do not improve F, or after 50 Newton steps.  If F ended
    below F(start), the start is returned, so the update never lowers
    the EM objective.
    """
    counts = np.stack([h, n - h, n])  # rows H, N-H, N
    k_max = int(n.max())
    cut = min(k_max, RISING_TABLE)
    # W(i) = sum of w over cases with count > i, for i < cut: one bincount of (row, min(count, cut))
    keys = np.minimum(counts, cut) + (cut + 1) * np.arange(3)[:, None]
    bins = np.bincount(keys.ravel(), weights=np.tile(w_j, 3), minlength=3 * (cut + 1)).reshape(3, cut + 1)
    tails = np.cumsum(bins[:, ::-1], axis=1)[:, -2::-1]
    # distinct counts above the table: shape row, count less cut, summed weight
    rows, ms, us = (np.zeros(0, dtype=np.int64),) * 3
    if k_max > cut:
        parts = []
        for row_idx, k in enumerate(counts):
            big = k > cut
            vals, inv = np.unique(k[big] - cut, return_inverse=True)
            parts.append((np.full(vals.size, row_idx), vals, np.bincount(inv, weights=w_j[big])))
        rows, ms, us = (np.concatenate(col) for col in zip(*parts))
    s_h, s_f = counts[:2] @ w_j
    s_n = s_h + s_f
    signs = np.array([1.0, 1.0, -1.0])
    i = np.arange(cut)
    p_star = float(min(max(s_h / s_n, _BETA_MEAN_MIN), 1.0 - _BETA_MEAN_MIN))
    q_star = 1.0 - p_star

    def objective(p, kappa):
        """F and the size of its terms, the sum of their absolute values."""
        # log(p/p*) and log(q/q*) as log1p, exact near p*; off by about p*/p (q*/q) ulps far below it
        log_h = s_h * math.log1p((p - p_star) / p_star)
        log_f = s_f * math.log1p((1.0 - p - q_star) / q_star)
        obj, size = log_h + log_f, abs(log_h) + abs(log_f)
        if kappa > 0.0:
            r = np.array([kappa / p, kappa / (1.0 - p), kappa])
            sums = np.sum(tails * log_rising_steps(r, cut), axis=1)
            if ms.size:
                sums += np.bincount(rows, weights=us * rising_beyond(r[rows], ms, cut), minlength=3)
            obj += sums @ signs
            size += sums.sum()
        return float(obj), float(size)

    def slopes(p, kappa):
        """Per row: sum W i/(1+ir), sum W i/(1+ir)^2 and sum W i^2/(1+ir)^2."""
        r = np.array([kappa / p, kappa / (1.0 - p), kappa])
        d = 1.0 / (1.0 + i * r[:, None])
        wid = tails * (i * d)
        g1, t1, t2 = wid.sum(axis=1), (wid * d).sum(axis=1), (wid * i * d).sum(axis=1)
        if ms.size:
            _, b1, b2 = rising_beyond(r[rows], ms, cut, derivs=True)
            g1 += np.bincount(rows, weights=us * b1, minlength=3)
            t1 += np.bincount(rows, weights=us * (b1 - r[rows] * b2), minlength=3)
            t2 += np.bincount(rows, weights=us * b2, minlength=3)
        return g1, t1, t2

    start_obj, _ = objective(start.mean, start.kappa)
    zero_obj, _ = objective(p_star, 0.0)
    pa, pb, pc = (counts * (counts - 1.0)) @ w_j / 2.0  # sum w k(k-1)/2 for k = H, N-H, N
    if pa / p_star + pb / q_star - pc <= 0.0 and zero_obj >= start_obj:
        return BetaComponent(mean=p_star, kappa=0.0)

    p = min(max(start.mean, _BETA_MEAN_MIN), 1.0 - _BETA_MEAN_MIN)
    kappa = min(start.kappa, _BETA_KAPPA_MAX)
    obj, size = objective(p, kappa)
    if zero_obj > obj:
        p, kappa, obj, size = p_star, 0.0, zero_obj, 0.0
    for _ in range(50):
        q = 1.0 - p
        (ga, gb, gc), (ta, tb, _), (ua, ub, uc) = slopes(p, kappa)
        # gradient and Hessian of F in (m, kappa), m = logit p; dp/dm = pq
        g_m = s_h * q - s_f * p - kappa * (q / p) * ga + kappa * (p / q) * gb
        g_k = ga / p + gb / q - gc
        h_mm = -s_n * p * q + kappa * (q * ga + p * gb + (q * q / p) * ta + (p * p / q) * tb)
        h_mk = -(q / p) * ta + (p / q) * tb
        h_kk = -ua / (p * p) - ub / (q * q) + uc
        m = math.log(p / q)
        if (m >= _BETA_LOGIT_MAX and g_m > 0) or (m <= -_BETA_LOGIT_MAX and g_m < 0):
            g_m, h_mm, h_mk = 0.0, -1.0, 0.0
        if (kappa <= 0.0 and g_k <= 0) or (kappa >= _BETA_KAPPA_MAX and g_k > 0):
            g_k, h_kk, h_mk = 0.0, -1.0, 0.0
        det = h_mm * h_kk - h_mk * h_mk
        if h_mm < 0 and det > 0:
            step_m = (h_mk * g_k - h_kk * g_m) / det
            step_k = (h_mk * g_m - h_mm * g_k) / det
        else:
            step_m = g_m / abs(h_mm) if h_mm else 0.0
            step_k = g_k / abs(h_kk) if h_kk else 0.0
        gain = 0.5 * (g_m * step_m + g_k * step_k)
        tol = _ROUNDING * (1.0 + size)  # F's rounding: gains below it are not seen
        if gain < tol:
            break
        if abs(step_m) > 2.0:
            gain *= 2.0 / abs(step_m)
            step_k *= 2.0 / abs(step_m)
            step_m = math.copysign(2.0, step_m)
        moved = False
        for _ in range(30):
            cand_m = min(max(m + step_m, -_BETA_LOGIT_MAX), _BETA_LOGIT_MAX)
            cand_p = 1.0 / (1.0 + math.exp(-cand_m))
            cand_k = min(max(kappa + step_k, 0.0), _BETA_KAPPA_MAX)
            cand_obj, cand_size = objective(cand_p, cand_k)
            if cand_obj > obj + tol:
                p, kappa, obj, size, moved = cand_p, cand_k, cand_obj, cand_size, True
                break
            step_m *= 0.5
            step_k *= 0.5
            gain *= 0.5
            if gain < tol:
                break
        if not moved:
            break
    if obj < start_obj:
        return start
    return BetaComponent(mean=float(p), kappa=float(kappa))


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
