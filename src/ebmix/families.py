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
* ``saturated``, each case's data-only term of the log marginal, and
  ``saturated_sum``, its sum over cases;
* ``log_kernel``, the kernel behind `log_marginal_matrix`;
* ``proves_finite``, whether a fresh ``log_kernel`` is shown finite from
  a few numbers, so that `log_marginal_matrix` need not scan it (normal:
  from the batch's extent, where no entry can overflow; binomial: never,
  so it is always scanned);
* ``posterior``, every component's posterior given each case, per
  component (rows) and case (columns) like ``log_kernel``;
* ``start``, the EM starting components;
* ``update``, the weighted M-step of every component it is given, each
  on its row of the weights, in one call that returns them all
  (`mixture.m_step` picks the rows to fit).  It never lowers a
  component's weighted log marginal, so EM needs no guard (normal:
  exact with a common s2, else one ascent step, below; binomial: the
  Newton solve, which keeps its start if it cannot gain);
* ``draw``, cases drawn from a mixture's marginal;
* ``parse_row``, one case-file row, and ``statistic``, the column that
  `estimate` writes as z.

Component marginals f^(j) and component posteriors g_j(delta | z) are
computed here.  Everything is evaluated in log space and vectorized over
components and cases.

A batch owns its arrays: they are copied in and read-only.  So every term
that depends on the data alone is computed once per batch, not once per
EM map, and kept as a read-only cached property:

* both families: ``saturated`` and ``saturated_sum``;
* normal ``proves_finite``: max |z|, min s2 and max s2 (``_extent``);
* binomial, shared by ``log_kernel`` and the M-step: the counts
  (H, N-H, N) as rows (``stacked``), the table length ``cut``, each
  count's place in the tables (``_table_keys``, also the M-step's
  bincount keys) and the counts above them (``_beyond``);
* binomial ``log_kernel``: the safe rates of its log ratios
  (``_safe_rates``);
* binomial M-step (``_newton_terms``): k(k-1), ``arange(cut)`` and the
  distinct counts above the table of each row.

They take O(n + RISING_TABLE) memory.

The normal kernel is log phi(z; mean, var + s2), formed by
`normal_logpdf` as -0.5 (log 2pi + log v) - (z - mean)^2 (0.5 / v) with
v = var + s2: one new (J, n) array of deviations, squared and scaled in
place by the reciprocal 0.5 / v, which is J numbers with a common s2.
So a common-s2 kernel costs no (J, n) division, and, shown finite by
``proves_finite``, no (J, n) scan either.

The normal M-step of a component with weights w maximizes its weighted
log marginal Q(mu, t) = -1/2 sum w [log(t + s2) + (z - mu)^2/(t + s2)]:
in closed form with a common s2 (the weighted moments), else by one step
that cannot lower Q (generalized EM; Dempster, Laird & Rubin 1977).
With r = z - mu and v = tau + s2 at the current (mu, tau), log(t + s2)
replaced by its tangent at tau gives the concave minorizer
G(t) = -1/2 sum w [(t - tau)/v + r^2/(t + s2)] of Q(mu, t), up to a
constant, equal at tau.  With A = sum w/v, b = sum w r^2/v^2 and
c = sum w r^2/v^3, the step is one Newton step on G',
t = max(0, tau + (b - A)/(2c)) (t = 0 where b = 0):

* upward (b > A) it stops short of G's maximum, since G' is convex and
  falling, so Q rises;
* downward it is kept where G(t) >= G(tau), that is where
  A >= sum w r^2/(v (t + s2)); else t = tau sqrt(b/A), the maximum of the
  looser minorizer with 1/(t + s2) <= (tau/v)^2/t + s2/v^2, which always
  ascends (minorize-maximize; Zhou, Hu, Zhou & Lange 2019).

Then mu = sum (w/(t + s2)) z / sum w/(t + s2), the maximizer at t.  A
fixed point has b = A, or tau = 0 with b <= A, where t is exactly 0 (a
point mass stays one): a stationary point of Q.

A batch also keeps ``scratch``, two writable rows of length n, made on
first use.  They hold no cached term: their contents mean nothing between
calls.  `mixture.MixtureModel.posterior_weights` keeps each case's largest
log term and its sum of exponentials in the two, and the normal M-step
frees its one (F, n) block of squared deviations before the E-step.  So
an EM map with a common s2 holds no new array of length n at its peak
but the weights and log marginals it returns, and the memory of one map
is reused by the next.  A batch is therefore not for use from several
threads at once.

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

from .errors import ContractError, NumericError

LOG_2PI = float(np.log(2.0 * np.pi))
# Below it, `NormalObservations.proves_finite`'s two bounds leave every kernel entry far from overflow.
_FINITE_BOUND = 1e300


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
        if not (math.isfinite(self.mean) and math.isfinite(self.var)):
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
        if not (math.isfinite(self.mean) and math.isfinite(self.kappa)):
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
    """Posterior mean and variance of each prior component's effect, shape (J, n).

    Binomial posteriors, beta again, also carry their kappa = 1/(alpha + beta).
    """

    mean: np.ndarray
    var: np.ndarray
    kappa: np.ndarray | None = None


def normal_logpdf(x, mean, var):
    """log phi(x; mean, var); ``var`` broadcasts to the shape of ``x - mean``, which is the result's.

    The result is built in the one new array ``x - mean``; no other array
    of that shape is made unless ``var`` has it.  The squared deviations
    are scaled by one reciprocal, 0.5 / var, which is J numbers for a
    (J, 1) column ``var``, not divided cell by cell.  The steps are those
    of -0.5 (log 2pi + log var) - (x - mean)^2 (0.5 / var), in that
    order, so the result has the bits of that closed form.
    """
    scale = np.log(var)
    scale += LOG_2PI
    scale *= -0.5
    out = np.subtract(x, mean)
    np.square(out, out=out)
    out *= 0.5 / var
    return np.subtract(scale, out, out=out)


def _cases(name: str, values: np.ndarray) -> np.ndarray:
    """``values``, one per case; ContractError unless they are one-dimensional (a scalar is made one case)."""
    if values.ndim != 1:
        raise ContractError(f"{name} must be one-dimensional, one value per case; got shape {values.shape}")
    return values


def _per_case(name: str, values: np.ndarray, shape) -> np.ndarray:
    """A copy of ``values`` broadcast to the cases' ``shape``; ContractError unless a scalar or one value per case."""
    try:
        return np.broadcast_to(values, shape).copy()
    except ValueError:
        raise ContractError(
            f"{name} must be a scalar or one value per case, got {np.size(values)} values for {math.prod(shape)} cases"
        ) from None


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, marked read-only: a batch's arrays and cached terms are shared by every caller."""
    a.flags.writeable = False
    return a


class Observations:
    """A batch of cases from one sampling family, of that family's class (see the module docstring).

    A batch compares and hashes by identity (``eq=False``): two batches
    with equal values are still two batches.
    """

    def __len__(self) -> int:
        return int(self.statistic.shape[0])

    @functools.cached_property
    def scratch(self) -> np.ndarray:
        """Two writable rows of length n that an EM map works in (see the module docstring)."""
        return np.empty((2, len(self)))

    @functools.cached_property
    def saturated_sum(self) -> float:
        """The sum of ``saturated`` over cases, which `mixture.e_step` adds to the pll once."""
        return float(self.saturated.sum())

    @staticmethod
    def normal(z, s2=None) -> "NormalObservations":
        """Normal cases: statistics ``z`` with known sampling variances ``s2`` (default 1 for every case)."""
        return NormalObservations(z, 1.0 if s2 is None else s2)

    @staticmethod
    def binomial(counts, trials) -> "BinomialObservations":
        """Binomial cases: success counts ``counts`` out of ``trials``."""
        return BinomialObservations(counts, trials)


@dataclass(frozen=True, eq=False)
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
        # a copy: the caller's array stays the caller's
        z = _cases("normal statistics", np.array(self.z, dtype=float, ndmin=1))
        s2 = _per_case("s2", np.asarray(self.s2, dtype=float), z.shape)
        if not np.all(np.isfinite(z)):
            raise ContractError("normal statistics must be finite")
        if not np.all(np.isfinite(s2)):
            raise ContractError("per-case variances s2 must be finite")
        if not np.all(s2 > 0):
            raise ContractError("per-case variances s2 must be > 0")
        object.__setattr__(self, "z", _read_only(z))
        object.__setattr__(self, "s2", _read_only(s2))

    @property
    def statistic(self) -> np.ndarray:
        return self.z

    @functools.cached_property
    def saturated(self) -> np.ndarray:
        """0 for every case: the normal marginal has no data-only term."""
        return np.broadcast_to(0.0, (len(self),))

    @functools.cached_property
    def homoscedastic(self) -> bool:
        """Whether every case has the same s2, where the M-step has a closed form; true of an empty batch."""
        return bool(self.s2.min(initial=np.inf) >= self.s2.max(initial=-np.inf))

    @functools.cached_property
    def _extent(self) -> tuple:
        """(max |z|, min s2, max s2) as Python floats: all that `proves_finite` reads of the batch."""
        return (
            float(np.abs(self.z).max(initial=0.0)),
            float(self.s2.min(initial=np.inf)),
            float(self.s2.max(initial=0.0)),
        )

    def proves_finite(self, components) -> bool:
        """Whether every entry of ``log_kernel(components)`` is shown finite from J numbers, without a scan.

        Per component, with d = max |z| + |mean|: IEEE rounding is
        monotone, so each cell's (z - mean)^2 (0.5 / (var + s2)) rounds to
        at most d d (0.5 / (var + min s2)), and its var + s2 to at most
        var + max s2.  Where both are below _FINITE_BOUND, the log of
        var + s2 (> 0) and every entry are finite.  Otherwise nothing is
        shown, and `log_marginal_matrix` scans the kernel.  Python floats
        throughout: an overflow gives inf and no warning (``d * d``, not
        ``d ** 2``, which raises).
        """
        reach, low, high = self._extent
        for c in components:
            var = float(c.var)
            d = reach + abs(float(c.mean))
            if not (d * d * (0.5 / (var + low)) < _FINITE_BOUND and var + high < _FINITE_BOUND):
                return False
        return True

    def log_kernel(self, components) -> np.ndarray:
        """log phi(z; mean, var + s2) per component (rows) and case (columns), in closed form.

        With a common s2 each component's log(var + s2) is taken once.
        """
        mu = np.array([c.mean for c in components])
        var = np.array([c.var for c in components])
        s2 = self.s2[:1] if self.homoscedastic else self.s2
        return normal_logpdf(self.z, mu[:, None], var[:, None] + s2)

    def posterior(self, components) -> ComponentPosterior:
        """N((s2*mean + var*z)/(var + s2), var*s2/(var + s2)); a point mass (var = 0) stays one.

        The mean of a point mass is copied, not divided: (s2*mean)/s2 need
        not round back to the mean.
        """
        mu = np.array([c.mean for c in components])[:, None]
        var = np.array([c.var for c in components])[:, None]
        denom = var + self.s2
        mean = np.where(var == 0.0, mu, (self.s2 * mu + var * self.z) / denom)
        return ComponentPosterior(mean=mean, var=var * self.s2 / denom)

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

    def update(self, w: np.ndarray, nj, components) -> list:
        """The weighted M-step of component k on row k of the (F, n) ``w`` (sum ``nj[k]``, an array), for all F.

        Each sum over cases is one product for all F components: the
        weighted moments with a common s2, else `_ascend`.
        """
        if self.homoscedastic:
            # einsum, not a BLAS dot: OpenBLAS splits long dots over its threads, so their bits follow the thread count
            mu = np.einsum("ij,j->i", w, self.z) / nj
            dev = np.subtract(self.z, mu[:, None])
            np.square(dev, out=dev)
            var = np.einsum("ij,ij->i", w, dev) / nj - float(self.s2[0])
            moved = zip(mu.tolist(), var.tolist())
        else:
            moved = self._ascend(w, components)
        return [NormalComponent(m, max(0.0, v)) for m, v in moved]

    def _ascend(self, w: np.ndarray, components) -> list:
        """(mean, var) of each component after the ascent step of the module docstring, on its row of ``w``.

        The (F, n) sums are `np.einsum`s, and the step runs on F Python
        floats.  Row k of 1/v becomes 1/(t + s2) in place, and only where
        the component's var moved.
        """
        tau = [c.var for c in components]
        iv = np.add(np.array(tau)[:, None], self.s2)
        np.reciprocal(iv, out=iv)  # 1/v
        p = np.subtract(self.z, np.array([c.mean for c in components])[:, None])
        np.square(p, out=p)
        p *= w
        p *= iv  # w r^2/v
        a = np.einsum("ij,ij->i", w, iv).tolist()
        b = np.einsum("ij,ij->i", p, iv).tolist()
        c = np.einsum("ij,ij,ij->i", p, iv, iv).tolist()
        t = []
        for k, (t0, ak, bk, ck) in enumerate(zip(tau, a, b, c)):
            tk = max(0.0, t0 + (bk - ak) / (2.0 * ck)) if ck > 0.0 else 0.0
            if tk != t0:
                row = np.reciprocal(np.add(self.s2, tk, out=iv[k]), out=iv[k])
                if tk < t0 and np.einsum("j,j->", p[k], row) > ak:  # a downward step that lowers G: the MM step
                    tk = t0 * math.sqrt(bk / ak)
                    np.reciprocal(np.add(self.s2, tk, out=row), out=row)
            t.append(tk)
        iv *= w  # w/(t + s2)
        mu = np.einsum("ij,j->i", iv, self.z) / np.einsum("ij->i", iv)
        return list(zip(mu.tolist(), t))

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


@dataclass(frozen=True, eq=False)
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
        counts = _cases("binomial counts", np.atleast_1d(np.asarray(self.counts)))
        trials = _per_case("trials", np.atleast_1d(np.asarray(self.trials)), counts.shape)
        if not (np.issubdtype(counts.dtype, np.integer) and np.issubdtype(trials.dtype, np.integer)):
            counts_f, trials_f = np.asarray(counts, dtype=float), np.asarray(trials, dtype=float)
            # checked on the floats: a cast of inf, nan or |x| >= 2**63 to int64 has no defined value
            if not (np.all(np.isfinite(counts_f)) and np.all(np.isfinite(trials_f))):
                raise ContractError("binomial counts and trials must be finite")
            if np.any(counts_f != np.round(counts_f)) or np.any(trials_f != np.round(trials_f)):
                raise ContractError("binomial counts and trials must be integers")
            if np.any(np.abs(counts_f) >= 2.0**63) or np.any(np.abs(trials_f) >= 2.0**63):
                raise ContractError("binomial counts and trials must be below 2**63 in magnitude")
            counts, trials = counts_f, trials_f
        counts = counts.astype(np.int64)
        trials = trials.astype(np.int64)
        if np.any(trials < 1):
            raise ContractError("trial counts must be >= 1")
        if np.any(counts < 0) or np.any(counts > trials):
            raise ContractError("counts must satisfy 0 <= H <= N")
        object.__setattr__(self, "counts", _read_only(counts))
        object.__setattr__(self, "trials", _read_only(trials))

    @property
    def statistic(self) -> np.ndarray:
        return self.counts

    @functools.cached_property
    def stacked(self) -> np.ndarray:
        """The counts of the three rising sums, (H, N-H, N), as the float rows of a (3, n) array."""
        h, n = self.counts, self.trials
        return _read_only(np.stack([h, n - h, n]).astype(float))

    @functools.cached_property
    def cut(self) -> int:
        """Length of the cumulative rising tables: the largest trial count, at most RISING_TABLE."""
        return min(int(self.trials.max(initial=0)), RISING_TABLE)

    @functools.cached_property
    def _table_keys(self) -> np.ndarray:
        """min(k, cut) + s (cut + 1) per count k of row s of ``stacked``: its place in 3 stacked tables."""
        offsets = (self.cut + 1) * np.arange(3)[:, None]
        return _read_only(np.minimum(self.stacked, self.cut).astype(np.intp) + offsets)

    @functools.cached_property
    def _beyond(self):
        """(row, case, count - cut) of each count in ``stacked`` above ``cut``, row by row."""
        rows, cases = np.nonzero(self.stacked > self.cut)
        return tuple(_read_only(a) for a in (rows, cases, self.stacked[rows, cases] - self.cut))

    @functools.cached_property
    def _safe_rates(self) -> np.ndarray:
        """H/N and (N-H)/N, each 1 where its count is 0: the rates of ``log_kernel``'s terms k log(p/rate)."""
        h, f, n = self.stacked
        return _read_only(np.stack([np.where(h > 0, h / n, 1.0), np.where(f > 0, f / n, 1.0)]))

    @functools.cached_property
    def _newton_terms(self) -> dict:
        """The data-only terms of `_fit_beta_newton`, each read-only.

        ``pairs``, k(k-1) per row of ``stacked``; ``steps``, arange(cut);
        and the distinct counts above ``cut`` of each row: ``rows``, their
        row, ``ms``, the count less cut, and ``inv``, the index into them
        of each count of ``_beyond``.
        """
        counts = self.stacked
        rows, _, m = self._beyond
        # sorted by row, then by count: the order in which `_fit_beta_newton` adds their terms
        distinct, inv = np.unique(np.stack([rows, m]), axis=1, return_inverse=True)
        terms = dict(
            pairs=counts * (counts - 1.0),
            steps=np.arange(self.cut, dtype=float),
            rows=distinct[0].astype(np.intp),
            ms=distinct[1],
            inv=inv.ravel(),
        )
        return {name: _read_only(a) for name, a in terms.items()}

    def _rising_sums(self, rates) -> np.ndarray:
        """R_r(k) for each rate r = rates[l, s] at each count k of ``stacked[s]``: shape (L, 3, n).

        One cumulative table per rate, up to ``cut``; counts above it add
        `rising_beyond`.
        """
        cut = self.cut
        table = np.zeros(rates.shape + (cut + 1,))
        np.cumsum(log_rising_steps(rates, cut), axis=2, out=table[..., 1:])
        out = table.take(self._table_keys + table[0].size * np.arange(len(rates))[:, None, None])
        rows, cases, m = self._beyond
        if m.size:
            out[:, rows, cases] += rising_beyond(rates[:, rows], m, cut)
        return out

    @functools.cached_property
    def saturated(self) -> np.ndarray:
        """Each case's data-only term of the log marginal, computed once per batch.

        The binomial log pmf at the case's own rate h = H/N,
        H log h + (N-H) log(1-h) + log C(N, H).  `log_marginal_matrix`
        leaves it out.
        """
        from scipy.special import xlogy

        h, f, n = self.stacked
        log_fact = self._rising_sums(np.ones((1, 3)))[0]  # R_1(k) = log k!
        return _read_only(xlogy(h, h / n) + xlogy(f, f / n) + log_fact[2] - log_fact[0] - log_fact[1])

    def log_kernel(self, components) -> np.ndarray:
        """log BB(H | N, p, kappa) - saturated per component (rows) and case (columns), built (J, n).

        The form of the module docstring: the per-case log ratios, plus
        R_{kappa/p}, R_{kappa/q} and R_kappa of each component with kappa > 0
        gathered at H, N-H and N from cumulative tables up to RISING_TABLE
        and `rising_beyond` for larger counts, at O(n + RISING_TABLE) cost
        per component and with no special function.
        """
        h, f, _ = self.stacked
        rate_h, rate_f = self._safe_rates
        p = np.array([c.mean for c in components])
        kappa = np.array([c.kappa for c in components])
        q = 1.0 - p
        out = h * _log_ratio(p[:, None], rate_h) + f * _log_ratio(q[:, None], rate_f)
        live = kappa > 0  # the rising sums of a point mass are 0
        if np.any(live):
            k = kappa[live]
            rising = self._rising_sums(np.stack([k / p[live], k / q[live], k], axis=1))
            out[live] += rising[:, 0] + rising[:, 1] - rising[:, 2]
        return out

    def posterior(self, components) -> ComponentPosterior:
        """Be(alpha + H, beta + N - H): mean (p + H kappa)/(1 + N kappa), kappa kappa/(1 + N kappa).

        A point mass (kappa = 0) stays the point mass at p, with variance 0.
        """
        p = np.array([c.mean for c in components])[:, None]
        k = np.array([c.kappa for c in components])[:, None]
        h, f, n = self.stacked
        denom = 1.0 + n * k
        mean = (p + h * k) / denom
        rest = (1.0 - p + f * k) / denom
        kappa = k / denom
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

    def proves_finite(self, components) -> bool:
        """False: the binomial kernel is always scanned."""
        return False

    def update(self, w: np.ndarray, nj, components) -> list:
        """`_fit_beta_newton` of component k on row k of the (F, n) ``w``, for all F."""
        return [_fit_beta_newton(self, row, c) for row, c in zip(w, components)]

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


def component_log_marginal(obs: Observations, comp: Component) -> np.ndarray:
    """Log of the component marginal density f^(j) at each case.

    Normal:   log phi(z; mean, var + s2).
    Binomial: log of the beta-binomial pmf C(N,H) B(alpha+H, beta+N-H) / B(alpha, beta),
              the binomial pmf at kappa = 0.
    One row of `log_marginal_matrix` with ``obs.saturated`` added back.
    """
    return log_marginal_matrix(obs, (comp,))[0] + obs.saturated


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


def _log_ratio(a, b):
    """log(a/b) for a, b > 0, to full relative precision also where a is close to b."""
    # both logs on every cell: a where=-masked form gives the same bits but ran 1.5-1.9x slower on 3 x 500 arrays
    t = (a - b) / b
    return np.where(np.abs(t) < 0.5, np.log1p(t), np.log(a / b))


def fitted_block(fitted):
    """An index of the ascending, nonempty row list ``fitted``: a slice where the rows are adjacent, else the list.

    ``w[fitted_block(fitted)]`` is then those rows of a (J, n) ``w`` as one
    (F, n) block, a view of ``w`` where it can be.
    """
    return slice(fitted[0], fitted[-1] + 1) if fitted[-1] - fitted[0] == len(fitted) - 1 else fitted


def log_marginal_matrix(obs: Observations, components) -> np.ndarray:
    """Stacked component log marginals less ``obs.saturated``, shape (J, n): the family's ``log_kernel``.

    Each case's data-only term ``obs.saturated`` (0 for normal cases) is
    left out: posterior weights do not depend on it, and sums over cases
    add it back once.  The result is a new array that the caller owns:
    `mixture.MixtureModel.posterior_weights` turns it into the weights
    in place.  NumericError if an entry is not finite: the kernel is
    scanned unless ``obs.proves_finite`` shows it finite.
    """
    components = tuple(components)
    if not all(isinstance(c, obs.component) for c in components):
        raise ContractError(f"{obs.family.value} components must be {obs.component.__name__}")
    kernel = obs.log_kernel(components)
    if not (obs.proves_finite(components) or np.all(np.isfinite(kernel))):
        raise NumericError("non-finite component log marginal")
    return kernel


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


def _fit_beta_newton(obs: "BinomialObservations", w_j, start: BetaComponent) -> BetaComponent:
    """Weighted beta-binomial MLE in (p, kappa) of cases ``obs``, weights ``w_j``; closed form at kappa = 0.

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
    count.  What depends on the data alone is read from ``obs``
    (``_newton_terms``), so a call builds only what depends on the weights.

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
    counts, cut, t = obs.stacked, obs.cut, obs._newton_terms
    # W(i) = sum of w over cases with count > i, for i < cut: one bincount of (row, min(count, cut))
    w3 = np.concatenate((w_j, w_j, w_j))
    bins = np.bincount(obs._table_keys.ravel(), weights=w3, minlength=3 * (cut + 1)).reshape(3, cut + 1)
    tails = np.cumsum(bins[:, ::-1], axis=1)[:, -2::-1]
    # distinct counts above the table: shape row, count less cut, summed weight
    rows, ms = t["rows"], t["ms"]
    us = np.bincount(t["inv"], weights=w_j[obs._beyond[1]], minlength=ms.size)
    s_h, s_f = counts[:2] @ w_j
    s_n = s_h + s_f
    signs = np.array([1.0, 1.0, -1.0])
    i = t["steps"]
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
            sums = np.sum(tails * np.log1p(i * r[:, None]), axis=1)  # the steps of `log_rising_steps`
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
    pa, pb, pc = t["pairs"] @ w_j / 2.0  # sum w k(k-1)/2 for k = H, N-H, N
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

