"""Posterior summaries from a fitted mixture prior.

Given the fitted model, the posterior of the effect given a case is a
mixture over component posteriors with weights p_j(z) = pi_j f^(j)(z)/f(z).
From that mixture we read off the effect-size estimates E(delta | z) and
Var(delta | z), the local false discovery rate fdr(z) (the posterior
weight of the null set), the two-sided tail-area FDR(z), and rejection
thresholds t(q).

The posterior mean and variance are also the first and second
derivatives of log(f(z)/f0(z)) in z, where f0 is the zero-effect
sampling density; ``tweedie_continuous`` / ``tweedie_discrete`` expose
that route, which works for any density estimate, not just the mixture.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import ContractError, NoRejectionRegionError, NumericError, UnsupportedError
from .families import (
    Family,
    Observations,
    component_marginal_cdf,
    component_marginal_sf,
    component_posterior,
    normal_logpdf,
)
from .mixture import MixtureModel, NullMode

DEFAULT_MEAN_TOL = 0.25
DEFAULT_VAR_TOL = 0.25


@dataclass(frozen=True)
class NullGrouping:
    """Which mixture components, by index, count as null for fdr/FDR purposes."""

    null_set: frozenset

    def __post_init__(self):
        object.__setattr__(self, "null_set", frozenset(int(i) for i in self.null_set))


def explicit_grouping(model: MixtureModel) -> NullGrouping:
    """Only the designated null component (index 0) counts as null."""
    if model.null_mode is NullMode.NONE:
        raise UnsupportedError("model has no designated null component")
    return NullGrouping(null_set=frozenset({0}))


def nearly_null_grouping(
    model: MixtureModel,
    mean_tol: float = DEFAULT_MEAN_TOL,
    var_tol: float = DEFAULT_VAR_TOL,
) -> NullGrouping:
    """Fold components concentrated near the null into the null set.

    Component j joins the null when |mu_j - mu_0| <= mean_tol and
    var_j <= var_0 + var_tol.  Such components are artifacts of tuning
    more often than real structure, so they default into the null.
    """
    if model.family is not Family.NORMAL:
        raise UnsupportedError("nearly-null grouping is defined for the normal family")
    if model.null_mode is NullMode.NONE:
        raise UnsupportedError("model has no designated null component")
    c0 = model.components[0]
    members = {0}
    for j, c in enumerate(model.components[1:], start=1):
        if abs(c.mean - c0.mean) <= mean_tol and c.var <= c0.var + var_tol:
            members.add(j)
    return NullGrouping(null_set=frozenset(members))


@dataclass(frozen=True)
class PosteriorSummary:
    """Per-case posterior output; arrays are aligned with the input cases.

    ``fdr`` and ``tail_fdr`` are None when the model has no designated
    null (and tail_fdr also for the binomial family, where no tail-area
    definition exists).
    """

    weights: np.ndarray
    effect_mean: np.ndarray
    effect_var: np.ndarray
    fdr: np.ndarray | None = None
    tail_fdr: np.ndarray | None = None


def _resolve_grouping(model: MixtureModel, grouping: NullGrouping | None):
    if grouping is not None:
        if model.null_mode is not NullMode.NONE and 0 not in grouping.null_set:
            raise ContractError("null grouping must contain component 0")
        return grouping
    if model.null_mode is NullMode.NONE:
        return None
    return explicit_grouping(model)


def tail_fdr_at(z, model: MixtureModel, grouping: NullGrouping, s2=1.0) -> np.ndarray:
    """FDR(z) = P(null | |z_i| >= z) from the closed-form marginal cdfs."""
    if model.family is not Family.NORMAL:
        raise UnsupportedError("tail-area FDR is defined for the normal family only")
    z = np.asarray(z, dtype=float)
    num = np.zeros_like(z)
    den = np.zeros_like(z)
    for j, c in enumerate(model.components):
        two_sided = component_marginal_sf(z, c, s2) + component_marginal_cdf(-z, c, s2)
        den += model.pi[j] * two_sided
        if j in grouping.null_set:
            num += model.pi[j] * two_sided
    # where both tails are empty the conditional event has probability
    # zero; FDR is then 1
    out = np.ones_like(z)
    ok = den > 0.0
    out[ok] = num[ok] / den[ok]
    return np.clip(out, 0.0, 1.0)


def posterior_summary(
    obs: Observations,
    model: MixtureModel,
    grouping: NullGrouping | None = None,
) -> PosteriorSummary:
    """Posterior weights, E(delta|z), Var(delta|z), fdr and FDR per case."""
    if obs.family is not model.family:
        raise ContractError("observation family does not match the model")
    grouping = _resolve_grouping(model, grouping)
    w, _ = model.posterior_weights(obs)
    means = np.empty_like(w)
    varis = np.empty_like(w)
    for j, c in enumerate(model.components):
        post = component_posterior(obs, c)
        means[:, j] = post.mean
        varis[:, j] = post.var
    effect_mean = np.sum(w * means, axis=1)
    second_moment = np.sum(w * (varis + means**2), axis=1)
    effect_var = second_moment - effect_mean**2
    if np.any(effect_var < -1e-12):
        raise NumericError("posterior variance arithmetic went negative")
    effect_var = np.maximum(effect_var, 0.0)

    fdr = None
    tail = None
    if grouping is not None:
        idx = sorted(grouping.null_set)
        fdr = w[:, idx].sum(axis=1)
        if model.family is Family.NORMAL:
            tail = tail_fdr_at(obs.z, model, grouping, s2=obs.s2)
    return PosteriorSummary(
        weights=w, effect_mean=effect_mean, effect_var=effect_var, fdr=fdr, tail_fdr=tail
    )


def fdr_curve(model: MixtureModel, z_grid, grouping: NullGrouping | None = None, s2: float = 1.0) -> np.ndarray:
    """Local fdr along a z grid (normal family, unit or common s2)."""
    z_grid = np.asarray(z_grid, dtype=float)
    if z_grid.size == 0:
        raise ContractError("z grid must be nonempty")
    if model.family is not Family.NORMAL:
        raise UnsupportedError("fdr curves are defined for the normal family only")
    grouping = _resolve_grouping(model, grouping)
    if grouping is None:
        raise UnsupportedError("model has no designated null component")
    obs = Observations.normal(z_grid, np.full(z_grid.shape, float(s2)))
    w, _ = model.posterior_weights(obs)
    return w[:, sorted(grouping.null_set)].sum(axis=1)


def tail_fdr_curve(model: MixtureModel, z_grid, grouping: NullGrouping | None = None, s2: float = 1.0) -> np.ndarray:
    """Tail-area FDR along a z grid from the closed-form cdfs."""
    z_grid = np.asarray(z_grid, dtype=float)
    if z_grid.size == 0:
        raise ContractError("z grid must be nonempty")
    grouping = _resolve_grouping(model, grouping)
    if grouping is None:
        raise UnsupportedError("model has no designated null component")
    return tail_fdr_at(z_grid, model, grouping, s2=s2)


GRID_LO = 0.0
GRID_HI = 10.0
GRID_STEP = 0.001


def rejection_threshold(
    model: MixtureModel,
    q: float,
    kind: str = "fdr",
    grouping: NullGrouping | None = None,
    s2: float = 1.0,
) -> float:
    """Smallest t with curve(z) <= q for every grid point z >= t.

    The curve is scanned on [0, 10] with step 0.001 and the crossing is
    refined by bisection to 1e-6.  Right-tail thresholds only.
    """
    if not 0.0 < q < 1.0:
        raise ContractError("q must be in (0, 1)")
    if kind not in ("fdr", "FDR"):
        raise ContractError(f"unknown curve kind {kind!r}")
    grid = np.arange(GRID_LO, GRID_HI + GRID_STEP / 2, GRID_STEP)
    curve_fn = fdr_curve if kind == "fdr" else tail_fdr_curve
    values = curve_fn(model, grid, grouping=grouping, s2=s2)
    above = values > q
    if above[-1]:
        raise NoRejectionRegionError(
            f"{kind} curve stays above q={q} through z={GRID_HI}; no rejection region"
        )
    if not above.any():
        return float(grid[0])
    last = int(np.flatnonzero(above)[-1])
    lo, hi = grid[last], grid[last + 1]
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if curve_fn(model, np.array([mid]), grouping=grouping, s2=s2)[0] > q:
            lo = mid
        else:
            hi = mid
    return float(hi)


# ---------------------------------------------------------------------------
# posterior moments via derivatives of log(f/f0)
# ---------------------------------------------------------------------------


class NormalLogpdf:
    """log phi(z; mean, var) with analytic first two derivatives."""

    def __init__(self, mean: float, var: float):
        if var <= 0:
            raise ContractError("density variance must be > 0")
        self.mean = float(mean)
        self.var = float(var)

    def __call__(self, z):
        return normal_logpdf(np.asarray(z, dtype=float), self.mean, self.var)

    def d1(self, z):
        return -(np.asarray(z, dtype=float) - self.mean) / self.var

    def d2(self, z):
        return np.full_like(np.asarray(z, dtype=float), -1.0 / self.var)


class NormalMixtureLogpdf:
    """Log marginal of a normal mixture model with analytic derivatives.

    The marginal is sum_j pi_j phi(z; mu_j, var_j + s2).  Its value and
    the posterior component weights, through which the derivatives are
    computed (stable far into the tails), come from
    `MixtureModel.posterior_weights`, so z must be finite and of nonzero
    marginal density.
    """

    def __init__(self, model: MixtureModel, s2: float = 1.0):
        if model.family is not Family.NORMAL:
            raise UnsupportedError("analytic log-density requires a normal model")
        self.model = model
        self.s2 = float(s2)
        self.mu = np.array([c.mean for c in model.components])
        self.v = np.array([c.var for c in model.components]) + self.s2

    def _posterior(self, z):
        """z as an array, the weights and log f at its entries, and (z - mu_j)/v_j."""
        z = np.asarray(z, dtype=float)
        w, logf = self.model.posterior_weights(Observations.normal(z.ravel(), self.s2))
        return z, w, logf, (z.reshape(-1, 1) - self.mu) / self.v

    def __call__(self, z):
        z, _, logf, _ = self._posterior(z)
        return logf.reshape(z.shape)

    def d1(self, z):
        z, w, _, r = self._posterior(z)
        return -np.sum(w * r, axis=1).reshape(z.shape)

    def d2(self, z):
        z, w, _, r = self._posterior(z)
        d1 = np.sum(w * r, axis=1)
        return (np.sum(w * (r**2 - 1.0 / self.v), axis=1) - d1**2).reshape(z.shape)


def _derivatives(fn, z):
    """(d1, d2) of ``fn`` at z: its analytic ``d1``/``d2``, else central differences."""
    if hasattr(fn, "d1") and hasattr(fn, "d2"):
        return fn.d1(z), fn.d2(z)
    h1, h2 = 1e-5, 1e-4
    d1 = (fn(z + h1) - fn(z - h1)) / (2.0 * h1)
    return d1, (fn(z + h2) - 2.0 * fn(z) + fn(z - h2)) / (h2 * h2)


def tweedie_continuous(log_f, log_f0, z):
    """Posterior mean and variance as derivatives of log f - log f0.

    Callables exposing analytic ``d1``/``d2`` methods (as the package's
    log-density objects do) are differentiated exactly; bare callables
    fall back to central differences.
    """
    z = np.asarray(z, dtype=float)
    d1f, d2f = _derivatives(log_f, z)
    d1n, d2n = _derivatives(log_f0, z)
    mean = d1f - d1n
    var = d2f - d2n
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(var))):
        raise NumericError("non-finite derivative in Tweedie estimate")
    return mean, var


def tweedie_from_model(model: MixtureModel, z, s2: float = 1.0):
    """Analytic Tweedie estimate under a fitted normal mixture.

    With case variance s2 the sampling family's natural parameter is
    delta/s2, so the log-ratio derivatives are rescaled by s2 and s2^2
    to land back on the effect scale.
    """
    log_f = NormalMixtureLogpdf(model, s2=s2)
    log_f0 = NormalLogpdf(0.0, float(s2))
    mean, var = tweedie_continuous(log_f, log_f0, z)
    return s2 * mean, s2 * s2 * var


def tweedie_discrete(support, log_f, log_f0, z):
    """Tweedie estimate for integer-valued data via cgf interpolation.

    A natural cubic spline is fitted to log f - log f0 on the integer
    support; its first two derivatives at z estimate the posterior mean
    and variance of the natural parameter.
    """
    support = np.asarray(support, dtype=float)
    log_f = np.asarray(log_f, dtype=float)
    log_f0 = np.asarray(log_f0, dtype=float)
    if support.ndim != 1 or support.size < 4:
        raise ContractError("support must be a contiguous integer range of >= 4 points")
    if np.any(np.diff(support) != 1.0):
        raise ContractError("support must be contiguous integers")
    if log_f.shape != support.shape or log_f0.shape != support.shape:
        raise ContractError("log-density tables must match the support")
    z = float(z)
    if not support[0] <= z <= support[-1]:
        raise ContractError("z must lie inside the tabulated support")
    spline = CubicSpline(support, log_f - log_f0, bc_type="natural")
    mean = float(spline(z, 1))
    var = float(spline(z, 2))
    if not (np.isfinite(mean) and np.isfinite(var)):
        raise NumericError("non-finite derivative in discrete Tweedie estimate")
    return mean, var
