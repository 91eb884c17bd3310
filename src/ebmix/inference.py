"""Posterior summaries from a fitted mixture prior.

Given the fitted model, the posterior of the effect given a case is a
mixture over component posteriors with weights p_j(z) = pi_j f^(j)(z)/f(z).
From that mixture we read off the effect-size estimates E(delta | z) and
Var(delta | z), the local false discovery rate fdr(z) (the posterior
weight of the null set), the tail-area FDR(z), and rejection thresholds
t(q).

A null set is a set of component indices in 0..J-1, passed as
``grouping``.  It must contain component 0 when the model has a
designated null, and it defaults to {0}; `nearly_null_grouping` adds the
components that sit close to the null.

The tail-area FDR is two-sided: FDR(z) = P(null | |Z| >= |z|), so z and
-z get the same value.  `rejection_threshold` scans its curve over
z >= 0 only, so it returns a right-tail threshold t.  For a negative z
the sign-matched one-sided tail, P(null | Z <= z), is another valid
Bayes-FDR region; this module does not compute it.

The posterior mean and variance are also the first and second
derivatives of log(f(z)/f0(z)) in z, where f0 is the zero-effect
sampling density (Tweedie's formula).  ``posterior_summary`` is the
closed form of those moments under the fitted mixture.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NoRejectionRegionError, UnsupportedError
from .families import Family, Observations
from .mixture import MixtureModel, NullMode

DEFAULT_MEAN_TOL = 0.25
DEFAULT_VAR_TOL = 0.25


def check_tolerances(mean_tol: float, var_tol: float) -> None:
    """ContractError unless both tolerances of `nearly_null_grouping` are finite and >= 0."""
    if not (0.0 <= mean_tol < np.inf and 0.0 <= var_tol < np.inf):
        raise ContractError("mean_tol and var_tol must be finite and >= 0")


def nearly_null_grouping(
    model: MixtureModel,
    mean_tol: float = DEFAULT_MEAN_TOL,
    var_tol: float = DEFAULT_VAR_TOL,
) -> frozenset:
    """Fold components concentrated near the null into the null set.

    Component j joins the null when |mu_j - mu_0| <= mean_tol and
    var_j <= var_0 + var_tol.  Such components are artifacts of tuning
    more often than real structure, so they default into the null.
    """
    check_tolerances(mean_tol, var_tol)
    if model.family is not Family.NORMAL:
        raise UnsupportedError("nearly-null grouping is defined for the normal family")
    if model.null_mode is NullMode.NONE:
        raise UnsupportedError("model has no designated null component")
    c0 = model.components[0]
    return frozenset(  # component 0 always qualifies
        j
        for j, c in enumerate(model.components)
        if abs(c.mean - c0.mean) <= mean_tol and c.var <= c0.var + var_tol
    )


@dataclass(frozen=True)
class PosteriorSummary:
    """Per-case posterior output; arrays are aligned with the input cases.

    ``weights`` is `MixtureModel.posterior_weights`'s (J, n) w, one column per case.
    ``fdr`` and ``tail_fdr`` are None when the model has no designated
    null (and tail_fdr also for the binomial family, where no tail-area
    definition exists).
    """

    weights: np.ndarray
    effect_mean: np.ndarray
    effect_var: np.ndarray
    fdr: np.ndarray | None = None
    tail_fdr: np.ndarray | None = None


def _null_set(model: MixtureModel, grouping) -> frozenset | None:
    """The null set: ``grouping`` checked against the model, else {0} where the model has a null."""
    if grouping is None:
        return None if model.null_mode is NullMode.NONE else frozenset({0})
    null_set = frozenset(grouping)
    if not null_set <= frozenset(range(model.n_components)):
        raise ContractError(f"null set indices must be in 0..{model.n_components - 1}")
    if model.null_mode is not NullMode.NONE and 0 not in null_set:
        raise ContractError("null grouping must contain component 0")
    return null_set


def tail_fdr_at(z, model: MixtureModel, null_set: frozenset, s2=1.0) -> np.ndarray:
    """Two-sided FDR(z) = P(null | |Z| >= |z|) from the closed-form marginal cdfs."""
    from scipy.special import ndtr

    z = np.abs(np.asarray(z, dtype=float))
    mu = np.array([c.mean for c in model.components])[:, None]
    sd = np.sqrt(np.array([c.var for c in model.components])[:, None] + s2)
    # pi_j P_j(|Z| >= |z|) per component (rows) and case (columns); each tail is its own ndtr,
    # not 1 - cdf, which would round the far right tail to 0
    tails = model.pi[:, None] * (ndtr(-((z - mu) / sd)) + ndtr((-z - mu) / sd))
    # the built-in sum adds the rows one by one, in component order; np.sum(axis=0)
    # pairs them differently for a single z
    zero = np.zeros_like(z)
    num = sum(tails[sorted(null_set)], zero)
    den = sum(tails, zero)
    # where both tails are empty the conditional event has probability
    # zero; FDR is then 1
    out = np.ones_like(z)
    ok = den > 0.0
    out[ok] = num[ok] / den[ok]
    return np.clip(out, 0.0, 1.0)


def posterior_summary(obs: Observations, model: MixtureModel, grouping=None) -> PosteriorSummary:
    """Posterior weights, E(delta|z), Var(delta|z), fdr and FDR per case.

    ``grouping`` is the null set, an iterable of component indices
    (default {0} where the model has a null).
    """
    if obs.family is not model.family:
        raise ContractError("observation family does not match the model")
    null_set = _null_set(model, grouping)
    w, _ = model.posterior_weights(obs)
    post = obs.posterior(model.components)
    effect_mean = np.sum(w * post.mean, axis=0)
    # centered, so a variance far below the squared mean does not cancel
    effect_var = np.sum(w * (post.var + (post.mean - effect_mean) ** 2), axis=0)

    fdr = None
    tail = None
    if null_set is not None:
        fdr = w[sorted(null_set)].sum(axis=0)
        if model.family is Family.NORMAL:
            tail = tail_fdr_at(obs.z, model, null_set, s2=obs.s2)
    return PosteriorSummary(
        weights=w, effect_mean=effect_mean, effect_var=effect_var, fdr=fdr, tail_fdr=tail
    )


def _curve_args(model: MixtureModel, z_grid, grouping):
    """The grid and null set of a curve: a nonempty 1-D grid (a scalar is one point), a normal model and a null set."""
    z_grid = np.array(z_grid, dtype=float, ndmin=1)
    if z_grid.ndim != 1:
        raise ContractError("z grid must be one-dimensional")
    if z_grid.size == 0:
        raise ContractError("z grid must be nonempty")
    if model.family is not Family.NORMAL:
        raise UnsupportedError("fdr and FDR curves are defined for the normal family only")
    null_set = _null_set(model, grouping)
    if null_set is None:
        raise UnsupportedError("model has no designated null component")
    return z_grid, null_set


def fdr_curve(model: MixtureModel, z_grid, grouping=None) -> np.ndarray:
    """Local fdr along a z grid (normal family, unit s2)."""
    z_grid, null_set = _curve_args(model, z_grid, grouping)
    w, _ = model.posterior_weights(Observations.normal(z_grid))
    return w[sorted(null_set)].sum(axis=0)


def tail_fdr_curve(model: MixtureModel, z_grid, grouping=None) -> np.ndarray:
    """Tail-area FDR along a z grid (normal family, unit s2) from the closed-form cdfs."""
    z_grid, null_set = _curve_args(model, z_grid, grouping)
    return tail_fdr_at(z_grid, model, null_set)


GRID_LO = 0.0
GRID_HI = 10.0
GRID_STEP = 0.001


def rejection_threshold(
    model: MixtureModel,
    q: float,
    kind: str = "fdr",
    grouping=None,
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
    values = curve_fn(model, grid, grouping=grouping)
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
        if curve_fn(model, np.array([mid]), grouping=grouping)[0] > q:
            lo = mid
        else:
            hi = mid
    return float(hi)
