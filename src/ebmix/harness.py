"""Simulation harness: scenario generators, baselines and studies.

Two normal-data studies are provided.  The effect-size study sweeps a
grid of sparsity / signal-strength scenarios and scores estimators by
squared error relative to the Bayes rule under the generating prior.
The fdr study repeatedly samples one fixed sparse scenario and tracks
the bias and spread of fdr/FDR curve estimates and of the rejection
thresholds derived from them.

Replications share their noise vectors across scenarios and methods, so
comparisons are paired.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtr

from .errors import ContractError, EbmixError, FitError
from .families import NormalComponent, Observations
from .inference import (
    NullGrouping,
    fdr_curve,
    nearly_null_grouping,
    posterior_summary,
    rejection_threshold,
    tail_fdr_curve,
)
from .mixture import FitConfig, MixtureModel, NullMode, em_fit
from .seeding import STREAM_DELTA, STREAM_FDR_DELTA, STREAM_NOISE, derive_rng


class ScenarioKind(str, Enum):
    EFFECT_ONE_SIDED = "one"
    EFFECT_TWO_SIDED = "two"


@dataclass(frozen=True)
class ScenarioSpec:
    kind: ScenarioKind
    n_cases: int
    n_nonzero: int
    mu: float
    reps: int
    seed: int

    def __post_init__(self):
        if not 0 <= self.n_nonzero <= self.n_cases:
            raise ContractError("need 0 <= K <= N")
        if self.reps < 1:
            raise ContractError("need reps >= 1")


def _phi(x):
    return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


def scenario_noise(seed: int, rep: int, n: int) -> np.ndarray:
    """Unit normal noise shared by every scenario and method of a rep."""
    return derive_rng(seed, STREAM_NOISE, rep).standard_normal(n)


def negative_count(k: int) -> int:
    """Size of the negative-effect third in the two-sided design."""
    return round(k / 3.0)


def generate_effect_scenario(spec: ScenarioSpec, rep: int):
    """One replication's (delta, z).

    The K nonzero effects sit at seeded-random positions and are uniform
    on (mu - 1/2, mu + 1/2); the two-sided design flips round(K/3) of
    them to (-mu - 1/2, -mu + 1/2).  The noise stream depends only on
    (seed, rep), never on the scenario, so it is reused across cells.
    """
    n, k = spec.n_cases, spec.n_nonzero
    delta = np.zeros(n)
    if k > 0:
        rng = derive_rng(
            spec.seed,
            STREAM_DELTA,
            rep,
            k,
            int(round(spec.mu * 1000)),
            1 if spec.kind is ScenarioKind.EFFECT_TWO_SIDED else 0,
        )
        positions = rng.choice(n, size=k, replace=False)
        values = rng.uniform(spec.mu - 0.5, spec.mu + 0.5, size=k)
        if spec.kind is ScenarioKind.EFFECT_TWO_SIDED:
            n_neg = negative_count(k)
            if n_neg:
                values[:n_neg] = rng.uniform(-spec.mu - 0.5, -spec.mu + 0.5, size=n_neg)
        delta[positions] = values
    z = delta + scenario_noise(spec.seed, rep, n)
    return delta, z


# ---------------------------------------------------------------------------
# baseline estimators
# ---------------------------------------------------------------------------


def universal_threshold(n: int) -> float:
    return float(np.sqrt(2.0 * np.log(n)))


def soft_threshold(z, t):
    z = np.asarray(z, dtype=float)
    return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)


def hard_threshold(z, t):
    z = np.asarray(z, dtype=float)
    return np.where(np.abs(z) >= t, z, 0.0)


def bh_threshold(z, q: float) -> float:
    """Benjamini-Hochberg step-up cutoff on two-sided p-values.

    Returns the smallest rejected |z|, or +inf when nothing is rejected.
    """
    z = np.asarray(z, dtype=float)
    n = z.size
    p = 2.0 * ndtr(-np.abs(z))
    order = np.argsort(p, kind="stable")
    passed = p[order] <= q * np.arange(1, n + 1) / n
    if not passed.any():
        return np.inf
    last = int(np.flatnonzero(passed)[-1])
    return float(np.abs(z[order[last]]))


def sure_threshold(z) -> float:
    """Soft-threshold level minimizing Stein's unbiased risk estimate.

    SURE(t) = n + sum_i [min(z_i^2, t^2) - 2 * 1{|z_i| <= t}], minimized
    over t in [0, sqrt(2 log n)]; the minimum is attained at 0, at an
    observed |z_i|, or at the cap.
    """
    z = np.asarray(z, dtype=float)
    n = z.size
    tmax = universal_threshold(n)
    a = np.sort(np.abs(z))
    cands = np.concatenate(([0.0], a[a <= tmax], [tmax]))
    csum = np.concatenate(([0.0], np.cumsum(a**2)))
    counts = np.searchsorted(a, cands, side="right")
    risk = n + csum[counts] + cands**2 * (n - counts) - 2.0 * counts
    return float(cands[int(np.argmin(risk))])


def james_stein(z, center: bool = False, var=1.0):
    """Positive-part James-Stein with known sampling variances ``var``.

    With ``center`` the estimate shrinks toward the precision-weighted
    mean, by 1 - (n - 3) / sum((z - zbar)^2 / var), the heteroscedastic
    form of Brown (2008, Ann. Appl. Stat.); otherwise toward 0, by
    1 - (n - 2) / sum(z^2 / var).  ``var`` is a scalar or one value per case.
    """
    z = np.asarray(z, dtype=float)
    var = np.broadcast_to(np.asarray(var, dtype=float), z.shape)
    n = z.size
    if center:
        zbar = np.sum(z / var) / np.sum(1.0 / var)
        resid = z - zbar
        ss = float(np.sum(resid**2 / var))
        factor = max(0.0, 1.0 - (n - 3) / ss) if ss > 0 else 0.0
        return zbar + factor * resid
    ss = float(np.sum(z**2 / var))
    factor = max(0.0, 1.0 - (n - 2) / ss) if ss > 0 else 0.0
    return factor * z


def baseline_estimate(name: str, z, q: float = 0.1):
    """Dispatch the named thresholding/shrinkage baseline."""
    z = np.asarray(z, dtype=float)
    n = z.size
    if name == "naive":
        return z.copy()
    if name == "universal_soft":
        return soft_threshold(z, universal_threshold(n))
    if name == "universal_hard":
        return hard_threshold(z, universal_threshold(n))
    if name == "fdr_threshold":
        return hard_threshold(z, bh_threshold(z, q))
    if name == "sure_shrink":
        return soft_threshold(z, sure_threshold(z))
    if name == "james_stein":
        return james_stein(z)
    if name == "james_stein_centered":
        return james_stein(z, center=True)
    if name == "grand_mean":
        return np.full(n, z.mean())
    raise ContractError(f"unknown baseline estimator {name!r}")


# ---------------------------------------------------------------------------
# the Bayes rule under the generating prior
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SparseUniformPrior:
    """Point mass at zero plus uniform slabs, the effect-study prior."""

    null_weight: float
    intervals: tuple  # of (lo, hi, weight)

    def posterior_mean(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        den = self.null_weight * _phi(z)
        num = np.zeros_like(z)
        for lo, hi, weight in self.intervals:
            width = hi - lo
            mass = ndtr(z - lo) - ndtr(z - hi)
            # int d*phi(z-d) dd over [lo, hi] = z*mass + phi(z-lo) - phi(z-hi)
            first = z * mass + _phi(z - lo) - _phi(z - hi)
            den = den + weight * mass / width
            num = num + weight * first / width
        return num / den


def scenario_prior(spec: ScenarioSpec) -> SparseUniformPrior:
    k, n, mu = spec.n_nonzero, spec.n_cases, spec.mu
    if k == 0:
        return SparseUniformPrior(null_weight=1.0, intervals=())
    if spec.kind is ScenarioKind.EFFECT_ONE_SIDED:
        intervals = ((mu - 0.5, mu + 0.5, k / n),)
    else:
        n_neg = negative_count(k)
        intervals = (
            (mu - 0.5, mu + 0.5, (k - n_neg) / n),
            (-mu - 0.5, -mu + 0.5, n_neg / n),
        )
    return SparseUniformPrior(null_weight=1.0 - k / n, intervals=intervals)


def bayes_oracle_estimate(z, spec: ScenarioSpec) -> np.ndarray:
    """E(delta | z) under the exact generating prior."""
    return scenario_prior(spec).posterior_mean(z)


# ---------------------------------------------------------------------------
# effect-size study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EffectMethod:
    name: str
    estimate: Callable  # (z, spec) -> delta_hat


def make_baseline_method(name: str, q: float = 0.1) -> EffectMethod:
    label = f"{name}_q{q:g}" if name == "fdr_threshold" else name
    return EffectMethod(label, lambda z, spec: baseline_estimate(name, z, q=q))


def make_mixture_method(n_components: int = 10, penalty: float = 50.0) -> EffectMethod:
    """Posterior means of a one-restart fit with a theoretical null."""
    config = FitConfig(
        n_components=n_components,
        penalty=penalty,
        n_restarts=1,
    )

    def estimate(z, spec):
        obs = Observations.normal(z)
        model = em_fit(obs, config)
        return posterior_summary(obs, model).effect_mean

    return EffectMethod(f"mixture_J{n_components}_P{penalty:g}", estimate)


def make_bayes_oracle_method() -> EffectMethod:
    return EffectMethod("bayes_oracle", lambda z, spec: bayes_oracle_estimate(z, spec))


def default_effect_methods(n_components: int = 10, penalty: float = 50.0):
    return (
        make_mixture_method(n_components, penalty),
        make_baseline_method("naive"),
        make_baseline_method("universal_soft"),
        make_baseline_method("universal_hard"),
        make_baseline_method("fdr_threshold", q=0.1),
        make_baseline_method("sure_shrink"),
        make_bayes_oracle_method(),
    )


@dataclass(frozen=True)
class EffectCell:
    n_nonzero: int
    mu: float
    sided: str
    method: str
    mse: float
    rel_error: float


@dataclass(frozen=True)
class EffectStudyResult:
    cells: tuple

    def rel_errors(self, method: str) -> np.ndarray:
        return np.array([c.rel_error for c in self.cells if c.method == method])

    def summary(self):
        """Per-method (mean, median) relative error over the scenario grid."""
        out = {}
        for c in self.cells:
            out.setdefault(c.method, [])
        for name in out:
            rel = self.rel_errors(name)
            out[name] = (float(np.mean(rel)), float(np.median(rel)))
        return out


def run_effect_study(
    methods: Sequence[EffectMethod],
    reps: int = 25,
    seed: int = 0,
    n_cases: int = 1000,
    n_nonzero_grid: Sequence[int] = (5, 50, 500),
    mu_grid: Sequence[float] = (2.0, 3.0, 4.0, 5.0),
    sides: Sequence[ScenarioKind] = (ScenarioKind.EFFECT_ONE_SIDED, ScenarioKind.EFFECT_TWO_SIDED),
) -> EffectStudyResult:
    """Squared-error study over the sparsity/strength grid.

    Every (scenario, method) cell reports its mean squared error over
    the replications divided by the Bayes rule's, which is computed for
    every cell whether or not it is listed as a method.
    """
    if not methods:
        raise ContractError("at least one method is required")
    cells = []
    for kind in sides:
        for k in n_nonzero_grid:
            for mu in mu_grid:
                spec = ScenarioSpec(
                    kind=kind, n_cases=n_cases, n_nonzero=k, mu=mu, reps=reps, seed=seed
                )
                sse = {m.name: 0.0 for m in methods}
                sse_bayes = 0.0
                for rep in range(reps):
                    delta, z = generate_effect_scenario(spec, rep)
                    sse_bayes += float(np.sum((bayes_oracle_estimate(z, spec) - delta) ** 2))
                    for m in methods:
                        try:
                            est = m.estimate(z, spec)
                        except EbmixError as exc:
                            raise FitError(
                                f"scenario (K={k}, mu={mu}, sided={kind.value}), "
                                f"rep {rep}, method {m.name}: {exc}"
                            ) from exc
                        sse[m.name] += float(np.sum((est - delta) ** 2))
                mse_bayes = sse_bayes / reps
                for m in methods:
                    mse = sse[m.name] / reps
                    cells.append(
                        EffectCell(
                            n_nonzero=k,
                            mu=mu,
                            sided=kind.value,
                            method=m.name,
                            mse=mse,
                            rel_error=mse / mse_bayes,
                        )
                    )
    return EffectStudyResult(cells=tuple(cells))


# ---------------------------------------------------------------------------
# fdr study
# ---------------------------------------------------------------------------

FDR_Z_GRID = np.round(np.arange(-4.0, 6.0 + 1e-9, 0.1), 10)
FDR_QS = (0.01, 0.02, 0.05, 0.1, 0.2)


def fdr_scenario_deltas(seed: int, n_nonzero: int = 50, low: float = 2.0, high: float = 4.0):
    """The once-and-for-all alternative effects of the fdr scenario."""
    return derive_rng(seed, STREAM_FDR_DELTA).uniform(low, high, size=n_nonzero)


def fdr_truth_model(deltas, n_cases: int = 1000) -> MixtureModel:
    """Plug-in truth: point-mass mixture matching the generating draws."""
    deltas = np.asarray(deltas, dtype=float)
    k = deltas.size
    pi = np.concatenate(([1.0 - k / n_cases], np.full(k, 1.0 / n_cases)))
    comps = (NormalComponent(0.0, 0.0),) + tuple(NormalComponent(float(d), 0.0) for d in deltas)
    return MixtureModel(
        pi=pi,
        components=comps,
        null_mode=NullMode.THEORETICAL,
        penalty=np.zeros(k + 1),
    )


def fdr_scenario_sample(deltas, seed: int, rep: int, n_cases: int = 1000) -> np.ndarray:
    deltas = np.asarray(deltas, dtype=float)
    delta_vec = np.concatenate((deltas, np.zeros(n_cases - deltas.size)))
    return delta_vec + scenario_noise(seed, rep, n_cases)


@dataclass(frozen=True)
class FdrMethod:
    """A mixture-model fdr estimator configuration for the study.

    Each fit runs one EM restart, and nearly null components join the
    null set under `nearly_null_grouping`'s default tolerances.
    """

    name: str
    null_mode: NullMode
    n_components: int = 3
    penalty: float = 50.0

    def fit(self, z):
        obs = Observations.normal(z)
        config = FitConfig(
            n_components=self.n_components,
            penalty=self.penalty,
            null_mode=self.null_mode,
            n_restarts=1,
        )
        model = em_fit(obs, config)
        return model, nearly_null_grouping(model)


@dataclass(frozen=True)
class FdrStudyResult:
    z_grid: np.ndarray
    qs: tuple
    method_names: tuple
    null_modes: dict
    fdr_curves: dict  # name -> (reps, len(grid))
    tail_curves: dict
    thresholds: dict  # (name, kind) -> (reps, len(qs))
    true_fdr: np.ndarray
    true_tail: np.ndarray
    true_thresholds: dict  # kind -> (len(qs),)

    def curve_stats(self, name: str, kind: str = "fdr"):
        arr = self.fdr_curves[name] if kind == "fdr" else self.tail_curves[name]
        return arr.mean(axis=0), arr.std(axis=0, ddof=1)

    def threshold_stats(self, name: str, kind: str = "fdr"):
        arr = self.thresholds[(name, kind)]
        return arr.mean(axis=0), arr.std(axis=0, ddof=1)


def run_fdr_study(
    methods: Sequence[FdrMethod],
    reps: int = 50,
    seed: int = 0,
    n_cases: int = 1000,
    n_nonzero: int = 50,
    z_grid=FDR_Z_GRID,
    qs: Sequence[float] = FDR_QS,
) -> FdrStudyResult:
    """Bias/spread study of fdr, FDR and threshold estimates.

    The alternative effects are drawn once from the study seed and held
    fixed; each replication redraws the noise only.
    """
    if reps < 2:
        raise ContractError("need reps >= 2 to estimate the spread across replications")
    z_grid = np.asarray(z_grid, dtype=float)
    qs = tuple(float(q) for q in qs)
    deltas = fdr_scenario_deltas(seed, n_nonzero=n_nonzero)
    truth = fdr_truth_model(deltas, n_cases=n_cases)
    truth_grouping = NullGrouping(null_set=frozenset({0}))
    true_fdr = fdr_curve(truth, z_grid, grouping=truth_grouping)
    true_tail = tail_fdr_curve(truth, z_grid, grouping=truth_grouping)
    true_thresholds = {
        kind: np.array(
            [rejection_threshold(truth, q, kind=kind, grouping=truth_grouping) for q in qs]
        )
        for kind in ("fdr", "FDR")
    }

    names = tuple(m.name for m in methods)
    fdr_curves = {m.name: np.empty((reps, z_grid.size)) for m in methods}
    tail_curves = {m.name: np.empty((reps, z_grid.size)) for m in methods}
    thresholds = {(m.name, kind): np.empty((reps, len(qs))) for m in methods for kind in ("fdr", "FDR")}
    for rep in range(reps):
        z = fdr_scenario_sample(deltas, seed, rep, n_cases=n_cases)
        for m in methods:
            try:
                model, grouping = m.fit(z)
                fdr_curves[m.name][rep] = fdr_curve(model, z_grid, grouping=grouping)
                tail_curves[m.name][rep] = tail_fdr_curve(model, z_grid, grouping=grouping)
                for kind in ("fdr", "FDR"):
                    thresholds[(m.name, kind)][rep] = [
                        rejection_threshold(model, q, kind=kind, grouping=grouping) for q in qs
                    ]
            except EbmixError as exc:
                raise FitError(f"fdr scenario, rep {rep}, method {m.name}: {exc}") from exc
    return FdrStudyResult(
        z_grid=z_grid,
        qs=qs,
        method_names=names,
        null_modes={m.name: m.null_mode.value for m in methods},
        fdr_curves=fdr_curves,
        tail_curves=tail_curves,
        thresholds=thresholds,
        true_fdr=true_fdr,
        true_tail=true_tail,
        true_thresholds=true_thresholds,
    )
