"""Simulation harness: scenario generators, baselines and studies.

Two normal-data studies are provided, each with a fixed design written
once below as module constants.

* The effect-size study sweeps N = 1000 cases with K in {5, 50, 500}
  nonzero effects of strength mu in {2, 3, 4, 5}, one-sided and
  two-sided, and scores estimators by squared error relative to the
  Bayes rule under the generating prior.
* The fdr study repeatedly samples one fixed sparse scenario, N = 1000
  cases of which K = 50 have effects drawn once from U(2, 4), and tracks
  the bias and spread of fdr/FDR curve estimates on the z grid
  -4, -3.9, ..., 6 and of the rejection thresholds at q in
  {0.01, 0.02, 0.05, 0.1, 0.2}.

The fdr-threshold baseline runs Benjamini-Hochberg at q = 0.1.

Replications share their noise vectors across scenarios and methods, so
comparisons are paired.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, EbmixError, FitError
from .families import NormalComponent, Observations
from .inference import fdr_curve, nearly_null_grouping, posterior_summary, rejection_threshold, tail_fdr_curve
from .mixture import FitConfig, MixtureModel, NullMode, em_fit
from .seeding import STREAM_DELTA, STREAM_FDR_DELTA, STREAM_NOISE, derive_rng

EFFECT_N_CASES = 1000
EFFECT_K_GRID = (5, 50, 500)
EFFECT_MU_GRID = (2.0, 3.0, 4.0, 5.0)
BH_Q = 0.1


class ScenarioKind(str, Enum):
    EFFECT_ONE_SIDED = "one"
    EFFECT_TWO_SIDED = "two"


@dataclass(frozen=True)
class ScenarioSpec:
    kind: ScenarioKind
    n_nonzero: int
    mu: float
    seed: int

    def __post_init__(self):
        if not 0 <= self.n_nonzero <= EFFECT_N_CASES:
            raise ContractError("need 0 <= K <= N")


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
    n, k = EFFECT_N_CASES, spec.n_nonzero
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
    from scipy.special import ndtr

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


def james_stein(z, var=1.0):
    """Positive-part James-Stein with known sampling variances ``var``.

    The estimate shrinks toward the precision-weighted mean, by
    1 - (n - 3) / sum((z - zbar)^2 / var), the heteroscedastic form of
    Brown (2008, Ann. Appl. Stat.).  ``var`` is a scalar or one value per case.
    """
    z = np.asarray(z, dtype=float)
    var = np.broadcast_to(np.asarray(var, dtype=float), z.shape)
    zbar = np.sum(z / var) / np.sum(1.0 / var)
    resid = z - zbar
    ss = float(np.sum(resid**2 / var))
    factor = max(0.0, 1.0 - (z.size - 3) / ss) if ss > 0 else 0.0
    return zbar + factor * resid


def baseline_estimate(name: str, z):
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
        return hard_threshold(z, bh_threshold(z, BH_Q))
    if name == "sure_shrink":
        return soft_threshold(z, sure_threshold(z))
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
        from scipy.special import ndtr

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
    k, n, mu = spec.n_nonzero, EFFECT_N_CASES, spec.mu
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


def make_baseline_method(name: str) -> EffectMethod:
    label = f"{name}_q{BH_Q:g}" if name == "fdr_threshold" else name
    return EffectMethod(label, lambda z, spec: baseline_estimate(name, z))


def make_mixture_method(n_components: int, penalty: float) -> EffectMethod:
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


def default_effect_methods(n_components: int, penalty: float):
    return (
        make_mixture_method(n_components, penalty),
        make_baseline_method("naive"),
        make_baseline_method("universal_soft"),
        make_baseline_method("universal_hard"),
        make_baseline_method("fdr_threshold"),
        make_baseline_method("sure_shrink"),
        make_bayes_oracle_method(),
    )


@dataclass(frozen=True)
class EffectCell:
    n_nonzero: int
    mu: float
    sided: str
    method: str
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
    reps: int,
    seed: int = 0,
) -> EffectStudyResult:
    """Squared-error study over the sparsity/strength grid.

    Every (scenario, method) cell reports its mean squared error over
    the replications divided by the Bayes rule's, which is computed for
    every cell whether or not it is listed as a method.
    """
    if not methods:
        raise ContractError("at least one method is required")
    if reps < 1:
        raise ContractError("need reps >= 1")
    cells = []
    for kind in ScenarioKind:
        for k in EFFECT_K_GRID:
            for mu in EFFECT_MU_GRID:
                spec = ScenarioSpec(kind=kind, n_nonzero=k, mu=mu, seed=seed)
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
                    cells.append(
                        EffectCell(
                            n_nonzero=k,
                            mu=mu,
                            sided=kind.value,
                            method=m.name,
                            rel_error=sse[m.name] / reps / mse_bayes,
                        )
                    )
    return EffectStudyResult(cells=tuple(cells))


# ---------------------------------------------------------------------------
# fdr study
# ---------------------------------------------------------------------------

FDR_N_CASES = 1000
FDR_N_NONZERO = 50
FDR_DELTA_LOW = 2.0
FDR_DELTA_HIGH = 4.0
FDR_Z_GRID = np.round(np.arange(-4.0, 6.0 + 1e-9, 0.1), 10)
FDR_QS = (0.01, 0.02, 0.05, 0.1, 0.2)


def fdr_scenario_deltas(seed: int):
    """The once-and-for-all alternative effects of the fdr scenario."""
    return derive_rng(seed, STREAM_FDR_DELTA).uniform(FDR_DELTA_LOW, FDR_DELTA_HIGH, size=FDR_N_NONZERO)


def fdr_truth_model(deltas) -> MixtureModel:
    """Plug-in truth: point-mass mixture matching the generating draws."""
    deltas = np.asarray(deltas, dtype=float)
    k = deltas.size
    pi = np.concatenate(([1.0 - k / FDR_N_CASES], np.full(k, 1.0 / FDR_N_CASES)))
    comps = (NormalComponent(0.0, 0.0),) + tuple(NormalComponent(float(d), 0.0) for d in deltas)
    return MixtureModel(
        pi=pi,
        components=comps,
        null_mode=NullMode.THEORETICAL,
        penalty=np.zeros(k + 1),
    )


def fdr_scenario_sample(deltas, seed: int, rep: int) -> np.ndarray:
    deltas = np.asarray(deltas, dtype=float)
    delta_vec = np.concatenate((deltas, np.zeros(FDR_N_CASES - deltas.size)))
    return delta_vec + scenario_noise(seed, rep, FDR_N_CASES)


@dataclass(frozen=True)
class FdrMethod:
    """A mixture-model fdr estimator configuration for the study.

    Each fit runs one EM restart, and nearly null components join the
    null set under `nearly_null_grouping`'s default tolerances.  The fit
    settings are checked on construction.
    """

    name: str
    null_mode: NullMode
    n_components: int = 3
    penalty: float = 50.0
    config: FitConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        config = FitConfig(
            n_components=self.n_components,
            penalty=self.penalty,
            null_mode=self.null_mode,
            n_restarts=1,
        )
        object.__setattr__(self, "config", config)

    def fit(self, z):
        obs = Observations.normal(z)
        model = em_fit(obs, self.config)
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
    reps: int,
    seed: int = 0,
) -> FdrStudyResult:
    """Bias/spread study of fdr, FDR and threshold estimates.

    The alternative effects are drawn once from the study seed and held
    fixed; each replication redraws the noise only.
    """
    if reps < 2:
        raise ContractError("need reps >= 2 to estimate the spread across replications")
    deltas = fdr_scenario_deltas(seed)
    truth = fdr_truth_model(deltas)
    true_fdr = fdr_curve(truth, FDR_Z_GRID)
    true_tail = tail_fdr_curve(truth, FDR_Z_GRID)
    true_thresholds = {
        kind: np.array([rejection_threshold(truth, q, kind=kind) for q in FDR_QS]) for kind in ("fdr", "FDR")
    }

    names = tuple(m.name for m in methods)
    fdr_curves = {m.name: np.empty((reps, FDR_Z_GRID.size)) for m in methods}
    tail_curves = {m.name: np.empty((reps, FDR_Z_GRID.size)) for m in methods}
    thresholds = {(m.name, kind): np.empty((reps, len(FDR_QS))) for m in methods for kind in ("fdr", "FDR")}
    for rep in range(reps):
        z = fdr_scenario_sample(deltas, seed, rep)
        for m in methods:
            try:
                model, grouping = m.fit(z)
                fdr_curves[m.name][rep] = fdr_curve(model, FDR_Z_GRID, grouping=grouping)
                tail_curves[m.name][rep] = tail_fdr_curve(model, FDR_Z_GRID, grouping=grouping)
                for kind in ("fdr", "FDR"):
                    thresholds[(m.name, kind)][rep] = [
                        rejection_threshold(model, q, kind=kind, grouping=grouping) for q in FDR_QS
                    ]
            except EbmixError as exc:
                raise FitError(f"fdr scenario, rep {rep}, method {m.name}: {exc}") from exc
    return FdrStudyResult(
        z_grid=FDR_Z_GRID,
        qs=FDR_QS,
        method_names=names,
        null_modes={m.name: m.null_mode.value for m in methods},
        fdr_curves=fdr_curves,
        tail_curves=tail_curves,
        thresholds=thresholds,
        true_fdr=true_fdr,
        true_tail=true_tail,
        true_thresholds=true_thresholds,
    )
