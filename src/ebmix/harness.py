"""Simulation harness: scenario generators, baselines and studies.

Two normal-data studies are provided, each with a fixed design written
once below as module constants.

* The effect-size study sweeps N = 1000 cases with K in {5, 50, 500}
  nonzero effects of strength mu in {2, 3, 4, 5}, one-sided and
  two-sided, and scores estimators by squared error relative to the
  Bayes rule under the generating prior.  Its estimators are plain
  ``(z, spec) -> estimate`` functions keyed by name, and
  `run_effect_study` returns one (K, mu, sided, method, rel_error) row
  per scenario and method; `effect_summary` reduces those rows to one
  (method, mean, median) row per method.
* The fdr study repeatedly samples one fixed sparse scenario, N = 1000
  cases of which K = 50 have effects drawn once from U(2, 4), and tracks
  the bias and spread of fdr/FDR curve estimates on the z grid
  -4, -3.9, ..., 6 and of the rejection thresholds at q in
  {0.01, 0.02, 0.05, 0.1, 0.2}.  `run_fdr_study` takes the null modes
  to fit, J and P as plain values, fits one one-restart mixture per
  mode to each replication, and returns the rows of three tables, each
  led by the plug-in truth: the fdr curves and the tail-FDR curves,
  (z, method, null_mode, mean, sd), and the thresholds,
  (q, kind, method, null_mode, mean, sd).

Both return Python scalars only, ready for the csv module.  The five
baselines are one table, `BASELINES`; the fdr-threshold baseline runs
Benjamini-Hochberg at q = 0.1.

Replications share their noise vectors across scenarios and methods, so
comparisons are paired.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ContractError, EbmixError, FitError, check_number
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
    Brown (2008, Ann. Appl. Stat.), clamped to [0, 1]: shrinkage needs
    n >= 4, and below that the estimate is the data.  ``var`` is a
    scalar or one value per case.
    """
    z = np.asarray(z, dtype=float)
    var = np.broadcast_to(np.asarray(var, dtype=float), z.shape)
    zbar = np.sum(z / var) / np.sum(1.0 / var)
    resid = z - zbar
    ss = float(np.sum(resid**2 / var))
    factor = min(1.0, max(0.0, 1.0 - (z.size - 3) / ss)) if ss > 0 else 0.0
    return zbar + factor * resid


BASELINES = {
    "naive": lambda z: z.copy(),
    "universal_soft": lambda z: soft_threshold(z, universal_threshold(z.size)),
    "universal_hard": lambda z: hard_threshold(z, universal_threshold(z.size)),
    "fdr_threshold": lambda z: hard_threshold(z, bh_threshold(z, BH_Q)),
    "sure_shrink": lambda z: soft_threshold(z, sure_threshold(z)),
}


def baseline_estimate(name: str, z):
    """The named thresholding/shrinkage baseline of `BASELINES`."""
    if name not in BASELINES:
        raise ContractError(f"unknown baseline estimator {name!r}")
    return BASELINES[name](np.asarray(z, dtype=float))


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


def default_effect_methods(n_components: int, penalty: float) -> dict:
    """The effect study's estimators, by name, in the order of its rows.

    The posterior means of a one-restart fit with a theoretical null,
    the five `BASELINES` and the Bayes rule.
    """
    config = FitConfig(n_components=n_components, penalty=penalty, n_restarts=1)

    def mixture(z, spec):
        obs = Observations.normal(z)
        return posterior_summary(obs, em_fit(obs, config)).effect_mean

    methods = {f"mixture_J{n_components}_P{penalty:g}": mixture}
    for name in BASELINES:
        label = f"{name}_q{BH_Q:g}" if name == "fdr_threshold" else name
        methods[label] = lambda z, spec, name=name: baseline_estimate(name, z)
    methods["bayes_oracle"] = bayes_oracle_estimate
    return methods


def run_effect_study(methods: Mapping[str, Callable], reps: int, seed: int = 0) -> list:
    """Squared-error study over the sparsity/strength grid.

    ``methods`` maps each name to a ``(z, spec) -> estimate`` function.
    Returns one (K, mu, sided, method, rel_error) row per scenario and
    method: the method's mean squared error over the replications divided
    by the Bayes rule's, which is computed for every cell whether or not
    it is listed as a method.
    """
    if not methods:
        raise ContractError("at least one method is required")
    check_number("reps", reps)
    if reps < 1:
        raise ContractError("need reps >= 1")
    rows = []
    for kind in ScenarioKind:
        for k in EFFECT_K_GRID:
            for mu in EFFECT_MU_GRID:
                spec = ScenarioSpec(kind=kind, n_nonzero=k, mu=mu, seed=seed)
                sse = dict.fromkeys(methods, 0.0)
                sse_bayes = 0.0
                for rep in range(reps):
                    delta, z = generate_effect_scenario(spec, rep)
                    sse_bayes += float(np.sum((bayes_oracle_estimate(z, spec) - delta) ** 2))
                    for name, estimate in methods.items():
                        try:
                            est = estimate(z, spec)
                        except EbmixError as exc:
                            raise FitError(
                                f"scenario (K={k}, mu={mu}, sided={kind.value}), rep {rep}, method {name}: {exc}"
                            ) from exc
                        sse[name] += float(np.sum((est - delta) ** 2))
                mse_bayes = sse_bayes / reps
                rows += [(k, mu, kind.value, name, total / reps / mse_bayes) for name, total in sse.items()]
    return rows


def effect_summary(rows) -> list:
    """One (method, mean, median) row of relative error per method of `run_effect_study`'s rows, by name."""
    by_method = {}
    for *_, name, rel_error in rows:
        by_method.setdefault(name, []).append(rel_error)
    return [(name, float(np.mean(rel)), float(np.median(rel))) for name, rel in sorted(by_method.items())]


# ---------------------------------------------------------------------------
# fdr study
# ---------------------------------------------------------------------------

FDR_N_CASES = 1000
FDR_N_NONZERO = 50
FDR_DELTA_LOW = 2.0
FDR_DELTA_HIGH = 4.0
FDR_Z_GRID = np.round(np.arange(-4.0, 6.0 + 1e-9, 0.1), 10)
FDR_QS = (0.01, 0.02, 0.05, 0.1, 0.2)
FDR_KINDS = ("fdr", "FDR")


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


def _fdr_outputs(model: MixtureModel, grouping=None) -> np.ndarray:
    """A model's fdr and tail-FDR curves on `FDR_Z_GRID`, then its fdr and FDR thresholds at `FDR_QS`."""
    curves = (fdr_curve(model, FDR_Z_GRID, grouping), tail_fdr_curve(model, FDR_Z_GRID, grouping))
    thresholds = [rejection_threshold(model, q, kind=kind, grouping=grouping) for kind in FDR_KINDS for q in FDR_QS]
    return np.concatenate((*curves, thresholds))


def run_fdr_study(null_modes: Sequence, n_components: int, penalty: float, reps: int, seed: int = 0):
    """Bias/spread study of fdr, FDR and threshold estimates.

    Each null mode (a `NullMode` or its value) is one method,
    ``mixture_<mode>``: every replication is fitted by one EM restart
    with ``n_components`` components and penalty ``penalty``, and nearly
    null components join the null set under `nearly_null_grouping`'s
    default tolerances.  The alternative effects are drawn once from the
    study seed and held fixed; each replication redraws the noise only.
    Returns the rows of the fdr curve, tail-FDR curve and threshold
    tables: (z, method, null_mode, mean, sd) on `FDR_Z_GRID` for each
    curve, and (q, kind, method, null_mode, mean, sd) at `FDR_QS` for
    kind fdr, then FDR.  Each table (each kind) starts with the plug-in
    truth, method "truth" with null_mode "" and sd 0; the modes follow
    in order, with the mean and sd (ddof 1) over the replications.
    """
    configs = [
        FitConfig(n_components=n_components, penalty=penalty, null_mode=NullMode(mode), n_restarts=1)
        for mode in null_modes
    ]
    check_number("reps", reps)
    if reps < 2:
        raise ContractError("need reps >= 2 to estimate the spread across replications")
    deltas = fdr_scenario_deltas(seed)
    truth = _fdr_outputs(fdr_truth_model(deltas))
    runs = np.empty((len(configs), reps, truth.size))
    for rep in range(reps):
        obs = Observations.normal(fdr_scenario_sample(deltas, seed, rep))
        for config, run in zip(configs, runs):
            try:
                model = em_fit(obs, config)
                run[rep] = _fdr_outputs(model, nearly_null_grouping(model))
            except EbmixError as exc:
                raise FitError(f"fdr scenario, rep {rep}, method mixture_{config.null_mode.value}: {exc}") from exc
    stats = [("truth", "", truth.tolist(), [0.0] * truth.size)]
    for config, run in zip(configs, runs):
        mode = config.null_mode.value
        stats.append((f"mixture_{mode}", mode, run.mean(axis=0).tolist(), run.std(axis=0, ddof=1).tolist()))

    def table(keys, lo, *labels):
        hi = lo + len(keys)
        return [
            (key, *labels, name, mode, mean_k, sd_k)
            for name, mode, mean, sd in stats
            for key, mean_k, sd_k in zip(keys, mean[lo:hi], sd[lo:hi])
        ]

    grid = FDR_Z_GRID.tolist()
    thresholds = []
    for i, kind in enumerate(FDR_KINDS):
        thresholds += table(FDR_QS, 2 * len(grid) + i * len(FDR_QS), kind)
    return table(grid, 0), table(grid, len(grid)), thresholds
