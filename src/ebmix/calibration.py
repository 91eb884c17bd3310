"""Parametric-bootstrap calibration of the proportion penalty P.

A preliminary model is fitted with the fit's default penalty, N/5, its
null component is perturbed slightly a handful of ways, bootstrap
datasets are drawn from each perturbed model from the fit's seed, and
every candidate penalty is refitted to every dataset.  A perturbation
jitters the null mean and rescales the null's prior sd, so a point-mass
null is shifted but never widened.  The candidate whose fits land
closest to the generating model (in mean squared fdr-curve distance)
wins; ties break toward the larger penalty.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, DegenerateRangeError, FitError, NumericError, UnsupportedError, check_number
from .families import Family, NormalComponent, Observations
from .inference import fdr_curve, nearly_null_grouping
from .mixture import FitConfig, MixtureModel, NullMode, em_fit
from .seeding import STREAM_BOOT, derive_rng

SCORE_GRID = np.linspace(-5.0, 5.0, 101)
NULL_MEAN_JITTER = 0.05
NULL_SD_SCALES = (0.95, 1.0, 1.05, 1.1)


@dataclass(frozen=True)
class CalibrationPlan:
    """Candidate penalties and the bootstrap design used to score them."""

    candidates: np.ndarray
    n_perturbed: int = 4
    n_bootstrap: int = 20

    def __post_init__(self):
        cand = np.asarray(self.candidates, dtype=float)
        object.__setattr__(self, "candidates", cand)
        if cand.size < 1:
            raise ContractError("at least one candidate penalty is required")
        if not np.all((cand >= 0) & np.isfinite(cand)):
            raise ContractError("penalties must be finite and >= 0")
        check_number("n_perturbed", self.n_perturbed)
        check_number("n_bootstrap", self.n_bootstrap)
        if self.n_perturbed < 1 or self.n_bootstrap < 1:
            raise ContractError("need at least one perturbed model and one bootstrap draw")
        if self.n_perturbed > len(NULL_SD_SCALES):
            raise ContractError("need one null sd scale per perturbed model")


def default_plan(n_cases: int) -> CalibrationPlan:
    """20 candidates evenly spaced on [100, N/2]."""
    if n_cases <= 200:
        raise DegenerateRangeError(
            f"candidate range [100, {n_cases / 2:g}] is degenerate for N={n_cases}; "
            "supply candidates manually"
        )
    return CalibrationPlan(candidates=np.linspace(100.0, n_cases / 2.0, 20))


def perturb_null(model: MixtureModel, mean_shift: float, sd_scale: float) -> MixtureModel:
    """Shift the null mean and rescale the null's prior sd.

    The prior variance becomes sd_scale^2 * var_0, so a point-mass null
    (var_0 = 0) is only shifted, never widened.  A theoretical null that
    is moved becomes an empirical one.
    """
    c0 = model.components[0]
    comps = (NormalComponent(c0.mean + mean_shift, sd_scale**2 * c0.var),) + model.components[1:]
    null_mode = model.null_mode
    if null_mode is NullMode.THEORETICAL and mean_shift != 0.0:
        null_mode = NullMode.EMPIRICAL
    return replace(model, components=comps, null_mode=null_mode, diagnostics=None)


def perturbed_models(model: MixtureModel, plan: CalibrationPlan) -> list:
    """The L perturbed generators; mean jitter alternates sign across l."""
    out = []
    for l in range(plan.n_perturbed):
        shift = NULL_MEAN_JITTER * (1.0 if l % 2 == 0 else -1.0)
        out.append(perturb_null(model, shift, NULL_SD_SCALES[l]))
    return out


@dataclass(frozen=True)
class CalibrationResult:
    chosen_penalty: float
    candidates: np.ndarray
    scores: np.ndarray  # (K, L * B) mean squared fdr-curve distance
    failed: np.ndarray  # same shape; True where a fit failed after restarts
    n_perturbed: int
    n_bootstrap: int

    def rows(self):
        """Yield (candidate_P, perturbed_model_index, bootstrap_index, score)."""
        for k, p in enumerate(self.candidates.tolist()):
            for l in range(self.n_perturbed):
                for b in range(self.n_bootstrap):
                    yield p, l, b, float(self.scores[k, l * self.n_bootstrap + b])


def _fdr_on_grid(model: MixtureModel) -> np.ndarray:
    return fdr_curve(model, SCORE_GRID, grouping=nearly_null_grouping(model))


def calibrate_penalty(
    data: Observations, base_config: FitConfig, plan: CalibrationPlan
) -> CalibrationResult:
    """Choose the penalty that best recovers slightly perturbed truths.

    The preliminary fit takes ``base_config`` with the default penalty
    N/5.  Bootstrap fits inherit ``base_config`` except for the penalty
    and run a single restart; per-cell datasets are seeded from
    (base_config.seed, l, b) so the whole table is reproducible and
    embarrassingly parallel.  ``base_config`` must have a null: the
    scores are fdr curves.
    """
    if data.family is not Family.NORMAL:
        raise UnsupportedError("penalty calibration scores fdr curves; normal family only")
    if base_config.null_mode is NullMode.NONE:
        raise UnsupportedError("model has no designated null component")
    n = len(data)
    preliminary = em_fit(data, replace(base_config, penalty=None))
    generators = perturbed_models(preliminary, plan)

    configs = [replace(base_config, penalty=float(p), n_restarts=1) for p in plan.candidates]
    scores = np.zeros((len(configs), plan.n_perturbed * plan.n_bootstrap))
    failed = np.zeros_like(scores, dtype=bool)
    for l, truth in enumerate(generators):
        ref = _fdr_on_grid(truth)  # once per generator, not once per cell
        for b in range(plan.n_bootstrap):
            rng = derive_rng(base_config.seed, STREAM_BOOT, l, b)
            boot = truth.sample(n, rng, s2=data.s2)
            cell = l * plan.n_bootstrap + b
            for k, cfg in enumerate(configs):
                try:
                    fitted = em_fit(boot, cfg)
                    scores[k, cell] = float(np.mean((_fdr_on_grid(fitted) - ref) ** 2))
                except (FitError, NumericError):
                    # fdr curves live in [0, 1], so 1 is the worst possible
                    # mean squared distance
                    scores[k, cell] = 1.0
                    failed[k, cell] = True

    mean_scores = scores.mean(axis=1)
    best = mean_scores.min()
    # ties (within float equality) break toward the larger penalty
    winners = np.flatnonzero(mean_scores == best)
    chosen = float(plan.candidates[winners[np.argmax(plan.candidates[winners])]])
    return CalibrationResult(
        chosen_penalty=chosen,
        candidates=plan.candidates,
        scores=scores,
        failed=failed,
        n_perturbed=plan.n_perturbed,
        n_bootstrap=plan.n_bootstrap,
    )
