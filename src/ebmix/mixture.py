"""Mixture priors and their penalized marginal maximum-likelihood fit.

The prior is g = sum_j pi_j g_j with component 0 conventionally the
null.  Fitting maximizes

    L(pi, theta) = sum_i log sum_j pi_j f^(j)(z_i) + sum_j beta_j log pi_j

by EM; the Dirichlet-style penalty enters the M-step as pseudo-counts
pi_j ∝ n_j + beta_j, which keeps the update well defined when some
beta_j = 0 and realizes "a larger penalty forces a bigger null group".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import families
from .errors import ContractError, FitError, NumericError
from .families import BetaComponent, Family, NormalComponent, Observations, logsumexp_rows, normal_logpdf
from .seeding import STREAM_INIT, derive_rng

_MONOTONE_SLACK = 1e-9


class NullMode(str, Enum):
    THEORETICAL = "theoretical"
    EMPIRICAL = "empirical"
    NONE = "none"


@dataclass(frozen=True)
class FitDiagnostics:
    penalized_loglik: float
    iterations: int
    converged: bool
    # per-iteration penalized log-likelihood, kept for monotonicity checks;
    # not serialized, excluded from equality
    trace: tuple = field(default=(), compare=False, repr=False)


@dataclass(frozen=True)
class MixtureModel:
    """A fitted (or constructed) mixture prior.

    Component 0 is the designated null when ``null_mode`` is theoretical
    or empirical; with ``NullMode.NONE`` no component is special and
    fdr/FDR operations are unavailable.
    """

    family: Family
    pi: np.ndarray
    components: tuple
    null_mode: NullMode
    penalty: np.ndarray
    diagnostics: FitDiagnostics | None = None

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        penalty = np.asarray(self.penalty, dtype=float)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "penalty", penalty)
        object.__setattr__(self, "components", tuple(self.components))
        j = len(self.components)
        if j < 1 or pi.shape != (j,) or penalty.shape != (j,):
            raise ContractError("pi, penalty and components must share length J >= 1")
        if np.any(pi < 0) or abs(pi.sum() - 1.0) > 1e-12:
            raise ContractError("mixture proportions must be a simplex point")
        if np.any(penalty < 0):
            raise ContractError("penalty entries must be nonnegative")
        families.check_components(self.family, self.components)
        if self.null_mode is NullMode.THEORETICAL:
            c0 = self.components[0]
            if self.family is not Family.NORMAL:
                raise ContractError(
                    "theoretical null requires the normal family "
                    "(no point-mass beta component exists)"
                )
            if c0.mean != 0.0 or c0.var != 0.0:
                raise ContractError("theoretical null must be the point mass at 0")
        if self.null_mode is NullMode.EMPIRICAL and j > 1:
            if np.any(penalty[0] < penalty[1:]):
                raise ContractError("empirical null requires beta_0 >= beta_j")

    def __eq__(self, other):
        if not isinstance(other, MixtureModel):
            return NotImplemented
        return (
            self.family == other.family
            and self.null_mode == other.null_mode
            and np.array_equal(self.pi, other.pi)
            and np.array_equal(self.penalty, other.penalty)
            and self.components == other.components
            and self.diagnostics == other.diagnostics
        )

    @property
    def n_components(self) -> int:
        return len(self.components)

    def posterior_weights(self, obs: Observations):
        """(w, log f): w[i, j] = pi_j f^(j)(z_i) / f(z_i), shape (n, J), and log f(z_i).

        Components with pi_j = 0 get weight exactly 0.  Raises NumericError
        at a case of zero (or infinite) mixture density f.
        """
        with np.errstate(divide="ignore"):
            logw = families.log_marginal_matrix(obs, self.components) + np.log(self.pi)
        logf = logsumexp_rows(logw)
        bad = ~np.isfinite(logf)
        if np.any(bad):
            raise NumericError(f"zero marginal density at case {int(np.flatnonzero(bad)[0])}")
        w = np.exp(logw - logf[:, None])
        w[:, self.pi == 0.0] = 0.0
        return w, logf

    def log_marginal(self, obs: Observations) -> np.ndarray:
        """Log of the mixture marginal f(z) = sum_j pi_j f^(j)(z)."""
        return self.posterior_weights(obs)[1]

    def sample(self, n: int, rng: np.random.Generator, s2=1.0, trials=None) -> Observations:
        """Draw n cases from the model's marginal distribution."""
        comps = rng.choice(self.n_components, size=n, p=self.pi)
        if self.family is Family.NORMAL:
            mu = np.array([c.mean for c in self.components])[comps]
            var = np.array([c.var for c in self.components])[comps]
            s2 = np.broadcast_to(np.asarray(s2, dtype=float), (n,))
            z = mu + np.sqrt(var + s2) * rng.standard_normal(n)
            return Observations.normal(z, s2)
        if trials is None:
            raise ContractError("binomial sampling requires per-case trial counts")
        trials = np.broadcast_to(np.asarray(trials, dtype=np.int64), (n,))
        alpha = np.array([c.alpha for c in self.components])[comps]
        beta = np.array([c.beta for c in self.components])[comps]
        delta = rng.beta(alpha, beta)
        return Observations.binomial(rng.binomial(trials, delta), trials)


@dataclass(frozen=True)
class FitConfig:
    """EM fitting controls.

    ``penalty = None`` resolves to N/5 at fit time; the penalty vector is
    always (P, 0, ..., 0).
    """

    n_components: int = 3
    penalty: float | None = None
    null_mode: NullMode = NullMode.THEORETICAL
    max_iters: int = 1000
    rel_tol: float = 1e-8
    n_restarts: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.n_components < 1:
            raise ContractError("n_components must be >= 1")
        if self.null_mode is not NullMode.NONE and self.n_components < 2:
            raise ContractError("a designated null requires J >= 2")
        if self.penalty is not None and self.penalty < 0:
            raise ContractError("penalty must be >= 0")
        if self.max_iters < 1 or self.rel_tol <= 0 or self.n_restarts < 1:
            raise ContractError("invalid convergence controls")

    def penalty_vector(self, n_cases: int) -> np.ndarray:
        p = n_cases / 5.0 if self.penalty is None else float(self.penalty)
        beta = np.zeros(self.n_components)
        beta[0] = p
        return beta


def _beta_mom(p: np.ndarray) -> BetaComponent:
    """Method-of-moments Beta fit to raw proportions, with safe fallbacks."""
    m = float(np.clip(np.mean(p), 1e-4, 1.0 - 1e-4))
    v = float(np.var(p))
    if v <= 1e-12 or v >= m * (1.0 - m):
        conc = 30.0
    else:
        conc = m * (1.0 - m) / v - 1.0
    conc = float(np.clip(conc, 0.01, 1e5))
    return BetaComponent(alpha=m * conc, beta=(1.0 - m) * conc)


def initialize(data: Observations, config: FitConfig, restart_index: int = 0) -> MixtureModel:
    """Deterministic starting model for one EM restart.

    Restart 0 is unjittered; restarts >= 1 add standard-normal jitter to
    the free component centers, drawn from a generator derived from
    (config.seed, restart_index).
    """
    if len(data) == 0:
        raise ContractError("data must be nonempty")
    j = config.n_components
    beta = config.penalty_vector(len(data))
    rng = derive_rng(config.seed, STREAM_INIT, restart_index)
    jitter = rng.standard_normal(j) if restart_index >= 1 else np.zeros(j)

    if data.family is Family.NORMAL:
        z = data.z
        comps: list = []
        if config.null_mode is NullMode.THEORETICAL:
            comps.append(NormalComponent(0.0, 0.0))
        elif config.null_mode is NullMode.EMPIRICAL:
            comps.append(NormalComponent(float(np.median(z)) + jitter[0], 0.0))
        n_free_slots = j - len(comps)
        if len(comps) == 0:
            qs = (np.arange(1, j + 1)) / (j + 1)
        else:
            qs = np.arange(1, n_free_slots + 1) / j
        centers = np.quantile(z, qs) if n_free_slots else np.array([])
        for c in centers:
            comps.append(NormalComponent(float(c) + jitter[len(comps)], 1.0))
    else:
        rate = data.counts / data.trials
        order = np.argsort(rate, kind="stable")
        groups = np.array_split(order, j)
        comps = []
        for g, idx in enumerate(groups):
            base = _beta_mom(rate[idx] if len(idx) else rate)
            if restart_index >= 1:
                base = BetaComponent(
                    alpha=float(base.alpha * np.exp(0.25 * jitter[g])),
                    beta=float(base.beta * np.exp(0.25 * rng.standard_normal())),
                )
            comps.append(base)

    if config.null_mode is NullMode.NONE:
        pi = np.full(j, 1.0 / j)
    else:
        pi = np.full(j, 0.1 / (j - 1) if j > 1 else 1.0)
        pi[0] = 0.9
    return MixtureModel(
        family=data.family,
        pi=pi,
        components=tuple(comps),
        null_mode=config.null_mode,
        penalty=beta,
    )


def e_step(data: Observations, model: MixtureModel):
    """Responsibilities and the penalized log-likelihood at the model.

    Returns (w, pll) with w row-stochastic of shape (n, J).
    """
    w, logf = model.posterior_weights(data)
    beta = model.penalty
    active = beta > 0
    if np.any(active & (model.pi == 0.0)):
        raise NumericError("penalized component has zero proportion")
    pll = float(logf.sum() + np.sum(beta[active] * np.log(model.pi[active])))
    if not np.isfinite(pll):
        raise NumericError("non-finite penalized log-likelihood")
    return w, pll


# Box of the beta M-step in (m, t) = (log(alpha/beta), log(alpha + beta)):
# the smallest axis-aligned box that holds every alpha, beta in [1e-8, 1e8].
_BETA_M_MAX = math.log(1e16)
_BETA_T_MIN, _BETA_T_MAX = math.log(2e-8), math.log(2e8)


def _fit_beta_newton(h, n, w_j, start: BetaComponent, max_inner: int = 50) -> BetaComponent:
    """Weighted beta-binomial MLE by Newton in (m, t) = (log(alpha/beta), log c).

    With mean p = alpha/c = sigmoid(m), concentration c = e^t and tail
    weights W_H(i) = sum of w over cases with H > i (likewise W_F for
    N-H and W_N for N), the weighted log-likelihood is, up to a constant,

        F = S_H log p + S_F log(1-p)
            + sum_i [W_H(i) log1p(i/alpha) + W_F(i) log1p(i/beta) - W_N(i) log1p(i/c)],

    the kernel identity of `families` summed by parts, with S_H = sum w H
    and S_F = sum w (N-H).  Its gradient and Hessian in (m, t) are
    rational sums over i, such as d/d(log x) sum_i W(i) log1p(i/x) =
    -sum_i W(i) i/(x+i), so no digamma, trigamma or log-beta function is
    needed, and F keeps full precision up to the concentration bound.
    The sums run over i < RISING_TABLE; the rest of each case's sum comes
    from `families.rising_beyond`, evaluated once per distinct count, so
    an objective call costs O(RISING_TABLE + distinct N) at any trial
    count.

    The solve is held to the box |m| <= log 1e16, c in [2e-8, 2e8], the
    smallest one holding every alpha, beta in [1e-8, 1e8]; a start
    outside it is first moved onto it.  A coordinate at its bound whose
    gradient points outward is held fixed, and Newton continues on the
    other; where the free Hessian is not negative definite the step
    follows the gradient.  Steps are capped at 2 per coordinate and
    halved until F strictly improves, so the update never lowers the EM
    objective.  The solve stops when the predicted gain g.step/2 falls
    below 1e-13 (1 + |F|), or when 30 halvings do not improve F.
    Underdispersed weighted data, whose MLE lies at infinite
    concentration, end at c = 2e8 with mean sum wH / sum wN.
    """
    k_max = int(n.max())
    cut = min(k_max, families.RISING_TABLE)
    tails = np.zeros((3, cut))  # W_H, W_F, W_N for i < cut
    for row, k in zip(tails, (h, n - h, n)):
        # W(i) = sum of w over cases with k > i
        row[:] = np.cumsum(np.bincount(np.minimum(k, cut), weights=w_j, minlength=cut + 1)[::-1])[::-1][1:]
    # distinct counts above the table: shape row, count less cut, summed weight
    rows, ms, us = (np.zeros(0, dtype=np.int64),) * 3
    if k_max > cut:
        parts = []
        for row_idx, k in enumerate((h, n - h, n)):
            big = k > cut
            vals, inv = np.unique(k[big] - cut, return_inverse=True)
            parts.append((np.full(vals.size, row_idx), vals, np.bincount(inv, weights=w_j[big])))
        rows, ms, us = (np.concatenate(col) for col in zip(*parts))
    s_h, s_f = tails[:2].sum(axis=1) + np.bincount(rows, weights=us * ms, minlength=3)[:2]
    signs = np.array([1.0, 1.0, -1.0])
    signed = tails * signs[:, None]
    i = np.arange(cut)

    def shapes(m, t):
        c = math.exp(t)
        return np.array([c / (1.0 + math.exp(-m)), c / (1.0 + math.exp(m)), c])

    def objective(m, t):
        x = shapes(m, t)
        rising = np.sum(signed * families.log_rising_steps(x, cut))
        if ms.size:
            rising += (signs[rows] * us) @ families.rising_beyond(x[rows], ms, cut)
        return float(rising - s_h * math.log1p(math.exp(-m)) - s_f * math.log1p(math.exp(m)))

    m = min(max(math.log(start.alpha) - math.log(start.beta), -_BETA_M_MAX), _BETA_M_MAX)
    t = min(max(math.log(start.alpha + start.beta), _BETA_T_MIN), _BETA_T_MAX)
    obj = objective(m, t)
    for _ in range(max_inner):
        p = 1.0 / (1.0 + math.exp(-m))
        q = 1.0 / (1.0 + math.exp(m))
        x = shapes(m, t)
        r = i / (x[:, None] + i)
        s = x[:, None] / (x[:, None] + i)
        sum_r, sum_rs, sum_s = (tails * r).sum(axis=1), (tails * r * s).sum(axis=1), (tails * s).sum(axis=1)
        if ms.size:
            _, s_part, rs_part = families.rising_beyond(x[rows], ms, cut, derivs=True)
            sum_r += np.bincount(rows, weights=us * (ms - s_part), minlength=3)
            sum_rs += np.bincount(rows, weights=us * rs_part, minlength=3)
            sum_s += np.bincount(rows, weights=us * s_part, minlength=3)
        (da, db, dc), (ha, hb, hc), (ra, rb, _) = sum_r, sum_rs, sum_s
        # gradient and Hessian of F in (m, t); d(log alpha)/dm = q, d(log beta)/dm = -p
        g_m, g_t = q * ra - p * rb, dc - da - db
        h_mm = q * q * ha + p * p * hb - p * q * (ra + rb)
        h_mt, h_tt = q * ha - p * hb, ha + hb - hc
        if (m >= _BETA_M_MAX and g_m > 0) or (m <= -_BETA_M_MAX and g_m < 0):
            g_m, h_mm, h_mt = 0.0, -1.0, 0.0
        if (t >= _BETA_T_MAX and g_t > 0) or (t <= _BETA_T_MIN and g_t < 0):
            g_t, h_tt, h_mt = 0.0, -1.0, 0.0
        det = h_mm * h_tt - h_mt * h_mt
        if h_mm < 0 and det > 0:
            step_m = (h_mt * g_t - h_tt * g_m) / det
            step_t = (h_mt * g_m - h_mm * g_t) / det
        else:
            scale = max(abs(g_m), abs(g_t), 1e-300)
            step_m, step_t = g_m / scale, g_t / scale
        if 0.5 * (g_m * step_m + g_t * step_t) < 1e-13 * (1.0 + abs(obj)):
            break
        shrink = min(1.0, 2.0 / max(abs(step_m), abs(step_t)))
        step_m, step_t = step_m * shrink, step_t * shrink
        for _ in range(30):
            cand_m = min(max(m + step_m, -_BETA_M_MAX), _BETA_M_MAX)
            cand_t = min(max(t + step_t, _BETA_T_MIN), _BETA_T_MAX)
            cand_obj = objective(cand_m, cand_t)
            if cand_obj > obj:
                m, t, obj = cand_m, cand_t, cand_obj
                break
            step_m *= 0.5
            step_t *= 0.5
        else:
            break
    alpha, beta, _ = shapes(m, t)
    return BetaComponent(alpha=float(alpha), beta=float(beta))


def m_step(data: Observations, w: np.ndarray, config: FitConfig, model: MixtureModel):
    """One penalized M-step.

    Returns (updated model, reinitialized flag).  A free component left
    with no weight and no penalty restarts as the same component of the
    unjittered start, ``initialize(data, config, 0)``; the flag is then
    True, and the EM objective may legitimately dip for one iteration.
    """
    n, j = w.shape
    if j != model.n_components or n != len(data):
        raise ContractError("responsibility matrix shape does not match data/model")
    beta = model.penalty
    nj = w.sum(axis=0)
    pi = (nj + beta) / (n + beta.sum())
    reinitialized = False

    comps = list(model.components)
    homoscedastic = data.family is Family.NORMAL and data.s2.min() == data.s2.max()
    start_free = 1 if model.null_mode is NullMode.THEORETICAL else 0
    for k in range(start_free, j):
        if nj[k] + beta[k] == 0.0:
            comps[k] = initialize(data, config, 0).components[k]
            pi[k] = 1.0 / (n + beta.sum())
            reinitialized = True
            continue
        if nj[k] <= 0.0:
            continue  # penalty mass only; nothing to fit a component to
        w_k = w[:, k]
        if data.family is Family.NORMAL:
            mu = float(np.sum(w_k * data.z) / nj[k])
            s2bar = float(np.sum(w_k * data.s2) / nj[k])
            var = max(0.0, float(np.sum(w_k * (data.z - mu) ** 2) / nj[k]) - s2bar)
            cand = NormalComponent(mu, var)
            # moment update is exact for constant s2; with heterogeneous
            # s2 keep the old parameters if the update would not improve
            if homoscedastic or np.sum(w_k * normal_logpdf(data.z, mu, var + data.s2)) >= np.sum(
                w_k * normal_logpdf(data.z, comps[k].mean, comps[k].var + data.s2)
            ):
                comps[k] = cand
        else:
            comps[k] = _fit_beta_newton(data.counts, data.trials, w_k, comps[k])

    pi = np.maximum(pi, 0.0)
    pi = pi / pi.sum()
    updated = MixtureModel(
        family=model.family,
        pi=pi,
        components=tuple(comps),
        null_mode=model.null_mode,
        penalty=beta,
        diagnostics=model.diagnostics,
    )
    return updated, reinitialized


def _run_em(data: Observations, config: FitConfig, restart_index: int) -> MixtureModel:
    model = initialize(data, config, restart_index)
    prev = None
    skip_check = False
    converged = False
    trace = []
    iterations = 0
    w, pll = e_step(data, model)
    trace.append(pll)
    for it in range(1, config.max_iters + 1):
        iterations = it
        model, reinit = m_step(data, w, config, model)
        try:
            w, pll = e_step(data, model)
        except NumericError as exc:
            raise NumericError(f"iteration {it}: {exc}") from exc
        trace.append(pll)
        prev = trace[-2]
        if pll < prev - _MONOTONE_SLACK and not skip_check:
            raise NumericError(
                f"iteration {it}: penalized log-likelihood decreased "
                f"({prev:.12g} -> {pll:.12g})"
            )
        skip_check = reinit
        if abs(pll - prev) / (abs(pll) + 1.0) < config.rel_tol:
            converged = True
            break
    diag = FitDiagnostics(
        penalized_loglik=trace[-1],
        iterations=iterations,
        converged=converged,
        trace=tuple(trace),
    )
    return replace(model, diagnostics=diag)


def em_fit(data: Observations, config: FitConfig) -> MixtureModel:
    """Fit the penalized mixture by EM, best of ``config.n_restarts`` runs."""
    best = None
    last_error: Exception | None = None
    for r in range(config.n_restarts):
        try:
            fitted = _run_em(data, config, r)
        except (NumericError, FloatingPointError) as exc:
            last_error = exc
            continue
        if best is None or fitted.diagnostics.penalized_loglik > best.diagnostics.penalized_loglik:
            best = fitted
    if best is None:
        raise FitError(f"all {config.n_restarts} restarts failed: {last_error}")
    return best


def unpenalized_loglik(data: Observations, model: MixtureModel) -> float:
    return float(model.log_marginal(data).sum())


def n_free_parameters(model: MixtureModel) -> int:
    free = model.n_components
    if model.null_mode is NullMode.THEORETICAL:
        free -= 1
    return (model.n_components - 1) + 2 * free


def bic(data: Observations, model: MixtureModel) -> float:
    """-2 logL + k log N with the unpenalized marginal log-likelihood.

    k counts the free proportions (J - 1) plus two parameters per free
    component; a pinned theoretical null contributes none.
    """
    k = n_free_parameters(model)
    return -2.0 * unpenalized_loglik(data, model) + k * np.log(len(data))
