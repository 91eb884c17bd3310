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
        if not (np.all(np.isfinite(pi)) and np.all(np.isfinite(penalty))):
            raise ContractError("mixture proportions and penalty must be finite")
        if np.any(pi < 0) or abs(pi.sum() - 1.0) > 1e-12:
            raise ContractError("mixture proportions must be a simplex point")
        if np.any(penalty < 0):
            raise ContractError("penalty entries must be nonnegative")
        families.check_components(self.family, self.components)
        if self.null_mode is NullMode.THEORETICAL:
            c0 = self.components[0]
            if self.family is not Family.NORMAL:
                raise ContractError("theoretical null requires the normal family")
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
        """(w, log f - obs.saturated): w[i, j] = pi_j f^(j)(z_i) / f(z_i), shape (n, J).

        Components with pi_j = 0 get weight exp(-inf) = 0.  The log
        marginals leave out each case's data-only term ``obs.saturated``
        (0 for normal cases; see `families`).  Raises NumericError at a
        case of zero (or infinite) mixture density f.
        """
        with np.errstate(divide="ignore"):
            logw = families.log_marginal_matrix(obs, self.components) + np.log(self.pi)
        logf = logsumexp_rows(logw)
        bad = ~np.isfinite(logf)
        if np.any(bad):
            raise NumericError(f"zero marginal density at case {int(np.flatnonzero(bad)[0])}")
        w = np.exp(logw - logf[:, None])
        return w, logf

    def log_marginal(self, obs: Observations) -> np.ndarray:
        """Log of the mixture marginal f(z) = sum_j pi_j f^(j)(z)."""
        return self.posterior_weights(obs)[1] + obs.saturated

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
        mean = np.array([c.mean for c in self.components])[comps]
        kappa = np.array([c.kappa for c in self.components])[comps]
        point = kappa == 0.0
        shapes = families.beta_shapes(mean, np.where(point, 1.0, kappa))  # a point mass draws delta = mean
        delta = np.where(point, mean, rng.beta(*shapes))
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
    return BetaComponent(mean=m, kappa=1.0 / conc)


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
        n_free = j - len(comps)  # >= 1: a designated null needs J >= 2
        for c in np.quantile(z, np.arange(1, n_free + 1) / (n_free + 1)):
            comps.append(NormalComponent(float(c) + jitter[len(comps)], 1.0))
    else:
        rate = data.counts / data.trials
        order = np.argsort(rate, kind="stable")
        groups = np.array_split(order, j)
        comps = []
        for g, idx in enumerate(groups):
            base = _beta_mom(rate[idx] if len(idx) else rate)
            if restart_index >= 1:
                base = BetaComponent.from_shapes(
                    float(base.alpha * np.exp(0.25 * jitter[g])),
                    float(base.beta * np.exp(0.25 * rng.standard_normal())),
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

    Returns (w, pll) with w row-stochastic of shape (n, J).  The per-case
    log marginals are summed without their data-only terms
    (``data.saturated``), whose sum is added once at the end, so the
    pll's rounding does not grow with the binomial trial counts.
    """
    w, logf = model.posterior_weights(data)
    beta = model.penalty
    active = beta > 0
    if np.any(active & (model.pi == 0.0)):
        raise NumericError("penalized component has zero proportion")
    # the data-only terms are added back once, as one sum
    pll = float(logf.sum() + np.sum(beta[active] * np.log(model.pi[active])) + data.saturated.sum())
    if not np.isfinite(pll):
        raise NumericError("non-finite penalized log-likelihood")
    return w, pll


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

    the kernel of `families` summed by parts, with S_H = sum w H,
    S_F = sum w (N-H) and p* = S_H/(S_H + S_F), q* = 1 - p*.  Its
    derivatives are rational sums over i, such as d/dr sum_i W(i)
    log1p(i r) = sum_i W(i) i/(1 + i r), so no special function is
    needed.  The sums run over i < RISING_TABLE; the rest of each case's
    sum comes from `families.rising_beyond`, evaluated once per distinct
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
    cut = min(k_max, families.RISING_TABLE)
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
            sums = np.sum(tails * families.log_rising_steps(r, cut), axis=1)
            if ms.size:
                sums += np.bincount(rows, weights=us * families.rising_beyond(r[rows], ms, cut), minlength=3)
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
            _, b1, b2 = families.rising_beyond(r[rows], ms, cut, derivs=True)
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
