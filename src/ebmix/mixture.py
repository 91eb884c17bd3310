"""Mixture priors and their penalized marginal maximum-likelihood fit.

The prior is g = sum_j pi_j g_j with component 0 conventionally the
null.  Fitting maximizes

    L(pi, theta) = sum_i log sum_j pi_j f^(j)(z_i) + sum_j beta_j log pi_j

by EM; the Dirichlet-style penalty enters the M-step as pseudo-counts
pi_j ∝ n_j + beta_j, which keeps the update well defined when some
beta_j = 0 and realizes "a larger penalty forces a bigger null group".

EM here is family-free: the starting components, each component's
weighted M-step, the kernel behind the E-step and sampling all come from
the data's family class in `families`, and a model's family is read off
its components' type.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import families
from .errors import ContractError, FitError, NumericError
from .families import OBSERVATIONS, Family, NullMode, Observations, logsumexp_rows
from .seeding import STREAM_INIT, derive_rng

_MONOTONE_SLACK = 1e-9


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
    fdr/FDR operations are unavailable.  The family is that of the
    components' type, and every component must have it.
    """

    pi: np.ndarray
    components: tuple
    null_mode: NullMode
    penalty: np.ndarray
    diagnostics: FitDiagnostics | None = None
    family: Family = field(init=False)

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
        object.__setattr__(self, "family", families.family_of(self.components))
        if self.null_mode is NullMode.THEORETICAL:
            null = OBSERVATIONS[self.family].theoretical_null
            if null is None:
                raise ContractError(f"the {self.family.value} family has no theoretical null")
            if self.components[0] != null:
                raise ContractError(f"theoretical null must be {null}")
        if self.null_mode is NullMode.EMPIRICAL and j > 1:
            if np.any(penalty[0] < penalty[1:]):
                raise ContractError("empirical null requires beta_0 >= beta_j")

    def __eq__(self, other):
        if not isinstance(other, MixtureModel):
            return NotImplemented
        return (
            self.null_mode == other.null_mode
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

        w keeps `log_marginal_matrix`'s layout, each column contiguous, so
        the sums over components and over cases run at full speed.
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
        which = rng.choice(self.n_components, size=n, p=self.pi)
        return OBSERVATIONS[self.family].draw(self.components, which, rng, s2, trials)


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


def initialize(data: Observations, config: FitConfig, restart_index: int = 0) -> MixtureModel:
    """Deterministic starting model for one EM restart.

    The components are the family's ``start``.  Restart 0 is unjittered;
    restarts >= 1 jitter the start with a generator derived from
    (config.seed, restart_index).
    """
    if len(data) == 0:
        raise ContractError("data must be nonempty")
    j = config.n_components
    beta = config.penalty_vector(len(data))
    rng = derive_rng(config.seed, STREAM_INIT, restart_index) if restart_index >= 1 else None
    comps = data.start(j, config.null_mode, rng)
    if config.null_mode is NullMode.NONE:
        pi = np.full(j, 1.0 / j)
    else:
        pi = np.full(j, 0.1 / (j - 1) if j > 1 else 1.0)
        pi[0] = 0.9
    return MixtureModel(
        pi=pi,
        components=tuple(comps),
        null_mode=config.null_mode,
        penalty=beta,
    )


def e_step(data: Observations, model: MixtureModel):
    """Responsibilities and the penalized log-likelihood at the model.

    Returns (w, pll) with w row-stochastic of shape (n, J), each column
    contiguous (see `MixtureModel.posterior_weights`).  The per-case
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
    start_free = 1 if model.null_mode is NullMode.THEORETICAL else 0
    for k in range(start_free, j):
        if nj[k] + beta[k] == 0.0:
            comps[k] = initialize(data, config, 0).components[k]
            pi[k] = 1.0 / (n + beta.sum())
            reinitialized = True
            continue
        if nj[k] <= 0.0:
            continue  # penalty mass only; nothing to fit a component to
        comps[k] = data.update(w[:, k], nj[k], comps[k])

    pi = pi / pi.sum()
    updated = MixtureModel(
        pi=pi,
        components=tuple(comps),
        null_mode=model.null_mode,
        penalty=beta,
        diagnostics=model.diagnostics,
    )
    return updated, reinitialized


def _run_em(data: Observations, config: FitConfig, restart_index: int) -> MixtureModel:
    model = initialize(data, config, restart_index)
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
        # a reinitialized component may lower this iteration's pll (see m_step)
        if pll < prev - _MONOTONE_SLACK and not reinit:
            raise NumericError(
                f"iteration {it}: penalized log-likelihood decreased "
                f"({prev:.12g} -> {pll:.12g})"
            )
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
