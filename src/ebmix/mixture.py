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

Every family's ``update`` raises or keeps each fitted component's
weighted log marginal by itself (exact, or an ascent step; see
`families`), so the M-step needs no guard, and every E-step computes its
kernel afresh: EM has one code path for every family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import families
from .errors import ContractError, FitError, NumericError, check_number
from .families import OBSERVATIONS, Family, NullMode, Observations
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

    The constructor checks every model that enters from outside EM: a
    parsed model file, a start from `initialize`, a caller's own model,
    each restart's fit (``dataclasses.replace``).  Only `m_step` builds
    its models without these checks, from a model that passed them.
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
        # J is small: the checks run on Python floats, not numpy reductions
        pis, betas = pi.tolist(), penalty.tolist()
        if not all(math.isfinite(v) for v in pis + betas):
            raise ContractError("mixture proportions and penalty must be finite")
        if min(pis) < 0 or abs(math.fsum(pis) - 1.0) > 1e-12:
            raise ContractError("mixture proportions must be a simplex point")
        if min(betas) < 0:
            raise ContractError("penalty entries must be nonnegative")
        object.__setattr__(self, "family", families.family_of(self.components))
        if self.null_mode is NullMode.THEORETICAL:
            null = OBSERVATIONS[self.family].theoretical_null
            if null is None:
                raise ContractError(f"the {self.family.value} family has no theoretical null")
            if self.components[0] != null:
                raise ContractError(f"theoretical null must be {null}")
        if self.null_mode is NullMode.EMPIRICAL and j > 1:
            if betas[0] < max(betas[1:]):
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
        """(w, log f - obs.saturated): w[j, i] = pi_j f^(j)(z_i) / f(z_i), shape (J, n), each column summing to 1.

        w is one new C-contiguous (J, n) buffer, which the caller then
        owns.  Components with pi_j = 0 get weight exactly 0.  The log
        marginals leave out each case's data-only term ``obs.saturated``
        (0 for normal cases; see `families`).

        The cases are walked in the blocks of ``obs.blocks(J)``, about
        1 MB of kernel each (one block up to ``families.BLOCK_CELLS``
        cells).  Each block's kernel comes from `log_marginal_matrix`:
        the new buffer itself for a batch of one block, else built in the
        block's columns of w.  While the block is in cache it becomes w in
        place: add log pi, take each case's largest term m, subtract it,
        exponentiate and sum the case's terms into s.  Then log f =
        m + log s, with the bits of a plain log-sum-exp, and w is
        normalized by one reciprocal per case: s becomes 1/s in place and
        w is multiplied by it, so no (J, n) division is made.  m and s
        are kept in the block's ``scratch`` rows.  No step sums over
        cases, so no bit of w or log f follows the blocks.

        Raises NumericError at a non-finite component log marginal in any
        block (from `log_marginal_matrix`), else at the first case of the
        batch with zero mixture density f: after a block with such a case
        the later blocks are only built and checked.  log pi is taken
        under ``np.errstate(divide="ignore")``, as a zero pi_j has log
        -inf.
        """
        with np.errstate(divide="ignore"):
            log_pi = np.log(self.pi)[:, None]
        comps = self.components
        blocks = obs.blocks(len(comps))
        whole = len(blocks) == 1  # the kernel's new buffer becomes w, and log s becomes log f
        if not whole:
            w, logf = np.empty((len(comps), len(obs))), np.empty(len(obs))
        zero = None  # the first case of zero density
        for cols, part in blocks:
            if whole:
                kernel = families.log_marginal_matrix(part, comps)
            else:
                kernel = families.log_marginal_matrix(part, comps, w[:, cols])
            if zero is not None:  # only the later blocks' finiteness is left to check
                continue
            m, s = part.scratch
            kernel += log_pi
            kernel.max(axis=0, out=m)
            if not math.isfinite(m.min(initial=0.0)):  # every pi_j f^(j) of some case is 0
                zero = cols.start + int(np.flatnonzero(~np.isfinite(m))[0])
                continue
            kernel -= m
            np.exp(kernel, out=kernel)
            kernel.sum(axis=0, out=s)
            lf = np.log(s) if whole else np.log(s, out=logf[cols])
            lf += m
            kernel *= np.reciprocal(s, out=s)
        if zero is not None:
            raise NumericError(f"zero marginal density at case {zero}")
        if whole:
            w, logf = kernel, lf
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
        for name in ("n_components", "max_iters", "n_restarts", "seed"):
            check_number(name, getattr(self, name))
        check_number("rel_tol", self.rel_tol, integer=False)
        if self.penalty is not None:
            check_number("penalty", self.penalty, integer=False)
        if self.n_components < 1:
            raise ContractError("n_components must be >= 1")
        if self.null_mode is not NullMode.NONE and self.n_components < 2:
            raise ContractError("a designated null requires J >= 2")
        if self.penalty is not None and not 0 <= self.penalty < np.inf:
            raise ContractError("penalty must be finite and >= 0")
        if self.max_iters < 1 or not 0 < self.rel_tol < np.inf or self.n_restarts < 1:
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


def _sum(values) -> float:
    """The sum of J Python floats from left to right: numpy's order for fewer than 8, so pi keeps its bits."""
    total = 0.0
    for v in values:
        total += v
    return total


def e_step(data: Observations, model: MixtureModel):
    """Responsibilities and the penalized log-likelihood at the model.

    Returns (w, pll) with w the (J, n) weights of
    `MixtureModel.posterior_weights`, each column summing to 1.  The per-case
    log marginals are summed without their data-only terms
    (``data.saturated``), whose sum is added once at the end, so the
    pll's rounding does not grow with the binomial trial counts.  The
    penalty term and the checks on pi run on J Python floats.
    """
    w, logf = model.posterior_weights(data)
    penalty = 0.0
    for p, b in zip(model.pi.tolist(), model.penalty.tolist()):
        if b > 0.0:
            if p == 0.0:
                raise NumericError("penalized component has zero proportion")
            penalty += b * float(np.log(p))  # np.log: math.log differs from it in the last bit for some p
    # the data-only terms are added back once, as one sum
    pll = float(logf.sum()) + penalty + data.saturated_sum
    if not math.isfinite(pll):
        raise NumericError("non-finite penalized log-likelihood")
    return w, pll


def m_step(data: Observations, w: np.ndarray, config: FitConfig, model: MixtureModel):
    """One penalized M-step on the (J, n) weights ``w``.

    Returns (updated model, reinitialized flag).  A free component left
    with no weight and no penalty restarts as the same component of the
    unjittered start, ``initialize(data, config, 0)``; the flag is then
    True, and the EM objective may legitimately dip for one iteration.
    The pi update runs on J Python floats.  The free components with
    weight are fitted by one ``data.update`` call on their rows of ``w``
    (`families.fitted_block`) at every batch size, and the others are
    kept.

    The updated model is built without the constructor's checks
    (`_refitted`), as every field either is the checked ``model``'s or
    is made here in a checked form: pi is renormalized from nj + beta_j
    once these are checked finite and non-negative with a positive sum
    (a caller's own w may hold anything), each component comes from
    ``data.update``, whose component class checks itself, or from
    `initialize`, and a theoretical null is never refitted.
    """
    if w.shape != (model.n_components, len(data)):
        raise ContractError("responsibility matrix shape does not match data/model")
    j, n = w.shape
    comps = list(model.components)
    start_free = 1 if model.null_mode is NullMode.THEORETICAL else 0
    nj = w.sum(axis=1)
    njs = nj.tolist()
    # with penalty mass only there is nothing to fit a component to
    fitted = [k for k in range(start_free, j) if njs[k] > 0.0]
    if fitted:
        block = families.fitted_block(fitted)
        for k, c in zip(fitted, data.update(w[block], nj[block], [comps[k] for k in fitted])):
            comps[k] = c
    betas = model.penalty.tolist()
    scale = n + _sum(betas)
    pis = [(a + b) / scale for a, b in zip(njs, betas)]
    reinitialized = False
    for k in range(start_free, j):
        if njs[k] + betas[k] == 0.0:
            comps[k] = initialize(data, config, 0).components[k]
            pis[k] = 1.0 / scale
            reinitialized = True

    total = _sum(pis)
    if not (0.0 < total < math.inf and min(pis) >= 0.0):
        raise ContractError("responsibilities must give finite, non-negative mixture proportions")
    return _refitted(model, np.array([p / total for p in pis]), tuple(comps)), reinitialized


def _refitted(model: MixtureModel, pi: np.ndarray, components: tuple) -> MixtureModel:
    """``model`` with new ``pi`` and ``components``, built without `MixtureModel`'s checks; for `m_step` only.

    The null mode, penalty, diagnostics and family are ``model``'s own.
    """
    updated = object.__new__(MixtureModel)
    updated.__dict__.update(
        pi=pi,
        components=components,
        null_mode=model.null_mode,
        penalty=model.penalty,
        diagnostics=model.diagnostics,
        family=model.family,
    )
    return updated


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
