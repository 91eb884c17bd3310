"""Batting-average prediction on the original count scale.

First-half hit totals are modeled as binomial with a beta-mixture prior
on the true averages; players' transformed averages are then predicted
by posterior means and scored on the second half of the season with the
variance-corrected total squared error

    TSE = sum_i (mu_hat_i - X2_i)^2 - 1/(4 N2_i),

which is unbiased for sum_i (mu_hat_i - mu_i)^2 under the arcsine
variance-stabilizing approximation X ~ N(mu, 1/(4N)).

A synthetic-season generator with a known prior keeps every code path
testable when the real season file is not on hand.  Its design is fixed:
true averages from Beta(302, 884) (mean 0.255), and in each half
11 + Poisson(140) at bats per player.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .families import Family, Observations, beta_shapes
from .harness import james_stein
from .mixture import FitConfig, MixtureModel, NullMode, em_fit
from .model_io import read_csv
from .seeding import STREAM_SEASON, derive_rng

MIN_AT_BATS = 11
SEASON_ALPHA = 302.0
SEASON_BETA = 884.0
SEASON_MEAN_AT_BATS = 140.0
_SEASON_HEADER = "player_id,is_pitcher,H1,N1,H2,N2"


@dataclass(frozen=True)
class BaseballRecord:
    player_id: str
    is_pitcher: bool
    h1: int
    n1: int
    h2: int | None = None
    n2: int | None = None

    def __post_init__(self):
        if not 0 <= self.h1 <= self.n1:
            raise ContractError(f"player {self.player_id}: need 0 <= H1 <= N1")
        if (self.h2 is None) != (self.n2 is None):
            raise ContractError(f"player {self.player_id}: partial second-half record")
        if self.h2 is not None and not 0 <= self.h2 <= self.n2:
            raise ContractError(f"player {self.player_id}: need 0 <= H2 <= N2")


def arcsin_transform(h, n):
    """Variance-stabilized average arcsin(sqrt((H + 1/4)/(N + 1/2)))."""
    h = np.asarray(h, dtype=float)
    n = np.asarray(n, dtype=float)
    return np.arcsin(np.sqrt((h + 0.25) / (n + 0.5)))


def _parse_record(row, _n_cols) -> BaseballRecord:
    pid, pitcher, h1, n1, h2, n2 = (c.strip() for c in row)
    if pitcher.lower() not in ("0", "1", "true", "false", "yes", "no"):
        raise ValueError(f"bad is_pitcher value {pitcher!r}")
    return BaseballRecord(
        player_id=pid,
        is_pitcher=pitcher.lower() in ("1", "true", "yes"),
        h1=int(h1),
        n1=int(n1),
        h2=int(h2) if h2 else None,
        n2=int(n2) if n2 else None,
    )


def load_baseball_csv(path) -> list:
    """Read records from `player_id,is_pitcher,H1,N1,H2,N2` (H2/N2 may be blank)."""
    return read_csv(path, (_SEASON_HEADER.lower().split(","),), _SEASON_HEADER, _parse_record)


def synthetic_season(n_players: int = 500, seed: int = 0, season_index: int = 0):
    """One synthetic season from the known Beta(302, 884) prior.

    Returns (records, true averages); both halves are binomial draws
    from the same player-level averages.
    """
    rng = derive_rng(seed, STREAM_SEASON, season_index)
    delta = rng.beta(SEASON_ALPHA, SEASON_BETA, n_players)
    n1 = MIN_AT_BATS + rng.poisson(SEASON_MEAN_AT_BATS, n_players)
    n2 = MIN_AT_BATS + rng.poisson(SEASON_MEAN_AT_BATS, n_players)
    h1 = rng.binomial(n1, delta)
    h2 = rng.binomial(n2, delta)
    records = [
        BaseballRecord(
            player_id=f"p{i:04d}",
            is_pitcher=False,
            h1=int(h1[i]),
            n1=int(n1[i]),
            h2=int(h2[i]),
            n2=int(n2[i]),
        )
        for i in range(n_players)
    ]
    return records, delta


@functools.cache
def _gl_rule(n_points: int):
    """Gauss-Legendre rule for integrals over probability levels u in (0, 1).

    The nodes are mapped through u = t^2 (3 - 2t), which flattens the
    power-law behaviour of a quantile function at u = 0 and u = 1.
    """
    from scipy.special import roots_legendre

    x, w = roots_legendre(n_points)
    t = 0.5 * (x + 1.0)
    return t * t * (3.0 - 2.0 * t), 3.0 * w * t * (1.0 - t)


def posterior_mean_arcsin(model: MixtureModel, counts, trials, n_points: int = 256):
    """E(arcsin sqrt(delta) | H, N) under the fitted beta mixture.

    A point-mass component (kappa = 0) contributes arcsin sqrt(p) exactly.
    Any other component's conjugate Beta(a, b) posterior is integrated in
    its own quantile: E g(delta) = int_0^1 g(F^-1(u)) du, with F^-1 the
    inverse regularized incomplete beta function.  The nodes thus follow
    the posterior mass at any width.  `n_points` is the number of
    Gauss-Legendre nodes in u per player and component.  The component
    means are combined with the posterior weights.
    """
    from scipy.special import betaincinv

    if model.family is not Family.BINOMIAL:
        raise ContractError("arcsin posterior means require a binomial model")
    obs = Observations.binomial(counts, trials)
    weights, _ = model.posterior_weights(obs)
    post = obs.posterior(model.components)
    levels, wts = _gl_rule(n_points)
    out = np.zeros(len(obs))
    for j, comp in enumerate(model.components):
        if comp.kappa == 0.0:
            out += weights[j] * np.arcsin(np.sqrt(comp.mean))
            continue
        a, b = beta_shapes(post.mean[j], post.kappa[j])
        delta = betaincinv(a[:, None], b[:, None], levels[None, :])
        out += weights[j] * (np.arcsin(np.sqrt(delta)) @ wts)
    return out


def tse(mu_hat, h2, n2) -> float:
    """Brown's variance-corrected total squared error against half two."""
    x2 = arcsin_transform(h2, n2)
    n2 = np.asarray(n2, dtype=float)
    return float(np.sum((np.asarray(mu_hat) - x2) ** 2 - 1.0 / (4.0 * n2)))


@dataclass(frozen=True)
class BaseballGroupResult:
    group: str
    n_train: int
    n_test: int
    n_excluded_missing: int
    tse: dict
    normalized_tse: dict
    model: MixtureModel

    @property
    def prior_mean(self) -> float:
        return float(sum(p * c.mean for p, c in zip(self.model.pi, self.model.components)))


@dataclass(frozen=True)
class BaseballResult:
    groups: dict


BASEBALL_METHODS = ("naive", "grand_mean", "james_stein", "mixture")


def _group_filter(records, group):
    if group == "overall":
        return records
    if group == "pitchers":
        return [r for r in records if r.is_pitcher]
    if group == "nonpitchers":
        return [r for r in records if not r.is_pitcher]
    raise ContractError(f"unknown group {group!r}")


def run_baseball(
    records,
    n_components: int,
    seed: int = 0,
    groups=("overall", "pitchers", "nonpitchers"),
) -> BaseballResult:
    """Fit per group on half one, score estimators on half two.

    Training keeps players with at least 11 first-half at bats; scoring
    keeps those with at least 11 in each half.  Players with no
    second-half record are excluded and counted.  Each group's prior is
    the best of three EM restarts with no null and zero penalty.
    """
    config = FitConfig(
        n_components=n_components,
        penalty=0.0,
        null_mode=NullMode.NONE,
        n_restarts=3,
        seed=seed,
    )
    out = {}
    for group in groups:
        members = _group_filter(records, group)
        train = [r for r in members if r.n1 >= MIN_AT_BATS]
        if not train:
            continue
        n_missing = sum(1 for r in train if r.h2 is None)
        test_idx = [
            i
            for i, r in enumerate(train)
            if r.h2 is not None and r.n2 >= MIN_AT_BATS
        ]
        if not test_idx:
            continue
        h1 = np.array([r.h1 for r in train])
        n1 = np.array([r.n1 for r in train])
        x1 = arcsin_transform(h1, n1)

        model = em_fit(Observations.binomial(h1, n1), config)

        estimates = {
            "naive": x1,
            "grand_mean": np.full(len(train), x1.mean()),
            "james_stein": james_stein(x1, var=0.25 / n1),
            "mixture": posterior_mean_arcsin(model, h1, n1),
        }
        h2 = np.array([train[i].h2 for i in test_idx])
        n2 = np.array([train[i].n2 for i in test_idx])
        test = np.array(test_idx)
        raw = {name: tse(est[test], h2, n2) for name, est in estimates.items()}
        naive_tse = raw["naive"]
        out[group] = BaseballGroupResult(
            group=group,
            n_train=len(train),
            n_test=len(test_idx),
            n_excluded_missing=n_missing,
            tse=raw,
            normalized_tse={name: v / naive_tse for name, v in raw.items()},
            model=model,
        )
    return BaseballResult(groups=out)
