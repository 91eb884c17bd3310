"""Baseball analysis: transform, quadrature, TSE and synthetic seasons."""

import dataclasses
import re

import numpy as np
import pytest

import oracles
from ebmix import ContractError, DataError, MixtureModel, NullMode, Observations
from ebmix.baseball import (
    BaseballRecord,
    arcsin_transform,
    load_baseball_csv,
    posterior_mean_arcsin,
    run_baseball,
    synthetic_season,
    tse,
)
from ebmix.families import BetaComponent


def beta_model(comps, pi=None):
    j = len(comps)
    return MixtureModel(
        pi=np.full(j, 1.0 / j) if pi is None else np.asarray(pi),
        components=tuple(BetaComponent.from_shapes(a, b) for a, b in comps),
        null_mode=NullMode.NONE,
        penalty=np.zeros(j),
    )


class TestTransform:
    def test_values(self):
        np.testing.assert_allclose(
            arcsin_transform(10, 40), np.arcsin(np.sqrt(10.25 / 40.5)), rtol=1e-12
        )

    def test_monotone_in_h(self):
        h = np.arange(0, 41)
        x = arcsin_transform(h, 40)
        assert np.all(np.diff(x) > 0)


class TestQuadrature:
    def test_matches_adaptive_quadrature(self):
        model = beta_model([(302.0, 884.0), (90.0, 983.0)], pi=[0.7, 0.3])
        h, n = np.array([40, 5]), np.array([150, 30])
        got = posterior_mean_arcsin(model, h, n)
        for i in range(2):
            want = oracles.beta_mixture_arcsin_mean_quad(
                int(h[i]), int(n[i]), [0.7, 0.3], [(302.0, 884.0), (90.0, 983.0)]
            )
            np.testing.assert_allclose(got[i], want, atol=1e-9)

    def test_256_close_to_1024(self):
        model = beta_model([(302.0, 884.0)])
        rng = np.random.default_rng(0)
        n = rng.integers(11, 400, 50)
        h = rng.binomial(n, 0.25)
        a = posterior_mean_arcsin(model, h, n, n_points=256)
        b = posterior_mean_arcsin(model, h, n, n_points=1024)
        np.testing.assert_allclose(a, b, atol=1e-9)

    @pytest.mark.parametrize("kappa", [0.0, 1e-9, 1e-6])
    def test_near_point_mass_matches_oracle(self, kappa):
        """At kappa = 0 the mean is arcsin sqrt(p) in closed form; near it the quantile rule still holds."""
        comps = [(0.27, kappa), (0.24, 1e-3)]
        model = MixtureModel(
            pi=np.array([0.6, 0.4]),
            components=tuple(BetaComponent(m, k) for m, k in comps),
            null_mode=NullMode.NONE,
            penalty=np.zeros(2),
        )
        h, n = np.array([0, 3, 40, 150, 41]), np.array([11, 40, 150, 150, 160])
        got = posterior_mean_arcsin(model, h, n)
        want = [oracles.point_beta_mixture_arcsin_mean(int(hi), int(ni), [0.6, 0.4], comps) for hi, ni in zip(h, n)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    GRID_PRIORS = [
        (c * m, c * (1.0 - m))
        for c in (0.5, 2.0, 50.0, 1e3, 1e5, 1e8, 2e8)
        for m in (0.02, 0.25, 0.5)
    ] + [(34182611.45, 99547395.23)]  # the J=1 fit of seed 9, season 2, 400 players, at the old 1e8 clip

    @pytest.mark.parametrize("prior", GRID_PRIORS, ids=lambda ab: f"{ab[0]:.6g}-{ab[1]:.6g}")
    def test_any_posterior_width(self, prior):
        h, n = np.array([0, 3, 40, 150]), np.array([11, 40, 150, 150])
        got = posterior_mean_arcsin(beta_model([prior]), h, n)
        want = [
            oracles.beta_mixture_arcsin_mean_quad(int(hi), int(ni), [1.0], [prior])
            for hi, ni in zip(h, n)
        ]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)
        assert np.all((got >= 0.0) & (got <= np.pi / 2))


def test_arcsin_means_need_a_binomial_model():
    from ebmix import NormalComponent

    model = MixtureModel(pi=np.ones(1), components=(NormalComponent(0.0, 1.0),), null_mode=NullMode.NONE, penalty=np.zeros(1))
    with pytest.raises(ContractError, match="^arcsin posterior means require a binomial model$"):
        posterior_mean_arcsin(model, [3], [10])


class TestTse:
    def test_variance_correction(self):
        mu_hat = np.array([0.5, 0.6])
        h2, n2 = np.array([30, 50]), np.array([100, 200])
        x2 = arcsin_transform(h2, n2)
        expected = np.sum((mu_hat - x2) ** 2 - 1.0 / (4 * n2.astype(float)))
        np.testing.assert_allclose(tse(mu_hat, h2, n2), expected, rtol=1e-12)

    def test_unbiased_for_true_error(self):
        """E(TSE) ~ sum (mu_hat - mu)^2 over repeated second halves."""
        rng = np.random.default_rng(17)
        n_players = 300
        delta = rng.beta(302.0, 884.0, n_players)
        mu = np.arcsin(np.sqrt(delta))
        mu_hat = mu + rng.normal(0, 0.03, n_players)  # any fixed estimator
        truth = float(np.sum((mu_hat - mu) ** 2))
        draws = []
        for _ in range(200):
            n2 = 11 + rng.poisson(140, n_players)
            h2 = rng.binomial(n2, delta)
            draws.append(tse(mu_hat, h2, n2))
        draws = np.array(draws)
        sem = draws.std(ddof=1) / np.sqrt(len(draws))
        assert abs(draws.mean() - truth) <= 4 * sem + 0.02 * truth


class TestSyntheticSeason:
    def test_deterministic(self):
        a, da = synthetic_season(n_players=50, seed=3, season_index=1)
        b, db = synthetic_season(n_players=50, seed=3, season_index=1)
        assert a == b
        np.testing.assert_array_equal(da, db)

    @pytest.mark.parametrize("seed", [True, 0.0])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ContractError, match="seed must be an integer"):
            synthetic_season(n_players=5, seed=seed)

    def test_record_validity(self):
        records, delta = synthetic_season(n_players=100, seed=0)
        assert len(records) == 100 and delta.shape == (100,)
        assert all(0 <= r.h1 <= r.n1 and 0 <= r.h2 <= r.n2 for r in records)
        assert all(r.n1 >= 11 and r.n2 >= 11 for r in records)


class TestRunBaseball:
    def test_naive_normalizes_to_one(self):
        records, _ = synthetic_season(n_players=300, seed=5)
        result = run_baseball(records, n_components=1, groups=("overall",))
        res = result.groups["overall"]
        assert res.normalized_tse["naive"] == 1.0
        assert res.n_train == 300 and res.n_test == 300

    def test_mixture_beats_naive_on_synthetic(self):
        wins = 0
        for season in range(3):
            records, _ = synthetic_season(n_players=400, seed=9, season_index=season)
            result = run_baseball(records, n_components=1, groups=("overall",))
            wins += result.groups["overall"].normalized_tse["mixture"] < 1.0
        assert wins == 3

    def test_james_stein_uses_arcsine_variance(self):
        """With variance 1/(4 N1) the shrinkage factor is not clipped to 0."""
        records, _ = synthetic_season(n_players=300, seed=5)
        res = run_baseball(records, n_components=1, groups=("overall",)).groups["overall"]
        assert res.normalized_tse["james_stein"] != res.normalized_tse["grand_mean"]
        assert res.normalized_tse["james_stein"] < 1.0

    def test_fitted_prior_mean_near_truth(self):
        records, _ = synthetic_season(n_players=500, seed=2)
        result = run_baseball(records, n_components=1, groups=("overall",))
        assert abs(result.groups["overall"].prior_mean - 302.0 / 1186.0) <= 0.01

    def test_training_and_test_filters(self):
        records = [
            BaseballRecord("a", False, 5, 40, 10, 50),
            BaseballRecord("b", False, 3, 10, 5, 40),   # too few first-half at bats
            BaseballRecord("c", False, 8, 30, 2, 9),    # too few second-half at bats
            BaseballRecord("d", False, 8, 30, None, None),  # missing second half
            BaseballRecord("e", True, 9, 35, 10, 45),
        ] + [BaseballRecord(f"x{i}", False, 10 + i % 5, 40, 12, 45) for i in range(20)]
        result = run_baseball(records, n_components=1, groups=("overall", "pitchers"))
        res = result.groups["overall"]
        assert res.n_train == 24  # all but "b"
        assert res.n_test == 22  # minus "c" and "d"
        assert res.n_excluded_missing == 1
        assert result.groups["pitchers"].n_train == 1

    def test_james_stein_of_two_pitchers_is_the_data(self):
        """Below n = 4 James-Stein does not shrink; with n = 2 its raw factor, 1 + 1/ss, would expand."""
        records, _ = synthetic_season(n_players=60, seed=1)
        records = [dataclasses.replace(r, is_pitcher=i < 2) for i, r in enumerate(records)]
        res = run_baseball(records, n_components=1, groups=("pitchers",)).groups["pitchers"]
        assert res.n_train == res.n_test == 2
        assert res.normalized_tse["james_stein"] == pytest.approx(1.0, abs=1e-12)

    def test_unknown_group_is_refused(self):
        records, _ = synthetic_season(n_players=30, seed=1)
        with pytest.raises(ContractError, match="^unknown group 'catchers'$"):
            run_baseball(records, n_components=1, groups=("overall", "catchers"))

    def test_empty_group_skipped(self):
        records, _ = synthetic_season(n_players=60, seed=1)
        result = run_baseball(records, n_components=1, groups=("overall", "pitchers"))
        assert "pitchers" not in result.groups


class TestLoader:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "season.csv"
        path.write_text(
            "player_id,is_pitcher,H1,N1,H2,N2\n"
            "p1,0,30,100,25,90\n"
            "p2,1,5,60,,\n"
        )
        records = load_baseball_csv(path)
        assert records[0] == BaseballRecord("p1", False, 30, 100, 25, 90)
        assert records[1] == BaseballRecord("p2", True, 5, 60, None, None)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        text = "player_id,is_pitcher,H1,N1,H2,N2\np1,0,30,100,25,90\n"
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        bom.write_text("\ufeff" + text, encoding="utf-8")
        assert load_baseball_csv(bom) == load_baseball_csv(plain) == [BaseballRecord("p1", False, 30, 100, 25, 90)]

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("player_id,is_pitcher,H1,N1,H2,N2\np1,0,x,100,,\n")
        with pytest.raises(DataError, match="line 2"):
            load_baseball_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,p,H1,N1,H2,N2\n")
        with pytest.raises(DataError, match="header"):
            load_baseball_csv(path)

    @pytest.mark.parametrize(
        "row, reason",
        [
            ("p1,0,30,100,25,", "player p1: partial second-half record"),
            ("p1,0,30,100,,90", "player p1: partial second-half record"),
            ("p1,maybe,30,100,25,90", "bad is_pitcher value 'maybe'"),
        ],
        ids=["no-N2", "no-H2", "is-pitcher"],
    )
    def test_bad_row_names_its_line_and_reason(self, tmp_path, row, reason):
        path = tmp_path / "bad.csv"
        path.write_text(f"player_id,is_pitcher,H1,N1,H2,N2\np0,0,30,100,25,90\n{row}\n")
        with pytest.raises(DataError, match=f"^{re.escape(f'{path} line 3: {reason}')}$"):
            load_baseball_csv(path)

    def test_count_bound_violation_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("player_id,is_pitcher,H1,N1,H2,N2\np1,0,50,40,,\n")
        with pytest.raises(DataError, match="line 2"):
            load_baseball_csv(path)
