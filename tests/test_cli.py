"""CLI and model-file contracts: round trips, pinned bytes, determinism, exit codes."""

import hashlib
import json

import numpy as np
import pytest

from ebmix import DataError, Family, NullMode, harness, parse_model, serialize_model
from ebmix.cli import main, read_cases

Z = [
    2.22, 0.05, -1.0, -1.62, 3.91, 0.49, -2.58, -0.36, 0.79, 1.29,
    6.87, -0.33, 1.28, 0.54, 0.21, -0.37, 0.23, 1.26, -0.38, 2.54,
    -0.6, 0.1, 2.13, -0.47, -0.77, 3.56, 0.58, 3.2, 0.99, -0.86,
    0.94, 0.72, 0.21, 1.49, 1.15, -1.52, -1.41, 3.38, -0.64, 1.09,
]
S2 = [
    1.67, 0.56, 0.73, 1.02, 1.83, 1.69, 0.96, 1.87, 0.86, 0.85,
    1.71, 0.74, 0.79, 1.92, 1.32, 0.54, 1.17, 1.24, 1.62, 1.54,
    1.9, 0.74, 1.99, 1.53, 1.69, 1.19, 1.55, 1.62, 1.78, 0.53,
    0.63, 0.89, 1.62, 1.06, 1.99, 1.39, 0.53, 1.56, 1.53, 1.9,
]
H = [3, 15, 13, 7, 8, 6, 8, 19, 26, 9, 9, 14, 7, 12, 12, 13, 12, 8, 9, 13, 8, 16, 21, 16, 5, 10, 28, 4, 6, 17]
N = [23, 34, 29, 33, 31, 21, 31, 58, 59, 33, 46, 58, 27, 31, 49, 49, 59, 27, 46, 36, 23, 57, 54, 49, 26, 31, 58, 22, 22, 52]

NORMAL_CSV = "id,z,s2\n" + "".join(f"c{i},{z},{s}\n" for i, (z, s) in enumerate(zip(Z, S2)))
BINOMIAL_CSV = "id,H,N\n" + "".join(f"p{i},{h},{n}\n" for i, (h, n) in enumerate(zip(H, N)))
# a blank s2 field means s2 = 1
NORMAL_ESTIMATE_CSV = "id,z,s2\na,-3.5,1\nb,0.0,\nc,1.96,0.5\nd,2.5,2\ne,4.0,1\nf,7.25,1.5\n"
BINOMIAL_ESTIMATE_CSV = "id,H,N\na,0,20\nb,9,30\nc,17,40\nd,45,50\n"

FIT_CASES = {
    "normal-theoretical": ("normal", NORMAL_CSV, "theoretical"),
    "normal-empirical": ("normal", NORMAL_CSV, "empirical"),
    "normal-none": ("normal", NORMAL_CSV, "none"),
    "binomial-none": ("binomial", BINOMIAL_CSV, "none"),
}

# captured from the implementation; outputs must stay byte-identical
MODEL_JSON = {
    "binomial-none": (
        '{"components":[{"alpha":55654105.866342731,"beta":144345892.22466132},{"alpha":86307676.869462788,"beta":113692323.1305372},{"alpha":86307688.951471552,"beta":113692311.04852846}],"diagnostics":{"converged":true,"iterations":36,"penalized_loglik":-77.668399349976781},"family":"binomial","format_version":1,"n_components":3,"null_mode":"none","penalty":[6,0,0],"pi":[0.89253535947117868,0.058449417212769444,0.049015223316051973],"seed":0,"timestamp":null}\n'
    ),
    "normal-empirical": (
        '{"components":[{"mean":0.5406918581651915,"var":0.86449042218822791},{"mean":3.3188049545265517,"var":0},{"mean":6.7702178412082308,"var":0}],"diagnostics":{"converged":true,"iterations":80,"penalized_loglik":-76.327371988060293},"family":"normal","format_version":1,"n_components":3,"null_mode":"empirical","penalty":[8,0,0],"pi":[0.97881851485181059,9.129319933476077e-07,0.021180572216196153],"seed":0,"timestamp":null}\n'
    ),
    "normal-none": (
        '{"components":[{"mean":0.18987136815237859,"var":0.28146355029076009},{"mean":3.2663260700154129,"var":0},{"mean":6.7527714746788217,"var":0}],"diagnostics":{"converged":true,"iterations":65,"penalized_loglik":-76.564974487535849},"family":"normal","format_version":1,"n_components":3,"null_mode":"none","penalty":[8,0,0],"pi":[0.91315699319102017,0.06674655874401686,0.020096448064962996],"seed":0,"timestamp":null}\n'
    ),
    "normal-theoretical": (
        '{"components":[{"mean":0,"var":0},{"mean":2.5335604074608513,"var":0.60432247943450657},{"mean":6.7460398267333668,"var":0}],"diagnostics":{"converged":true,"iterations":173,"penalized_loglik":-77.790639703671886},"family":"normal","format_version":1,"n_components":3,"null_mode":"theoretical","penalty":[8,0,0],"pi":[0.85488430913339475,0.12530904913497107,0.019806641731634236],"seed":0,"timestamp":null}\n'
    ),
}
ESTIMATE_CSV = {
    "normal-theoretical": (
        "id,z,effect_mean,effect_var,fdr,FDR\n"
        "a,-3.5,0.00016301716509342862,0.00027792928091393957,0.9993749706724125,0.8757484701138891\n"
        "b,0.0,0.0243395444003731,0.04365045057219364,0.9845875085192682,0.8548843091333947\n"
        "c,1.96,1.7721838072054374,1.0115148943680294,0.2016070948438371,0.042086714437051476\n"
        "d,2.5,0.9639480883291345,1.7032051376705444,0.6196173121585509,0.4408814317784325\n"
        "e,4.0,3.10124011894637,0.543230288084537,0.005584057935599212,0.0015351229118768627\n"
        "f,7.25,6.664294231531391,0.23929637699987438,1.122172903972207e-06,4.049289935606466e-07\n"
    ),
    "binomial-none": (
        "id,z,effect_mean,effect_var,fdr,FDR\n"
        "a,0,0.2784261666034634,2.3834823800847338e-05,,\n"
        "b,9,0.28438341378858306,0.0008995415226515091,,\n"
        "c,17,0.34922788601602267,0.005840535724317475,,\n"
        "d,45,0.4315385178390223,2.9396561851413594e-09,,\n"
    ),
}


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _fit(tmp_path, case, seed=0, name="model.json"):
    family, data, null = FIT_CASES[case]
    out = tmp_path / name
    argv = ["fit", "--input", _write(tmp_path, "cases.csv", data), "--family", family,
            "--null", null, "--seed", str(seed), "--output", str(out)]
    assert main(argv) == 0
    return out.read_text(encoding="utf-8")


def _estimate_input(case):
    return BINOMIAL_ESTIMATE_CSV if case.startswith("binomial") else NORMAL_ESTIMATE_CSV


class TestModelFile:
    @pytest.mark.parametrize("case", sorted(FIT_CASES))
    def test_round_trip(self, case):
        # the pinned bytes are what `fit` writes (test_pinned_model_bytes)
        text = MODEL_JSON[case]
        assert serialize_model(parse_model(text)) == text

    @pytest.mark.parametrize("case", sorted(FIT_CASES))
    def test_pinned_model_bytes(self, tmp_path, case):
        assert _fit(tmp_path, case) == MODEL_JSON[case]

    @pytest.mark.parametrize("case", sorted(FIT_CASES))
    def test_same_seed_same_bytes(self, tmp_path, case):
        assert _fit(tmp_path, case, seed=5, name="a.json") == _fit(tmp_path, case, seed=5, name="b.json")


class TestEstimate:
    @pytest.mark.parametrize("case", sorted(ESTIMATE_CSV))
    def test_pinned_csv_bytes(self, tmp_path, case):
        model = _write(tmp_path, "model.json", MODEL_JSON[case])
        cases = _write(tmp_path, "est.csv", _estimate_input(case))
        out = tmp_path / "out.csv"
        assert main(["estimate", "--model", model, "--input", cases, "--output", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == ESTIMATE_CSV[case]

    @pytest.mark.parametrize("case", sorted(ESTIMATE_CSV))
    def test_stdout_matches_file(self, tmp_path, capsys, case):
        model = _write(tmp_path, "model.json", MODEL_JSON[case])
        cases = _write(tmp_path, "est.csv", _estimate_input(case))
        out = tmp_path / "out.csv"
        assert main(["estimate", "--model", model, "--input", cases, "--output", str(out)]) == 0
        capsys.readouterr()
        assert main(["estimate", "--model", model, "--input", cases]) == 0
        assert capsys.readouterr().out == out.read_text(encoding="utf-8")


class TestErrors:
    @staticmethod
    def _run(capsys, argv):
        code = main(argv)
        return code, capsys.readouterr().err

    def test_binomial_theoretical_null_is_usage_error(self, tmp_path, capsys):
        cases = _write(tmp_path, "cases.csv", BINOMIAL_CSV)
        code, err = self._run(
            capsys, ["fit", "--input", cases, "--family", "binomial", "--null", "theoretical"]
        )
        assert code == 2
        assert err.startswith("ERROR usage:")

    @pytest.mark.parametrize("j_range", ["3", "a..b", "4..2", "0..2"])
    def test_bad_j_range_is_usage_error(self, tmp_path, capsys, j_range):
        cases = _write(tmp_path, "cases.csv", NORMAL_CSV)
        code, err = self._run(capsys, ["bic", "--input", cases, "--J-range", j_range])
        assert code == 2
        assert err.startswith("ERROR usage:")

    def test_wrong_header_is_data_error(self, tmp_path, capsys):
        cases = _write(tmp_path, "cases.csv", "id,x\na,1.0\n")
        code, err = self._run(capsys, ["fit", "--input", cases, "--family", "normal"])
        assert code == 1
        assert err.startswith("ERROR data:")
        assert "header" in err

    def test_missing_model_file_is_io_error(self, tmp_path, capsys):
        cases = _write(tmp_path, "cases.csv", NORMAL_ESTIMATE_CSV)
        code, err = self._run(
            capsys, ["estimate", "--model", str(tmp_path / "absent.json"), "--input", cases]
        )
        assert code == 1
        assert err.startswith("ERROR io:")


class TestReadCases:
    @pytest.mark.parametrize(
        "family, text",
        [
            (Family.NORMAL, "id,z\na,0.5\nb,1.0,4.0\n"),
            (Family.NORMAL, "id,z,s2\na,0.5,1\nb,1.0,4.0,2\n"),
            (Family.BINOMIAL, "id,H,N\na,1,5\nb,2,5,7\n"),
        ],
    )
    def test_row_longer_than_header_rejected(self, tmp_path, family, text):
        with pytest.raises(DataError, match="line 3"):
            read_cases(_write(tmp_path, "cases.csv", text), family)

    def test_blank_or_missing_s2_means_one(self, tmp_path):
        ids, obs = read_cases(_write(tmp_path, "cases.csv", "id,z,s2\na,0.5,\nb,1.0,4.0\nc,2.0\n"), Family.NORMAL)
        assert ids == ["a", "b", "c"]
        np.testing.assert_array_equal(obs.s2, [1.0, 4.0, 1.0])


class TestParseModel:
    @pytest.mark.parametrize(
        "keys, value",
        [
            (("diagnostics", "converged"), "false"),
            (("diagnostics", "converged"), 0),
            (("diagnostics", "iterations"), 12.9),
            (("diagnostics", "iterations"), 12.0),
            (("diagnostics", "iterations"), True),
            (("seed",), 2.5),
            (("seed",), "2"),
            (("seed",), False),
            (("format_version",), True),
            (("timestamp",), 5),
        ],
    )
    def test_mistyped_diagnostics_rejected(self, keys, value):
        payload = json.loads(MODEL_JSON["normal-theoretical"])
        target = payload
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        with pytest.raises(DataError, match=keys[-1]):
            parse_model(json.dumps(payload))


# 201 cases: the smallest N for which the automatic candidate range is nondegenerate
_rng = np.random.default_rng(7)
_Z201 = _rng.standard_normal(201)
_Z201[:20] += 3.0
AUTO_CSV = "id,z\n" + "".join(f"c{i},{z:.2f}\n" for i, z in enumerate(_Z201))
# player_id,is_pitcher,...: four pitchers; p0005 and p0011 lack a second half
BASEBALL_CSV = (
    "player_id,is_pitcher,H1,N1,H2,N2\n"
    "p0000,1,46,155,50,162\np0001,0,36,140,47,163\np0002,0,40,149,40,147\n"
    "p0003,1,28,123,31,144\np0004,0,43,152,41,159\np0005,0,44,139,,\n"
    "p0006,1,46,159,28,132\np0007,0,41,163,29,149\np0008,0,42,155,40,138\n"
    "p0009,1,39,151,29,136\np0010,0,38,144,30,138\np0011,0,46,146,,\n"
)

# captured from the implementation; outputs must stay byte-identical
CALIBRATE_MANUAL_CSV = (
    "candidate_P,perturbed_model_index,bootstrap_index,score\n"
    "2.0,0,0,0.11044524582347182\n"
    "2.0,0,1,2.8552568538273105e-05\n"
    "2.0,1,0,0.018268249508777878\n"
    "2.0,1,1,0.0004666657805881914\n"
    "8.0,0,0,0.06417062393620401\n"
    "8.0,0,1,0.0006370473221281388\n"
    "8.0,1,0,0.0018102792717906773\n"
    "8.0,1,1,0.0001311813068652385\n"
    "20.0,0,0,0.007872468346583405\n"
    "20.0,0,1,0.0016158304543097567\n"
    "20.0,1,0,0.0004767806529459889\n"
    "20.0,1,1,2.897749427705213e-05\n"
)
CALIBRATE_AUTO_SCORES = (
    0.050420779808396224, 0.05043827204914426, 0.05045576665232802, 0.05047326361841431,
    0.05049076294787057, 0.050508264641164945, 0.050525768698766106, 0.05054327512114371,
    0.050560783908767656, 0.05057829506210891, 0.050595808581638646, 0.05061332446782914,
    0.0506308427211533, 0.05064836334208428, 0.050665886331096234, 0.0506834116886641,
    0.05070093941526308, 0.05071846951136966, 0.05073600197746016, 0.05075353681401237,
)
BIC_STDOUT = (
    "J=1 BIC=164.68443201634096\n"
    "J=2 BIC=165.08169705163758\n"
    "J=3 BIC=175.2059300495342\n"
    "selected_J=1\n"
)
FDR_STUDY_SHA256 = {
    "fdr_curves.csv": "05c1fdeddbdfd767fe899fbf221ff0e23d744abf42753dd9cbed73477602de61",
    "FDR_curves.csv": "1f8248c7176622bd255f1bf97c1614f7aff2433f88b83da68d2c57b7f4bbaf7f",
    "thresholds.csv": "70d5d6664ab7eb324d9a6c5d578cf749862878a1705557406702e6403c63c67a",
}
EFFECT_STUDY_SHA256 = "0d6d0cccde30478256407afc8d6c4cdcb1267a36298f49f3ee46a77620478a86"
EFFECT_SUMMARY_CSV = (
    "method,mean_rel_error,median_rel_error\n"
    "bayes_oracle,1.0,1.0\n"
    "fdr_threshold_q0.1,1.7055469007568025,1.5795620380052902\n"
    "mixture_J2_P50,1.2188705706107452,1.1086447577946559\n"
    "naive,17.6246651784865,7.314951396638779\n"
    "sure_shrink,1.9002796191028402,1.624536473507486\n"
    "universal_hard,3.0947246561432014,1.5936274317664818\n"
    "universal_soft,6.794230794007795,3.156530536134627\n"
)
EFFECT_STDOUT = (
    "bayes_oracle: mean=1.0000 median=1.0000\n"
    "fdr_threshold_q0.1: mean=1.7055 median=1.5796\n"
    "mixture_J2_P50: mean=1.2189 median=1.1086\n"
    "naive: mean=17.6247 median=7.3150\n"
    "sure_shrink: mean=1.9003 median=1.6245\n"
    "universal_hard: mean=3.0947 median=1.5936\n"
    "universal_soft: mean=6.7942 median=3.1565\n"
)
BASEBALL_SYNTHETIC_CSV = (
    "season,method,tse,normalized_tse,fitted_prior_mean\n"
    "0,naive,0.9938618578663836,1.0,0.2569179521478148\n"
    "0,grand_mean,0.14383152479891628,0.14471983572011998,0.2569179521478148\n"
    "0,james_stein,0.14846505252076653,0.14938198034834577,0.2569179521478148\n"
    "0,mixture,0.14634644295075896,0.14725028613627913,0.2569179521478148\n"
)
BASEBALL_TSE_CSV = (
    "group,method,n_train,n_test,n_excluded,tse,normalized_tse\n"
    "overall,naive,12,10,2,0.003936473938692206,1.0\n"
    "overall,grand_mean,12,10,2,0.013383846969193463,3.3999582310558645\n"
    "overall,james_stein,12,10,2,0.013733513465711177,3.488785567896784\n"
    "overall,mixture,12,10,2,0.013422872224472037,3.4098719903964225\n"
    "pitchers,naive,4,4,0,0.004024426643691107,1.0\n"
    "pitchers,grand_mean,4,4,0,0.006902877409426364,1.7152449331503312\n"
    "pitchers,james_stein,4,4,0,0.004818710095689483,1.1973656180920913\n"
    "pitchers,mixture,4,4,0,0.0075895993260611215,1.8858833811665963\n"
    "nonpitchers,naive,8,6,2,-8.795270499890049e-05,1.0\n"
    "nonpitchers,grand_mean,8,6,2,0.005256534188980982,-59.7654635982679\n"
    "nonpitchers,james_stein,8,6,2,0.0050541322521518404,-57.46420479296257\n"
    "nonpitchers,mixture,8,6,2,0.004881070498721045,-55.49653644856135\n"
)
BASEBALL_TSE_STDOUT = (
    "overall: naive=1.000 grand_mean=3.400 james_stein=3.489 mixture=3.410\n"
    "pitchers: naive=1.000 grand_mean=1.715 james_stein=1.197 mixture=1.886\n"
    "nonpitchers: naive=1.000 grand_mean=-59.765 james_stein=-57.464 mixture=-55.497\n"
)


class TestCalibrate:
    def test_manual_candidates_pinned(self, tmp_path, capsys):
        out = tmp_path / "scores.csv"
        argv = ["calibrate", "--input", _write(tmp_path, "cases.csv", NORMAL_CSV), "--candidates", "2,8,20",
                "--bootstrap", "2", "--perturbed", "2", "--restarts", "1", "--output", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().out == "chosen_P=20\n"
        assert out.read_text(encoding="utf-8") == CALIBRATE_MANUAL_CSV

    def test_auto_plan_pinned(self, tmp_path, capsys):
        out = tmp_path / "scores.csv"
        argv = ["calibrate", "--input", _write(tmp_path, "cases.csv", AUTO_CSV),
                "--bootstrap", "1", "--perturbed", "1", "--output", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().out == "chosen_P=100\n"
        candidates = np.linspace(100.0, 100.5, 20)
        expected = "candidate_P,perturbed_model_index,bootstrap_index,score\n" + "".join(
            f"{p!r},0,0,{s!r}\n" for p, s in zip(candidates.tolist(), CALIBRATE_AUTO_SCORES)
        )
        assert out.read_text(encoding="utf-8") == expected


def test_bic_pinned(tmp_path, capsys):
    assert main(["bic", "--input", _write(tmp_path, "cases.csv", NORMAL_CSV), "--J-range", "1..3"]) == 0
    assert capsys.readouterr().out == BIC_STDOUT


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestSimulate:
    def test_fdr_pinned(self, tmp_path, capsys):
        assert main(["simulate", "fdr", "--reps", "2", "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out == f"fdr study written to {tmp_path}\n"
        assert {name: _sha256(tmp_path / name) for name in FDR_STUDY_SHA256} == FDR_STUDY_SHA256

    @pytest.mark.parametrize(
        "flags, expected",
        [
            ([], [(NullMode.THEORETICAL, 3, 50.0), (NullMode.EMPIRICAL, 3, 50.0)]),
            (["--J", "5", "--penalty", "5"], [(NullMode.THEORETICAL, 5, 5.0), (NullMode.EMPIRICAL, 5, 5.0)]),
            (["--null", "both", "--J", "4"], [(NullMode.THEORETICAL, 4, 50.0), (NullMode.EMPIRICAL, 4, 50.0)]),
            (["--null", "empirical", "--penalty", "7"], [(NullMode.EMPIRICAL, 3, 7.0)]),
        ],
    )
    def test_fdr_methods_follow_flags(self, tmp_path, monkeypatch, flags, expected):
        class Captured(Exception):
            pass

        def capture(methods, **kwargs):
            raise Captured(methods)

        monkeypatch.setattr(harness, "run_fdr_study", capture)
        with pytest.raises(Captured) as info:
            main(["simulate", "fdr", "--out-dir", str(tmp_path)] + flags)
        methods = info.value.args[0]
        assert [(m.null_mode, m.n_components, m.penalty) for m in methods] == expected
        assert [m.name for m in methods] == [f"mixture_{mode.value}" for mode, _, _ in expected]

    def test_effect_pinned(self, tmp_path, capsys):
        assert main(["simulate", "effect", "--reps", "1", "--J", "2", "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out == EFFECT_STDOUT
        assert _sha256(tmp_path / "effect_study.csv") == EFFECT_STUDY_SHA256
        assert (tmp_path / "effect_summary.csv").read_text(encoding="utf-8") == EFFECT_SUMMARY_CSV

    def test_baseball_synthetic_pinned(self, tmp_path, capsys):
        assert main(["simulate", "baseball", "--seasons", "1", "--J", "1", "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out == "synthetic seasons: mixture beat naive in 1/1\n"
        assert (tmp_path / "baseball_synthetic.csv").read_text(encoding="utf-8") == BASEBALL_SYNTHETIC_CSV

    def test_baseball_input_pinned(self, tmp_path, capsys):
        season = _write(tmp_path, "season.csv", BASEBALL_CSV)
        assert main(["simulate", "baseball", "--input", season, "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out == BASEBALL_TSE_STDOUT
        assert (tmp_path / "baseball_tse.csv").read_text(encoding="utf-8") == BASEBALL_TSE_CSV
