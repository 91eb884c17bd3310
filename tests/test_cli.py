"""CLI and model-file contracts: round trips, pinned bytes, determinism, exit codes."""

import hashlib
import json

import numpy as np
import pytest

import oracles
from ebmix import DataError, Family, NullMode, Observations, harness, parse_model, posterior_summary, serialize_model
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
    # component 0 is a free beta carrying the penalty, like the normal empirical null
    "binomial-empirical": ("binomial", BINOMIAL_CSV, "empirical"),
}

# captured from the implementation; outputs must stay byte-identical
MODEL_JSON = {
    "binomial-empirical": (
        '{"components":[{"kappa":0.012452678794622659,"mean":0.29959797126537696},{"kappa":0,"mean":0.44251396677567328},{"kappa":0,"mean":0.44251396677567317}],"diagnostics":{"converged":true,"iterations":270,"penalized_loglik":-77.528196684154864},"family":"binomial","format_version":1,"n_components":3,"null_mode":"empirical","penalty":[6,0,0],"pi":[0.99999437478207653,3.997086224335709e-06,1.6281316991782945e-06],"seed":0,"timestamp":null}\n'
    ),
    "binomial-none": (
        '{"components":[{"kappa":0.01245266869809669,"mean":0.2995979511683326},{"kappa":0,"mean":0.44251396264389192},{"kappa":0,"mean":0.44251396264389192}],"diagnostics":{"converged":true,"iterations":275,"penalized_loglik":-77.528196917862019},"family":"binomial","format_version":1,"n_components":3,"null_mode":"none","penalty":[6,0,0],"pi":[0.99999426485442111,3.6321124506024081e-06,2.1030331282762288e-06],"seed":0,"timestamp":null}\n'
    ),
    "normal-empirical": (
        '{"components":[{"mean":0.5406918581651915,"var":0.86449042218822791},{"mean":3.3188049545265521,"var":0},{"mean":6.7702178412082263,"var":0}],"diagnostics":{"converged":true,"iterations":80,"penalized_loglik":-76.327371988060293},"family":"normal","format_version":1,"n_components":3,"null_mode":"empirical","penalty":[8,0,0],"pi":[0.97881851485181048,9.1293199334761066e-07,0.021180572216196153],"seed":0,"timestamp":null}\n'
    ),
    "normal-none": (
        '{"components":[{"mean":0.18987136815237848,"var":0.28146355029075987},{"mean":3.2663260700154106,"var":0},{"mean":6.7527714746788225,"var":0}],"diagnostics":{"converged":true,"iterations":65,"penalized_loglik":-76.564974487535849},"family":"normal","format_version":1,"n_components":3,"null_mode":"none","penalty":[8,0,0],"pi":[0.91315699319102006,0.066746558744016901,0.020096448064962989],"seed":0,"timestamp":null}\n'
    ),
    "normal-theoretical": (
        '{"components":[{"mean":0,"var":0},{"mean":2.5335604074608509,"var":0.60432247943450634},{"mean":6.7460398267333659,"var":0}],"diagnostics":{"converged":true,"iterations":173,"penalized_loglik":-77.790639703671886},"family":"normal","format_version":1,"n_components":3,"null_mode":"theoretical","penalty":[8,0,0],"pi":[0.85488430913339464,0.12530904913497107,0.019806641731634243],"seed":0,"timestamp":null}\n'
    ),
}
ESTIMATE_CSV = {
    "normal-theoretical": (
        "id,z,effect_mean,effect_var,fdr,FDR\n"
        "a,-3.5,0.00016301716509342878,0.0002779292809139395,0.9993749706724125,0.8757484701138891\n"
        "b,0.0,0.0243395444003731,0.04365045057219365,0.9845875085192682,0.8548843091333946\n"
        "c,1.96,1.772183807205437,1.0115148943680285,0.20160709484383701,0.04208671443705147\n"
        "d,2.5,0.9639480883291345,1.7032051376705444,0.6196173121585505,0.4408814317784325\n"
        "e,4.0,3.10124011894637,0.5432302880845379,0.005584057935599212,0.0015351229118768627\n"
        "f,7.25,6.6642942315313904,0.23929637699988304,1.122172903972207e-06,4.0492899356064673e-07\n"
    ),
    "binomial-empirical": (
        "id,z,effect_mean,effect_var,fdr,FDR\n"
        "a,0,0.23985998951001114,0.0017998031683199881,0.9999999749309166,\n"
        "b,9,0.29970757475481374,0.0018857058064751756,0.999998169012498,\n"
        "c,17,0.34129478631392335,0.001853441505158025,0.9999825278762885,\n"
        "d,45,0.5299801571750188,0.0018973234729662055,0.999966697696111,\n"
    ),
    "binomial-none": (
        "id,z,effect_mean,effect_var,fdr,FDR\n"
        "a,0,0.23986001229687884,0.0017998021473136859,,\n"
        "b,9,0.29970756516893154,0.0018857053127627663,,\n"
        "c,17,0.3412947848948833,0.001853443281783655,,\n"
        "d,45,0.5299799727291168,0.001897326335374441,,\n"
    ),
}
# a binomial model file in the {"alpha", "beta"} component records written before (mean, kappa)
ALPHA_BETA_MODEL_JSON = (
    '{"components":[{"alpha":55654105.866342731,"beta":144345892.22466132},{"alpha":86307676.869462788,"beta":113692323.1305372},{"alpha":86307688.951471552,"beta":113692311.04852846}],"diagnostics":{"converged":true,"iterations":36,"penalized_loglik":-77.668399349976781},"family":"binomial","format_version":1,"n_components":3,"null_mode":"none","penalty":[6,0,0],"pi":[0.89253535947117868,0.058449417212769444,0.049015223316051973],"seed":0,"timestamp":null}\n'
)
ALPHA_BETA_ESTIMATE_CSV = (
    "id,z,effect_mean,effect_var,fdr,FDR\n"
    "a,0,0.2784261666034635,2.3834823800852078e-05,,\n"
    "b,9,0.284383413788583,0.0008995415226515067,,\n"
    "c,17,0.34922788601602284,0.005840535724317481,,\n"
    "d,45,0.43153851783902164,2.939656313639156e-09,,\n"
)


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

    def test_point_mass_round_trip(self):
        """A beta component at kappa = 0 (which no alpha, beta can write) round-trips byte for byte."""
        text = MODEL_JSON["binomial-none"]
        assert '{"kappa":0,"mean":0.44251396264389192}' in text
        doc = parse_model(text)
        assert [c.kappa for c in doc.model.components][1:] == [0.0, 0.0]
        assert serialize_model(doc) == text

    def test_alpha_beta_file_loads_as_the_same_model(self, tmp_path):
        """An {"alpha", "beta"} file loads as the (mean, kappa) model it describes, and estimates the same."""
        old = parse_model(ALPHA_BETA_MODEL_JSON)
        assert all(c.kappa > 0 for c in old.model.components)
        new_text = serialize_model(old)
        assert '"alpha"' not in new_text and '"kappa"' in new_text
        assert parse_model(new_text) == old
        cases = _write(tmp_path, "est.csv", BINOMIAL_ESTIMATE_CSV)
        outputs = []
        for name, text in (("old.json", ALPHA_BETA_MODEL_JSON), ("new.json", new_text)):
            out = tmp_path / f"{name}.csv"
            assert main(["estimate", "--model", _write(tmp_path, name, text), "--input", cases, "--output", str(out)]) == 0
            outputs.append(out.read_text(encoding="utf-8"))
        assert outputs == [ALPHA_BETA_ESTIMATE_CSV, ALPHA_BETA_ESTIMATE_CSV]

    def test_alpha_beta_effect_var_matches_mpmath(self):
        """Case d's posterior variance, 2.9e-9 beside a squared mean near 0.19, to 1e-12 of a 50-digit value."""
        model = parse_model(ALPHA_BETA_MODEL_JSON).model
        summary = posterior_summary(Observations.binomial([45], [50]), model)
        _, var = oracles.beta_mixture_posterior_moments_mp(45, 50, model.pi, model.components)
        np.testing.assert_allclose(summary.effect_var[0], float(var), rtol=1e-12)


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

    @pytest.mark.parametrize("field", ["pi", "penalty"])
    def test_nan_in_model_file_is_data_error(self, tmp_path, capsys, field):
        payload = json.loads(MODEL_JSON["normal-theoretical"])
        payload[field][0] = float("nan")  # json.dumps writes NaN, which json.loads reads back
        model = _write(tmp_path, "model.json", json.dumps(payload))
        cases = _write(tmp_path, "cases.csv", NORMAL_ESTIMATE_CSV)
        code, err = self._run(capsys, ["estimate", "--model", model, "--input", cases])
        assert code == 1
        assert err == "ERROR data: malformed model document: mixture proportions and penalty must be finite\n"

    def test_bad_candidates_is_usage_error(self, tmp_path, capsys):
        cases = _write(tmp_path, "cases.csv", NORMAL_CSV)
        code, err = self._run(capsys, ["calibrate", "--input", cases, "--candidates", "5,x"])
        assert code == 2
        assert err.startswith("ERROR usage: --candidates")

    @pytest.mark.parametrize(
        "what, flags",
        [
            ("baseball", ["--penalty", "5"]),
            ("baseball", ["--reps", "1"]),
            ("baseball", ["--null", "empirical"]),
            ("effect", ["--null", "both"]),
            ("effect", ["--input", "season.csv"]),
            ("effect", ["--seasons", "2"]),
            ("fdr", ["--input", "season.csv"]),
            ("fdr", ["--seasons", "2"]),
        ],
    )
    def test_simulate_flag_that_does_not_apply_is_usage_error(self, tmp_path, capsys, what, flags):
        code, err = self._run(capsys, ["simulate", what, "--out-dir", str(tmp_path)] + flags)
        assert code == 2
        assert err == f"ERROR usage: {flags[0]} does not apply to simulate {what}\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("reps", ["1", "0", "-1"])
    def test_simulate_fdr_needs_two_reps(self, tmp_path, capsys, reps):
        code, err = self._run(capsys, ["simulate", "fdr", "--reps", reps, "--out-dir", str(tmp_path)])
        assert code == 1
        assert err == "ERROR contract: need reps >= 2 to estimate the spread across replications\n"
        assert not any(tmp_path.iterdir())

    def test_simulate_baseball_input_rejects_seasons(self, tmp_path, capsys):
        argv = ["simulate", "baseball", "--input", "season.csv", "--seasons", "2", "--out-dir", str(tmp_path)]
        code, err = self._run(capsys, argv)
        assert code == 2
        assert err == "ERROR usage: --seasons does not apply to simulate baseball --input\n"
        assert not any(tmp_path.iterdir())

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
    "2.0,0,0,0.1104452458234718\n"
    "2.0,0,1,2.855256853826893e-05\n"
    "2.0,1,0,0.018268249508777916\n"
    "2.0,1,1,0.0004666657805882279\n"
    "8.0,0,0,0.06417062393620426\n"
    "8.0,0,1,0.0006370473221281484\n"
    "8.0,1,0,0.0018102792717906672\n"
    "8.0,1,1,0.00013118130686523915\n"
    "20.0,0,0,0.00787246834658347\n"
    "20.0,0,1,0.001615830454309782\n"
    "20.0,1,0,0.0004767806529459991\n"
    "20.0,1,1,2.897749427705145e-05\n"
)
CALIBRATE_AUTO_SCORES = (
    0.05042077980839608, 0.05043827204914413, 0.05045576665232793, 0.050473263618414116,
    0.05049076294787048, 0.05050826464116475, 0.05052576869876606, 0.05054327512114361,
    0.050560783908767545, 0.05057829506210875, 0.05059580858163857, 0.05061332446782905,
    0.05063084272115312, 0.05064836334208409, 0.050665886331096054, 0.050683411688663915,
    0.050700939415262915, 0.050718469511369386, 0.05073600197745995, 0.050753536814012214,
)
BIC_STDOUT = (
    "J=1 BIC=164.68443201634096\n"
    "J=2 BIC=165.08169705163755\n"
    "J=3 BIC=175.2059300495342\n"
    "selected_J=1\n"
)
FDR_STUDY_SHA256 = {
    "fdr_curves.csv": "d3c1ede1ef775918699fea304e308b037e506a7c1ee978ce4a131afc32aa291f",
    "FDR_curves.csv": "2f622c6bdbc9420193b9426e1c0aaf438adb4c120cf8cae39c408e3ecafa2ed0",
    "thresholds.csv": "70d5d6664ab7eb324d9a6c5d578cf749862878a1705557406702e6403c63c67a",
}
EFFECT_STUDY_SHA256 = "d6d9712b2bce580b5d888a4eeb3e8a9a074ad231ac6a3441f0b791fcb1107d71"
EFFECT_SUMMARY_CSV = (
    "method,mean_rel_error,median_rel_error\n"
    "bayes_oracle,1.0,1.0\n"
    "fdr_threshold_q0.1,1.7055469007568025,1.5795620380052902\n"
    "mixture_J2_P50,1.218870570610745,1.108644757794655\n"
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
    "0,naive,0.9938618578663836,1.0,0.2569179521420158\n"
    "0,grand_mean,0.14383152479891628,0.14471983572011998,0.2569179521420158\n"
    "0,james_stein,0.14846505252076653,0.14938198034834577,0.2569179521420158\n"
    "0,mixture,0.1463464093923032,0.1472502523705646,0.2569179521420158\n"
)
BASEBALL_TSE_CSV = (
    "group,method,n_train,n_test,n_excluded,tse,normalized_tse\n"
    "overall,naive,12,10,2,0.003936473938692206,1.0\n"
    "overall,grand_mean,12,10,2,0.013383846969193463,3.3999582310558645\n"
    "overall,james_stein,12,10,2,0.013733513465711177,3.488785567896784\n"
    "overall,mixture,12,10,2,0.013422883028194986,3.409874734914262\n"
    "pitchers,naive,4,4,0,0.004024426643691107,1.0\n"
    "pitchers,grand_mean,4,4,0,0.006902877409426364,1.7152449331503312\n"
    "pitchers,james_stein,4,4,0,0.004818710095689483,1.1973656180920913\n"
    "pitchers,mixture,4,4,0,0.007589604662630993,1.8858847072113585\n"
    "nonpitchers,naive,8,6,2,-8.795270499890049e-05,1.0\n"
    "nonpitchers,grand_mean,8,6,2,0.005256534188980982,-59.7654635982679\n"
    "nonpitchers,james_stein,8,6,2,0.0050541322521518404,-57.46420479296257\n"
    "nonpitchers,mixture,8,6,2,0.004881075790550077,-55.49659661531839\n"
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
