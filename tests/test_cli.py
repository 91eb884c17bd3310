"""CLI and model-file contracts: round trips, pinned bytes, determinism, exit codes."""

import json

import numpy as np
import pytest

from ebmix import DataError, Family, parse_model, serialize_model
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
