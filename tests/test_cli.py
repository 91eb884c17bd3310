"""CLI and model-file contracts: round trips, pinned bytes, determinism, exit codes."""

import hashlib
import json
import re

import numpy as np
import pytest

import oracles
from ebmix import (
    DataError,
    Family,
    FitConfig,
    NullMode,
    Observations,
    baseball,
    harness,
    e_step,
    em_fit,
    parse_model,
    posterior_summary,
    serialize_model,
)
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
        '{"components":[{"kappa":0.012452678794622616,"mean":0.29959797126537696},{"kappa":0,"mean":0.44251396677567351},{"kappa":0,"mean":0.44251396677567356}],"diagnostics":{"converged":true,"iterations":270,"penalized_loglik":-77.528196684154878},"family":"binomial","format_version":1,"n_components":3,"null_mode":"empirical","penalty":[6,0,0],"pi":[0.99999437478207653,3.9970862243320228e-06,1.6281316991767917e-06],"seed":0,"timestamp":null}\n'
    ),
    "binomial-none": (
        '{"components":[{"kappa":0.012452668697888962,"mean":0.29959795116791937},{"kappa":0,"mean":0.44251396264380732},{"kappa":0,"mean":0.44251396264380743}],"diagnostics":{"converged":true,"iterations":275,"penalized_loglik":-77.528196917866765},"family":"binomial","format_version":1,"n_components":3,"null_mode":"none","penalty":[6,0,0],"pi":[0.9999942648521607,3.6321138821426155e-06,2.1030339571537939e-06],"seed":0,"timestamp":null}\n'
    ),
    "normal-empirical": (
        '{"components":[{"mean":0.43121637553526021,"var":0.89493551610398969},{"mean":-0.67916437136399066,"var":0},{"mean":6.7522618405429213,"var":0}],"diagnostics":{"converged":true,"iterations":73,"penalized_loglik":-76.207644502456205},"family":"normal","format_version":1,"n_components":3,"null_mode":"empirical","penalty":[8,0,0],"pi":[0.97864918421767,6.6111812954931275e-07,0.021350154664200413],"seed":0,"timestamp":null}\n'
    ),
    "normal-none": (
        '{"components":[{"mean":0.43112454335918826,"var":0.89475438931865914},{"mean":3.353709875403275,"var":0},{"mean":6.7522635603486236,"var":0}],"diagnostics":{"converged":true,"iterations":244,"penalized_loglik":-76.207670658950249},"family":"normal","format_version":1,"n_components":3,"null_mode":"none","penalty":[8,0,0],"pi":[0.97862390153376999,2.6469603373174442e-05,0.021349628862856799],"seed":0,"timestamp":null}\n'
    ),
    "normal-theoretical": (
        '{"components":[{"mean":0,"var":0},{"mean":3.0282342912114699,"var":0},{"mean":6.7611828095635094,"var":0}],"diagnostics":{"converged":true,"iterations":92,"penalized_loglik":-77.530210797082347},"family":"normal","format_version":1,"n_components":3,"null_mode":"theoretical","penalty":[8,0,0],"pi":[0.87688643422038315,0.10293092964774127,0.020182636131875608],"seed":0,"timestamp":null}\n'
    ),
}
ESTIMATE_CSV = {
    "normal-theoretical": (
        "id,z,effect_mean,effect_var,fdr,FDR\n"
        "a,-3.5,9.046877114328502e-08,2.739606268752635e-07,0.9999999701249103,0.007644663660573481\n"
        "b,0.0,0.0036223294588870122,0.010956141079466656,0.9988038146654512,0.8768864342203831\n"
        "c,1.96,1.9260351682363557,2.122874274209818,0.3639741899482382,0.04030408132864726\n"
        "d,2.5,1.043345926927304,2.090353019269777,0.6564095144428205,0.43837636526916535\n"
        "e,4.0,3.0401607611630026,0.13713265563629257,0.004530232449236178,0.0014921707783233495\n"
        "f,7.25,6.707748010910403,0.19663742576207693,1.1404952807586046e-06,4.048413428593787e-07\n"
    ),
    "binomial-empirical": (
        "id,z,effect_mean,effect_var,fdr,FDR\n"
        "a,0,0.2398599895100113,0.0017998031683199838,0.9999999749309165,\n"
        "b,9,0.2997075747548137,0.0018857058064751697,0.999998169012498,\n"
        "c,17,0.3412947863139233,0.0018534415051580206,0.9999825278762886,\n"
        "d,45,0.5299801571750178,0.0018973234729662,0.9999666976961101,\n"
    ),
    "binomial-none": (
        "id,z,effect_mean,effect_var,fdr,FDR\n"
        "a,0,0.23986001229734805,0.0017998021472926818,,\n"
        "b,9,0.29970756516873437,0.0018857053127526017,,\n"
        "c,17,0.3412947848948539,0.0018534432818201752,,\n"
        "d,45,0.529979972725322,0.0018973263354332874,,\n"
    ),
}
# a binomial model file in the {"alpha", "beta"} component records written before (mean, kappa)
ALPHA_BETA_MODEL_JSON = (
    '{"components":[{"alpha":55654105.866342731,"beta":144345892.22466132},{"alpha":86307676.869462788,"beta":113692323.1305372},{"alpha":86307688.951471552,"beta":113692311.04852846}],"diagnostics":{"converged":true,"iterations":36,"penalized_loglik":-77.668399349976781},"family":"binomial","format_version":1,"n_components":3,"null_mode":"none","penalty":[6,0,0],"pi":[0.89253535947117868,0.058449417212769444,0.049015223316051973],"seed":0,"timestamp":null}\n'
)
ALPHA_BETA_ESTIMATE_CSV = (
    "id,z,effect_mean,effect_var,fdr,FDR\n"
    "a,0,0.2784261666034635,2.3834823800852074e-05,,\n"
    "b,9,0.284383413788583,0.0008995415226515065,,\n"
    "c,17,0.34922788601602284,0.005840535724317481,,\n"
    "d,45,0.43153851783902203,2.939656313639158e-09,,\n"
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

    @pytest.mark.parametrize("case", ["normal-empirical", "binomial-none"])
    def test_byte_order_mark_is_skipped(self, tmp_path, case):
        """A case file that starts with a UTF-8 BOM, as Excel's "CSV UTF-8" writes it, fits to the same bytes."""
        family, data, null = FIT_CASES[case]
        out = tmp_path / "bom.json"
        argv = ["fit", "--input", _write(tmp_path, "bom.csv", "\ufeff" + data), "--family", family,
                "--null", null, "--seed", "0", "--output", str(out)]
        assert main(argv) == 0
        assert out.read_text(encoding="utf-8") == _fit(tmp_path, case) == MODEL_JSON[case]

    @pytest.mark.parametrize("case", ["normal-theoretical", "normal-empirical", "normal-none"])
    def test_normal_fit_is_stationary(self, case):
        """Refitted at rel_tol 1e-12, each free component's scores in mean and var vanish, given w from the final E-step.

        The golden normal file has varying s2.  With w_k the component's
        weights, v = var + s2 and r = z - mean, the scores of its weighted
        log marginal are sum w_k r/v and sum w_k (r^2/v^2 - 1/v)/2; each
        must be within 1e-5 of the size of its terms (the sum of their
        absolute values), and at var = 0 the score in var only at most
        that.  At rel_tol 1e-12, EM's linear convergence leaves scores up
        to 3e-6 of that size; fits that stop at a point that is not
        stationary show scores of several percent of it.
        """
        _, _, null = FIT_CASES[case]
        obs = Observations.normal(Z, S2)
        model = em_fit(obs, FitConfig(null_mode=NullMode(null), rel_tol=1e-12))
        w, _ = e_step(obs, model)
        for k in range(1 if null == "theoretical" else 0, model.n_components):
            comp = model.components[k]
            v = comp.var + obs.s2
            r = obs.z - comp.mean
            mean_terms = w[k] * r / v
            var_terms = w[k] * (r * r / v**2 - 1.0 / v) / 2.0
            assert abs(mean_terms.sum()) <= 1e-5 * np.abs(mean_terms).sum()
            if comp.var > 0.0:
                assert abs(var_terms.sum()) <= 1e-5 * np.abs(var_terms).sum()
            else:
                assert var_terms.sum() <= 1e-5 * np.abs(var_terms).sum()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_uint64_fits(self, tmp_path, seed):
        # restarts past the first draw jitter from the seed, taken mod 2^64
        assert parse_model(_fit(tmp_path, "normal-empirical", seed=seed)).seed == seed

    def test_point_mass_round_trip(self):
        """A beta component at kappa = 0 (which no alpha, beta can write) round-trips byte for byte."""
        text = MODEL_JSON["binomial-none"]
        assert '{"kappa":0,"mean":0.44251396264380732}' in text
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
        with pytest.raises(SystemExit) as info:
            main(["simulate", what, "--out-dir", str(tmp_path)] + flags)
        assert info.value.code == 2
        assert capsys.readouterr().err == f"ERROR usage: unrecognized arguments: {flags[0]} {flags[1]}\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("reps", ["1", "0", "-1"])
    def test_simulate_fdr_needs_two_reps(self, tmp_path, capsys, reps):
        code, err = self._run(capsys, ["simulate", "fdr", "--reps", reps, "--out-dir", str(tmp_path)])
        assert code == 1
        assert err == "ERROR contract: need reps >= 2 to estimate the spread across replications\n"
        assert not any(tmp_path.iterdir())

    def test_simulate_effect_needs_one_rep(self, tmp_path, capsys):
        code, err = self._run(capsys, ["simulate", "effect", "--reps", "0", "--out-dir", str(tmp_path)])
        assert code == 1
        assert err == "ERROR contract: need reps >= 1\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["effect", "--J", "1"], "ERROR contract: a designated null requires J >= 2"),
            (["fdr", "--J", "1", "--reps", "2"], "ERROR contract: a designated null requires J >= 2"),
            (["fdr", "--reps", "1"], "ERROR contract: need reps >= 2 to estimate the spread across replications"),
            (["effect", "--reps", "0"], "ERROR contract: need reps >= 1"),
            (["baseball", "--J", "0", "--seasons", "1"], "ERROR contract: n_components must be >= 1"),
            (
                ["baseball", "--input", "{tmp}/absent.csv"],
                "ERROR io: [Errno 2] No such file or directory: '{tmp}/absent.csv'",
            ),
        ],
        ids=[f"argv{i}" for i in range(6)],
    )
    def test_simulate_null_needs_two_components_before_any_output(self, tmp_path, capsys, argv, message):
        out_dir = tmp_path / "out"
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        code, err = self._run(capsys, ["simulate", *argv, "--out-dir", str(out_dir)])
        assert code == 1
        assert err == message.format(tmp=tmp_path) + "\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "study, module, attr",
        [("effect", harness, "run_effect_study"), ("fdr", harness, "run_fdr_study"), ("baseball", baseball, "run_baseball")],
        ids=["effect", "fdr", "baseball"],
    )
    @pytest.mark.parametrize("below", ["", "/sub"], ids=["file", "below-file"])
    def test_simulate_out_dir_that_is_a_file_fails_before_the_study(
        self, tmp_path, capsys, monkeypatch, study, module, attr, below
    ):
        def study_ran(*args, **kwargs):
            raise AssertionError("the study ran")

        monkeypatch.setattr(module, attr, study_ran)
        out_dir = _write(tmp_path, "out", "kept\n") + below
        code, err = self._run(capsys, ["simulate", study, "--out-dir", out_dir])
        assert code == 1
        assert err == f"ERROR io: output directory {out_dir} is not a writable directory\n"
        assert (tmp_path / "out").read_text(encoding="utf-8") == "kept\n"

    @pytest.mark.parametrize("seasons", ["0", "-2"])
    def test_simulate_baseball_needs_one_season(self, tmp_path, capsys, seasons):
        code, err = self._run(capsys, ["simulate", "baseball", "--seasons", seasons, "--out-dir", str(tmp_path)])
        assert code == 2
        assert err == f"ERROR usage: --seasons must be >= 1, got {seasons}\n"
        assert not any(tmp_path.iterdir())

    def test_simulate_baseball_input_rejects_seasons(self, tmp_path, capsys):
        # 20 is also the number of synthetic seasons run when --seasons is not given
        for seasons in ("2", "20"):
            argv = ["simulate", "baseball", "--input", "season.csv", "--seasons", seasons, "--out-dir", str(tmp_path)]
            code, err = self._run(capsys, argv)
            assert code == 2
            assert err == "ERROR usage: --seasons does not apply to simulate baseball --input\n"
            assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "family, text, reason",
        [
            ("normal", "id,z\na,1.0\nb,nan\n", "normal statistics must be finite"),
            ("normal", "id,z,s2\na,1.0,1\nb,2.0,0\n", "per-case variances s2 must be > 0"),
            ("binomial", "id,H,N\na,1,5\nb,6,5\n", "counts must satisfy 0 <= H <= N"),
        ],
        ids=["z-nan", "s2-zero", "H-above-N"],
    )
    def test_bad_value_in_case_file_is_data_error(self, tmp_path, capsys, family, text, reason):
        cases = _write(tmp_path, "cases.csv", text)
        code, err = self._run(capsys, ["fit", "--input", cases, "--family", family, "--null", "none"])
        assert code == 1
        assert err == f"ERROR data: {cases}: {reason}\n"

    @pytest.mark.parametrize("null", ["theoretical", "empirical", "none"])
    @pytest.mark.parametrize(
        "text",
        ["id,z\na,1e200\nb,0.5\nc,-1.0\nd,2.0\n", "id,z,s2\na,1e200,1\nb,0.5,2\nc,-1.0,0.5\nd,2.0,1\n"],
        ids=["common", "per-case"],
    )
    def test_overflowing_kernel_prints_only_its_error_line(self, tmp_path, capsys, null, text):
        """z = 1e200 overflows every kernel: stderr is the ERROR line alone, without numpy's overflow warning."""
        cases = _write(tmp_path, "cases.csv", text)
        code, err = self._run(capsys, ["fit", "--input", cases, "--family", "normal", "--null", null])
        assert code == 1
        assert err == "ERROR fit: all 3 restarts failed: non-finite component log marginal\n"

    @pytest.mark.parametrize("subcommand", ["fit", "estimate"])
    def test_infinite_s2_in_case_file_is_data_error(self, tmp_path, capsys, subcommand):
        cases = _write(tmp_path, "cases.csv", "id,z,s2\na,1.0,1\nb,2.5,inf\nc,0.3,1\n")
        argv = ["fit", "--input", cases, "--family", "normal"]
        if subcommand == "estimate":
            model = _write(tmp_path, "model.json", MODEL_JSON["normal-theoretical"])
            argv = ["estimate", "--model", model, "--input", cases, "--output", str(tmp_path / "out.csv")]
        code, err = self._run(capsys, argv)
        assert code == 1
        assert err == f"ERROR data: {cases}: per-case variances s2 must be finite\n"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fit", "--family", "normal", "--penalty", "nan"], "penalty must be finite and >= 0"),
            (["fit", "--family", "normal", "--penalty", "inf"], "penalty must be finite and >= 0"),
            (["calibrate", "--candidates", "300,nan"], "penalties must be finite and >= 0"),
        ],
        ids=["fit-nan", "fit-inf", "calibrate-nan"],
    )
    def test_non_finite_penalty_is_rejected(self, tmp_path, capsys, argv, message):
        cases = _write(tmp_path, "cases.csv", NORMAL_CSV)
        code, err = self._run(capsys, [*argv, "--input", cases])
        assert code == 1
        assert err == f"ERROR contract: {message}\n"

    @pytest.mark.parametrize("flags", [["--mean-tol", "nan"], ["--mean-tol", "inf"], ["--var-tol", "-1"]])
    def test_bad_nearly_null_tolerance_is_rejected(self, tmp_path, capsys, flags):
        model = _write(tmp_path, "model.json", MODEL_JSON["normal-theoretical"])
        cases = _write(tmp_path, "est.csv", NORMAL_ESTIMATE_CSV)
        out = tmp_path / "out.csv"
        code, err = self._run(capsys, ["estimate", "--model", model, "--input", cases, "--output", str(out), *flags])
        assert code == 1
        assert err == "ERROR contract: mean_tol and var_tol must be finite and >= 0\n"
        assert not out.exists()

    def test_non_finite_rel_tol_is_rejected(self, tmp_path, capsys):
        cases = _write(tmp_path, "cases.csv", NORMAL_CSV)
        out = tmp_path / "scores.csv"
        code, err = self._run(capsys, ["calibrate", "--input", cases, "--rel-tol", "nan", "--output", str(out)])
        assert code == 1
        assert err == "ERROR contract: invalid convergence controls\n"
        assert not out.exists()

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
            (("pi",), ["0.85", "0.13", "0.02"]),
            (("penalty",), [True, False, False]),
            (("components", 1, "mean"), "2.0"),
            (("components", 1, "var"), True),
            (("n_components",), 3.0),
            (("diagnostics", "penalized_loglik"), "-77.8"),
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


    @pytest.mark.parametrize("field", ["alpha", "beta"])
    def test_mistyped_beta_shape_rejected(self, field):
        """The older {"alpha", "beta"} records need JSON numbers too."""
        payload = json.loads(ALPHA_BETA_MODEL_JSON)
        payload["components"][0][field] = str(payload["components"][0][field])
        with pytest.raises(DataError, match=f"{field} must be a JSON number"):
            parse_model(json.dumps(payload))

    @pytest.mark.parametrize(
        "field, value, reason",
        [
            ("pi", ["0.9", "0.05", "0.05"], "pi must be a JSON number, got '0.9'"),
            ("n_components", 3.0, "n_components must be a JSON integer, got 3.0"),
        ],
    )
    def test_mistyped_model_file_is_data_error(self, tmp_path, capsys, field, value, reason):
        payload = json.loads(MODEL_JSON["normal-theoretical"])
        payload[field] = value
        model = _write(tmp_path, "model.json", json.dumps(payload))
        cases = _write(tmp_path, "cases.csv", NORMAL_ESTIMATE_CSV)
        assert main(["estimate", "--model", model, "--input", cases]) == 1
        assert capsys.readouterr().err == f"ERROR data: malformed model document: {reason}\n"


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
    "2.0,0,0,0.39974814616374826\n"
    "2.0,0,1,0.00047976644097396244\n"
    "2.0,1,0,0.09971939464794076\n"
    "2.0,1,1,0.0005254184754601479\n"
    "8.0,0,0,0.1119216828879631\n"
    "8.0,0,1,0.0008736521357845422\n"
    "8.0,1,0,0.0030061884877935854\n"
    "8.0,1,1,0.00010428061815066856\n"
    "20.0,0,0,0.010948799586417939\n"
    "20.0,0,1,0.0016912045358391569\n"
    "20.0,1,0,0.0006385349662814349\n"
    "20.0,1,1,2.420925311864277e-05\n"
)
CALIBRATE_AUTO_SCORES = (
    0.05042077980839669, 0.0504382720491446, 0.05045576665232842, 0.050473263618414727,
    0.05049076294787099, 0.05050826464116525, 0.05052576869876657, 0.05054327512114409,
    0.05056078390876796, 0.050578295062109216, 0.05059580858163911, 0.05061332446782961,
    0.05063084272115365, 0.050648363342084717, 0.05066588633109656, 0.05068341168866438,
    0.050700939415263546, 0.050718469511370004, 0.05073600197746059, 0.05075353681401276,
)
BIC_STDOUT = (
    "J=1 BIC=164.47396472705356\n"
    "J=2 BIC=165.17870273741241\n"
    "J=3 BIC=175.09165370329171\n"
    "selected_J=1\n"
)
FDR_STUDY_SHA256 = {
    "fdr_curves.csv": "3502368f0740d155a912c4c70824938e46aca7b55833890f73a930e1a8ee2c05",
    "FDR_curves.csv": "da676355e778f3f98cd1bb8b82bf810600f5b76525def622ae586ba3d1c78f76",
    "thresholds.csv": "70d5d6664ab7eb324d9a6c5d578cf749862878a1705557406702e6403c63c67a",
}
EFFECT_STUDY_SHA256 = "ffd3d2f42f89f3b5906523d9f0e6fa0d96767aaced84755f3b9931284c79b397"
EFFECT_SUMMARY_CSV = (
    "method,mean_rel_error,median_rel_error\n"
    "bayes_oracle,1.0,1.0\n"
    "fdr_threshold_q0.1,1.7055469007568025,1.5795620380052902\n"
    "mixture_J2_P50,1.2188705706107448,1.1086447577946543\n"
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
    "overall,mixture,12,10,2,0.013422883028194962,3.409874734914256\n"
    "pitchers,naive,4,4,0,0.004024426643691107,1.0\n"
    "pitchers,grand_mean,4,4,0,0.006902877409426364,1.7152449331503312\n"
    "pitchers,james_stein,4,4,0,0.004818710095689483,1.1973656180920913\n"
    "pitchers,mixture,4,4,0,0.007589604662631007,1.885884707211362\n"
    "nonpitchers,naive,8,6,2,-8.795270499890049e-05,1.0\n"
    "nonpitchers,grand_mean,8,6,2,0.005256534188980982,-59.7654635982679\n"
    "nonpitchers,james_stein,8,6,2,0.0050541322521518404,-57.46420479296257\n"
    "nonpitchers,mixture,8,6,2,0.004881075790550107,-55.49659661531872\n"
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

        def capture(null_modes, n_components, penalty, **kwargs):
            raise Captured(null_modes, n_components, penalty)

        monkeypatch.setattr(harness, "run_fdr_study", capture)
        with pytest.raises(Captured) as info:
            main(["simulate", "fdr", "--out-dir", str(tmp_path)] + flags)
        null_modes, n_components, penalty = info.value.args
        assert [(NullMode(mode), n_components, penalty) for mode in null_modes] == expected
        assert type(n_components) is int and type(penalty) is float

    @pytest.mark.parametrize(
        "study, flags",
        [
            ("effect", {"--reps", "--J", "--penalty"}),
            ("fdr", {"--reps", "--J", "--penalty", "--null"}),
            ("baseball", {"--J", "--input", "--seasons"}),
        ],
    )
    def test_study_help_lists_its_own_flags(self, capsys, study, flags):
        with pytest.raises(SystemExit) as info:
            main(["simulate", study, "--help"])
        assert info.value.code == 0
        assert set(re.findall(r"--[\w-]+", capsys.readouterr().out)) == {"--help", "--seed", "--out-dir"} | flags

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
