"""Command-line entry point.

Subcommands: fit, estimate, simulate (effect | fdr | baseball),
calibrate, bic.  Each simulate study has its own flags, given after its
name (``ebmix simulate fdr --help``), and writes into --out-dir only
once it has run.  All randomness flows from --seed; repeated runs with
identical inputs produce byte-identical outputs.  Errors print a single
``ERROR <category>: message`` line on stderr and exit nonzero: 2 for a
usage error, 1 for any other.  Every flag is checked before any file is
read: a usage error, such as a count out of range (--J, --restarts,
--max-iters, --bootstrap, --perturbed of fit, calibrate and bic), and a
contract error, such as a designated null with --J 1, a negative
--penalty, a non-finite --rel-tol or a bad --mean-tol or --var-tol.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import os
import sys

import numpy as np

from . import baseball as bb
from . import calibration, harness
from .errors import ContractError, DataError, EbmixError, UsageError
from .families import OBSERVATIONS, Family
from .inference import DEFAULT_MEAN_TOL, DEFAULT_VAR_TOL, check_tolerances, nearly_null_grouping, posterior_summary
from .mixture import FitConfig, NullMode, bic, em_fit
from .model_io import ModelDocument, read_csv, read_model, serialize_model, write_model


def _fmt(value) -> str:
    """One cell as `_write_csv` writes it, for a numpy or Python scalar or None."""
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path, header, rows):
    """Write a CSV file, or to stdout when ``path`` is None.

    Cells must be Python scalars or None (use ``.tolist()`` on arrays):
    the csv module writes None as an empty cell and a float by its repr,
    and a numpy float's repr is ``np.float64(...)``.
    """
    out = open(path, "w", newline="", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout)
    with out as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# input readers
# ---------------------------------------------------------------------------


def read_cases(path, family: Family):
    """Load `id,z[,s2]` (normal) or `id,H,N` (binomial) case files as (ids, observations or None)."""
    obs_type = OBSERVATIONS[family]
    ids = []

    def parse(row, n_cols):
        # ids are collected here: an (id, values) tuple per row would slow the read of a large file
        ids.append(row[0].strip())
        return obs_type.parse_row(row, n_cols)

    rows = read_csv(path, obs_type.csv_headers, obs_type.csv_header, parse)
    if not rows:
        return [], None
    try:
        return ids, obs_type(*(np.array(col) for col in zip(*rows)))
    except ContractError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _cases(args, family: Family):
    """The observations of the case file ``--input``, which must hold at least one row."""
    _, obs = read_cases(args.input, family)
    if obs is None:
        raise DataError(f"{args.input}: no data rows")
    return obs


def _config(args, **fields) -> FitConfig:
    """The FitConfig of ``fields`` with the command's --restarts and --seed."""
    return FitConfig(n_restarts=args.restarts, seed=args.seed, **fields)


def _check_out_dir(path):
    """Fail before a study runs unless ``path``, or its nearest existing ancestor, is a writable directory."""
    existing = os.path.abspath(path)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not (os.path.isdir(existing) and os.access(existing, os.W_OK)):
        raise OSError(f"output directory {path} is not a writable directory")


def _write_study(out_dir, *tables):
    """Create ``out_dir`` and write each (file name, header, rows) table of a study into it."""
    os.makedirs(out_dir, exist_ok=True)
    for name, header, rows in tables:
        _write_csv(os.path.join(out_dir, name), header, rows)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _resolve_null(args, family: Family) -> NullMode:
    has_null = OBSERVATIONS[family].theoretical_null is not None
    if args.null is None:
        return NullMode.THEORETICAL if has_null else NullMode.NONE
    mode = NullMode(args.null)
    if mode is NullMode.THEORETICAL and not has_null:
        raise UsageError(
            f"--null theoretical is undefined for --family {family.value} "
            f"(no {family.value} null rate is supported); use --null none"
        )
    return mode


def cmd_fit(args) -> int:
    family = Family(args.family)
    config = _config(args, n_components=args.J, penalty=args.penalty, null_mode=_resolve_null(args, family))
    model = em_fit(_cases(args, family), config)
    doc = ModelDocument(model=model, seed=args.seed, timestamp=args.timestamp)
    if args.output:
        write_model(doc, args.output)
    else:
        sys.stdout.write(serialize_model(doc))
    return 0


def cmd_estimate(args) -> int:
    check_tolerances(args.mean_tol, args.var_tol)
    doc = read_model(args.model)
    model = doc.model
    ids, obs = read_cases(args.input, model.family)
    cols = []
    if obs is not None:
        grouping = None
        if (
            args.nearly_null == "on"
            and model.family is Family.NORMAL
            and model.null_mode is not NullMode.NONE
        ):
            grouping = nearly_null_grouping(model, args.mean_tol, args.var_tol)
        summary = posterior_summary(obs, model, grouping=grouping)
        absent = [None] * len(ids)
        cols = [
            obs.statistic.tolist(),
            summary.effect_mean.tolist(),
            summary.effect_var.tolist(),
            absent if summary.fdr is None else summary.fdr.tolist(),
            absent if summary.tail_fdr is None else summary.tail_fdr.tolist(),
        ]
    _write_csv(args.output, ["id", "z", "effect_mean", "effect_var", "fdr", "FDR"], zip(ids, *cols))
    return 0


def cmd_simulate_effect(args) -> int:
    _check_out_dir(args.out_dir)
    methods = harness.default_effect_methods(args.J, args.penalty)
    rows = harness.run_effect_study(methods, reps=args.reps, seed=args.seed)
    summary = harness.effect_summary(rows)
    _write_study(
        args.out_dir,
        ("effect_study.csv", ["K", "mu", "sided", "method", "rel_error"], rows),
        ("effect_summary.csv", ["method", "mean_rel_error", "median_rel_error"], summary),
    )
    for name, mean_rel, med_rel in summary:
        print(f"{name}: mean={mean_rel:.4f} median={med_rel:.4f}")
    return 0


def cmd_simulate_fdr(args) -> int:
    _check_out_dir(args.out_dir)
    modes = ("theoretical", "empirical") if args.null == "both" else (args.null,)
    curves, tail_curves, thresholds = harness.run_fdr_study(modes, args.J, args.penalty, reps=args.reps, seed=args.seed)
    curve_header = ["z", "method", "null_mode", "mean", "sd"]
    _write_study(
        args.out_dir,
        ("fdr_curves.csv", curve_header, curves),
        ("FDR_curves.csv", curve_header, tail_curves),
        ("thresholds.csv", ["q", "kind", "method", "null_mode", "mean", "sd"], thresholds),
    )
    print(f"fdr study written to {args.out_dir}")
    return 0


# seasons run when --seasons is not given; the flag defaults to None so that --input can reject any --seasons
_SYNTHETIC_SEASONS = 20


def cmd_simulate_baseball(args) -> int:
    if args.input and args.seasons is not None:
        raise UsageError("--seasons does not apply to simulate baseball --input")
    n_seasons = _SYNTHETIC_SEASONS if args.seasons is None else args.seasons
    if n_seasons < 1:
        raise UsageError(f"--seasons must be >= 1, got {n_seasons}")
    _check_out_dir(args.out_dir)
    if args.input:
        records = bb.load_baseball_csv(args.input)
        result = bb.run_baseball(records, n_components=args.J, seed=args.seed)
        rows = [
            (group, m, res.n_train, res.n_test, res.n_excluded_missing, res.tse[m], res.normalized_tse[m])
            for group, res in result.groups.items()
            for m in bb.BASEBALL_METHODS
        ]
        header = ["group", "method", "n_train", "n_test", "n_excluded", "tse", "normalized_tse"]
        _write_study(args.out_dir, ("baseball_tse.csv", header, rows))
        for group, res in result.groups.items():
            line = " ".join(
                f"{m}={res.normalized_tse[m]:.3f}" for m in bb.BASEBALL_METHODS
            )
            print(f"{group}: {line}")
        return 0
    rows = []
    wins = 0
    for season in range(n_seasons):
        records, _ = bb.synthetic_season(seed=args.seed, season_index=season)
        result = bb.run_baseball(records, n_components=args.J, groups=("overall",), seed=args.seed)
        res = result.groups["overall"]
        wins += res.normalized_tse["mixture"] < 1.0
        rows += [(season, m, res.tse[m], res.normalized_tse[m], res.prior_mean) for m in bb.BASEBALL_METHODS]
    header = ["season", "method", "tse", "normalized_tse", "fitted_prior_mean"]
    _write_study(args.out_dir, ("baseball_synthetic.csv", header, rows))
    print(f"synthetic seasons: mixture beat naive in {wins}/{n_seasons}")
    return 0


def cmd_calibrate(args) -> int:
    candidates = None
    if args.candidates != "auto":
        try:
            candidates = np.array([float(c) for c in args.candidates.split(",")])
        except ValueError as exc:
            raise UsageError(f"--candidates must be 'auto' or a comma list of numbers, got {args.candidates!r}") from exc
    base = _config(
        args, n_components=args.J, null_mode=NullMode(args.null), max_iters=args.max_iters, rel_tol=args.rel_tol
    )
    plan = None if candidates is None else calibration.CalibrationPlan(candidates)
    obs = _cases(args, Family.NORMAL)
    plan = plan or calibration.default_plan(len(obs))  # the default candidates follow the number of cases
    plan = dataclasses.replace(plan, n_bootstrap=args.bootstrap, n_perturbed=args.perturbed)
    result = calibration.calibrate_penalty(obs, base, plan)
    if args.output:
        _write_csv(
            args.output,
            ["candidate_P", "perturbed_model_index", "bootstrap_index", "score"],
            list(result.rows()),
        )
    print(f"chosen_P={result.chosen_penalty:.17g}")
    return 0


def cmd_bic(args) -> int:
    family = Family(args.family)
    null_mode = _resolve_null(args, family)
    try:
        lo, hi = args.J_range.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise UsageError(f"--J-range must look like 1..6, got {args.J_range!r}") from exc
    if not 1 <= lo <= hi:
        raise UsageError("--J-range bounds must satisfy 1 <= a <= b")
    # a one-component model has no room for a designated null
    configs = {
        j: _config(args, n_components=j, penalty=args.penalty, null_mode=NullMode.NONE if j == 1 else null_mode)
        for j in range(lo, hi + 1)
    }
    obs = _cases(args, family)
    scores = {}
    for j, config in configs.items():
        scores[j] = bic(obs, em_fit(obs, config))
        print(f"J={j} BIC={scores[j]:.17g}")
    selected = min(scores, key=lambda j: (scores[j], j))
    print(f"selected_J={selected}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(2, f"ERROR usage: {message}\n")


def _count(low=1, high=None):
    """An argparse type: an integer from ``low`` up to ``high`` (unbounded where None), so a bad count is a usage error."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low or (high is not None and value > high):
            bound = f">= {low}" if high is None else f"in {low}..{high}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ebmix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    families = [f.value for f in Family]
    fitting = argparse.ArgumentParser(add_help=False)
    fitting.add_argument("--input", required=True)
    fitting.add_argument("--seed", type=int, default=0)
    fitting.add_argument("--restarts", type=_count(), default=FitConfig.n_restarts)

    p_fit = sub.add_parser("fit", parents=[fitting], help="fit a mixture prior to a case file")
    p_fit.add_argument("--family", choices=families, required=True)
    p_fit.add_argument("--J", type=_count(), default=FitConfig.n_components)
    p_fit.add_argument("--penalty", type=float, default=None, help="default N/5")
    p_fit.add_argument("--null", choices=["theoretical", "empirical", "none"], default=None)
    p_fit.add_argument("--output", default=None, help="model JSON path (default stdout)")
    p_fit.add_argument("--timestamp", default=None, help="optional provenance stamp")
    p_fit.set_defaults(func=cmd_fit)

    p_est = sub.add_parser(
        "estimate",
        help="per-case posterior summaries from a model",
        description=(
            "Write id,z,effect_mean,effect_var,fdr,FDR per case: the posterior mean and variance "
            "of the effect, the local fdr, and the two-sided tail-area FDR = P(null | |Z| >= |z|), "
            "the same for z and -z. The rejection thresholds of simulate fdr scan right tails "
            "(z >= 0) only. fdr and FDR are empty when the model has no null; FDR also for binomial models."
        ),
    )
    p_est.add_argument("--model", required=True)
    p_est.add_argument("--input", required=True)
    p_est.add_argument("--nearly-null", choices=["on", "off"], default="on", dest="nearly_null")
    p_est.add_argument("--mean-tol", type=float, default=DEFAULT_MEAN_TOL, dest="mean_tol")
    p_est.add_argument("--var-tol", type=float, default=DEFAULT_VAR_TOL, dest="var_tol")
    p_est.add_argument("--output", default=None, help="CSV path (default stdout)")
    p_est.set_defaults(func=cmd_estimate)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=0)
    shared.add_argument("--out-dir", required=True, dest="out_dir", help="created once the study has run")
    p_sim = sub.add_parser("simulate", help="run a simulation study")
    studies = p_sim.add_subparsers(dest="study", required=True)

    p_effect = studies.add_parser("effect", parents=[shared], help="effect-size squared-error study")
    p_effect.add_argument("--reps", type=int, default=25)
    p_effect.add_argument("--J", type=int, default=10)
    p_effect.add_argument("--penalty", type=float, default=50.0)
    p_effect.set_defaults(func=cmd_simulate_effect)

    p_fdr = studies.add_parser("fdr", parents=[shared], help="fdr, FDR and threshold study")
    p_fdr.add_argument("--reps", type=int, default=25)
    p_fdr.add_argument("--J", type=int, default=3)
    p_fdr.add_argument("--penalty", type=float, default=50.0)
    p_fdr.add_argument("--null", choices=["theoretical", "empirical", "both"], default="both")
    p_fdr.set_defaults(func=cmd_simulate_fdr)

    p_bb = studies.add_parser("baseball", parents=[shared], help="batting-average prediction study")
    p_bb.add_argument("--J", type=int, default=3)
    p_bb.add_argument("--input", default=None, help="real season CSV")
    p_bb.add_argument(
        "--seasons", type=int, default=None, help=f"synthetic seasons, default {_SYNTHETIC_SEASONS}; not with --input"
    )
    p_bb.set_defaults(func=cmd_simulate_baseball)

    p_cal = sub.add_parser("calibrate", parents=[fitting], help="bootstrap-calibrate the penalty")
    p_cal.add_argument("--candidates", default="auto", help="'auto' or comma list")
    p_cal.add_argument("--J", type=_count(), default=FitConfig.n_components)
    p_cal.add_argument("--null", choices=["theoretical", "empirical"], default="empirical")
    p_cal.add_argument("--bootstrap", type=_count(), default=calibration.CalibrationPlan.n_bootstrap)
    p_cal.add_argument(
        "--perturbed",
        type=_count(1, len(calibration.NULL_SD_SCALES)),
        default=calibration.CalibrationPlan.n_perturbed,
    )
    p_cal.add_argument("--max-iters", type=_count(), default=FitConfig.max_iters, dest="max_iters")
    p_cal.add_argument("--rel-tol", type=float, default=FitConfig.rel_tol, dest="rel_tol")
    p_cal.add_argument("--output", default=None, help="score table CSV path")
    p_cal.set_defaults(func=cmd_calibrate)

    p_bic = sub.add_parser("bic", parents=[fitting], help="select J by BIC over a range")
    p_bic.add_argument("--family", choices=families, default="normal")
    p_bic.add_argument("--J-range", required=True, dest="J_range")
    p_bic.add_argument("--penalty", type=float, default=None)
    p_bic.add_argument("--null", choices=["theoretical", "empirical", "none"], default=None)
    p_bic.set_defaults(func=cmd_bic)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an overflowing kernel is reported by the NumericError it raises, not by numpy's warning on stderr
        with np.errstate(over="ignore"):
            return args.func(args)
    except UsageError as exc:
        print(f"ERROR {exc.category}: {exc}", file=sys.stderr)
        return 2
    except EbmixError as exc:
        print(f"ERROR {exc.category}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ERROR io: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
