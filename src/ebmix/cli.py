"""Command-line entry point.

Subcommands: fit, estimate, simulate (effect | fdr | baseball),
calibrate, bic.  All randomness flows from --seed; repeated runs with
identical inputs produce byte-identical outputs.  Errors print a single
``ERROR <category>: message`` line on stderr and exit nonzero.
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
from .errors import DataError, EbmixError, UsageError
from .families import Family, Observations
from .inference import nearly_null_grouping, posterior_summary
from .mixture import FitConfig, NullMode, bic, em_fit
from .model_io import ModelDocument, read_model, serialize_model, write_model


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path, header, rows):
    """Write a CSV file, or to stdout when ``path`` is None."""
    out = open(path, "w", newline="", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout)
    with out as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


# ---------------------------------------------------------------------------
# input readers
# ---------------------------------------------------------------------------


def read_cases(path, family: Family):
    """Load `id,z[,s2]` (normal) or `id,H,N` (binomial) case files."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file, expected a header row")
        cols = [c.strip().lower() for c in header]
        if family is Family.NORMAL:
            if cols not in (["id", "z"], ["id", "z", "s2"]):
                raise DataError(f"{path}: expected header id,z[,s2], got {','.join(header)}")
        else:
            if cols != ["id", "h", "n"]:
                raise DataError(f"{path}: expected header id,H,N, got {','.join(header)}")
        ids, a, b = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                if family is Family.NORMAL:
                    if not 2 <= len(row) <= len(cols):
                        raise ValueError(f"expected {len(cols)} columns, got {len(row)}")
                    ids.append(row[0].strip())
                    a.append(float(row[1]))
                    s2 = row[2].strip() if len(row) == 3 else ""
                    b.append(float(s2) if s2 else 1.0)
                else:
                    if len(row) != 3:
                        raise ValueError(f"expected 3 columns, got {len(row)}")
                    ids.append(row[0].strip())
                    a.append(int(row[1]))
                    b.append(int(row[2]))
            except ValueError as exc:
                raise DataError(f"{path} line {lineno}: {exc}") from exc
    if not ids:
        return [], None
    if family is Family.NORMAL:
        return ids, Observations.normal(np.array(a), np.array(b))
    return ids, Observations.binomial(np.array(a), np.array(b))


def _ensure_out_dir(path):
    os.makedirs(path, exist_ok=True)
    if not os.access(path, os.W_OK):
        raise OSError(f"output directory {path} is not writable")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _resolve_null(args, family: Family) -> NullMode:
    if args.null is None:
        return NullMode.NONE if family is Family.BINOMIAL else NullMode.THEORETICAL
    mode = NullMode(args.null)
    if family is Family.BINOMIAL and mode is NullMode.THEORETICAL:
        raise UsageError(
            "--null theoretical is undefined for --family binomial "
            "(no point-mass null rate is supported); use --null none"
        )
    return mode


def cmd_fit(args) -> int:
    family = Family(args.family)
    null_mode = _resolve_null(args, family)
    ids, obs = read_cases(args.input, family)
    if obs is None:
        raise DataError(f"{args.input}: no data rows")
    config = FitConfig(
        n_components=args.J,
        penalty=args.penalty,
        null_mode=null_mode,
        n_restarts=args.restarts,
        seed=args.seed,
    )
    model = em_fit(obs, config)
    doc = ModelDocument(model=model, seed=args.seed, timestamp=args.timestamp)
    if args.output:
        write_model(doc, args.output)
    else:
        sys.stdout.write(serialize_model(doc))
    return 0


def cmd_estimate(args) -> int:
    doc = read_model(args.model)
    model = doc.model
    ids, obs = read_cases(args.input, model.family)
    header = ["id", "z", "effect_mean", "effect_var", "fdr", "FDR"]
    rows = []
    if obs is not None:
        grouping = None
        if (
            args.nearly_null == "on"
            and model.family is Family.NORMAL
            and model.null_mode is not NullMode.NONE
        ):
            grouping = nearly_null_grouping(model, args.mean_tol, args.var_tol)
        summary = posterior_summary(obs, model, grouping=grouping)
        stat = obs.z if model.family is Family.NORMAL else obs.counts
        for i, case_id in enumerate(ids):
            rows.append(
                [
                    case_id,
                    stat[i],
                    summary.effect_mean[i],
                    summary.effect_var[i],
                    None if summary.fdr is None else summary.fdr[i],
                    None if summary.tail_fdr is None else summary.tail_fdr[i],
                ]
            )
    _write_csv(args.output, header, rows)
    return 0


def cmd_simulate(args) -> int:
    _ensure_out_dir(args.out_dir)
    n_comp = args.J if args.J is not None else (10 if args.what == "effect" else 3)
    if args.what == "effect":
        methods = harness.default_effect_methods(n_comp, args.penalty)
        result = harness.run_effect_study(methods, reps=args.reps, seed=args.seed)
        _write_csv(
            os.path.join(args.out_dir, "effect_study.csv"),
            ["K", "mu", "sided", "method", "rel_error"],
            [(c.n_nonzero, c.mu, c.sided, c.method, c.rel_error) for c in result.cells],
        )
        summary = result.summary()
        _write_csv(
            os.path.join(args.out_dir, "effect_summary.csv"),
            ["method", "mean_rel_error", "median_rel_error"],
            [(name, m, med) for name, (m, med) in sorted(summary.items())],
        )
        for name, (mean_rel, med_rel) in sorted(summary.items()):
            print(f"{name}: mean={mean_rel:.4f} median={med_rel:.4f}")
        return 0
    if args.what == "fdr":
        modes = ("theoretical", "empirical") if args.null == "both" else (args.null,)
        methods = tuple(
            harness.FdrMethod(
                name=f"mixture_{mode}",
                null_mode=NullMode(mode),
                n_components=n_comp,
                penalty=args.penalty,
            )
            for mode in modes
        )
        result = harness.run_fdr_study(methods, reps=args.reps, seed=args.seed)
        for kind, fname in (("fdr", "fdr_curves.csv"), ("FDR", "FDR_curves.csv")):
            rows = []
            true_curve = result.true_fdr if kind == "fdr" else result.true_tail
            for i, z in enumerate(result.z_grid):
                rows.append((z, "truth", "", true_curve[i], 0.0))
            for name in result.method_names:
                mean, sd = result.curve_stats(name, kind)
                for i, z in enumerate(result.z_grid):
                    rows.append((z, name, result.null_modes[name], mean[i], sd[i]))
            _write_csv(
                os.path.join(args.out_dir, fname),
                ["z", "method", "null_mode", "mean", "sd"],
                rows,
            )
        rows = []
        for kind in ("fdr", "FDR"):
            for i, q in enumerate(result.qs):
                rows.append((q, kind, "truth", "", result.true_thresholds[kind][i], 0.0))
            for name in result.method_names:
                mean, sd = result.threshold_stats(name, kind)
                for i, q in enumerate(result.qs):
                    rows.append((q, kind, name, result.null_modes[name], mean[i], sd[i]))
        _write_csv(
            os.path.join(args.out_dir, "thresholds.csv"),
            ["q", "kind", "method", "null_mode", "mean", "sd"],
            rows,
        )
        print(f"fdr study written to {args.out_dir}")
        return 0
    # baseball
    if args.input:
        records = bb.load_baseball_csv(args.input)
        result = bb.run_baseball(records, n_components=n_comp, seed=args.seed)
        rows = []
        for group, res in result.groups.items():
            for method in bb.BASEBALL_METHODS:
                rows.append(
                    (
                        group,
                        method,
                        res.n_train,
                        res.n_test,
                        res.n_excluded_missing,
                        res.tse[method],
                        res.normalized_tse[method],
                    )
                )
        _write_csv(
            os.path.join(args.out_dir, "baseball_tse.csv"),
            ["group", "method", "n_train", "n_test", "n_excluded", "tse", "normalized_tse"],
            rows,
        )
        for group, res in result.groups.items():
            line = " ".join(
                f"{m}={res.normalized_tse[m]:.3f}" for m in bb.BASEBALL_METHODS
            )
            print(f"{group}: {line}")
        return 0
    rows = []
    wins = 0
    for season in range(args.seasons):
        records, _ = bb.synthetic_season(seed=args.seed, season_index=season)
        result = bb.run_baseball(records, n_components=n_comp, groups=("overall",), seed=args.seed)
        res = result.groups["overall"]
        wins += res.normalized_tse["mixture"] < 1.0
        for method in bb.BASEBALL_METHODS:
            rows.append(
                (season, method, res.tse[method], res.normalized_tse[method], res.prior_mean)
            )
    _write_csv(
        os.path.join(args.out_dir, "baseball_synthetic.csv"),
        ["season", "method", "tse", "normalized_tse", "fitted_prior_mean"],
        rows,
    )
    print(f"synthetic seasons: mixture beat naive in {wins}/{args.seasons}")
    return 0


def cmd_calibrate(args) -> int:
    ids, obs = read_cases(args.input, Family.NORMAL)
    if obs is None:
        raise DataError(f"{args.input}: no data rows")
    null_mode = NullMode(args.null)
    base = FitConfig(
        n_components=args.J,
        null_mode=null_mode,
        n_restarts=args.restarts,
        seed=args.seed,
        max_iters=args.max_iters,
        rel_tol=args.rel_tol,
    )
    if args.candidates == "auto":
        plan = calibration.default_plan(len(obs), seed=args.seed)
    else:
        plan = calibration.CalibrationPlan(
            candidates=np.array([float(c) for c in args.candidates.split(",")]),
            preliminary_penalty=len(obs) / 5.0,
            seed=args.seed,
        )
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
    ids, obs = read_cases(args.input, family)
    if obs is None:
        raise DataError(f"{args.input}: no data rows")
    null_mode = _resolve_null(args, family)
    try:
        lo, hi = args.J_range.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise UsageError(f"--J-range must look like 1..6, got {args.J_range!r}") from exc
    if not 1 <= lo <= hi:
        raise UsageError("--J-range bounds must satisfy 1 <= a <= b")
    scores = {}
    for j in range(lo, hi + 1):
        # a one-component model has no room for a designated null
        mode = NullMode.NONE if j == 1 else null_mode
        config = FitConfig(
            n_components=j,
            penalty=args.penalty,
            null_mode=mode,
            n_restarts=args.restarts,
            seed=args.seed,
        )
        model = em_fit(obs, config)
        scores[j] = bic(obs, model)
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ebmix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a mixture prior to a case file")
    p_fit.add_argument("--input", required=True)
    p_fit.add_argument("--family", choices=["normal", "binomial"], required=True)
    p_fit.add_argument("--J", type=int, default=3)
    p_fit.add_argument("--penalty", type=float, default=None, help="default N/5")
    p_fit.add_argument("--null", choices=["theoretical", "empirical", "none"], default=None)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--restarts", type=int, default=3)
    p_fit.add_argument("--output", default=None, help="model JSON path (default stdout)")
    p_fit.add_argument("--timestamp", default=None, help="optional provenance stamp")
    p_fit.set_defaults(func=cmd_fit)

    p_est = sub.add_parser("estimate", help="per-case posterior summaries from a model")
    p_est.add_argument("--model", required=True)
    p_est.add_argument("--input", required=True)
    p_est.add_argument("--nearly-null", choices=["on", "off"], default="on", dest="nearly_null")
    p_est.add_argument("--mean-tol", type=float, default=0.25, dest="mean_tol")
    p_est.add_argument("--var-tol", type=float, default=0.25, dest="var_tol")
    p_est.add_argument("--output", default=None, help="CSV path (default stdout)")
    p_est.set_defaults(func=cmd_estimate)

    p_sim = sub.add_parser("simulate", help="run a simulation study")
    p_sim.add_argument("what", choices=["effect", "fdr", "baseball"])
    p_sim.add_argument("--reps", type=int, default=25)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out-dir", required=True, dest="out_dir")
    p_sim.add_argument("--J", type=int, default=None)
    p_sim.add_argument("--penalty", type=float, default=50.0)
    p_sim.add_argument("--null", choices=["theoretical", "empirical", "both"], default="both")
    p_sim.add_argument("--input", default=None, help="baseball: real season CSV")
    p_sim.add_argument("--seasons", type=int, default=20, help="baseball: synthetic seasons")
    p_sim.set_defaults(func=cmd_simulate)

    p_cal = sub.add_parser("calibrate", help="bootstrap-calibrate the penalty")
    p_cal.add_argument("--input", required=True)
    p_cal.add_argument("--candidates", default="auto", help="'auto' or comma list")
    p_cal.add_argument("--J", type=int, default=3)
    p_cal.add_argument("--null", choices=["theoretical", "empirical"], default="empirical")
    p_cal.add_argument("--seed", type=int, default=0)
    p_cal.add_argument("--restarts", type=int, default=3)
    p_cal.add_argument("--bootstrap", type=int, default=calibration.CalibrationPlan.n_bootstrap)
    p_cal.add_argument("--perturbed", type=int, default=calibration.CalibrationPlan.n_perturbed)
    p_cal.add_argument("--max-iters", type=int, default=1000, dest="max_iters")
    p_cal.add_argument("--rel-tol", type=float, default=1e-8, dest="rel_tol")
    p_cal.add_argument("--output", default=None, help="score table CSV path")
    p_cal.set_defaults(func=cmd_calibrate)

    p_bic = sub.add_parser("bic", help="select J by BIC over a range")
    p_bic.add_argument("--input", required=True)
    p_bic.add_argument("--family", choices=["normal", "binomial"], default="normal")
    p_bic.add_argument("--J-range", required=True, dest="J_range")
    p_bic.add_argument("--penalty", type=float, default=None)
    p_bic.add_argument("--null", choices=["theoretical", "empirical", "none"], default=None)
    p_bic.add_argument("--seed", type=int, default=0)
    p_bic.add_argument("--restarts", type=int, default=3)
    p_bic.set_defaults(func=cmd_bic)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
