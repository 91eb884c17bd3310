"""Metric names, units and the layer-to-end-to-end map, plus their computation.

This module imports nothing from ebmix or numpy, so ``run.py`` can check
printed output against it without loading the package.
"""

from __future__ import annotations

import math
import statistics

WORKLOADS = ("screen", "calibrate", "baseball")

# name: unit; lower is better for all of them (see bench/README.md for which workloads report each)
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "fit_s": "s",
    "fit_tail_s": "s",
    "estimate_s": "s",
    "threshold_s": "s",
    "em_step_ms": "ms",
    "em_step_ref": "ref",
    "non_em_s": "s",
    "non_em_ref": "ref",
    "failed_frac": "ratio",
    "unconverged_frac": "ratio",
    "nll_per_case": "nats",
    "fdr_score": "mse",
    "tse_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# (layer metrics, end-to-end metrics they should move, on, predicted no move on)
LAYER_MAP = (
    (("cli.main.self_s", "cli.read_cases.self_s", "cli.read_cases.rows"),
     ("non_em_s", "estimate_s", "fit_s"), ("screen",), ("baseball",)),
    (("model_io.serialize_model.self_s", "model_io.parse_model.self_s", "model_io.bytes"),
     ("estimate_s",), ("screen",), ("calibrate", "baseball")),
    (("families.log_marginal_matrix.calls", "families.log_marginal_matrix.self_s",
      "families.log_marginal_matrix.cells", "families.log_marginal_matrix.cells_per_s"),
     ("em_step_ms", "fit_s"), ("screen",), ("calibrate",)),
    (("mixture.e_step.calls", "mixture.e_step.self_s"),
     ("em_step_ms", "fit_s", "wall_s"), ("screen", "calibrate"), ("non_em_s",)),
    (("mixture.m_step.self_s",),
     ("em_step_ms", "fit_s"), WORKLOADS, ("non_em_s",)),
    (("mixture.m_step.normal_equal.calls", "mixture.m_step.normal_equal.self_s"),
     ("em_step_ms", "fit_s"), ("screen",), ("calibrate",)),
    (("mixture.m_step.normal_varying.calls", "mixture.m_step.normal_varying.self_s"),
     ("em_step_ms", "fit_s", "fit_tail_s"), ("calibrate",), ("screen",)),
    (("mixture.m_step.binomial.calls", "mixture.m_step.binomial.self_s"),
     ("em_step_ms", "wall_s"), ("baseball",), ("screen", "calibrate")),
    (("mixture.initialize.calls", "mixture.em_fit.calls", "mixture.em_fit.self_s", "mixture._run_em.self_s"),
     ("fit_s",), WORKLOADS, ()),
    (("mixture.em.iters_per_fit", "mixture.em.useful_iter_ratio",
      "mixture.em.restart_fail_ratio", "mixture.em.max_iter_restart_ratio"),
     ("fit_s", "wall_s", "unconverged_frac", "failed_frac"), ("baseball", "calibrate"), ("em_step_ms", "estimate_s")),
    (("mixture.MixtureModel.sample.calls", "mixture.MixtureModel.sample.self_s"),
     ("non_em_s",), ("calibrate",), ("screen",)),
    (("inference.posterior_summary.self_s", "inference.posterior_summary.cases_per_s"),
     ("estimate_s", "non_em_s"), ("screen",), ("calibrate",)),
    (("inference.rejection_threshold.calls", "inference.rejection_threshold.self_s",
      "inference.rejection_threshold.curve_calls"),
     ("threshold_s", "non_em_s"), ("screen",), ("fit_s",)),
    (("inference.fdr_curve.calls", "inference.fdr_curve.self_s"),
     ("non_em_s", "wall_s"), ("calibrate",), ("baseball",)),
    (("calibration.calibrate_penalty.self_s", "calibration.cells", "calibration.failed_cell_ratio"),
     ("non_em_s", "wall_s", "failed_frac"), ("calibrate",), ()),
    (("baseball.run_baseball.self_s", "baseball.posterior_mean_arcsin.self_s"),
     ("tse_ratio", "non_em_s"), ("baseball",), ("wall_s",)),
    (("trace.overhead_s",), (), WORKLOADS, ()),
)

LAYER_METRICS = tuple(name for names, *_ in LAYER_MAP for name in names)


def unit_of(name):
    """Unit of a metric; layer metric units follow from the name's suffix."""
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def tail(samples):
    """(label, value) of the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            ordered = sorted(samples)
            return f"p{pct:g}", ordered[min(n - 1, math.ceil(pct / 100.0 * n) - 1)]
    return None


def fit_metrics(fits):
    """Fit-level metrics from a pass's fit log records."""
    returned = [f for f in fits if f["error"] is None]
    restarts = [r for f in fits for r in f["restarts"]]
    m_steps = sum(r["m_steps"] for r in restarts)
    useful = sum(f["iterations"] for f in returned)
    out = {
        "mixture.em.iters_per_fit": m_steps / len(fits) if fits else 0.0,
        "mixture.em.useful_iter_ratio": useful / m_steps if m_steps else 0.0,
        "mixture.em.restart_fail_ratio": _frac(restarts, lambda r: r["error"] is not None),
        "mixture.em.max_iter_restart_ratio": _frac(
            restarts, lambda r: r["error"] is None and not r["converged"] and r["iterations"] >= r["max_iters"]
        ),
        "unconverged_frac": _frac(returned, lambda f: not f["converged"]),
    }
    if returned:
        out["nll_per_case"] = statistics.fmean(-f["pll"] / f["n"] for f in returned)
    return out


def _frac(items, pred):
    return sum(1 for x in items if pred(x)) / len(items) if items else 0.0


def span_metrics(spans, selfs):
    """Per-layer counts and self times of one traced pass."""
    calls, self_s, counts = {}, {}, {}
    for span, t in zip(spans, selfs):
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + t
        for key, value in span.counts.items():
            counts[(span.name, key)] = counts.get((span.name, key), 0) + value
    out = {}
    for name in LAYER_METRICS:
        base, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = calls.get(base, 0)
        elif field == "self_s":
            if base == "mixture.m_step":
                out[name] = sum(v for k, v in self_s.items() if k.startswith("mixture.m_step."))
            else:
                out[name] = self_s.get(base, 0.0)
    lmm = "families.log_marginal_matrix"
    out[f"{lmm}.cells"] = counts.get((lmm, "cells"), 0)
    out[f"{lmm}.cells_per_s"] = out[f"{lmm}.cells"] / self_s[lmm] if self_s.get(lmm) else 0.0
    out["cli.read_cases.rows"] = counts.get(("cli.read_cases", "rows"), 0)
    out["model_io.bytes"] = counts.get(("model_io.serialize_model", "bytes"), 0) + counts.get(
        ("model_io.parse_model", "bytes"), 0
    )
    ps = "inference.posterior_summary"
    ps_wall = sum(s.end - s.start for s in spans if s.name == ps)
    out[f"{ps}.cases_per_s"] = counts.get((ps, "cases"), 0) / ps_wall if ps_wall else 0.0
    out["inference.rejection_threshold.curve_calls"] = sum(
        1
        for s in spans
        if s.name in ("inference.fdr_curve", "inference.tail_fdr_curve")
        and s.parent is not None
        and s.parent.name == "inference.rejection_threshold"
    )
    return out
