"""One single-threaded benchmark process, started by ``run.py``.

``--role setup`` imports ebmix, builds the workload's inputs and reports
how long that took from the moment ``run.py`` launched the process.
``--role measure`` does the same, then runs timed passes for
``--seconds`` and prints one JSON line with everything ``run.py`` reports.
"""

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import metrics
import refprobe
import tracing

ROOT = Path(__file__).resolve().parent.parent


class Pass:
    def __init__(self, unit, traced, outcome, log, tracer, ref):
        # keep only the artifacts' digests, so memory does not grow with the number of passes
        self.digests = {name: hashlib.sha256(data).hexdigest() for name, data in outcome.artifacts.items()}
        outcome.artifacts.clear()
        self.unit = unit
        self.ref = ref  # reference loop seconds: before, after and during the pass
        self.traced = traced
        self.outcome = outcome
        self.log = log
        self.tracer = tracer


def _run_pass(wl, unit, traced, capture=False):
    before = refprobe.reference()
    log = tracing.FitLog(probe=not traced, capture_every=wl.replay_every if capture else 0)
    tracer = tracing.Tracer() if traced else None
    with tracing.instrumented(log, tracer):
        if tracer is None:
            out = wl.timed(log, unit)
        else:
            with tracer.span(tracing.ROOT):
                out = wl.timed(log, unit)
    wl.check(out)
    out.ops += len(log.fits)
    out.failures += [f"em_fit: {f['error']}" for f in log.fits if f["error"] is not None]
    if tracer is not None:
        out.failures += [f"span tree: {p}" for p in tracing.check_tree(tracer.spans)]
    return Pass(unit, traced, out, log, tracer, [before, refprobe.reference(), *log.refs])


def _run(wl, seconds, trace):
    """Passes over the workload's units in order, every unit at least once.

    After that the units repeat while another round should end within
    ``seconds``.  With ``trace`` every pass is traced, and the last unit
    also runs untraced just before, so the tracing overhead is measured on
    the same input, once the process is warm, without running every unit
    twice.
    """
    passes = []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        t0 = time.perf_counter()
        unit = i % wl.units
        for traced in ((False, True) if unit == wl.units - 1 else (True,)) if trace else (False,):
            # the start states to replay come from each unit's first untraced pass
            passes.append(_run_pass(wl, unit, traced, capture=not traced and i < wl.units))
        i += 1
        now = time.perf_counter()
        if i >= wl.units and 2 * now - t0 > deadline:
            return passes


def _timing(samples):
    return {"value": statistics.median(samples), "stat": "median", "n": len(samples), "tail": metrics.tail(samples)}


def _by_unit(passes):
    """{unit: [passes]} in unit order."""
    out = {}
    for p in passes:
        out.setdefault(p.unit, []).append(p)
    return dict(sorted(out.items()))


def _non_em(p):
    """A pass's time outside ``em_fit`` calls, in seconds."""
    return p.outcome.wall - sum(f["seconds"] for f in p.log.fits)


def _layer_values(passes):
    """Per-layer metrics pooled over passes: counts and self times add up, ratios are of the totals."""
    spans = [s for p in passes for s in p.tracer.spans]
    values = metrics.span_metrics(spans, [t for p in passes for t in tracing.self_times(p.tracer.spans)])
    values.update(metrics.fit_metrics([f for p in passes for f in p.log.fits]))
    calibrations = [c for p in passes for c in p.log.calibrations]
    cells = sum(c for c, _ in calibrations)
    values["calibration.cells"] = cells
    values["calibration.failed_cell_ratio"] = sum(f for _, f in calibrations) / cells if cells else 0.0
    values["failed_frac"] = sum(len(p.outcome.failures) for p in passes) / sum(p.outcome.ops for p in passes)
    for name in ("fdr_score", "tse_ratio"):
        values[name] = statistics.fmean(p.outcome.values.get(name, 0.0) for p in passes)
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--role", choices=["setup", "measure"], required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--fits-file", default=None)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import ebmix
    import ebmix.cli  # noqa: F401  (loads every module the workloads reach)

    if Path(ebmix.__file__).resolve().parent != ROOT / "src" / "ebmix":
        sys.exit(f"ebmix was imported from {ebmix.__file__}, not from this checkout's src/")
    import replay
    import workloads

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOAD_TYPES[args.workload](args.seed, args.small, workdir)
    setup_s = time.monotonic() - args.launched
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    passes = _run(wl, args.seconds, args.trace)
    # every pass of one unit must produce the same bytes; a run that had room
    # for each unit once re-runs unit 0 to have something to compare
    if all(len(ps) == 1 for ps in _by_unit(passes).values()):
        passes.append(_run_pass(wl, 0, False))
    failures = [f for p in passes for f in p.outcome.failures]
    attempted = sum(p.outcome.ops for p in passes)
    for unit, ps in _by_unit(passes).items():
        reference = ps[0].digests
        attempted += len(ps) - 1  # one determinism check per repeat
        for p in ps[1:]:
            failures += [f"determinism: {name} of unit {unit} differs between passes"
                         for name, digest in p.digests.items() if reference.get(name) != digest]

    untraced = [p for p in passes if not p.traced]
    # quality numbers come from each unit's first pass, so every run covers the same inputs
    firsts = [ps[0] for ps in _by_unit(passes).values()]
    e2e = {"wall_s": _timing([p.outcome.wall for p in untraced])}
    fit_samples = [t for p in untraced for t in (p.outcome.fit_times or [f["seconds"] for f in p.log.fits])]
    if fit_samples:
        e2e["fit_s"] = _timing(fit_samples)
        fit_tail = metrics.tail(fit_samples)
        if fit_tail is not None:
            e2e["fit_tail_s"] = {"value": fit_tail[1], "stat": fit_tail[0], "n": len(fit_samples)}
    for name in untraced[0].outcome.times:
        e2e[name] = _timing([p.outcome.times[name] for p in untraced])
    # replayed after the timed passes, so the replays do not slow them (replay.py)
    states = wl.replay_states([s for p in untraced for s in p.log.first_steps])
    if states:
        step_s, step_ref = replay.em_step_cost(states, wl.replay_rounds, wl.replay_reference)
        stat = f"fastest of {wl.replay_rounds} replays, median over states"
        e2e["em_step_ms"] = {"value": 1e3 * step_s, "stat": stat, "n": len(states)}
        e2e["em_step_ref"] = {"value": step_ref, "stat": stat, "n": len(states)}
    # The host's speed drifts by up to a half within a run; it only ever slows a process
    # down, so the fastest pass holds steady where medians drift.
    non_em = min(_non_em(p) for p in untraced)
    e2e["non_em_s"] = {"value": non_em, "stat": "min", "n": len(untraced)}
    # each pass over its own fastest reference loop, so a pass that ran while the host was slow is not penalized
    e2e["non_em_ref"] = {"value": min(_non_em(p) / min(p.ref) for p in untraced), "stat": "min", "n": len(untraced)}
    quality = metrics.fit_metrics([f for p in firsts for f in p.log.fits])
    for name in ("unconverged_frac", "nll_per_case"):
        if name in quality:
            e2e[name] = {"value": quality[name]}
    for name in firsts[0].outcome.values:
        e2e[name] = {"value": statistics.fmean(p.outcome.values[name] for p in firsts)}
    e2e["failed_frac"] = {"value": len(failures) / attempted}
    e2e["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    e2e["setup_s"] = {"value": setup_s}

    layers = {}
    traced = _by_unit([p for p in passes if p.traced])
    if traced:
        # each unit's first traced pass, so every run pools the same inputs
        layers = _layer_values([ps[0] for ps in traced.values()])
        walls = _by_unit(untraced)
        layers["trace.overhead_s"] = statistics.median(
            statistics.median(p.outcome.wall for p in ps) - statistics.median(p.outcome.wall for p in walls[u])
            for u, ps in traced.items()
            if u in walls
        )

    if args.fits_file:
        with open(args.fits_file, "w", encoding="utf-8") as fh:
            for i, fit in enumerate(f for p in firsts for f in p.log.records()):
                fh.write(json.dumps({"fit": i, **fit}, sort_keys=True) + "\n")

    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    print(json.dumps({
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "blas": f"{blas['name']}-{blas['version']}"},
        "passes": len(untraced),
        "traced_passes": sum(map(len, traced.values())),
        "hash": hashlib.sha256(json.dumps([p.digests for p in firsts], sort_keys=True).encode()).hexdigest(),
        "attempted": attempted,
        "failures": failures,
        "e2e": e2e,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
