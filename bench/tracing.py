"""Spans and fit records around ebmix's public functions.

The benchmark never edits the package.  It wraps functions from outside
for the duration of one timed pass.  A function imported into another
module with ``from ... import`` is bound there under its own name, so
every ebmix module global that refers to the same function object is
wrapped, not only the defining module's.

Two things are recorded:

* ``FitLog`` (always on, a few counters per EM step): per-fit and
  per-restart outcomes for the same-answer record, the wall time of
  every ``em_fit`` call, and the inputs of the first M-step of every
  ``capture_every``-th restart, for ``replay.py``.
* ``Tracer`` (traced passes only): one span per call of the functions in
  ``TRACED``, with the span that caused it, and counts taken at the same
  boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from time import perf_counter

import refprobe

PROBE_EVERY_S = 1.0

# (module, attribute) pairs wrapped in spans; "MixtureModel.sample" is a method.
TRACED = (
    ("cli", "main"),
    ("cli", "read_cases"),
    ("model_io", "serialize_model"),
    ("model_io", "parse_model"),
    ("families", "log_marginal_matrix"),
    ("mixture", "initialize"),
    ("mixture", "e_step"),
    ("mixture", "m_step"),
    ("mixture", "em_fit"),
    ("mixture", "_run_em"),
    ("mixture", "MixtureModel.sample"),
    ("inference", "posterior_summary"),
    ("inference", "rejection_threshold"),
    ("inference", "fdr_curve"),
    ("inference", "tail_fdr_curve"),
    ("calibration", "calibrate_penalty"),
    ("baseball", "run_baseball"),
    ("baseball", "posterior_mean_arcsin"),
)

# functions the fit log needs even when spans are off
LOGGED = {"mixture.em_fit", "mixture._run_em", "mixture.e_step", "mixture.m_step", "calibration.calibrate_penalty"}

ROOT = "bench.pass"


class Span:
    __slots__ = ("name", "parent", "start", "end", "counts")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = None
        self.counts = {}


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name):
        span = Span(name, self._stack[-1] if self._stack else None, perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span.end = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)


def self_times(spans):
    """Span duration minus the time covered by its direct children."""
    child = {id(s): 0.0 for s in spans}
    for s in spans:
        if s.parent is not None:
            child[id(s.parent)] += s.end - s.start
    return [(s.end - s.start) - child[id(s)] for s in spans]


def check_tree(spans):
    """Problems with a pass's span tree; an empty list means consistent.

    Every span but the root has a parent recorded in the same pass, every
    self time is >= 0, and the self times add up to the root's wall time.
    """
    problems = []
    roots = [s for s in spans if s.parent is None]
    if len(roots) != 1 or roots[0].name != ROOT:
        return [f"expected one {ROOT} root span, found {[s.name for s in roots]}"]
    members = {id(s) for s in spans}
    orphans = [s.name for s in spans if s.parent is not None and id(s.parent) not in members]
    if orphans:
        problems.append(f"spans whose parent is not in the pass: {sorted(set(orphans))}")
    unclosed = [s.name for s in spans if s.end is None]
    if unclosed:
        return problems + [f"unclosed spans: {sorted(set(unclosed))}"]
    selfs = self_times(spans)
    negative = [s.name for s, t in zip(spans, selfs) if t < -1e-9]
    if negative:
        problems.append(f"negative self time in {sorted(set(negative))}")
    wall = roots[0].end - roots[0].start
    if abs(sum(selfs) - wall) > 1e-9 * max(1.0, len(spans)):
        problems.append(f"self times sum to {sum(selfs)!r}, root wall is {wall!r}")
    return problems


class FitLog:
    """Per-fit and per-restart outcomes of every ``em_fit`` call in a pass.

    With ``probe=True`` it also times the reference loop about once a
    second, between EM steps, so that the host's speed is sampled at the
    same moments as the steps (one loop, about 2 ms: 0.2% of the pass).
    """

    def __init__(self, probe=False, capture_every=0):
        self.fits = []
        self.refs = []
        self._next_probe = perf_counter() if probe else float("inf")
        self.calibrations = []  # (cells, failed cells) per calibrate_penalty call
        self.first_steps = []  # (args, kwargs) of the first m_step call of captured restarts
        self._capture_every = capture_every
        self._restarts_seen = 0
        self._capture = False
        self._fit = None
        self._restart = None

    def records(self):
        """Same-answer records: no timings, so passes of one seed compare equal."""
        return [{k: v for k, v in f.items() if k != "seconds"} for f in self.fits]


def _m_step_label(args, kwargs):
    data = args[0] if args else kwargs["data"]
    if data.family.value == "binomial":
        return "binomial"
    return "normal_equal" if data.s2.min() == data.s2.max() else "normal_varying"


def _hooks(key, log):
    """(before, after, on_error) callbacks that feed the fit log."""

    def em_fit_before(args, kwargs):
        log._fit = {"n": len(args[0]), "restarts": [], "winner": None, "error": None, "seconds": perf_counter()}

    def em_fit_after(args, kwargs, result):
        fit, log._fit = log._fit, None
        fit["seconds"] = perf_counter() - fit["seconds"]
        diag = result.diagnostics
        for r in fit["restarts"]:
            if r.pop("model_id", None) == id(result):
                fit["winner"] = r["restart"]
        fit.update(iterations=diag.iterations, converged=diag.converged, pll=diag.penalized_loglik)
        log.fits.append(fit)

    def em_fit_error(args, kwargs, exc):
        fit, log._fit = log._fit, None
        fit["seconds"] = perf_counter() - fit["seconds"]
        for r in fit["restarts"]:
            r.pop("model_id", None)
        fit["error"] = f"{type(exc).__name__}: {exc}"
        log.fits.append(fit)

    def run_em_before(args, kwargs):
        config = args[1]
        log._restart = {"restart": args[2], "max_iters": config.max_iters, "e_steps": 0, "m_steps": 0}
        log._capture = bool(log._capture_every) and log._restarts_seen % log._capture_every == 0
        log._restarts_seen += 1

    def run_em_after(args, kwargs, result):
        r, log._restart = log._restart, None
        diag = result.diagnostics
        r.update(
            iterations=diag.iterations,
            converged=diag.converged,
            pll=diag.penalized_loglik,
            error=None,
            model_id=id(result),
        )
        if log._fit is not None:
            log._fit["restarts"].append(r)

    def run_em_error(args, kwargs, exc):
        r, log._restart = log._restart, None
        r.update(iterations=None, converged=False, pll=None, error=f"{type(exc).__name__}: {exc}")
        if log._fit is not None:
            log._fit["restarts"].append(r)

    def step_before(field):
        def before(args, kwargs):
            if log._restart is not None:
                log._restart[field] += 1
            now = perf_counter()
            if now >= log._next_probe:
                log.refs.append(refprobe.reference(repeats=1))
                log._next_probe = now + PROBE_EVERY_S

        return before

    count_m_step = step_before("m_steps")

    def m_step_before(args, kwargs):
        if log._capture:
            log.first_steps.append((args, kwargs))
            log._capture = False
        count_m_step(args, kwargs)

    def calibrate_after(args, kwargs, result):
        log.calibrations.append((int(result.failed.size), int(result.failed.sum())))

    table = {
        "mixture.em_fit": (em_fit_before, em_fit_after, em_fit_error),
        "mixture._run_em": (run_em_before, run_em_after, run_em_error),
        "mixture.e_step": (step_before("e_steps"), None, None),
        "mixture.m_step": (m_step_before, None, None),
        "calibration.calibrate_penalty": (None, calibrate_after, None),
    }
    return table.get(key, (None, None, None))


def _count_after(key):
    """Work counts taken where the work happens, stored on the call's span."""
    if key == "families.log_marginal_matrix":
        return lambda a, k, r, s: s.counts.update(cells=r.shape[0] * r.shape[1])
    if key == "cli.read_cases":
        return lambda a, k, r, s: s.counts.update(rows=len(r[0]))
    if key == "model_io.serialize_model":
        return lambda a, k, r, s: s.counts.update(bytes=len(r.encode("utf-8")))
    if key == "model_io.parse_model":
        return lambda a, k, r, s: s.counts.update(bytes=len((a[0] if a else k["text"]).encode("utf-8")))
    if key == "inference.posterior_summary":
        return lambda a, k, r, s: s.counts.update(cases=len(r.effect_mean))
    return None


def _wrap(fn, key, tracer, log):
    before, after, on_error = _hooks(key, log)
    count = _count_after(key) if tracer is not None else None
    labelled = key == "mixture.m_step"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = None
        if tracer is not None:
            name = f"{key}.{_m_step_label(args, kwargs)}" if labelled else key
            span = tracer.open(name)
        if before is not None:
            before(args, kwargs)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if span is not None:
                tracer.close(span)
            if on_error is not None:
                on_error(args, kwargs, exc)
            raise
        if span is not None:
            tracer.close(span)
        if after is not None:
            after(args, kwargs, result)
        if count is not None:
            count(args, kwargs, result, span)
        return result

    return wrapper


@contextlib.contextmanager
def instrumented(log, tracer=None):
    """Wrap ebmix functions for the body of the ``with`` block, then restore them.

    With ``tracer=None`` only the fit-log functions are wrapped, so an
    untraced pass pays a counter update and a clock read per EM step.
    """
    modules = {name[len("ebmix."):]: mod for name, mod in sys.modules.items() if name.startswith("ebmix.")}
    bindings = [m for name, m in sys.modules.items() if name == "ebmix" or name.startswith("ebmix.")]
    undo = []
    try:
        for mod_name, attr in TRACED:
            key = f"{mod_name}.{attr}"
            if tracer is None and key not in LOGGED:
                continue
            mod = modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, _wrap(original, key, tracer, log))
                undo.append((cls, meth, original))
                continue
            original = getattr(mod, attr)
            wrapper = _wrap(original, key, tracer, log)
            for m in bindings:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapper)
                        undo.append((m, name, original))
        yield
    finally:
        for target, name, original in reversed(undo):
            setattr(target, name, original)
