"""The ebmix names the benchmark under bench/ reaches, checked without importing bench/.

bench/tracing.py wraps the (module, attribute) pairs in its TRACED table
by name, and bench/workloads.py and bench/replay.py call module
functions such as ``cli._fmt`` and ``baseball.synthetic_season(...)``;
bench/workloads.py also runs ``ebmix fit|estimate|calibrate`` argv lists.
A rename, a deleted keyword or a changed flag would fail every benchmark
run, so these tests read bench/ as source and resolve each name on ebmix
and parse each argv list with the CLI's parser.  One test imports
bench/tracing.py and bench/replay.py, to run their hooks around a fit.
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from ebmix import FitConfig, NullMode, Observations, cli, families, mixture

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tree(name):
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _traced():
    for node in _tree("tracing.py").body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TRACED table")


def _resolve(module, attr):
    obj = importlib.import_module(f"ebmix.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def _module_calls():
    """(file, module, attribute, keyword names) for each ``module.attr(...)`` call on an ebmix module."""
    calls = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = _tree(path.name)
        modules = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "ebmix"
            for alias in node.names
        }
        for node in ast.walk(tree):
            func = node.func if isinstance(node, ast.Call) else None
            if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in modules:
                keywords = tuple(sorted(k.arg for k in node.keywords if k.arg is not None))
                calls.add((path.name, func.value.id, func.attr, keywords))
    return sorted(calls)


def test_traced_table_is_read():
    assert ("cli", "main") in _traced()


@pytest.mark.parametrize("module, attr", _traced(), ids=lambda v: v)
def test_traced_name_resolves(module, attr):
    assert callable(_resolve(module, attr))


def test_workloads_format_with_cli_fmt():
    assert any(call[1:3] == ("cli", "_fmt") for call in _module_calls())
    assert callable(_resolve("cli", "_fmt"))


@pytest.mark.parametrize("call", _module_calls(), ids=lambda c: f"{c[0]}:{c[1]}.{c[2]}")
def test_bench_call_resolves_with_its_keywords(call):
    _, module, attr, keywords = call
    fn = _resolve(module, attr)
    inspect.signature(fn).bind_partial(**dict.fromkeys(keywords))


SUBCOMMANDS = ("fit", "estimate", "simulate", "calibrate", "bic")


def _cli_argvs():
    """(file, argv) for each list literal in bench/ that starts with a subcommand name.

    An element that is not a string literal (a path held in a variable)
    becomes the placeholder "0", which every option type accepts.
    """
    argvs = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(_tree(path.name)):
            if not (isinstance(node, ast.List) and node.elts):
                continue
            argv = [e.value if isinstance(e, ast.Constant) and isinstance(e.value, str) else "0" for e in node.elts]
            if argv[0] in SUBCOMMANDS:
                argvs.append((path.name, argv))
    return argvs


def test_bench_argvs_are_found():
    assert {argv[0] for _, argv in _cli_argvs()} >= {"fit", "estimate", "calibrate"}


@pytest.mark.parametrize("name, argv", _cli_argvs(), ids=lambda v: v if isinstance(v, str) else v[0])
def test_bench_argv_parses(name, argv):
    try:
        cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"{name}: ebmix {' '.join(argv)} does not parse (exit {exc.code})")


@pytest.mark.parametrize("max_iters, converged", [(5, False), (1000, True)], ids=["capped", "converged"])
def test_em_fit_maps_through_module_globals(monkeypatch, max_iters, converged):
    """A fit of I maps calls ``mixture.m_step`` I times and ``mixture.e_step`` I + 1 times.

    bench/tracing.FitLog counts maps by wrapping these two module
    globals, so ``_run_em`` must reach them by name, once per map.
    """
    calls = {"m_step": 0, "e_step": 0}
    for name in calls:
        real = getattr(mixture, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(mixture, name, counted)
    data = Observations.normal(np.random.default_rng(3).normal(size=200))
    diag = mixture.em_fit(data, mixture.FitConfig(n_restarts=1, max_iters=max_iters)).diagnostics
    assert diag.converged is converged and diag.iterations > 1
    assert calls == {"m_step": diag.iterations, "e_step": diag.iterations + 1}


@pytest.mark.parametrize(
    "s2, null_mode",
    [
        pytest.param("unit", NullMode.EMPIRICAL, id="unit"),
        pytest.param("varying", NullMode.EMPIRICAL, id="varying"),
        pytest.param("varying", NullMode.THEORETICAL, id="varying-theoretical"),
    ],
)
def test_replayed_map_repeats_its_work(monkeypatch, s2, null_mode):
    """bench/replay.py prices a map by repeating ``m_step`` then ``e_step`` on one captured state.

    Each repeat must call the kernel functions as often as the first, so
    no cache keyed on the state can make a replayed map cheaper than a
    map inside EM.  Every map computes one kernel, in its E-step, whatever
    the s2 and the null; the M-step computes none.
    """
    rng = np.random.default_rng(4)
    scale = np.ones(300) if s2 == "unit" else rng.uniform(0.5, 2.0, 300)
    data = Observations.normal(rng.normal(size=300) * np.sqrt(scale), scale)
    config = FitConfig(n_components=3, null_mode=null_mode)
    model = mixture.initialize(data, config)
    w, _ = mixture.e_step(data, model)
    counts = {"normal_logpdf": 0, "log_marginal_matrix": 0}
    for name in counts:
        real = getattr(families, name)

        def counted(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(families, name, counted)
    work = []
    for _ in range(3):
        before = dict(counts)
        updated, _ = mixture.m_step(data, w, config, model)
        after_m = dict(counts)
        mixture.e_step(data, updated)
        work.append([{name: b[name] - a[name] for name in counts} for a, b in ((before, after_m), (after_m, counts))])
    none, one = {"normal_logpdf": 0, "log_marginal_matrix": 0}, {"normal_logpdf": 1, "log_marginal_matrix": 1}
    assert work == [[none, one]] * 3


def test_bench_hooks_see_one_kernel_span_per_e_step(monkeypatch):
    """A fit traced and then replayed as bench/ does.

    The span tree stays consistent, with one ``log_marginal_matrix`` span
    per E-step, inside it.  The replayed maps make one kernel call per
    E-step, and ``normal_logpdf`` runs once per kernel.
    """
    monkeypatch.syspath_prepend(str(BENCH))
    tracing, replay = importlib.import_module("tracing"), importlib.import_module("replay")
    rng = np.random.default_rng(9)
    data = Observations.normal(rng.normal(size=2000) + np.where(rng.uniform(size=2000) < 0.1, 3.0, 0.0))
    log, tracer = tracing.FitLog(capture_every=1), tracing.Tracer()
    root = tracer.open(tracing.ROOT)
    with tracing.instrumented(log, tracer):
        mixture.em_fit(data, FitConfig(n_restarts=2))
    tracer.close(root)
    assert tracing.check_tree(tracer.spans) == []
    e_steps = [s for s in tracer.spans if s.name == "mixture.e_step"]
    kernels = [s for s in tracer.spans if s.name == "families.log_marginal_matrix"]
    assert len(e_steps) == sum(r["e_steps"] for r in log.fits[0]["restarts"]) > 2
    assert [k.parent for k in kernels] == e_steps
    assert all(k.counts == {"cells": 3 * 2000} for k in kernels)

    calls = {"normal_logpdf": [], "log_marginal_matrix": []}
    for name, made in calls.items():

        def counted(*args, _real=getattr(families, name), _made=made):
            _made.append(None)
            return _real(*args)

        monkeypatch.setattr(families, name, counted)
    rounds = 3
    replay.em_step_cost(log.first_steps, rounds, reference=lambda: 1.0)
    maps = rounds * len(log.first_steps)
    assert len(log.first_steps) == 2
    assert {name: len(made) for name, made in calls.items()} == {"normal_logpdf": maps, "log_marginal_matrix": maps}
