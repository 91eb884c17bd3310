"""The ebmix names the benchmark under bench/ reaches, checked without importing bench/.

bench/tracing.py wraps the (module, attribute) pairs in its TRACED table
by name, and bench/workloads.py and bench/replay.py call module
functions such as ``cli._fmt`` and ``baseball.synthetic_season(...)``.
A rename or a deleted keyword would fail every benchmark run, so these
tests read bench/ as source and resolve each name on ebmix.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

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
