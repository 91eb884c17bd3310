"""ebmix benchmark: end-to-end and per-layer metrics for three workloads.

    python3 bench/run.py --workload screen --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # screen, calibrate, baseball
    python3 bench/run.py --workload calibrate --trace 1   # per-layer metrics
    python3 bench/run.py --self-test               # small sizes, about 15 s

Run from anywhere inside a checkout; the package is loaded from the
checkout's ``src/``.  Each workload runs in one worker process at a time
with BLAS/OpenMP pinned to one thread.  ``--trace 0`` measures untraced
passes and reports end-to-end metrics; ``--trace 1`` traces every pass,
runs the last unit untraced as well, and reports per-layer metrics and
the tracing overhead.  Human-readable ``metric`` lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``bench/README.md`` for
the workloads and the layer-to-end-to-end map.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 0
SETUP_PROBES = 4  # extra set-up-only processes per run; set-up time is their median with the worker's
TIME_LIMIT_S = 170  # per workload; a worker still running then is killed


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _pinned_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def _worker(role, workload, seed, seconds, trace, small, workdir, deadline, fits_file=None):
    argv = [sys.executable, str(BENCH / "worker.py"), "--role", role, "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
            "--workdir", str(workdir)]
    if small:
        argv.append("--small")
    if fits_file:
        argv += ["--fits-file", str(fits_file)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{workload}: out of time before the {role} worker started")
    argv += ["--launched", repr(time.monotonic())]
    try:
        proc = subprocess.run(argv, env=_pinned_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: {role} worker killed after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload}: {role} worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace, small=False):
    """Run one workload; returns (printed lines, worker report)."""
    deadline = time.monotonic() + TIME_LIMIT_S
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}-{workload}"
    fits_file = OUT / f"{workload}-seed{seed}-trace{trace}-fits.jsonl"
    try:
        setups = [
            _worker("setup", workload, seed, seconds, trace, small, workdir, deadline)["setup_s"]
            for _ in range(0 if small else SETUP_PROBES)
        ]
        report = _worker("measure", workload, seed, seconds, trace, small, workdir, deadline, fits_file)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(report["e2e"]["setup_s"]["value"])
    report["e2e"]["setup_s"] = {"value": statistics.median(setups), "stat": "median", "n": len(setups)}
    report["fits_file"] = str(fits_file.relative_to(ROOT))
    return _lines(workload, seed, report), report


def _lines(workload, seed, report):
    lines = [f"workload {workload} seed {seed}: {report['passes']} untraced and "
             f"{report['traced_passes']} traced passes, output hash {report['hash'][:16]}",
             f"fits {report['fits_file']}"]
    for name, m in report["e2e"].items():
        line = f"metric {workload} {name} {m['value']!r} {metrics.unit_of(name)}"
        if "n" in m:
            line += f" {m['stat']} of n={m['n']}"
        if m.get("tail"):
            line += f" {m['tail'][0]}={m['tail'][1]!r}"
        lines.append(line)
    for name, value in report["layers"].items():
        if name not in report["e2e"]:
            lines.append(f"metric {workload} {name} {value!r} {metrics.unit_of(name)}")
    lines += [f"FAIL {workload}: {f}" for f in report["failures"][:50]]
    return lines


def _environment(report):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                timeout=10).stdout.strip()
    versions = " ".join(f"{k}={v}" for k, v in report["versions"].items())
    return f"env host={platform.node()} cpu={cpu!r} nproc={os.cpu_count()} {versions} commit={commit} threads=1"


def _contract():
    """{name: unit} of the end-to-end and of the per-layer metrics that BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def _result(reports, units):
    failed = sum(len(r["failures"]) for r in reports.values())
    out = {}
    for workload, r in reports.items():
        values = {**{k: v["value"] for k, v in r["e2e"].items()}, **r["layers"]}
        for name, unit in units.items():
            key = name if len(reports) == 1 else f"{workload}.{name}"
            # null only when nothing could be measured, e.g. every fit failed; correct is false then
            out[key] = {"value": values.get(name), "unit": unit}
    return {"correct": failed == 0, "attempted": sum(r["attempted"] for r in reports.values()),
            "failed": failed, "metrics": out}


def self_test():
    """Small sizes: every metric printed with its unit, span trees consistent."""
    problems = []
    printed = {}
    end_to_end, per_layer = _contract()
    for workload in metrics.WORKLOADS:
        lines, report = run_workload(workload, DEFAULT_SEED, 1.0, 1, small=True)
        print("\n".join(lines))
        for line in lines:
            if line.startswith("metric "):
                _, wl, name, _value, unit = line.split()[:5]
                printed.setdefault(name, set()).add(unit)
        if report["traced_passes"] < 1:
            problems.append(f"{workload}: no traced pass, span tree unchecked")
        problems += [f"{workload}: {f}" for f in report["failures"]]
        missing = [n for n in [*end_to_end, *per_layer] if n not in {**report["e2e"], **report["layers"]}]
        if missing:
            problems.append(f"{workload}: BENCHMARK.json metrics missing: {missing}")
    expected = {n: metrics.unit_of(n) for n in [*metrics.END_TO_END, *metrics.LAYER_METRICS]}
    for name, unit in {**expected, **end_to_end, **per_layer}.items():
        if printed.get(name) != {unit}:
            problems.append(f"metric {name} printed with units {printed.get(name)}, expected {unit}")
    for p in problems:
        print(f"SELF-TEST FAIL {p}")
    print(f"self-test {'failed' if problems else 'passed'}")
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=metrics.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true", dest="self_test")
    args = parser.parse_args(argv)
    # a terminated run stops its worker too: subprocess.run kills the child on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "ebmix" / "__init__.py").is_file():
        print(f"error: no ebmix package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return self_test()
        workloads = metrics.WORKLOADS if args.workload == "all" else (args.workload,)
        reports = {}
        for workload in workloads:
            lines, reports[workload] = run_workload(workload, args.seed, args.seconds, args.trace)
            if len(reports) == 1:
                print(_environment(reports[workload]))
            print("\n".join(lines), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    end_to_end, per_layer = _contract()
    print(json.dumps(_result(reports, per_layer if args.trace else end_to_end)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
