"""The three benchmark workloads: inputs, one timed pass, correctness gates.

Each workload draws its inputs from the workload seed before timing
starts and drives ebmix from outside, through ``cli.main`` and the
public functions of its modules.  A pass is one unit of the workload
(screen: its one dataset; calibrate: one of several datasets; baseball:
one season): ``timed(log, unit)`` runs it and ``check(out)`` runs the
correctness gates on what it wrote.  The program itself always runs with
its default ``--seed``; only the generated inputs depend on the
workload seed (baseball's synthetic seasons are the exception: there the
season generator's seed is the input).
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ebmix import baseball, cli, inference, mixture, model_io
from ebmix.errors import EbmixError
from ebmix.families import Observations

import refprobe

QS = (0.01, 0.02, 0.05, 0.1, 0.2)
KINDS = ("fdr", "FDR")
NONNULL_SHARE = 0.05
EFFECT_RANGE = (2.0, 4.0)
REPLAY_SEASON_BASE = 1000  # season indexes of the baseball replay seasons, past any timed season


@dataclass
class Outcome:
    """What one pass did: timings, hashed artifacts and failed operations."""

    wall: float = 0.0
    times: dict = field(default_factory=dict)  # other per-pass timings, e.g. estimate_s
    fit_times: list = field(default_factory=list)  # CLI fit calls; em_fit calls come from the fit log
    artifacts: dict = field(default_factory=dict)  # name -> bytes, hashed for the determinism check
    values: dict = field(default_factory=dict)  # per-pass quality numbers, e.g. fdr_score
    ops: int = 0
    failures: list = field(default_factory=list)

    def op(self, ok, message):
        self.ops += 1
        if not ok:
            self.failures.append(message)
        return ok

    def gate(self, name, fn, *args):
        """Run one correctness gate; returns its value, or None when it fails."""
        self.ops += 1
        try:
            return fn(*args)
        except Exception as exc:  # a gate that crashes has failed as well; keep why
            detail = str(exc) if isinstance(exc, GateFailed) else f"{type(exc).__name__}: {exc}"
            self.failures.append(f"gate {name}: {detail}")
            return None


class GateFailed(Exception):
    """A correctness gate found a wrong output."""


def call_cli(argv):
    """Run ``ebmix <argv>`` in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _keep_fits(out, log):
    """Store the pass's same-answer records as an artifact, so determinism covers them."""
    out.artifacts["fits"] = json.dumps(log.records(), sort_keys=True).encode()


def _cli_op(outcome, argv, result):
    code, _, err = result
    return outcome.op(code == 0, f"cli {argv[0]} exited {code}: {err.strip()}")


def _normal_cases(rng, n, s2):
    delta = np.zeros(n)
    k = int(round(NONNULL_SHARE * n))
    delta[rng.permutation(n)[:k]] = rng.uniform(*EFFECT_RANGE, k)
    return delta + np.sqrt(s2) * rng.standard_normal(n)


def _write_cases(path, z, s2=None):
    with open(path, "w", encoding="utf-8") as fh:
        if s2 is None:
            fh.write("id,z\n")
            fh.writelines(f"c{i:06d},{v!r}\n" for i, v in enumerate(z.tolist()))
        else:
            fh.write("id,z,s2\n")
            fh.writelines(f"c{i:06d},{v!r},{w!r}\n" for i, (v, w) in enumerate(zip(z.tolist(), s2.tolist())))


class Screen:
    """One large screen: ``ebmix fit``, ``ebmix estimate``, then 10 thresholds."""

    name = "screen"
    units = 1
    replay_every, replay_rounds = 1, 12  # replay the start state of every restart 12 times (replay.py)
    replay_reference = staticmethod(functools.partial(refprobe.reference, repeats=1))

    def __init__(self, seed, small, workdir):
        self.n = 2_000 if small else 100_000
        rng = np.random.default_rng([seed, 1])
        self.z = _normal_cases(rng, self.n, 1.0)
        self.cases = str(workdir / "cases.csv")
        self.model = str(workdir / "model.json")
        self.estimates = str(workdir / "estimates.csv")
        _write_cases(self.cases, self.z)
        # a fixed oracle sample: evenly spaced cases plus the largest |z|
        spaced = np.linspace(0, self.n - 1, 16).astype(int)
        self.sample = np.unique(np.concatenate([spaced, np.argsort(np.abs(self.z))[-4:]]))

    def timed(self, log, unit):
        out = Outcome()
        fit_argv = ["fit", "--input", self.cases, "--family", "normal", "--output", self.model]
        est_argv = ["estimate", "--model", self.model, "--input", self.cases, "--output", self.estimates]
        thresholds = {}
        t0 = perf_counter()
        fit = call_cli(fit_argv)
        t1 = perf_counter()
        est = call_cli(est_argv)
        t2 = perf_counter()
        try:
            model = model_io.read_model(self.model).model
        except (EbmixError, OSError) as exc:
            model = f"{type(exc).__name__}: {exc}"
        t3 = perf_counter()
        if not isinstance(model, str):
            for kind in KINDS:
                for q in QS:
                    try:
                        thresholds[(kind, q)] = inference.rejection_threshold(model, q, kind=kind)
                    except EbmixError as exc:
                        thresholds[(kind, q)] = f"{type(exc).__name__}: {exc}"
        t4 = perf_counter()
        out.wall = t4 - t0
        out.fit_times.append(t1 - t0)
        out.times.update(estimate_s=t2 - t1, threshold_s=t4 - t3)
        _cli_op(out, fit_argv, fit)
        _cli_op(out, est_argv, est)
        if out.op(not isinstance(model, str), f"read model: {model}"):
            for key, t in thresholds.items():
                out.op(isinstance(t, float), f"rejection_threshold{key}: {t}")
        out.artifacts["thresholds"] = repr(sorted(thresholds.items())).encode()
        _keep_fits(out, log)
        self._model = None if isinstance(model, str) else model
        self._thresholds = thresholds
        return out

    def replay_states(self, captured):
        return captured

    def check(self, out):
        text = _read(self.model)
        out.artifacts["model.json"] = text.encode()
        out.gate("model-roundtrip", _model_roundtrip, text)
        est = _read(self.estimates)
        out.artifacts["estimates.csv"] = est.encode()
        rows = out.gate("estimate-csv", self._estimate_rows, est)
        if self._model is None:
            return
        if rows is not None:
            out.gate("posterior-oracle", self._posterior_oracle, rows)
        out.gate("threshold-oracle", self._threshold_oracle)

    def _estimate_rows(self, text):
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        if header != ["id", "z", "effect_mean", "effect_var", "fdr", "FDR"]:
            raise GateFailed(f"header {header}")
        rows = list(reader)
        if len(rows) != self.n:
            raise GateFailed(f"{len(rows)} rows for {self.n} cases")
        for i, row in enumerate(rows):
            if row[0] != f"c{i:06d}":
                raise GateFailed(f"row {i} has id {row[0]}")
            z, mean, var, fdr, tail_fdr = map(float, row[1:])
            if not all(math.isfinite(v) for v in (z, mean, var, fdr, tail_fdr)):
                raise GateFailed(f"row {i} has a non-finite value: {row}")
            if var < 0.0 or not (0.0 <= fdr <= 1.0) or not (0.0 <= tail_fdr <= 1.0):
                raise GateFailed(f"row {i} out of range: {row}")
        return rows

    def _posterior_oracle(self, rows):
        import oracles  # tests/oracles.py; imported here so that setup_s leaves the gates' imports out

        comps = [(c.mean, c.var) for c in self._model.components]
        for i in self.sample:
            mean, var, _ = oracles.mixture_posterior_moments_quad(self.z[i], self._model.pi, comps)
            got_mean, got_var = float(rows[i][2]), float(rows[i][3])
            if not (math.isclose(got_mean, mean, rel_tol=1e-5, abs_tol=1e-6)
                    and math.isclose(got_var, var, rel_tol=1e-5, abs_tol=1e-6)):
                raise GateFailed(f"case {i}: ({got_mean!r}, {got_var!r}) vs quadrature ({mean!r}, {var!r})")
        return True

    def _threshold_oracle(self):
        import oracles
        from scipy.stats import norm

        pi = self._model.pi[:, None]
        mu = np.array([c.mean for c in self._model.components])[:, None]
        sd = np.sqrt(np.array([c.var for c in self._model.components]) + 1.0)[:, None]

        def fdr(z):
            dens = pi * norm.pdf(z[None, :], mu, sd)
            return dens[0] / dens.sum(axis=0)

        def tail_fdr(z):
            tails = pi * (norm.sf(z[None, :], mu, sd) + norm.cdf(-z[None, :], mu, sd))
            return tails[0] / tails.sum(axis=0)

        for (kind, q), got in self._thresholds.items():
            want = oracles.dense_threshold_scan(fdr if kind == "fdr" else tail_fdr, q)
            if want is None or not isinstance(got, float) or abs(got - want) > 1.1e-4:
                raise GateFailed(f"{kind} q={q}: {got!r} vs dense scan {want!r}")
        return True


class Calibrate:
    """``ebmix calibrate`` with the default plan, one heterogeneous-s2 dataset per pass.

    How long one dataset takes depends on how hard its preliminary fit
    makes the bootstrap fits (the spread is 0.35 of the mean over 20
    seeds), so a run covers ``units`` datasets drawn from the seed.
    """

    name = "calibrate"
    replay_every, replay_rounds = 10, 12  # 83 restarts per dataset: the start state of every 10th
    replay_reference = Screen.replay_reference

    def __init__(self, seed, small, workdir):
        self.n, self.units = (300, 2) if small else (1_000, 8)
        rng = np.random.default_rng([seed, 2])
        self.cases, self.scores = [], []
        for k in range(self.units):
            s2 = rng.uniform(0.5, 2.0, self.n)
            self.cases.append(str(workdir / f"cases-{k}.csv"))
            self.scores.append(str(workdir / f"scores-{k}.csv"))
            _write_cases(self.cases[k], _normal_cases(rng, self.n, s2), s2)
        # the default plan's candidates, restated here so the gate is independent
        self.candidates = np.linspace(100.0, self.n / 2.0, 20)

    def timed(self, log, unit):
        out = Outcome()
        argv = ["calibrate", "--input", self.cases[unit], "--bootstrap", "1", "--output", self.scores[unit]]
        t0 = perf_counter()
        result = call_cli(argv)
        out.wall = perf_counter() - t0
        _cli_op(out, argv, result)
        out.artifacts["stdout"] = result[1].encode()
        _keep_fits(out, log)
        for cells, failed in log.calibrations:
            out.ops += cells
            out.failures.extend(["calibration cell failed"] * failed)
        self._unit = unit
        return out

    def replay_states(self, captured):
        return captured

    def check(self, out):
        text = _read(self.scores[self._unit])
        out.artifacts["scores.csv"] = text.encode()
        chosen = out.gate("chosen-penalty", self._chosen, out.artifacts["stdout"].decode())
        scores = out.gate("scores", self._scores, text)
        if chosen is not None and scores is not None:
            out.values["fdr_score"] = float(np.mean([s for p, s in scores if p == chosen]))

    def _chosen(self, stdout):
        line = stdout.strip().splitlines()[-1] if stdout.strip() else ""
        if not line.startswith("chosen_P="):
            raise GateFailed(f"no chosen_P line in {stdout!r}")
        chosen = float(line.split("=", 1)[1])
        if chosen not in self.candidates:
            raise GateFailed(f"chosen P {chosen!r} is not a candidate")
        return chosen

    def _scores(self, text):
        reader = csv.reader(io.StringIO(text))
        if next(reader) != ["candidate_P", "perturbed_model_index", "bootstrap_index", "score"]:
            raise GateFailed("unexpected header")
        rows = [(float(r[0]), float(r[3])) for r in reader]
        want = self.candidates.size * 4  # 4 perturbed nulls, one bootstrap draw each
        if len(rows) != want:
            raise GateFailed(f"{len(rows)} score rows, expected {want}")
        bad = [r for r in rows if not (0.0 <= r[1] <= 1.0) or r[0] not in self.candidates]
        if bad:
            raise GateFailed(f"scores outside [0, 1] or unknown candidates: {bad[:3]}")
        return rows


class Baseball:
    """Synthetic seasons in order from season 0, as ``ebmix simulate baseball`` runs them.

    A season's time is set by how many EM iterations its restarts take,
    not by its size: seasons of 50, 100 and 250 players each take 1 s to
    17 s.  So a run covers five seasons of 100 players, which keeps the
    per-case likelihood comparable from seed to seed.
    """

    name = "baseball"
    replay_every, replay_rounds = 1, 4  # only the em_fit config is used; see replay_states
    replay_reference = staticmethod(refprobe.special_reference)

    def __init__(self, seed, small, workdir):
        self.seed = seed
        players, self.units = (60, 1) if small else (100, 5)
        self.seasons = [
            baseball.synthetic_season(n_players=players, seed=seed, season_index=s)[0] for s in range(self.units)
        ]
        # further seasons of the paper's 500 players, whose fits are only started, for replay_states
        players, count = (100, 1) if small else (500, 10)
        self.replay_data = []
        for s in range(REPLAY_SEASON_BASE, REPLAY_SEASON_BASE + count):
            records = baseball.synthetic_season(n_players=players, seed=seed, season_index=s)[0]
            self.replay_data.append(Observations.binomial([r.h1 for r in records], [r.n1 for r in records]))

    def timed(self, log, unit):
        out = Outcome()
        t0 = perf_counter()
        try:
            res = baseball.run_baseball(self.seasons[unit], n_components=3, groups=("overall",), seed=self.seed)
        except EbmixError as exc:
            res = f"{type(exc).__name__}: {exc}"
        out.wall = perf_counter() - t0
        _keep_fits(out, log)
        self._rows = []
        if out.op(not isinstance(res, str), f"season {unit}: {res}"):
            res = res.groups["overall"]
            self._rows = [(unit, m, res.tse[m], res.normalized_tse[m], res.prior_mean) for m in baseball.BASEBALL_METHODS]
        # the rows of ``ebmix simulate baseball``'s baseball_synthetic.csv
        out.artifacts["baseball.csv"] = "".join(",".join(cli._fmt(v) for v in row) + "\n" for row in self._rows).encode()
        return out

    def replay_states(self, captured):
        """Start states of fits of the further seasons, restart indexes 0, 1, 2, ... in turn.

        The timed seasons' own start states are too few, and 100-player
        seasons too varied, for the cost of a binomial step to hold from
        seed to seed.  A restart's jitter depends only on the fit's seed
        and the restart index, so each season gets restart indexes of
        its own; with the same three indexes in every season, the seed
        would pick one jitter for all of them.
        """
        if not captured:
            return []
        config = captured[0][0][2]  # the FitConfig run_baseball passed to em_fit
        states = []
        for data in self.replay_data:
            for _ in range(config.n_restarts):
                model = mixture.initialize(data, config, len(states))
                states.append(((data, mixture.e_step(data, model)[0], config, model), {}))
        return states

    def check(self, out):
        rows = self._rows
        naive = [r[3] for r in rows if r[1] == "naive"]
        out.op(naive == [1.0], f"gate naive-unit: naive normalized TSE {naive}")
        out.op(all(math.isfinite(v) for r in rows for v in r[2:]), f"gate finite: {rows}")
        mixture = [r[3] for r in rows if r[1] == "mixture"]
        if mixture:
            out.values["tse_ratio"] = mixture[0]


WORKLOAD_TYPES = {cls.name: cls for cls in (Screen, Calibrate, Baseball)}


def _model_roundtrip(text):
    again = model_io.serialize_model(model_io.parse_model(text))
    if again != text:
        raise GateFailed("re-serialized bytes differ")
    return True


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""
