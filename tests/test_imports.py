"""Which scipy and thread-pool modules loading and running ebmix pulls in, checked in a fresh interpreter.

`import ebmix.cli` and a normal-family `fit` load no scipy at all.
scipy.special is imported inside the functions that use it, so its cost
moves to the first call: `estimate`, whose tail-area FDR uses `ndtr`.
Neither they nor an E-step and M-step on 60,000 cases load
`concurrent.futures`: every EM map runs in the calling thread.  That map
runs before `estimate`, since scipy.special loads `concurrent.futures`
itself.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# one process, four steps; after each, the scipy and concurrent modules then in sys.modules
SCRIPT = """
import json, sys

def watched_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "concurrent"))

loaded = {}
from ebmix.cli import main
loaded["import"] = watched_modules()
assert main(["fit", "--input", "cases.csv", "--family", "normal", "--output", "model.json"]) == 0
loaded["fit"] = watched_modules()
import numpy as np
from ebmix import FitConfig, Observations, e_step, initialize, m_step
data, config = Observations.normal(np.random.default_rng(0).standard_normal(60_000)), FitConfig()
model = initialize(data, config)
m_step(data, e_step(data, model)[0], config, model)
loaded["large-map"] = watched_modules()
assert main(["estimate", "--model", "model.json", "--input", "cases.csv", "--output", "out.csv"]) == 0
loaded["estimate"] = watched_modules()
print(json.dumps(loaded))
"""


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("imports")
    rows = "".join(f"c{i},{z}\n" for i, z in enumerate([-2.5, -0.3, 0.1, 0.4, 1.2, 2.8, 3.6, -1.1]))
    (workdir / "cases.csv").write_text("id,z\n" + rows, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=workdir, env=env, capture_output=True, text=True, check=True
    )
    return {step: set(mods) for step, mods in json.loads(done.stdout).items()}


def _scipy(modules):
    return {m for m in modules if m.split(".")[0] == "scipy"}


def test_import_cli_loads_no_scipy(loaded):
    assert _scipy(loaded["import"]) == set()


def test_normal_fit_loads_no_scipy(loaded):
    assert _scipy(loaded["fit"]) == set()


@pytest.mark.parametrize("step", ["import", "fit", "large-map"])
def test_no_thread_pool_is_loaded(loaded, step):
    assert {m for m in loaded[step] if m.split(".")[0] == "concurrent"} == set()


def test_estimate_loads_scipy_special(loaded):
    assert "scipy.special" in loaded["estimate"]
    assert "scipy.interpolate" not in loaded["estimate"]
