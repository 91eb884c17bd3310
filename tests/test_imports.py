"""Which scipy modules loading and running ebmix pulls in, checked in a fresh interpreter.

`import ebmix.cli` and a normal-family `fit` load no scipy at all.
scipy.special is imported inside the functions that use it, so its cost
moves to the first call: `estimate`, whose tail-area FDR uses `ndtr`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# one process, three steps; after each, the scipy modules then in sys.modules
SCRIPT = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

loaded = {}
from ebmix.cli import main
loaded["import"] = scipy_modules()
assert main(["fit", "--input", "cases.csv", "--family", "normal", "--output", "model.json"]) == 0
loaded["fit"] = scipy_modules()
assert main(["estimate", "--model", "model.json", "--input", "cases.csv", "--output", "out.csv"]) == 0
loaded["estimate"] = scipy_modules()
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


def test_import_cli_loads_no_scipy(loaded):
    assert loaded["import"] == set()


def test_normal_fit_loads_no_scipy(loaded):
    assert loaded["fit"] == set()


def test_estimate_loads_scipy_special(loaded):
    assert "scipy.special" in loaded["estimate"]
    assert "scipy.interpolate" not in loaded["estimate"]
