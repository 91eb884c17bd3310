"""`python -m ebmix`, run in a fresh interpreter: `__main__` hands its exit code to the shell."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_module(*args, cwd):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-m", "ebmix", *args], cwd=cwd, env=env, capture_output=True, text=True
    )


def test_help_exits_zero(tmp_path):
    done = run_module("--help", cwd=tmp_path)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: ebmix ")
    assert done.stderr == ""


def test_missing_input_exits_one_with_one_error_line(tmp_path):
    done = run_module("fit", "--input", "absent.csv", "--family", "normal", cwd=tmp_path)
    assert done.returncode == 1
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR io: ")
    assert "absent.csv" in lines[0]
