"""Smoke test of the two documented reproduction scripts, each run as a user runs it: in
a fresh interpreter, with its output directory given on the command line."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flatdd

_REPO = Path(__file__).resolve().parents[1]
_SRC = str(Path(flatdd.__file__).resolve().parents[1])


@pytest.mark.parametrize(
    "example, seed_line, medians",
    [
        ("example1", "seed 5: y_err_2 = {y_err_2:.4f}, u_err_2 = {u_err_2:.4f}", ["median_u_err_2", "median_y_err_2"]),
        ("example2", "seed 5: y_err_2 = {y_err_2:.4f}, converged = {converged}", ["median_y_err_2"]),
    ],
)
def test_reproduce_script_runs_seed_5_and_the_sweep(tmp_path, example, seed_line, medians):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, str(_REPO / "scripts" / f"reproduce_{example}.py"), str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    # the seed-5 line prints the metrics the run wrote
    single = json.loads((tmp_path / "seed_005" / f"{example}_metrics.json").read_text())
    assert done.stdout.splitlines()[0] == seed_line.format(**single)
    sweep = json.loads((tmp_path / "sweep" / "sweep_metrics.json").read_text())
    assert sorted(key for key in sweep if key.startswith("median")) == medians
