"""Explicit mode never loads scipy.optimize; the first kernel solve does.

Each check runs in a fresh interpreter: other test modules import
scipy.optimize themselves, so this process's ``sys.modules`` says
nothing about what flatdd loads.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import flatdd

_SRC = str(Path(flatdd.__file__).resolve().parents[1])

_SMALL_CASE = """
import numpy as np
from flatdd.basis import KernelSpec
from flatdd.plant import collect_trajectory, example1_model, simulate
from flatdd.simulation import SimProblem, dd_simulate

traj = collect_trajectory(example1_model(), 150, (-0.5, 0.5), seed=12)
u = np.random.default_rng(13).uniform(-0.5, 0.5, size=18)
y_init = simulate(example1_model(), np.zeros(2), u).flat[:2]

def kernel_simulation():
    return dd_simulate(SimProblem(traj, 20, u, y_init, "kernel", kernel=KernelSpec("gaussian"), lam=0.1))
"""


def _fresh_python(script: str, cwd: Path) -> dict:
    """Run ``script`` in a new interpreter and return the JSON it prints last."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_explicit_paths_leave_scipy_optimize_unloaded(tmp_path):
    script = _SMALL_CASE + """
import contextlib, io, json, sys, warnings
warnings.simplefilter("ignore")
loaded = {"import flatdd": "scipy.optimize" in sys.modules}

def step(name, run):
    with contextlib.redirect_stdout(io.StringIO()):
        run()
    loaded[name] = "scipy.optimize" in sys.modules

from flatdd.basis import named_basis
from flatdd.cli import main
from flatdd.experiments import ExperimentConfig, run_example1, run_generate
from flatdd.membership import flat_membership
from flatdd.signals import pe_check

basis = named_basis("example1-poly")
step("run_generate", lambda: run_generate(ExperimentConfig(seed=5, out_dir="gen")))
step("run_example1 explicit", lambda: run_example1(ExperimentConfig(seed=5, out_dir="ex1")))
step("dd_simulate explicit", lambda: dd_simulate(SimProblem(traj, 20, u, y_init, "explicit", basis=basis, lam=0.1)))
step("flat_membership", lambda: flat_membership(traj, basis, 20, u, simulate(example1_model(), y_init, u).flat))
step("pe_check", lambda: pe_check(traj.u, 20))
step("cli generate", lambda: main(["generate", "--seed", "5", "--out-dir", "cli"]))
step("cli check-pe", lambda: main(["check-pe", "--data", "cli/example1_data.csv", "--basis", "example1-poly"]))
step("dd_simulate kernel", kernel_simulation)
print(json.dumps(loaded))
"""
    loaded = _fresh_python(script, tmp_path)
    assert loaded.pop("dd_simulate kernel") is True
    assert loaded == dict.fromkeys(loaded, False)
    assert len(loaded) == 8


def test_patched_minimize_intercepts_a_kernel_solve(tmp_path):
    # as perfbench's tracer does: patch the module attribute after flatdd is imported
    script = _SMALL_CASE + """
import json
import scipy.optimize

calls = 0
minimize = scipy.optimize.minimize

def counted(*args, **kwargs):
    global calls
    calls += 1
    return minimize(*args, **kwargs)

scipy.optimize.minimize = counted
res = kernel_simulation()
print(json.dumps({"calls": calls, "iterations": res.iterations}))
"""
    seen = _fresh_python(script, tmp_path)
    assert seen["calls"] >= 1
    assert seen["iterations"] >= 1
