"""Command-line inputs: malformed files, out-of-range settings, both modes of
the simulate and match commands."""
import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flatdd.basis import KernelSpec, named_basis
from flatdd.cli import main
from flatdd.errors import ConfigError
from flatdd.experiments import ExperimentConfig, reference_output, save_config
from flatdd.membership import flat_membership
from flatdd.plant import collect_trajectory, example1_model
from flatdd.signals import IoTrajectory, write_signal_csv, write_trajectory
from flatdd.simulation import SimProblem
from flatdd.solver import RidgeProblem

L = 20


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Valid files for every file flag, on a short example1 record."""
    d = tmp_path_factory.mktemp("cli")
    traj = collect_trajectory(example1_model(), 120, (-0.5, 0.5), seed=1)
    paths = {name: d / f"{name}.csv" for name in ("data", "candidate", "input", "init", "reference")}
    write_trajectory(paths["data"], traj)
    write_trajectory(paths["candidate"], IoTrajectory.from_arrays(traj.u.flat[10:28], traj.y.flat[10:30], 2))
    write_signal_csv(paths["input"], "u", traj.u.flat[40 : 40 + L - 2])
    write_signal_csv(paths["init"], "y", traj.y.flat[40:42])
    write_signal_csv(paths["reference"], "y", traj.y.flat[60 : 60 + L])
    paths["config"] = d / "run.cfg"
    save_config(ExperimentConfig(n_samples=120, horizon=L), paths["config"])
    paths["out"] = d / "out"
    paths["out"].mkdir()
    return paths


def _argv(command: str, files: dict, **replace) -> list[str]:
    f = {**{k: str(v) for k, v in files.items()}, **replace}
    out = f["out"]
    return {
        "simulate": ["simulate", "--data", f["data"], "--input", f["input"], "--init", f["init"],
                     "--out", f"{out}/y_est.csv"],
        "match": ["match", "--data", f["data"], "--reference", f["reference"], "--out", f"{out}/u_est.csv"],
        "check-membership": ["check-membership", "--data", f["data"], "--candidate", f["candidate"],
                             "--basis", "example1-poly"],
        "generate": ["generate", "--config", f["config"], "--out-dir", out],
    }[command]


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "command, extra",
    [
        ("simulate", ["--lambda", "inf"]),
        ("simulate", ["--mode", "kernel", "--sigma", "nan"]),
        ("simulate", ["--mode", "kernel", "--sigma", "1e-300"]),
        ("simulate", ["--rel-tol", "nan"]),
        ("match", ["--lambda", "nan"]),
        ("match", ["--rel-tol", "-1"]),
        ("match", ["--max-iter", "0"]),
        ("check-membership", ["--tol", "nan"]),
        ("check-membership", ["--tol", "-1"]),
        ("generate", ["--input-lo", "nan"]),
        ("generate", ["--noise-lo", "nan"]),
        ("generate", ["--seed", "-1"]),
        ("example1", ["--seed", "-1"]),
        ("example2", ["--seed", "-1"]),
        ("sweep", ["--seed", "-1", "--count", "1"]),
        ("generate", ["--model", "bogus"]),
        ("example1", ["--mode", "nope"]),
        ("example2", ["--horizon", "1", "--n-samples", "10"]),
        ("example2", ["--horizon", "0", "--n-samples", "10"]),
        ("sweep", ["--model", "example2", "--horizon", "1", "--n-samples", "10", "--count", "1"]),
        ("generate", ["--n-samples", "1", "--horizon", "0"]),
        # ranges whose width overflows a float
        ("generate", ["--input-lo=-1e308", "--input-hi=1e308"]),
        ("generate", ["--noise-lo=-1e308", "--noise-hi=1e308"]),
        ("example1", ["--noise-lo=-1e308", "--noise-hi=1e308"]),
        ("sweep", ["--model", "example2", "--input-lo=-1e308", "--input-hi=1e308", "--count", "1"]),
    ],
)
def test_cli_rejects_bad_settings(files, command, extra):
    if command in ("example1", "example2", "sweep"):
        argv = [command, "--out-dir", str(files["out"])]
    else:
        argv = _argv(command, files)
    code, _, err = _run(argv + extra)
    assert code == 1, err
    assert len(err.strip().splitlines()) == 1, err


def test_cli_reads_negative_values_in_exponent_form(files, tmp_path):
    # argparse's own pattern for negative numbers has no exponent and reads "-1e-3" as a flag
    code, out, err = _run(["generate", "--n-samples", "60", "--input-lo", "-1e-3", "--out-dir", str(tmp_path)])
    assert code == 0, err
    assert json.loads(out)["config"]["input_lo"] == -0.001
    code, _, err = _run(_argv("simulate", files) + ["--lambda", "-1e-3"])
    assert (code, err) == (1, "error: regularization weight must be finite and >= 0, got -0.001\n")


def test_cli_out_of_memory_is_one_line(monkeypatch):
    # the command is stubbed: nothing is allocated
    def exhausted(args):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type float64")

    monkeypatch.setattr("flatdd.cli._cmd_config", exhausted)
    code, out, err = _run(["generate", "--n-samples", "1000000000000"])
    assert (code, out) == (1, "")
    assert err == (
        "error: out of memory: Unable to allocate 7.28 TiB for an array with shape (1000000000000,) "
        "and data type float64\n"
    )


def _traj():
    return collect_trajectory(example1_model(), 120, (-0.5, 0.5), seed=1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: RidgeProblem(np.eye(2), np.ones(2), np.inf),
        lambda: RidgeProblem(np.eye(2), np.ones(2), np.nan),
        lambda: KernelSpec("gaussian", sigma=np.nan),
        lambda: KernelSpec("gaussian", sigma=1e-300),
        lambda: KernelSpec("gaussian", sigma=1e200),
        lambda: ExperimentConfig(input_lo=np.nan),
        lambda: ExperimentConfig(input_lo=-1e308, input_hi=1e308),
        lambda: ExperimentConfig(noise_lo=-1e308, noise_hi=1e308),
        lambda: ExperimentConfig(lam=np.inf),
        lambda: ExperimentConfig(seed=-1),
        lambda: ExperimentConfig(model="example2", n_samples=10, horizon=1),
        lambda: ExperimentConfig(n_samples=-5, horizon=-10),
        lambda: SimProblem(_traj(), L, np.zeros(L - 2), np.zeros(2), basis=named_basis("example1-poly"), lam=np.inf),
        lambda: SimProblem(_traj(), L, np.zeros(L - 2), np.zeros(2), basis=named_basis("example1-poly"), rel_tol=-1.0),
        lambda: flat_membership(_traj(), named_basis("example1-poly"), L, np.zeros(L - 2), np.zeros(L), tol=np.nan),
    ],
    ids=[
        "ridge-lam-inf", "ridge-lam-nan", "sigma-nan", "sigma-tiny", "sigma-huge", "config-input-lo-nan",
        "config-input-range-overflow", "config-noise-range-overflow",
        "config-lam-inf", "config-seed-negative", "config-horizon-below-order", "config-negative-sizes", "sim-lam-inf", "sim-rel-tol-negative", "membership-tol-nan",
    ],
)
def test_settings_rejected_where_they_enter(build):
    with pytest.raises(ConfigError):
        build()


def test_cli_rejects_config_file_with_horizon_below_order(files):
    config = files["out"] / "negative.cfg"
    config.write_text("n_samples = -5\nhorizon = -10\n", encoding="utf-8")
    code, _, err = _run(["generate", "--config", str(config), "--out-dir", str(files["out"])])
    assert code == 1, err
    assert err.splitlines() == ["error: horizon=-10 must exceed the order n=2 of model example1"]


@pytest.fixture(scope="module")
def order1_files(tmp_path_factory):
    """An order-1 record of y[k+1] = 0.5 u[k], and a window of it as candidate."""
    d = tmp_path_factory.mktemp("order1")
    u = np.random.default_rng(3).uniform(-1.0, 1.0, 80)
    y = np.concatenate([[0.0], 0.5 * u])
    paths = {"data": d / "data.csv", "candidate": d / "candidate.csv"}
    write_trajectory(paths["data"], IoTrajectory.from_arrays(u, y, 1))
    write_trajectory(paths["candidate"], IoTrajectory.from_arrays(u[30:39], y[30:40], 1))
    return {k: str(v) for k, v in paths.items()}


@pytest.mark.parametrize("command", ["check-pe", "check-membership"])
def test_cli_bases_take_the_order_of_the_data(order1_files, command):
    f = order1_files
    argv = {
        "check-pe": ["check-pe", "--data", f["data"], "--order", "5"],
        "check-membership": ["check-membership", "--data", f["data"], "--candidate", f["candidate"]],
    }[command]
    code, out, err = _run(argv + ["--basis", "identity-only"])
    assert code == 0, err
    if command == "check-membership":
        assert json.loads(out)["is_member"]
    code, _, err = _run(argv + ["--basis", "example1-poly"])
    assert code == 1
    assert err.splitlines() == ["error: basis 'example1-poly' is defined for n=2, got n=1"]


@pytest.mark.parametrize("command, estimate", [("simulate", "y_est"), ("match", "u_est")])
def test_cli_kernel_mode(files, command, estimate):
    code, out, err = _run(_argv(command, files) + ["--mode", "kernel", "--sigma", "1"])
    assert code == 0, err
    metrics = json.loads(out)
    saved = json.loads((files["out"] / f"{estimate}_metrics.json").read_text(encoding="utf-8"))
    assert saved == metrics
    assert metrics["objective"] <= metrics["initial_objective"]
    assert (files["out"] / f"{estimate}.csv").read_text().splitlines()[0] == f"k,{estimate}"


@pytest.mark.parametrize("command", ["simulate", "match"])
def test_cli_kernel_singular_gram_is_numerical_failure(files, command):
    code, _, err = _run(_argv(command, files) + ["--mode", "kernel", "--sigma", "1000", "--lambda", "1e-300"])
    assert code == 2, err
    assert err.splitlines() == [
        "numerical failure: gram matrix plus lam I is numerically singular at lam = 1e-300; increase lam"
    ]


def test_cli_prints_warning_as_one_line(tmp_path):
    # a constant input excites nothing, and the explicit match at lam 1e-10 is ill-conditioned
    code, _, err = _run([
        "generate", "--seed", "12", "--n-samples", "150", "--input-lo", "0.1", "--input-hi", "0.1",
        "--out-dir", str(tmp_path),
    ])
    assert code == 0, err
    write_signal_csv(tmp_path / "reference.csv", "y", reference_output(L))
    code, _, err = _run([
        "match", "--data", str(tmp_path / "example1_data.csv"), "--reference", str(tmp_path / "reference.csv"),
        "--lambda", "1e-10", "--out", str(tmp_path / "u_est.csv"),
    ])
    assert code == 0, err
    assert err.splitlines() == [
        "warning: PersistencyWarning: basis-function sequence is not persistently exciting of order L=20 "
        "(rank 63 of 120)",
        "warning: ConditioningWarning: normal equations have condition number 3.882e+12",
    ]


_FILE_FLAGS = {
    "data": "simulate",
    "input": "simulate",
    "init": "simulate",
    "reference": "match",
    "candidate": "check-membership",
    "config": "generate",
}


@settings(deadline=None, max_examples=150)
@given(flag=st.sampled_from(sorted(_FILE_FLAGS)), content=st.binary(max_size=200))
@example(flag="data", content=b"\xff")
@example(flag="config", content=b"seed = 1\xff\n")
@example(flag="reference", content=b"k,y\n0," + b"1" * 200_000 + b"\n")
def test_cli_file_flags_survive_arbitrary_bytes(files, flag, content):
    fuzzed = files["out"] / f"fuzz-{flag}"
    fuzzed.write_bytes(content)
    code, _, err = _run(_argv(_FILE_FLAGS[flag], files, **{flag: str(fuzzed)}))
    assert code in (0, 1, 2, 3)
    if code != 0:
        assert len(err.strip().splitlines()) == 1, err
