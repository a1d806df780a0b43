import importlib
import inspect
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from flatdd.basis import KernelSpec
from flatdd.cli import build_parser, main
from flatdd.errors import ConfigError
from flatdd.experiments import (
    ExperimentConfig,
    example2_defaults,
    load_config,
    run_example1,
    run_example2,
    run_generate,
    run_sweep,
    save_config,
)
from flatdd.plant import collect_trajectory, example1_model
from flatdd.signals import read_trajectory
from flatdd.window import WindowProblem


def test_config_round_trip(tmp_path):
    cfg = ExperimentConfig(seed=11, lam=0.007, input_lo=-0.123456789012345, out_dir="x")
    path = tmp_path / "run.cfg"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_config_missing_keys_keep_defaults(tmp_path):
    path = tmp_path / "partial.cfg"
    path.write_text("seed = 9\n\n# comment\nlam = 0.5\n", encoding="utf-8")
    cfg = load_config(path)
    assert cfg.seed == 9 and cfg.lam == 0.5
    assert cfg.n_samples == 500


def test_config_rejects_unknown_and_malformed(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("lambda_reg = 0.1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="lambda_reg"):
        load_config(bad)
    bad.write_text("seed 9\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="line 1"):
        load_config(bad)
    bad.write_text("seed = nine\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="seed"):
        load_config(bad)


def test_config_field_validation():
    with pytest.raises(ConfigError, match="model"):
        ExperimentConfig(model="example3")
    with pytest.raises(ConfigError, match="noise_lo"):
        ExperimentConfig(noise_lo=0.1, noise_hi=-0.1)
    with pytest.raises(ConfigError, match="n_samples"):
        ExperimentConfig(n_samples=40, horizon=50)
    with pytest.raises(ConfigError, match="basis"):
        ExperimentConfig(basis="")


def test_generate_contract(tmp_path):
    manifest = run_generate(ExperimentConfig(seed=1, out_dir=str(tmp_path)))
    lines = (tmp_path / "example1_data.csv").read_text().splitlines()
    assert len(lines) == 501
    assert lines[0] == "k,u,y"
    # the last n = 2 rows carry no input sample
    assert lines[-1].split(",")[1] == "" and lines[-2].split(",")[1] == ""
    assert lines[-3].split(",")[1] != ""
    assert manifest["persistency"]["kind"] == "basis"
    assert manifest["persistency"]["order_satisfied"] is True
    assert "out_dir" not in manifest["config"]
    assert json.loads((tmp_path / "example1_manifest.json").read_text()) == manifest


def test_generate_zero_noise_equals_plain_simulation(tmp_path):
    run_generate(
        ExperimentConfig(seed=3, noise_lo=0.0, noise_hi=0.0, out_dir=str(tmp_path))
    )
    stored = read_trajectory(tmp_path / "example1_data.csv")
    oracle = collect_trajectory(example1_model(), 500, (-0.5, 0.5), seed=3)
    assert np.array_equal(stored.y.flat, oracle.y.flat)
    assert np.array_equal(stored.u.flat, oracle.u.flat)


def test_example1_metrics_schema(tmp_path):
    metrics = run_example1(seed=5, out_dir=str(tmp_path))
    assert set(metrics) == {
        "config",
        "converged",
        "initial_objective",
        "iterations",
        "objective",
        "seed",
        "u_err_2",
        "y_err_2",
    }
    assert metrics["converged"] is True
    assert np.isfinite(metrics["y_err_2"]) and np.isfinite(metrics["u_err_2"])
    assert metrics["seed"] == 5
    assert metrics["config"]["lam"] == 0.1
    saved = json.loads((tmp_path / "example1_metrics.json").read_text())
    assert saved == metrics


def test_example1_byte_identical_reruns(tmp_path):
    run_example1(seed=7, out_dir=str(tmp_path / "a"))
    run_example1(seed=7, out_dir=str(tmp_path / "b"))
    for name in ("example1_inputs.csv", "example1_outputs.csv", "example1_metrics.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_example2_reduced_contract(tmp_path):
    metrics = run_example2(
        example2_defaults(n_samples=200, horizon=20, seed=6, out_dir=str(tmp_path))
    )
    assert "converged" in metrics and "u_err_2" not in metrics
    assert np.isfinite(metrics["y_err_2"])
    header = (tmp_path / "example2_outputs.csv").read_text().splitlines()[0]
    assert header == "k,y_model,y_data"


def test_example2_noiseless_beats_noisy_on_paired_seeds(tmp_path):
    noisy, clean = [], []
    for seed in (5, 6, 7):
        m = run_example2(
            example2_defaults(
                n_samples=200, horizon=20, seed=seed, out_dir=str(tmp_path / f"n{seed}")
            )
        )
        noisy.append(m["y_err_2"])
        m = run_example2(
            example2_defaults(
                n_samples=200,
                horizon=20,
                seed=seed,
                noise_lo=0.0,
                noise_hi=0.0,
                out_dir=str(tmp_path / f"c{seed}"),
            )
        )
        clean.append(m["y_err_2"])
    assert np.median(clean) < np.median(noisy)


def test_sweep_summary(tmp_path):
    summary = run_sweep(
        ExperimentConfig(seed=5, out_dir=str(tmp_path)), count=3
    )
    assert summary["seeds"] == [5, 6, 7]
    assert len(summary["per_seed"]) == 3
    assert np.isfinite(summary["median_y_err_2"])
    assert np.isfinite(summary["median_u_err_2"])
    for s in (5, 6, 7):
        assert (tmp_path / f"seed_{s:03d}" / "example1_metrics.json").exists()
    assert json.loads((tmp_path / "sweep_metrics.json").read_text()) == summary


def test_cli_generate_and_match_files(tmp_path, capsys):
    out = tmp_path / "gen"
    assert main(["generate", "--seed", "1", "--out-dir", str(out)]) == 0
    ref = tmp_path / "ref.csv"
    from flatdd.signals import write_signal_csv

    write_signal_csv(ref, "y", 0.5 * np.sin(2 * np.pi * np.arange(50) / 25))
    capsys.readouterr()
    code = main(
        [
            "match",
            "--data",
            str(out / "example1_data.csv"),
            "--reference",
            str(ref),
            "--basis",
            "example1-poly",
            "--lambda",
            "1e-8",
            "--out",
            str(tmp_path / "u_est.csv"),
        ]
    )
    assert code == 0
    metrics = json.loads((tmp_path / "u_est_metrics.json").read_text())
    assert metrics["converged"] is True
    assert json.loads(capsys.readouterr().out) == metrics
    assert (tmp_path / "u_est.csv").read_text().splitlines()[0] == "k,u_est"


def test_cli_simulate_files(tmp_path):
    out = tmp_path / "gen"
    assert main(["generate", "--seed", "1", "--noise-lo", "0", "--noise-hi", "0", "--out-dir", str(out)]) == 0
    from flatdd.signals import write_signal_csv

    traj = read_trajectory(out / "example1_data.csv")
    write_signal_csv(tmp_path / "u_new.csv", "u", traj.u.flat[100:128])
    write_signal_csv(tmp_path / "y_init.csv", "y", traj.y.flat[100:102])
    code = main(
        [
            "simulate",
            "--data",
            str(out / "example1_data.csv"),
            "--input",
            str(tmp_path / "u_new.csv"),
            "--init",
            str(tmp_path / "y_init.csv"),
            "--basis",
            "example1-poly",
            "--lambda",
            "1e-8",
            "--out",
            str(tmp_path / "y_est.csv"),
        ]
    )
    assert code == 0
    from flatdd.signals import read_signal_csv

    y_est = read_signal_csv(tmp_path / "y_est.csv")
    assert np.allclose(y_est, traj.y.flat[100:130], atol=1e-3)


def test_cli_check_membership_verdict(tmp_path, capsys):
    out = tmp_path / "gen"
    main(["generate", "--seed", "1", "--noise-lo", "0", "--noise-hi", "0", "--out-dir", str(out)])
    from flatdd.signals import IoTrajectory, write_trajectory

    traj = read_trajectory(out / "example1_data.csv")
    cand = IoTrajectory.from_arrays(traj.u.flat[10:58], traj.y.flat[10:60], 2)
    write_trajectory(tmp_path / "cand.csv", cand)
    capsys.readouterr()
    code = main(
        [
            "check-membership",
            "--data",
            str(out / "example1_data.csv"),
            "--candidate",
            str(tmp_path / "cand.csv"),
            "--basis",
            "example1-poly",
        ]
    )
    assert code == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["is_member"] is True
    assert verdict["residual"] < 1e-6


def test_cli_exit_codes(tmp_path):
    # argparse flag errors are validation failures, not argparse's own 2
    assert main(["match", "--data", "x.csv"]) == 1
    assert main(["example1", "--seed", "5", "--lambda", "0", "--out-dir", str(tmp_path)]) == 1
    # seed 4 excitation drives the first plant to overflow
    assert main(["example1", "--seed", "4", "--out-dir", str(tmp_path)]) == 2
    assert (
        main(
            [
                "simulate",
                "--data",
                str(tmp_path / "missing.csv"),
                "--input",
                str(tmp_path / "u.csv"),
                "--init",
                str(tmp_path / "y.csv"),
            ]
        )
        == 3
    )


def test_cli_env_outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("FLATDD_OUTDIR", str(tmp_path / "fromenv"))
    assert main(["generate", "--seed", "1"]) == 0
    assert (tmp_path / "fromenv" / "example1_data.csv").exists()


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
    return err


def test_cli_one_cell_signal_row(tmp_path, capsys):
    out = tmp_path / "gen"
    assert main(["generate", "--seed", "1", "--out-dir", str(out)]) == 0
    (tmp_path / "u.csv").write_text("k,u\n0,0.1\n1\n")
    (tmp_path / "y.csv").write_text("k,y\n0,0.0\n1,0.0\n")
    capsys.readouterr()
    args = ["simulate", "--data", str(out / "example1_data.csv"), "--input", str(tmp_path / "u.csv")]
    assert main(args + ["--init", str(tmp_path / "y.csv"), "--out", str(tmp_path / "y_est.csv")]) == 1
    assert "row 1 has 1 cells" in _one_line_error(capsys)


def test_cli_nonfinite_data_cell(tmp_path, capsys):
    out = tmp_path / "gen"
    assert main(["generate", "--seed", "1", "--out-dir", str(out)]) == 0
    lines = (out / "example1_data.csv").read_text().splitlines()
    k, _, y = lines[5].split(",")
    lines[5] = f"{k},nan,{y}"
    (tmp_path / "nan.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check-pe", "--data", str(tmp_path / "nan.csv"), "--order", "50"]) == 1
    assert "non-finite u cell at row 4" in _one_line_error(capsys)


@pytest.mark.parametrize(
    "mode, pe_flags, short_order",
    [("explicit", ["--basis", "example1-poly"], 100), ("kernel", [], 300)],
)
def test_cli_check_pe_prints_the_generate_verdict(tmp_path, capsys, mode, pe_flags, short_order):
    manifest = run_generate(ExperimentConfig(seed=1, mode=mode, out_dir=str(tmp_path)))
    verdict = manifest["persistency"]
    data = ["check-pe", "--data", str(tmp_path / "example1_data.csv"), *pe_flags]
    capsys.readouterr()
    assert main(data + ["--order", str(verdict["order"])]) == 0
    assert json.loads(capsys.readouterr().out) == {**verdict, "diagnostic": None}
    # more Hankel rows than columns: no rank certificate, and the check says why
    assert main(data + ["--order", str(short_order)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["kind"] == verdict["kind"] and printed["order_satisfied"] is False
    assert "too short" in printed["diagnostic"]


def test_cli_generate_records_a_verdict_on_too_few_samples(tmp_path):
    # order L + n = 5 on N - n = 2 input samples: no Hankel column, a failed verdict
    assert main(["generate", "--mode", "kernel", "--horizon", "3", "--n-samples", "4", "--out-dir", str(tmp_path)]) == 0
    verdict = json.loads((tmp_path / "example1_manifest.json").read_text())["persistency"]
    assert verdict["order_satisfied"] is False and verdict["numerical_rank"] == 0
    assert len(read_trajectory(tmp_path / "example1_data.csv").u.flat) == 2


@pytest.mark.parametrize(
    "signals", [["simulate", "--input", "u.csv", "--init", "y.csv"], ["match", "--reference", "y.csv"]]
)
def test_cli_solve_flag_defaults_are_the_field_defaults(signals):
    args = vars(build_parser().parse_args([*signals, "--data", "d.csv"]))
    defaults = {f.name: f.default for cls in (WindowProblem, KernelSpec) for f in fields(cls)}
    for name in ("lam", "max_iter", "rel_tol", "sigma"):
        assert args[name] == defaults[name], name


def test_benchmark_layer_spans_name_public_functions():
    # perfbench spans the functions in each traced layer's __all__; a per-layer
    # metric <layer>.<fn>.s or .calls reads zero once fn is renamed or made private
    traced = ("signals", "plant", "basis", "solver", "membership", "simulation", "matching", "experiments")
    patched = {"solver.objective", "solver.polish"}  # methods and scipy, wrapped by name
    bench = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    spans = set()
    for metric in bench["per_layer"]:
        span, _, unit = metric["name"].rpartition(".")
        layer, _, fn = span.partition(".")
        if layer in traced and fn and unit in ("s", "calls") and span not in patched:
            spans.add((layer, fn))
    assert ("simulation", "kernel_sim_problem") in spans and ("matching", "kernel_match_problem") in spans
    for layer, fn in sorted(spans):
        module = importlib.import_module(f"flatdd.{layer}")
        value = getattr(module, fn, None)
        assert inspect.isfunction(value) and value.__module__ == module.__name__, f"{layer}.{fn}"
        assert fn in module.__all__, f"{layer}.{fn}"
