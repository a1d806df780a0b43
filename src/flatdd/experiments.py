"""Seeded experiment drivers: data generation, the two worked examples, sweeps.

Every run is a pure function of its :class:`ExperimentConfig`.  The
excitation uses the config seed directly; the measurement-noise and
test-input streams use seeds derived from it, so runs are reproducible
byte for byte.  Metrics JSON files carry the keys ``objective``,
``converged``, ``iterations``, ``y_err_2`` (plus ``u_err_2`` and
``initial_objective`` for matching runs, ``initial_objective`` for
kernel simulation runs), ``seed`` and ``config``.  The config echo
omits ``out_dir`` so that runs into different directories stay
byte-identical.

The output-matching reference for the first example is fixed as
y_ref[k] = 0.5 sin(2 pi k / 25); the amplitude keeps the reference
inside the excitation range of the identification data.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .basis import BasisSet, KernelSpec, named_basis, psi_hat_signal
from .errors import ConfigError, ParseError
from .matching import MatchProblem, dd_match
from .plant import (
    FlatModel,
    NoiseSpec,
    collect_trajectory,
    example1_model,
    example2_model,
    generate_excitation,
    matching_input_oracle,
    simulate,
)
from .signals import _FLOAT_FMT, IoTrajectory, pe_check, write_signal_csv, write_trajectory
from .simulation import SimProblem, dd_simulate
from .solver import NonlinearResult

__all__ = [
    "ExperimentConfig",
    "example2_defaults",
    "load_config",
    "save_config",
    "reference_output",
    "solve_metrics",
    "pe_verdict",
    "run_generate",
    "run_example1",
    "run_example2",
    "run_sweep",
]

_NOISE_ROLE = 1
_TEST_INPUT_ROLE = 2


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, fully determined by these fields.

    Defaults are the noisy output-matching regime of the first worked
    example; :func:`example2_defaults` gives the kernel-simulation one.
    """

    model: str = "example1"
    n_samples: int = 500
    horizon: int = 50
    input_lo: float = -0.5
    input_hi: float = 0.5
    noise_lo: float = -0.025
    noise_hi: float = 0.025
    seed: int = 5
    mode: str = "explicit"
    basis: str = "example1-poly"
    sigma: float = 1.0
    lam: float = 0.1
    out_dir: str = "runs"

    @staticmethod
    def _check_field(name: str, value) -> None:
        """The rules that field ``name`` obeys by itself, whatever the others hold."""
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
        if name == "seed" and value < 0:
            raise ConfigError(f"seed must be >= 0, got {value}")
        choices = {"model": ("example1", "example2"), "mode": ("explicit", "kernel")}.get(name)
        if choices and value not in choices:
            raise ConfigError(f"{name} must be {' or '.join(choices)}, got {value!r}")

    def __post_init__(self) -> None:
        for f in fields(self):
            self._check_field(f.name, getattr(self, f.name))
        if self.horizon <= (n := _named_model(self.model).n):
            raise ConfigError(f"horizon={self.horizon} must exceed the order n={n} of model {self.model}")
        if self.n_samples <= self.horizon:
            raise ConfigError(
                f"n_samples={self.n_samples} must exceed horizon={self.horizon}"
            )
        for name in ("input", "noise"):
            lo, hi = getattr(self, f"{name}_lo"), getattr(self, f"{name}_hi")
            if lo > hi:
                raise ConfigError(f"{name}_lo={lo} > {name}_hi={hi}")
            # the uniform draws take the width hi - lo, which must be a float
            if not math.isfinite(hi - lo):
                raise ConfigError(f"{name} range {name}_hi - {name}_lo = {hi} - ({lo}) is not a finite float")
        if self.mode == "explicit" and not self.basis:
            raise ConfigError("basis name required in explicit mode")


def example2_defaults(**overrides) -> ExperimentConfig:
    base = ExperimentConfig(
        model="example2",
        n_samples=750,
        input_lo=-1.0,
        input_hi=1.0,
        noise_lo=-0.05,
        noise_hi=0.05,
        mode="kernel",
        basis="",
    )
    return replace(base, **overrides)


def _with_overrides(config: ExperimentConfig | None, overrides: dict) -> ExperimentConfig:
    """``overrides`` applied to ``config`` or else to the preset of the model they
    name: :func:`example2_defaults` for example2, the first example's otherwise."""
    if config is None:
        config = example2_defaults() if overrides.get("model") == "example2" else ExperimentConfig()
    return replace(config, **overrides)


_FIELD_PARSERS = {"int": int, "float": float, "str": str}


def save_config(config: ExperimentConfig, path: str | Path) -> None:
    lines = []
    for f in fields(config):
        value = getattr(config, f.name)
        text = _FLOAT_FMT.format(value) if f.type == "float" else str(value)
        lines.append(f"{f.name} = {text}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a flat key = value config file back into a config.

    Missing keys keep their defaults; unknown keys are an error so that
    typos do not silently fall back.
    """
    known = {f.name: f.type for f in fields(ExperimentConfig)}
    values = {}
    try:
        content = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"config file {path} is not UTF-8 text: {exc}") from None
    for lineno, raw in enumerate(content.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, text = line.partition("=")
        key = key.strip()
        if not sep:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown config field {key!r}")
        try:
            values[key] = _FIELD_PARSERS[known[key]](text.strip())
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: field {key!r}: {exc}") from exc
    return ExperimentConfig(**values)


def _derived_seed(seed: int, role: int) -> int:
    return int(np.random.SeedSequence([seed, role]).generate_state(1, np.uint64)[0])


def _named_model(name: str) -> FlatModel:
    return example1_model() if name == "example1" else example2_model()


def _config_echo(config: ExperimentConfig) -> dict:
    echo = asdict(config)
    echo.pop("out_dir")
    return echo


def _dump_json(obj: dict, path: Path) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_outputs(config: ExperimentConfig, json_name: str, obj: dict, **csvs) -> dict:
    """Write ``obj`` to ``<json_name>.json`` and each ``<stem>=(names, columns)`` to the
    signal file ``<stem>.csv`` in the config's output directory; returns ``obj``."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for stem, (names, columns) in csvs.items():
        write_signal_csv(out / f"{stem}.csv", names, columns)
    _dump_json(obj, out / f"{json_name}.json")
    return obj


def _features(mode: str, basis: str, sigma: float, n: int) -> dict:
    """The named basis of window width n (explicit mode) or the Gaussian kernel."""
    if mode == "explicit":
        return dict(basis=named_basis(basis, n))
    return dict(kernel=KernelSpec("gaussian", sigma=sigma))


def solve_metrics(res: NonlinearResult) -> dict:
    """The solve diagnostics of a result as JSON values."""
    return {
        "converged": bool(res.converged),
        "initial_objective": float(res.initial_objective),
        "iterations": int(res.iterations),
        "objective": float(res.objective),
    }


def _metrics(config: ExperimentConfig, res: NonlinearResult, **errors: float) -> dict:
    return {"config": _config_echo(config), "seed": config.seed, **solve_metrics(res), **errors}


def _collect(config: ExperimentConfig, model: FlatModel):
    noise = NoiseSpec(config.noise_lo, config.noise_hi, _derived_seed(config.seed, _NOISE_ROLE))
    return collect_trajectory(
        model,
        config.n_samples,
        (config.input_lo, config.input_hi),
        seed=config.seed,
        noise=noise,
    )


def reference_output(L: int) -> np.ndarray:
    """Sinusoidal matching reference, 0.5 sin(2 pi k / 25) for k < L."""
    return 0.5 * np.sin(2.0 * np.pi * np.arange(L) / 25.0)


def pe_verdict(traj: IoTrajectory, order: int, basis: BasisSet | None = None) -> dict:
    """Persistency-of-excitation verdict of order ``order`` as JSON values: on the
    basis-function sequence of the data when a basis is given, else on the input."""
    if basis is None:
        kind, pe = "input", pe_check(traj.u, order)
    else:
        kind, pe = "basis", pe_check(psi_hat_signal(traj, basis), order)
    return {"kind": kind, "order": order, **asdict(pe)}


def run_generate(config: ExperimentConfig | None = None, **overrides) -> dict:
    """Simulate the configured preset and write the trajectory CSV.

    The manifest echoes the config and records a persistency-of-
    excitation verdict: on the basis-function sequence at order L in
    explicit mode, on the raw input at order L + n otherwise.
    """
    config = _with_overrides(config, overrides)
    model = _named_model(config.model)
    traj = _collect(config, model)
    if config.mode == "explicit":
        verdict = pe_verdict(traj, config.horizon, named_basis(config.basis, model.n))
    else:
        verdict = pe_verdict(traj, config.horizon + model.n)
    del verdict["diagnostic"]  # the manifest records the verdict only
    csv_name = f"{config.model}_data.csv"
    manifest = {
        "config": _config_echo(config),
        "persistency": verdict,
        "rows": int(traj.N),
        "seed": config.seed,
        "trajectory_csv": csv_name,
    }
    _write_outputs(config, f"{config.model}_manifest", manifest)
    write_trajectory(Path(config.out_dir) / csv_name, traj)
    return manifest


def run_example1(config: ExperimentConfig | None = None, **overrides) -> dict:
    """Noisy output matching against the sinusoidal reference.

    Writes inputs/outputs plot CSVs and a metrics JSON; the achieved
    output applies the computed input to the true plant from rest.
    """
    config = _with_overrides(config, overrides)
    if config.model != "example1":
        raise ConfigError(f"run_example1 drives model example1, got {config.model!r}")
    model = example1_model()
    traj = _collect(config, model)
    L = config.horizon
    y_ref = reference_output(L)
    features = _features(config.mode, config.basis, config.sigma, model.n)
    res = dd_match(MatchProblem(traj, L, y_ref, config.mode, lam=config.lam, **features))

    u_model = matching_input_oracle(model, y_ref)
    y_achieved = simulate(model, np.zeros(model.n), res.u.flat).flat[:L]
    u_err_2, y_err_2 = np.linalg.norm(res.u.flat - u_model), np.linalg.norm(y_achieved - y_ref)
    metrics = _metrics(config, res, u_err_2=float(u_err_2), y_err_2=float(y_err_2))
    return _write_outputs(
        config,
        "example1_metrics",
        metrics,
        example1_inputs=(["u_model", "u_data"], [u_model, res.u.flat]),
        example1_outputs=(["y_ref", "y_achieved"], [y_ref, y_achieved]),
    )


def run_example2(config: ExperimentConfig | None = None, **overrides) -> dict:
    """Kernel-mode data-driven simulation of a fresh input sequence.

    The error compares against the noiseless true plant response from
    rest; the fresh input reuses the excitation bounds.
    """
    config = replace(example2_defaults() if config is None else config, **overrides)
    if config.model != "example2":
        raise ConfigError(f"run_example2 drives model example2, got {config.model!r}")
    model = example2_model()
    traj = _collect(config, model)
    L, n = config.horizon, model.n
    u_test = generate_excitation(
        L - n,
        (config.input_lo, config.input_hi),
        seed=_derived_seed(config.seed, _TEST_INPUT_ROLE),
    )
    y_true = simulate(model, np.zeros(n), u_test).flat
    features = _features(config.mode, config.basis, config.sigma, n)
    res = dd_simulate(SimProblem(traj, L, u_test, y_true[:n], config.mode, lam=config.lam, **features))

    metrics = _metrics(config, res, y_err_2=float(np.linalg.norm(res.y.flat - y_true)))
    return _write_outputs(
        config, "example2_metrics", metrics, example2_outputs=(["y_model", "y_data"], [y_true, res.y.flat])
    )


def _check_count(count: int) -> int:
    if count < 1:
        raise ConfigError(f"sweep needs count >= 1, got {count}")
    return count


def run_sweep(config: ExperimentConfig | None = None, count: int = 10, **overrides) -> dict:
    """Repeat the configured example over consecutive seeds.

    Each run writes into out_dir/seed_<s>; the summary reports the
    per-seed metrics and error medians.
    """
    _check_count(count)
    config = _with_overrides(config, overrides)
    runner = run_example1 if config.model == "example1" else run_example2
    per_seed = []
    for s in range(config.seed, config.seed + count):
        cfg = replace(config, seed=s, out_dir=str(Path(config.out_dir) / f"seed_{s:03d}"))
        per_seed.append(runner(cfg))
    summary = {
        "config": _config_echo(config),
        "count": count,
        "median_y_err_2": float(np.median([m["y_err_2"] for m in per_seed])),
        "per_seed": per_seed,
        "seeds": list(range(config.seed, config.seed + count)),
    }
    if "u_err_2" in per_seed[0]:
        summary["median_u_err_2"] = float(np.median([m["u_err_2"] for m in per_seed]))
    return _write_outputs(config, "sweep_metrics", summary)
