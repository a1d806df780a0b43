"""Command-line front end.

Exit codes: 0 success, 1 validation error (bad flags, config or data
files) or an allocation that fails ("error: out of memory: ..."), 2
numerical failure (divergence, non-finite evaluation), 3 I/O error.
``FLATDD_OUTDIR`` sets the default output directory; an explicit
--out/--out-dir flag wins over it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np

from .basis import KernelSpec, named_basis
from .errors import (
    ConfigError,
    DimensionError,
    DivergenceError,
    EvaluationError,
    FormatError,
    ParseError,
    SingularMatrixError,
)
from .experiments import (
    _FIELD_PARSERS,
    ExperimentConfig,
    _check_count,
    _dump_json,
    _features,
    load_config,
    pe_verdict,
    run_example1,
    run_example2,
    run_generate,
    run_sweep,
    solve_metrics,
)
from .matching import MatchProblem, dd_match
from .membership import _check_tol, flat_membership
from .signals import _check_depth, read_signal_csv, read_trajectory, write_signal_csv
from .simulation import SimProblem, dd_simulate
from .window import WindowProblem

_VALIDATION_ERRORS = (ConfigError, DimensionError, FormatError, ParseError)
_NUMERICAL_ERRORS = (DivergenceError, EvaluationError, SingularMatrixError)
# the simulate/match flags default to the problem's and the kernel's own defaults
_SOLVE_DEFAULTS = {f.name: f.default for cls in (WindowProblem, KernelSpec) for f in fields(cls)}

# the commands that run a seeded experiment: name, run function, help
_CONFIG_COMMANDS = (
    ("generate", run_generate, "simulate a preset plant and write its trajectory CSV"),
    ("example1", run_example1, "noisy output matching against the sinusoidal reference"),
    ("example2", run_example2, "kernel-mode simulation of a fresh input"),
    ("sweep", run_sweep, "repeat an example over consecutive seeds"),
)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a value such as -1e-3 is a negative number, not a flag (argparse's own pattern lacks exponents)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    # argparse exits with code 2 on bad flags; 2 means numerical failure
    # here, so reroute through the validation-error path
    def error(self, message):
        raise ConfigError(message)


def _print_json(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """--config, and one flag per ExperimentConfig field parsed as in a config file."""
    p.add_argument("--config", help="key = value config file")
    for f in fields(ExperimentConfig):
        flag = "--lambda" if f.name == "lam" else "--" + f.name.replace("_", "-")
        p.add_argument(flag, dest=f.name, type=_FIELD_PARSERS[f.type])


def _cmd_config(args) -> int:
    """Run the command's experiment on the --config file, or on the preset of
    the model, with the given flags overriding its fields."""
    overrides = {
        f.name: getattr(args, f.name) for f in fields(ExperimentConfig) if getattr(args, f.name) is not None
    }
    out_dir = args.out_dir or os.environ.get("FLATDD_OUTDIR")
    if out_dir:
        overrides["out_dir"] = out_dir
    # each flag by itself, before the config file is read
    for name, value in overrides.items():
        ExperimentConfig._check_field(name, value)
    extra = dict(count=_check_count(args.count)) if args.command == "sweep" else {}
    _print_json(args.run(load_config(args.config) if args.config else None, **extra, **overrides))
    return 0


def _check_settings(args) -> None:
    """Check each setting of a command that reads data files by itself, before any file is read."""
    if args.basis:
        named_basis(args.basis)  # the name: every bundled basis is defined at the default n = 2
    if args.command == "check-pe":
        _check_depth(args.order)
    elif args.command == "check-membership":
        _check_tol(args.tol)
    else:
        problem = SimProblem if args.command == "simulate" else MatchProblem
        problem._check_settings(args.lam, args.max_iter, args.rel_tol)
        KernelSpec("gaussian", args.sigma)


def _cmd_check_pe(args) -> int:
    _check_settings(args)
    traj = read_trajectory(args.data)
    _print_json(pe_verdict(traj, args.order, named_basis(args.basis, traj.n) if args.basis else None))
    return 0


def _cmd_check_membership(args) -> int:
    _check_settings(args)
    data = read_trajectory(args.data)
    cand = read_trajectory(args.candidate)
    verdict = flat_membership(
        data, named_basis(args.basis, data.n), cand.N, cand.u.flat, cand.y.flat, tol=args.tol
    )
    _print_json(
        {
            "alpha_norm": float(np.linalg.norm(verdict.alpha)),
            "residual": float(verdict.residual),
            "is_member": bool(verdict.is_member),
        }
    )
    return 0


def _cmd_simulate_or_match(args) -> int:
    _check_settings(args)
    traj = read_trajectory(args.data)
    settings = _features(args.mode, args.basis or "example1-poly", args.sigma, traj.n)
    settings.update(lam=args.lam, max_iter=args.max_iter, rel_tol=args.rel_tol)
    if args.command == "simulate":
        u_new = read_signal_csv(args.input)
        y_init = read_signal_csv(args.init)
        res = dd_simulate(SimProblem(traj, u_new.size + traj.n, u_new, y_init, args.mode, **settings))
        name, estimate = "y_est", res.y
    else:
        y_ref = read_signal_csv(args.reference)
        res = dd_match(MatchProblem(traj, y_ref.size, y_ref, args.mode, **settings))
        name, estimate = "u_est", res.u
    out = Path(args.out) if args.out else Path(os.environ.get("FLATDD_OUTDIR", ".")) / f"{name}.csv"
    write_signal_csv(out, name, estimate.flat)
    metrics = solve_metrics(res)
    _dump_json(metrics, out.with_name(out.stem + "_metrics.json"))
    _print_json(metrics)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="flatdd",
        description="Data-driven simulation and output matching for flat systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, run, summary in _CONFIG_COMMANDS:
        p = sub.add_parser(name, help=summary)
        _add_config_flags(p)
        p.set_defaults(handler=_cmd_config, run=run)
        if name == "sweep":
            p.add_argument("--count", type=int, default=10)

    p = sub.add_parser("check-pe", help="persistency-of-excitation verdict for recorded data")
    p.add_argument("--data", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--basis")
    p.set_defaults(handler=_cmd_check_pe)

    p = sub.add_parser(
        "check-membership",
        help="is a candidate trajectory consistent with the data (exact; meaningless on noisy data)",
        description="Exact membership verdict. Noise gives the data matrix full row rank, and then every "
        "candidate passes: use noise-free data (a calibrated score is planned, ROADMAP.md item 3).",
    )
    p.add_argument("--data", required=True)
    p.add_argument("--candidate", required=True)
    p.add_argument("--basis", required=True)
    p.add_argument("--tol", type=float)
    p.set_defaults(handler=_cmd_check_membership)

    for name, signal_flags, summary in (
        ("simulate", ("--input", "--init"), "data-based simulation of a new input sequence"),
        ("match", ("--reference",), "data-based input computation for a reference output"),
    ):
        p = sub.add_parser(name, help=summary)
        for flag in ("--data", *signal_flags):
            p.add_argument(flag, required=True)
        p.add_argument("--mode", choices=("explicit", "kernel"), default="explicit")
        p.add_argument("--basis")
        p.add_argument("--sigma", type=float, default=_SOLVE_DEFAULTS["sigma"])
        p.add_argument("--lambda", dest="lam", type=float, default=_SOLVE_DEFAULTS["lam"])
        p.add_argument("--max-iter", dest="max_iter", type=int, default=_SOLVE_DEFAULTS["max_iter"])
        p.add_argument("--rel-tol", dest="rel_tol", type=float, default=_SOLVE_DEFAULTS["rel_tol"])
        p.add_argument("--out")
        p.set_defaults(handler=_cmd_simulate_or_match)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # a warning names the first caller outside flatdd, here the interpreter: print only what it says
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, category, *_: print(
            f"warning: {category.__name__}: {message}", file=sys.stderr
        )
        try:
            args = parser.parse_args(argv)
            return args.handler(args)
        except _VALIDATION_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except MemoryError as exc:
            print(f"error: out of memory: {exc}", file=sys.stderr)
            return 1
        except _NUMERICAL_ERRORS as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
