"""Command-line front end.

Exit codes: 0 success, 1 validation error (bad flags, config or data
files), 2 numerical failure (divergence, non-finite evaluation), 3 I/O
error.  ``FLATDD_OUTDIR`` sets the default output directory; an
explicit --out/--out-dir flag wins over it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .basis import KernelSpec, named_basis, psi_hat_signal
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
    example2_defaults,
    load_config,
    run_example1,
    run_example2,
    run_generate,
    run_sweep,
)
from .matching import MatchProblem, dd_match
from .membership import flat_membership
from .signals import read_signal_csv, read_trajectory, write_signal_csv
from .signals import pe_check
from .simulation import SimProblem, dd_simulate

_VALIDATION_ERRORS = (ConfigError, DimensionError, FormatError, ParseError)
_NUMERICAL_ERRORS = (DivergenceError, EvaluationError, SingularMatrixError)


class _Parser(argparse.ArgumentParser):
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


def _build_config(args, default_model: str) -> ExperimentConfig:
    if args.config:
        cfg = load_config(args.config)
    else:
        model = args.model or default_model
        cfg = ExperimentConfig() if model == "example1" else example2_defaults()
    overrides = {
        f.name: getattr(args, f.name) for f in fields(ExperimentConfig) if getattr(args, f.name) is not None
    }
    out_dir = args.out_dir or os.environ.get("FLATDD_OUTDIR")
    if out_dir:
        overrides["out_dir"] = out_dir
    return replace(cfg, **overrides)


def _default_out(name: str) -> Path:
    return Path(os.environ.get("FLATDD_OUTDIR", ".")) / name


def _cmd_generate(args) -> int:
    _print_json(run_generate(_build_config(args, "example1")))
    return 0


def _cmd_check_pe(args) -> int:
    traj = read_trajectory(args.data)
    if args.basis:
        sequence = psi_hat_signal(traj, named_basis(args.basis))
        kind = "basis"
    else:
        sequence = traj.u
        kind = "input"
    res = pe_check(sequence, args.order)
    _print_json(
        {
            "kind": kind,
            "order": args.order,
            "order_satisfied": bool(res.order_satisfied),
            "numerical_rank": int(res.numerical_rank),
            "diagnostic": res.diagnostic,
        }
    )
    return 0


def _cmd_check_membership(args) -> int:
    data = read_trajectory(args.data)
    cand = read_trajectory(args.candidate)
    verdict = flat_membership(
        data, named_basis(args.basis), cand.N, cand.u.flat, cand.y.flat, tol=args.tol
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
    traj = read_trajectory(args.data)
    settings = dict(lam=args.lam, max_iter=args.max_iter, rel_tol=args.rel_tol)
    if args.mode == "explicit":
        settings["basis"] = named_basis(args.basis or "example1-poly")
    else:
        kind = "gaussian" if args.command == "simulate" else "gaussian_plus_linear"
        settings["kernel"] = KernelSpec(kind, sigma=args.sigma)
    if args.command == "simulate":
        u_new = read_signal_csv(args.input)
        y_init = read_signal_csv(args.init)
        res = dd_simulate(SimProblem(traj, u_new.size + traj.n, u_new, y_init, args.mode, **settings))
        name, estimate = "y_est", res.y
    else:
        y_ref = read_signal_csv(args.reference)
        res = dd_match(MatchProblem(traj, y_ref.size, y_ref, args.mode, **settings))
        name, estimate = "u_est", res.u
    out = Path(args.out) if args.out else _default_out(f"{name}.csv")
    write_signal_csv(out, name, estimate.flat)
    metrics = {
        "objective": float(res.objective),
        "iterations": int(res.iterations),
        "converged": bool(res.converged),
        "initial_objective": float(res.initial_objective),
    }
    with open(out.with_name(out.stem + "_metrics.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(metrics, sort_keys=True, indent=2) + "\n")
    _print_json(metrics)
    return 0


def _cmd_example1(args) -> int:
    _print_json(run_example1(_build_config(args, "example1")))
    return 0


def _cmd_example2(args) -> int:
    _print_json(run_example2(_build_config(args, "example2")))
    return 0


def _cmd_sweep(args) -> int:
    _print_json(run_sweep(_build_config(args, "example1"), count=args.count))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="flatdd",
        description="Data-driven simulation and output matching for flat systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="simulate a preset plant and write its trajectory CSV")
    _add_config_flags(p)
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("check-pe", help="persistency-of-excitation verdict for recorded data")
    p.add_argument("--data", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--basis")
    p.set_defaults(handler=_cmd_check_pe)

    p = sub.add_parser("check-membership", help="is a candidate trajectory consistent with the data")
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
        p.add_argument("--sigma", type=float, default=1.0)
        p.add_argument("--lambda", dest="lam", type=float, default=0.1)
        p.add_argument("--max-iter", dest="max_iter", type=int, default=500)
        p.add_argument("--rel-tol", dest="rel_tol", type=float, default=1e-8)
        p.add_argument("--out")
        p.set_defaults(handler=_cmd_simulate_or_match)

    p = sub.add_parser("example1", help="noisy output matching against the sinusoidal reference")
    _add_config_flags(p)
    p.set_defaults(handler=_cmd_example1)

    p = sub.add_parser("example2", help="kernel-mode simulation of a fresh input")
    _add_config_flags(p)
    p.set_defaults(handler=_cmd_example2)

    p = sub.add_parser("sweep", help="repeat an example over consecutive seeds")
    _add_config_flags(p)
    p.add_argument("--count", type=int, default=10)
    p.set_defaults(handler=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
