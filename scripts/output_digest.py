#!/usr/bin/env python3
"""Print one SHA-256 digest per group of flatdd outputs.

A change meant to leave every number as it was can be checked by running
this script against two checkouts and comparing what it prints:

    PYTHONPATH=<old checkout>/src python scripts/output_digest.py
    PYTHONPATH=<new checkout>/src python scripts/output_digest.py

Groups:
  example1-explicit  every file run_example1 writes, data seeds 5-29
  example1-kernel    the same in kernel mode
  example2           every file run_example2 writes, data seeds 5-29
  flat-membership    alpha, residual and verdict of flat_membership on
                     ten fixed windows, five members and five non-members
  data               the bytes of the recorded u and y (noise included)
                     that run_example1 and run_example2 use, data seeds 5-29
  pe                 the pe_verdict results on run_example1's data, data
                     seeds 5-29: the basis at orders L-1, L and L+1, and
                     the raw input at order L+n
  explicit-simulation  y and solve diagnostics of explicit dd_simulate
                     on run_example1's data, data seeds 5-29: 48 fresh
                     inputs in +-0.5, the true plant's first outputs
                     from rest, basis example1-poly, lam 0.1
  warnings           category and message of every warning that explicit
                     dd_match, dd_simulate and flat_membership issue on
                     short (120-sample) example1 data, that explicit
                     dd_match issues on constant-input data and at
                     lam 1e-10, and the diagnostic of a too-short pe_check
  unexciting         category and message of every warning that explicit
                     dd_match, dd_simulate and flat_membership issue on
                     example1 data driven by the constant input 0.1, 500
                     samples: long enough for L = 50, but not exciting
  short-records      category and message of every warning, or type and
                     message of the error, of explicit dd_match,
                     dd_simulate and flat_membership on example1 records
                     of 49-52 samples at L = 50, and the pe_verdict of a
                     record's input at an order above its length

The runs write into a temporary directory that is removed afterwards.
The whole run takes a few seconds with one BLAS thread.  Digests are
only comparable between runs with the same BLAS build and thread count.

With ``--solves`` the script prints, instead of digests, one JSON line
per run of the example1-explicit, example1-kernel and example2 groups
(group, data seed, objective, initial_objective, iterations, converged),
so that solves that move in their last bits can still be compared
number by number between two checkouts.  With ``--against OLD`` as well,
OLD being such lines saved from another checkout, it compares this
run's solves with them instead: per group, the largest relative change
of objective and of initial_objective, then every run whose iterations
or converged changed or that OLD lacks; the exit code is 1 if there is
such a run, else 0:

    PYTHONPATH=<old checkout>/src python scripts/output_digest.py --solves > old.jsonl
    PYTHONPATH=<new checkout>/src python scripts/output_digest.py --solves --against old.jsonl
"""

import argparse
import hashlib
import json
import math
import os
import tempfile
import warnings
from pathlib import Path

# One BLAS thread unless the environment already sets one: threaded BLAS
# may sum in another order and change the last bits.  Set before numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from flatdd.basis import named_basis  # noqa: E402
from flatdd.errors import FlatDdError  # noqa: E402
from flatdd.experiments import (  # noqa: E402
    ExperimentConfig,
    _collect,
    example2_defaults,
    pe_verdict,
    run_example1,
    run_example2,
    solve_metrics,
)
from flatdd.matching import MatchProblem, dd_match  # noqa: E402
from flatdd.membership import flat_membership  # noqa: E402
from flatdd.plant import collect_trajectory, example1_model, example2_model, simulate  # noqa: E402
from flatdd.signals import IoTrajectory, pe_check  # noqa: E402
from flatdd.simulation import SimProblem, dd_simulate  # noqa: E402

SEEDS = range(5, 30)


def _tree_digest(root: Path) -> str:
    """Digest of every file under ``root``: its relative path and bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _experiment_digest(runner, **options) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            runner(seed=seed, out_dir=str(Path(tmp) / f"seed_{seed:03d}"), **options)
        return _tree_digest(Path(tmp))


def _membership_digest() -> str:
    traj = collect_trajectory(example1_model(), 500, (-0.5, 0.5), seed=5)
    other = collect_trajectory(example1_model(), 500, (-0.5, 0.5), seed=6)
    basis = named_basis("example1-poly")
    h = hashlib.sha256()
    for k in (0, 90, 180, 270, 450):
        u, y = other.u.flat[k : k + 48], other.y.flat[k : k + 50]
        for y_bar in (y, y + 0.1 * (1.0 + np.abs(y))):
            v = flat_membership(traj, basis, 50, u, y_bar)
            h.update(v.alpha.tobytes() + repr((v.residual, v.is_member)).encode())
    return h.hexdigest()


def _data_digest() -> str:
    """Digest of the recordings run_example1 and run_example2 make: u, and y with its noise."""
    h = hashlib.sha256()
    for seed in SEEDS:
        for config, model in (
            (ExperimentConfig(seed=seed), example1_model()),
            (example2_defaults(seed=seed), example2_model()),
        ):
            traj = _collect(config, model)
            h.update(traj.u.values.tobytes() + traj.y.values.tobytes())
    return h.hexdigest()


def _pe_digest() -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        config = ExperimentConfig(seed=seed)
        traj = _collect(config, example1_model())
        basis, L = named_basis(config.basis), config.horizon
        verdicts = [pe_verdict(traj, order, basis) for order in (L - 1, L, L + 1)] + [pe_verdict(traj, L + traj.n)]
        h.update(json.dumps(verdicts).encode())
    return h.hexdigest()


def _simulation_digest() -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        config = ExperimentConfig(seed=seed)
        traj, L = _collect(config, example1_model()), config.horizon
        u = np.random.default_rng(seed).uniform(-0.5, 0.5, size=L - traj.n)
        y_init = simulate(example1_model(), np.zeros(traj.n), u).flat[: traj.n]
        res = dd_simulate(SimProblem(traj, L, u, y_init, "explicit", basis=named_basis("example1-poly"), lam=0.1))
        h.update(res.y.values.tobytes() + json.dumps(solve_metrics(res)).encode())
    return h.hexdigest()


def _warnings_digest() -> str:
    model, basis = example1_model(), named_basis("example1-poly")
    short = collect_trajectory(model, 120, (-0.5, 0.5), seed=2)
    u_const = np.full(248, 0.1)
    constant = IoTrajectory.from_arrays(u_const, simulate(model, np.zeros(2), u_const).flat, 2)
    ill = collect_trajectory(model, 150, (-0.5, 0.5), seed=12)
    u = np.random.default_rng(2).uniform(-0.5, 0.5, size=48)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        dd_match(MatchProblem(short, 50, short.y.flat[10:60], "explicit", basis=basis, lam=0.1))
        dd_simulate(SimProblem(short, 50, u, np.zeros(2), "explicit", basis=basis, lam=0.1))
        flat_membership(short, basis, 50, short.u.flat[:48], short.y.flat[:50])
        dd_match(MatchProblem(constant, 50, constant.y.flat[20:70], "explicit", basis=basis, lam=0.1))
        dd_match(MatchProblem(ill, 50, ill.y.flat[20:70], "explicit", basis=basis, lam=1e-10))
    lines = [f"{w.category.__name__}: {w.message}" for w in record]
    lines.append(f"pe_check: {pe_check(np.arange(30.0), 20).diagnostic}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _unexciting_digest() -> str:
    model, basis = example1_model(), named_basis("example1-poly")
    u = np.full(498, 0.1)
    traj = IoTrajectory.from_arrays(u, simulate(model, np.zeros(2), u).flat, 2)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        dd_match(MatchProblem(traj, 50, traj.y.flat[20:70], "explicit", basis=basis, lam=0.1))
        dd_simulate(SimProblem(traj, 50, np.full(48, 0.1), np.zeros(2), "explicit", basis=basis, lam=0.1))
        flat_membership(traj, basis, 50, traj.u.flat[:48], traj.y.flat[:50])
    lines = [f"{w.category.__name__}: {w.message}" for w in record]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _warnings_and_error(request) -> list[str]:
    """Category and message of every warning ``request()`` issues, then the
    type and message of the flatdd error it raises, or "" for none."""
    error = ""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            request()
        except FlatDdError as exc:
            error = f"{type(exc).__name__}: {exc}"
    return [f"{w.category.__name__}: {w.message}" for w in caught] + [error]


def _short_records_digest() -> str:
    basis = named_basis("example1-poly")
    data = collect_trajectory(example1_model(), 200, (-0.5, 0.5), seed=5)
    u, y = data.u.flat[100:148], data.y.flat[100:150]
    lines = []
    for N in (49, 50, 51, 52):
        traj = IoTrajectory.from_arrays(data.u.flat[: N - 2], data.y.flat[:N], 2)
        for request in (
            lambda: dd_match(MatchProblem(traj, 50, y, "explicit", basis=basis, lam=0.1)),
            lambda: dd_simulate(SimProblem(traj, 50, u, y[:2], "explicit", basis=basis, lam=0.1)),
            lambda: flat_membership(traj, basis, 50, u, y),
        ):
            lines += _warnings_and_error(request)
    verdicts = []
    lines += _warnings_and_error(lambda: verdicts.append(pe_verdict(traj, traj.u.length + 1)))
    lines += [json.dumps(v) for v in verdicts]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _solves():
    """One record per explicit and kernel run of run_example1 and run of run_example2, data seeds 5-29."""
    keys = ("objective", "initial_objective", "iterations", "converged")
    with tempfile.TemporaryDirectory() as tmp:
        for group, runner, options in (
            ("example1-explicit", run_example1, {}),
            ("example1-kernel", run_example1, {"mode": "kernel"}),
            ("example2", run_example2, {}),
        ):
            for seed in SEEDS:
                metrics = runner(seed=seed, out_dir=str(Path(tmp) / group / f"seed_{seed:03d}"), **options)
                yield {"group": group, "seed": seed, **{k: metrics[k] for k in keys}}


def _relative_change(new: float, old: float) -> float:
    return 0.0 if new == old else abs(new - old) / abs(old) if old else math.inf


def _compare_solves(runs, old_path: str) -> int:
    """Print how ``runs`` differ from the ``--solves`` lines in ``old_path``;
    1 if a run's iterations or converged changed or the file lacks it, else 0."""
    old = {(r["group"], r["seed"]): r for r in map(json.loads, Path(old_path).read_text().splitlines())}
    largest, changed = {}, []
    for run in runs:
        before = old.get((run["group"], run["seed"]))
        if before is None:
            changed.append(f"{run['group']} seed {run['seed']}: not in {old_path}")
            continue
        group = largest.setdefault(run["group"], {"objective": 0.0, "initial_objective": 0.0})
        for key in group:
            group[key] = max(group[key], _relative_change(run[key], before[key]))
        for key in ("iterations", "converged"):
            if run[key] != before[key]:
                changed.append(f"{run['group']} seed {run['seed']}: {key} {before[key]} -> {run[key]}")
    for group, change in largest.items():
        print(f"{group:18} largest relative change: " + ", ".join(f"{k} {v:.2g}" for k, v in change.items()))
    for line in changed:
        print(f"changed  {line}")
    return 1 if changed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--solves", action="store_true", help="print one JSON line per solve instead")
    parser.add_argument("--against", metavar="OLD", help="with --solves: compare with the lines saved in OLD")
    args = parser.parse_args()
    if args.against and not args.solves:
        parser.error("--against needs --solves")
    if args.solves:
        if args.against:
            return _compare_solves(_solves(), args.against)
        for run in _solves():
            print(json.dumps(run))
        return 0
    print(f"example1-explicit  {_experiment_digest(run_example1)}")
    print(f"example1-kernel    {_experiment_digest(run_example1, mode='kernel')}")
    print(f"example2           {_experiment_digest(run_example2)}")
    print(f"flat-membership    {_membership_digest()}")
    print(f"data               {_data_digest()}")
    print(f"pe                 {_pe_digest()}")
    print(f"explicit-simulation  {_simulation_digest()}")
    print(f"warnings           {_warnings_digest()}")
    print(f"unexciting         {_unexciting_digest()}")
    print(f"short-records      {_short_records_digest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
