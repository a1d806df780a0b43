"""The four workloads: how each derives its requests from the seed, runs one
request against flatdd, and checks the answer.

A workload's ``make(i)`` builds the inputs of request ``i`` (pure function
of the seed and ``i``), ``run(req)`` is the timed library call, and
``check(req, out)`` judges the output.  Generation and checking stay
outside the timed and traced region.

Every failed check counts in ``failed`` and ``fail_rate`` and makes the run
incorrect: an exception, a non-finite output, an objective above its
starting value or above the one recorded for its data seed in
``objectives.json``, a wrong verdict and an accuracy miss.  The workloads
are chosen so that no request fails; two known defects of flatdd lie
outside them (README, "Known defects outside the workloads").
"""
from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Layer functions are looked up on their modules at call time, so that the
# tracer's wrappers see the calls this file makes.
from flatdd import basis, experiments, matching, membership, plant
from flatdd.errors import DivergenceError

import spec

# Example1 excitation seeds 5-29 give finite data at the default length
# (README); every workload draws its data seeds from this range, so the
# objective of each experiment request can be recorded once per data seed.
DATA_SEEDS = range(5, 5 + spec.DATA_SEED_COUNT)
L = 50
MATCH_REL_ERR_BOUND = 1e-3  # the criterion-3 bound, applied to noiseless explicit matching
# An experiment's objective may exceed the one recorded for its data seed
# by this share before the request fails.
OBJECTIVE_RISE = 0.02
OBJECTIVES_FILE = Path(__file__).resolve().parent / "objectives.json"


@dataclass
class Request:
    kind: str
    args: dict = field(default_factory=dict)


@dataclass
class Outcome:
    ok: bool = True
    why: str = ""
    values: dict = field(default_factory=dict)  # y_err_2, u_err_2, objective, bytes_written

    def fail(self, why: str) -> "Outcome":
        self.ok, self.why = False, why
        return self


def _data_seed(seed: int, i: int) -> int:
    """Cycle through the documented finite-data seeds, starting at an
    offset fixed by the run seed."""
    return DATA_SEEDS[(seed + i) % len(DATA_SEEDS)]


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(v)) for v in values)


def _check_solve(out: Outcome, objective: float, initial: float) -> Outcome:
    out.values["objective"] = float(objective)
    if not math.isfinite(objective):
        return out.fail("objective is not finite")
    if math.isfinite(initial) and objective > initial:
        return out.fail(f"objective {objective:.6g} above initial {initial:.6g}")
    return out


class Workload:
    name = ""
    cycle = 1  # requests in one repetition of the request-kind mix

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir

    def setup(self) -> None:
        """Shared data and warm-up; timed as part of set-up."""

    def make(self, i: int) -> Request:
        raise NotImplementedError

    def run(self, req: Request):
        raise NotImplementedError

    def check(self, req: Request, result) -> Outcome:
        raise NotImplementedError

    def cleanup(self, req: Request) -> None:
        pass


class _ExperimentWorkload(Workload):
    """One seeded experiment driver call per request, writing into its own
    directory; the metrics JSON it writes must equal what it returns, and
    the objective must not rise above the one recorded for the data seed.
    With ``recording`` set, the objective is not compared (``run.py
    --record-objectives`` writes the record from such a run)."""

    metrics_file = ""

    def __init__(self, seed: int, work_dir: Path, recording: bool = False):
        super().__init__(seed, work_dir)
        self.recording = recording
        if not recording:
            self.recorded = json.loads(OBJECTIVES_FILE.read_text(encoding="utf-8"))[self.name]

    def make(self, i: int) -> Request:
        out_dir = self.work_dir / f"req{i:05d}"
        return Request(self.name, {"seed": _data_seed(self.seed, i), "out_dir": str(out_dir)})

    def check(self, req: Request, metrics: dict) -> Outcome:
        out = Outcome()
        out_dir = Path(req.args["out_dir"])
        files = [p for p in out_dir.iterdir() if p.is_file()]
        out.values["bytes_written"] = sum(p.stat().st_size for p in files)
        out.values["data_seed"] = req.args["seed"]
        out.values["y_err_2"] = metrics["y_err_2"]
        if "u_err_2" in metrics:
            out.values["u_err_2"] = metrics["u_err_2"]
        saved = json.loads((out_dir / self.metrics_file).read_text(encoding="utf-8"))
        if saved != metrics:
            return out.fail("metrics JSON differs from the returned metrics")
        if not _finite(metrics["y_err_2"], metrics.get("u_err_2", 0.0)):
            return out.fail("error norm is not finite")
        _check_solve(out, metrics["objective"], metrics["initial_objective"])
        if out.ok and not self.recording:
            limit = self.recorded[str(req.args["seed"])] * (1.0 + OBJECTIVE_RISE)
            if metrics["objective"] > limit:
                out.fail(f"objective {metrics['objective']:.6g} above {limit:.6g}, the recorded objective "
                         f"of data seed {req.args['seed']} plus {OBJECTIVE_RISE:.0%}")
        return out

    def cleanup(self, req: Request) -> None:
        shutil.rmtree(req.args["out_dir"], ignore_errors=True)


class KernelSim(_ExperimentWorkload):
    name = "kernel-sim"
    metrics_file = "example2_metrics.json"

    def run(self, req: Request) -> dict:
        return experiments.run_example2(**req.args)


class KernelMatch(_ExperimentWorkload):
    name = "kernel-match"
    metrics_file = "example1_metrics.json"

    def run(self, req: Request) -> dict:
        return experiments.run_example1(mode="kernel", **req.args)


class ExplicitSweep(_ExperimentWorkload):
    name = "explicit-sweep"
    metrics_file = "example1_metrics.json"

    def run(self, req: Request) -> dict:
        return experiments.run_example1(**req.args)


class ExplicitShared(Workload):
    """Membership and matching requests against one noiseless example1
    dataset built at set-up.

    Kinds repeat as membership, match, membership; every fourth membership
    candidate is a perturbed non-member.  Candidate windows are cut at a
    random offset from an example1 trajectory recorded like the shared
    data, on one of the other documented data seeds.
    """

    name = "explicit-shared"
    cycle = 3
    LAM = 1e-8

    def setup(self) -> None:
        self.model = plant.example1_model()
        self.basis = basis.named_basis("example1-poly")
        self.data_seed = _data_seed(self.seed, 0)
        self.traj = plant.collect_trajectory(self.model, 500, (-0.5, 0.5), seed=self.data_seed)
        self.windows_from = {}  # data seed -> trajectory that candidate windows are cut from
        # warm-up: one request of each kind, outside the measured stream
        for i in (-3, -2):
            self.run(self.make(i))

    def _window(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        d = int(rng.choice([d for d in DATA_SEEDS if d != self.data_seed]))
        if d not in self.windows_from:
            self.windows_from[d] = plant.collect_trajectory(self.model, self.traj.N, (-0.5, 0.5), seed=d)
        traj = self.windows_from[d]
        k = int(rng.integers(0, traj.N - L + 1))
        return traj.u.flat[k : k + L - self.model.n].copy(), traj.y.flat[k : k + L].copy()

    def make(self, i: int) -> Request:
        rng = np.random.default_rng([self.seed, i % 2**32, int(i < 0)])
        slot = i % 3
        if slot != 1:
            u, y = self._window(rng)
            member = (2 * (i // 3) + slot // 2) % 4 != 3
            if not member:
                # relative to the window's scale, as the verdict tolerance is
                y = y + rng.uniform(0.05, 0.2, y.size) * rng.choice([-1.0, 1.0], y.size) * (1.0 + np.abs(y))
            return Request("membership", {"u": u, "y": y, "member": member})
        phase = rng.uniform(0.0, 25.0)
        y_ref = 0.5 * np.sin(2.0 * np.pi * (np.arange(L) + phase) / 25.0)
        return Request("match", {"y_ref": y_ref})

    def run(self, req: Request):
        a = req.args
        if req.kind == "membership":
            return membership.flat_membership(self.traj, self.basis, L, a["u"], a["y"])
        prob = matching.MatchProblem(self.traj, L, a["y_ref"], "explicit", basis=self.basis, lam=self.LAM)
        return matching.dd_match(prob)

    def check(self, req: Request, res) -> Outcome:
        out = Outcome()
        a = req.args
        if req.kind == "membership":
            if res.is_member != a["member"]:
                return out.fail(f"verdict {res.is_member} for a window built as member={a['member']} "
                                f"(max |y| {float(np.abs(a['y']).max()):.3g})")
            return out
        y_ref = a["y_ref"]
        if not _finite(res.u.flat):
            return out.fail("matching input is not finite")
        u_model = plant.matching_input_oracle(self.model, y_ref)
        out.values["u_err_2"] = float(np.linalg.norm(res.u.flat - u_model))
        try:
            x0 = self.model.state_from_window(y_ref[: self.model.n])
            y_achieved = plant.simulate(self.model, x0, res.u.flat).flat
        except DivergenceError:
            out.values["y_err_2"] = math.inf
            return out.fail("the computed input drives the true plant to overflow")
        out.values["y_err_2"] = float(np.linalg.norm(y_achieved - y_ref))
        _check_solve(out, res.objective, res.initial_objective)
        for key, ref in (("u_err_2", u_model), ("y_err_2", y_ref)):
            rel = out.values[key] / float(np.linalg.norm(ref))
            if out.ok and rel > MATCH_REL_ERR_BOUND:
                out.fail(f"relative {key[0]} error {rel:.3g} > {MATCH_REL_ERR_BOUND:g}")
        return out


WORKLOADS = {w.name: w for w in (KernelSim, KernelMatch, ExplicitShared, ExplicitSweep)}
