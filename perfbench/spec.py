"""What the benchmark measures: workloads, metrics and their expected links.

This module is the single source for ``BENCHMARK.json`` (written by
``run.py --write-manifest``) and for the expected-move map stored in
``perfbench/baseline.json``.  It imports nothing heavy so the harness can
read it without loading numpy.
"""

RUN_SECONDS = 15
# Every workload cycles through this many data seeds (workloads.DATA_SEEDS),
# and the objective of each is recorded once for these workloads.
DATA_SEED_COUNT = 25
RECORDED_WORKLOADS = ["kernel-sim", "kernel-match", "explicit-sweep"]

WORKLOADS = [
    {
        "name": "kernel-sim",
        "why": "run_example2 per request (Gaussian-kernel simulation, N=750, L=50): the slowest path; "
        "solver.objective, solver.polish and basis.kernel_eval should move request_ref.p50",
    },
    {
        "name": "kernel-match",
        "why": "run_example1 mode=kernel per request (gaussian_plus_linear matching, N=500): same solver "
        "and basis layers with the input as unknown and a linear kernel term",
    },
    {
        "name": "explicit-shared",
        "why": "membership/match mix (2:1) on one shared example1 dataset: repeats the same "
        "data-block SVDs, so signals, membership and ridge reuse should move request_ref.p50",
    },
    {
        "name": "explicit-sweep",
        "why": "run_example1 explicit per request on a fresh dataset: nothing to share across requests, "
        "plant and experiments carry a share; a cross-request cache shows only its cost here",
    },
]

# Bounds are shares of the parent's median by which a metric may worsen.
# Unit "ref": multiples of the time of the fixed reference computation
# (worker.Reference) sampled in the same process.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "request_ref.p50", "unit": "ref", "better": "lower", "bound": 0.25},
    {"name": "cpu_ref_per_request.p50", "unit": "ref", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def _layer(name: str, unit: str, better: str = "lower") -> dict:
    return {"name": name, "unit": unit, "better": better}


# Per-request values from the traced run; ``.s`` is self time (span minus
# child spans), ``.calls`` a count of entries into the public function.
PER_LAYER = [
    _layer("basis.kernel_eval.calls", "calls/req"),
    _layer("basis.kernel_eval.s", "s/req"),
    _layer("basis.kernel_eval.pairs", "pairs/req"),
    _layer("basis.kernel_eval.bytes", "B/req"),
    _layer("solver.objective.calls", "calls/req"),
    _layer("solver.objective.s", "s/req"),
    _layer("solver.polish.s", "s/req"),
    _layer("solver.polish.nit", "iter/req"),
    _layer("solver.polish.nfev", "evals/req"),
    _layer("solver.nonlinear_solve.calls", "calls/req"),
    _layer("solver.nonlinear_solve.s", "s/req"),
    _layer("solver.fixed_point.iterations", "iter/req"),
    _layer("solver.converged_share", "share", "higher"),
    _layer("simulation.kernel_sim_problem.s", "s/req"),
    _layer("matching.kernel_match_problem.s", "s/req"),
    _layer("signals.pe_check.calls", "calls/req"),
    _layer("signals.pe_check.s", "s/req"),
    _layer("signals.build_hankel.s", "s/req"),
    _layer("solver.ridge_solve.calls", "calls/req"),
    _layer("solver.ridge_solve.s", "s/req"),
    _layer("membership.flat_membership.calls", "calls/req"),
    _layer("membership.flat_membership.s", "s/req"),
    _layer("membership.flat_stack.s", "s/req"),
    _layer("basis.build_psi_hankel.s", "s/req"),
    _layer("basis.eval_psi_hat.calls", "calls/req"),
    _layer("basis.eval_psi_hat.s", "s/req"),
    _layer("simulation.dd_simulate.s", "s/req"),
    _layer("matching.dd_match.s", "s/req"),
    _layer("plant.collect_trajectory.s", "s/req"),
    _layer("plant.simulate.calls", "calls/req"),
    _layer("plant.simulate.s", "s/req"),
    _layer("plant.matching_input_oracle.s", "s/req"),
    _layer("experiments.run_example1.s", "s/req"),
    _layer("experiments.run_example2.s", "s/req"),
    _layer("experiments.bytes_written", "B/req"),
    _layer("setup.import_s", "s"),
    _layer("setup.data_s", "s"),
    _layer("trace.request_s", "s/req"),
    _layer("trace.overhead_s", "s/req"),
    _layer("trace.overhead_share", "share"),
]

# Counts that must repeat exactly across two runs of one seed, and the
# workloads on which each must read 0 because the workload bypasses it.
SELF_CHECK_COUNTS = {
    "solver.objective.calls": ["explicit-shared", "explicit-sweep"],
    "solver.polish.nfev": ["explicit-shared", "explicit-sweep"],
    "basis.kernel_eval.pairs": ["explicit-shared", "explicit-sweep"],
    "plant.simulate.calls": ["explicit-shared"],
}

_KERNEL_SOLVE = [
    "basis.kernel_eval.calls",
    "basis.kernel_eval.s",
    "basis.kernel_eval.pairs",
    "basis.kernel_eval.bytes",
    "solver.objective.calls",
    "solver.objective.s",
    "solver.polish.s",
    "solver.polish.nit",
    "solver.polish.nfev",
    "solver.nonlinear_solve.calls",
    "solver.nonlinear_solve.s",
    "solver.fixed_point.iterations",
    "solver.converged_share",
]
_EXPLICIT_REUSE = [
    "signals.pe_check.calls",
    "signals.pe_check.s",
    "signals.build_hankel.s",
    "solver.ridge_solve.calls",
    "solver.ridge_solve.s",
    "membership.flat_membership.calls",
    "membership.flat_membership.s",
    "membership.flat_stack.s",
    "basis.build_psi_hankel.s",
    "basis.eval_psi_hat.calls",
    "basis.eval_psi_hat.s",
]
_PLANT_DRIVER = [
    "plant.collect_trajectory.s",
    "plant.simulate.calls",
    "plant.simulate.s",
    "plant.matching_input_oracle.s",
    "experiments.run_example1.s",
    "experiments.run_example2.s",
    "experiments.bytes_written",
]
_SETUP = {"layers": ["setup.import_s", "setup.data_s"], "moves": ["setup_s"]}

# Written down before any optimisation: which per-layer metrics should move
# which end-to-end metric on each workload.
EXPECTED_MOVES = {
    "kernel-sim": [
        {"layers": _KERNEL_SOLVE, "moves": ["request_ref.p50", "objective.median"]},
        {
            "layers": ["simulation.kernel_sim_problem.s"],
            "moves": ["request_ref.p50"],
            "note": "Gram assembly: a small share today that grows once the polish shrinks",
        },
        _SETUP,
    ],
    "kernel-match": [
        {"layers": _KERNEL_SOLVE, "moves": ["request_ref.p50", "objective.median"]},
        {
            "layers": ["matching.kernel_match_problem.s"],
            "moves": ["request_ref.p50"],
            "note": "Gram assembly: a small share today that grows once the polish shrinks",
        },
        _SETUP,
    ],
    "explicit-shared": [
        {"layers": _EXPLICIT_REUSE, "moves": ["request_ref.p50", "throughput_rps"]},
        {"layers": ["matching.dd_match.s"], "moves": ["request_ref.p50"]},
        {"layers": ["simulation.dd_simulate.s"], "moves": [], "note": "reads 0: no request simulates"},
        {
            "layers": _KERNEL_SOLVE,
            "moves": [],
            "note": "reads 0: the kernel path is bypassed and explicit matching is closed form",
        },
        _SETUP,
    ],
    "explicit-sweep": [
        {"layers": _PLANT_DRIVER, "moves": ["request_ref.p50"]},
        {
            "layers": _EXPLICIT_REUSE,
            "moves": [],
            "note": "should not move; peak_rss_mb and setup_s expose a cross-request cache's cost",
        },
        {"layers": _KERNEL_SOLVE[:4], "moves": [], "note": "reads 0: the kernel path is bypassed"},
        _SETUP,
    ],
}

# Acceptance-criterion error bands printed beside each run's accuracy medians;
# a median above a band's upper edge makes the run incorrect.
BANDS = {
    "kernel-sim": {"y_err_2.median": (0.1, 1.0, "criterion 5")},
    "kernel-match": {
        "y_err_2.median": (0.08, 0.75, "criterion 4 (explicit regime)"),
        "u_err_2.median": (0.02, 0.25, "criterion 4 (explicit regime)"),
    },
    "explicit-sweep": {
        "y_err_2.median": (0.08, 0.75, "criterion 4"),
        "u_err_2.median": (0.02, 0.25, "criterion 4"),
    },
}


def manifest() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }
