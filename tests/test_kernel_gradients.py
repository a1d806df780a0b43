"""Exact gradients of the Gram-space (kernel-mode) objectives, and
stationarity of the points where window solves stop."""
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import flatdd.window
from flatdd.basis import KernelSpec, named_basis
from flatdd.experiments import run_example2
from flatdd.matching import MatchProblem, dd_match, kernel_match_problem
from flatdd.plant import collect_trajectory, example1_model, example2_model, simulate
from flatdd.signals import IoTrajectory
from flatdd.simulation import SimProblem, dd_simulate, kernel_sim_problem
from flatdd.solver import _projected, nonlinear_solve

L = 20


def _sim_data(seed):
    """Example-2 data, a fresh input and its first two outputs; seed 5 is
    the instance of test_kernel_mode_small_instance."""
    traj = collect_trajectory(example2_model(), 120, (-1.0, 1.0), seed=seed)
    u = np.random.default_rng(seed + 1).uniform(-1, 1, size=L - 2)
    y_true = simulate(example2_model(), np.zeros(2), u).flat
    return traj, L, u, y_true[:2]


def _match_data(seed):
    """Example-1 data and the sinusoidal reference."""
    traj = collect_trajectory(example1_model(), 120, (-0.5, 0.5), seed=seed)
    return traj, L, 0.5 * np.sin(2.0 * np.pi * np.arange(L) / 25.0)


CASES = {
    "gaussian-simulation": lambda: kernel_sim_problem(
        SimProblem(*_sim_data(5), "kernel", kernel=KernelSpec("gaussian", 1.0), lam=0.1)
    ),
    "gaussian-matching": lambda: kernel_match_problem(
        MatchProblem(*_match_data(5), "kernel", kernel=KernelSpec("gaussian", 1.0), lam=0.1)
    ),
}


def _central_differences(f, alpha, h=1e-6):
    g = np.empty_like(alpha)
    for i in range(alpha.size):
        e = np.zeros_like(alpha)
        e[i] = h
        g[i] = (f(alpha + e) - f(alpha - e)) / (2.0 * h)
    return g


@pytest.mark.parametrize("case", sorted(CASES))
def test_fused_gradient_matches_central_differences(case):
    # the solver's evaluation in the coordinates eta of the moved signal
    prob, alpha0 = CASES[case]()
    eta0, evaluate = _projected(prob, alpha0)
    rng = np.random.default_rng(11)
    for _ in range(3):
        eta = eta0 + rng.normal(size=eta0.size) * 0.05 * (1.0 + np.abs(eta0).max())
        value, grad, alpha = evaluate(eta)
        assert abs(value - prob.objective(alpha)) <= 1e-12 * abs(value)
        fd = _central_differences(lambda e: evaluate(e)[0], eta)
        assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(fd)


def test_kernel_simulation_polish_uses_exact_gradient(monkeypatch):
    # with finite differences the solve costs thousands of evaluations; the
    # projected solve evaluates the problem's terms, not its objective, so
    # L-BFGS-B's own count is read
    evaluations = []
    minimize = scipy.optimize.minimize

    def counted(*args, **kwargs):
        res = minimize(*args, **kwargs)
        evaluations.append(res.nfev)
        return res

    monkeypatch.setattr(scipy.optimize, "minimize", counted)
    prob = SimProblem(*_sim_data(5), "kernel", kernel=KernelSpec("gaussian", 1.0), lam=0.1)
    res = dd_simulate(prob)
    assert res.objective <= res.initial_objective
    assert 0 < sum(evaluations) <= 300


@pytest.mark.parametrize("case", sorted(CASES))
def test_kernel_solve_keeps_its_last_evaluation(monkeypatch, case):
    # L-BFGS-B stops at the point it evaluated last, whose alpha and value the
    # result takes: one kernel block for alpha0 and one per L-BFGS-B evaluation
    import flatdd.solver

    prob, alpha0 = CASES[case]()
    runs, blocks, evaluations = [], [], []
    minimize, kernel_eval, projected = scipy.optimize.minimize, flatdd.window.kernel_eval, flatdd.solver._projected

    def projected_kept(*args):
        eta0, evaluate = projected(*args)
        evaluations.append(evaluate)
        return eta0, evaluate

    monkeypatch.setattr(scipy.optimize, "minimize", lambda *a, **k: runs.append(minimize(*a, **k)) or runs[-1])
    monkeypatch.setattr(flatdd.window, "kernel_eval", lambda *a: blocks.append(1) or kernel_eval(*a))
    monkeypatch.setattr(flatdd.solver, "_projected", projected_kept)
    res = nonlinear_solve(prob, alpha0)
    assert runs and len(blocks) == 1 + sum(r.nfev for r in runs)
    # bit for bit what a fresh evaluation of the final point gives
    value, _, alpha = evaluations[0](runs[-1].x)
    assert value < res.initial_objective
    assert res.objective == value and np.array_equal(res.alpha, alpha)


@pytest.mark.parametrize("seed", range(5, 15))
@pytest.mark.parametrize("task", ["simulation", "matching"])
def test_objective_does_not_depend_on_a_solve(task, seed):
    # a problem is built factored: its objective at alpha0 is the same
    # number before a solve as the one the solve starts from
    if task == "simulation":
        prob, alpha0 = kernel_sim_problem(SimProblem(*_sim_data(seed), "kernel", kernel=KernelSpec("gaussian", 1.0)))
    else:
        prob, alpha0 = kernel_match_problem(
            MatchProblem(*_match_data(seed), "kernel", kernel=KernelSpec("gaussian", 1.0))
        )
    before = prob.objective(alpha0)
    assert nonlinear_solve(prob, alpha0).initial_objective == before


@settings(deadline=None, max_examples=20)
@given(
    st.integers(5, 29),
    st.sampled_from(["simulation", "matching"]),
    st.floats(0.01, 1.0),
    st.floats(0.5, 2.0),
)
def test_kernel_solve_never_above_initial_objective(seed, task, lam, sigma):
    if task == "simulation":
        res = dd_simulate(SimProblem(*_sim_data(seed), "kernel", kernel=KernelSpec("gaussian", sigma), lam=lam))
    else:
        res = dd_match(
            MatchProblem(*_match_data(seed), "kernel", kernel=KernelSpec("gaussian", sigma), lam=lam)
        )
    assert np.isfinite(res.objective)
    assert res.objective <= res.initial_objective


@pytest.mark.parametrize("data_input", ["random", "constant"])
@pytest.mark.parametrize("level", [0.0, 0.3])
@pytest.mark.parametrize("task", ["simulation", "matching"])
def test_kernel_solve_on_constant_output_data(task, level, data_input):
    # constant outputs give a depth-L output Hankel matrix of rank 1, or 0 at
    # level 0, and a constant input does the same to matching's input Hankel
    # matrix: the moved signal is confined to its range, or fixed at 0
    rng = np.random.default_rng(3)
    u = rng.uniform(-1.0, 1.0, 118) if data_input == "random" else np.full(118, level)
    traj = IoTrajectory.from_arrays(u, np.full(120, level), 2)
    if task == "simulation":
        u_new, y_init = rng.uniform(-1.0, 1.0, L - 2), np.full(2, level)
        res = dd_simulate(SimProblem(traj, L, u_new, y_init, "kernel", kernel=KernelSpec("gaussian")))
        signal = res.y.flat
    else:
        res = dd_match(MatchProblem(traj, L, _match_data(5)[2], "kernel", kernel=KernelSpec("gaussian")))
        signal = res.u.flat
    assert np.isfinite(res.objective) and res.objective <= res.initial_objective
    assert np.all(np.isfinite(res.alpha)) and np.all(np.isfinite(signal))


@pytest.mark.parametrize("seed", range(5, 10))
def test_example2_kernel_solve_takes_few_iterations(seed, tmp_path):
    # L-BFGS-B searches the 50-entry moved signal in whitened coordinates; over
    # all 701 coefficients it took 26-29 iterations on these data seeds
    metrics = run_example2(seed=seed, out_dir=str(tmp_path))
    assert metrics["converged"] and metrics["iterations"] <= 16


def _explicit_sim_problem(seed, lam):
    """The residual problem of an explicit example-1 simulation at L = 20."""
    traj = collect_trajectory(example1_model(), 150, (-0.5, 0.5), seed=seed)
    rng = np.random.default_rng(seed + 1)
    u = rng.uniform(-0.5, 0.5, size=L - 2)
    y_true = simulate(example1_model(), rng.uniform(-0.3, 0.3, size=2), u).flat
    captured = []
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mp.setattr(flatdd.window, "nonlinear_solve", lambda prob: captured.append(prob) or nonlinear_solve(prob))
        dd_simulate(SimProblem(traj, L, u, y_true[:2], "explicit", basis=named_basis("example1-poly"), lam=lam))
    return captured[0]


@settings(deadline=None, max_examples=20)
@given(
    st.integers(5, 29),
    st.sampled_from(["kernel-simulation", "kernel-matching", "explicit-simulation"]),
    st.floats(0.01, 1.0),
    st.floats(0.5, 2.0),
)
def test_converged_solves_are_stationary(seed, task, lam, sigma):
    if task == "kernel-simulation":
        prob, alpha0 = kernel_sim_problem(
            SimProblem(*_sim_data(seed), "kernel", kernel=KernelSpec("gaussian", sigma), lam=lam)
        )
    elif task == "kernel-matching":
        prob, alpha0 = kernel_match_problem(
            MatchProblem(*_match_data(seed), "kernel", kernel=KernelSpec("gaussian", sigma), lam=lam)
        )
    else:  # explicit fits are near exact and run at small weights
        prob, alpha0 = _explicit_sim_problem(seed, lam * 1e-4), None
    res = nonlinear_solve(prob, alpha0)
    assert res.converged
    start = np.zeros(prob.dim) if alpha0 is None else alpha0
    start, end = (_central_differences(prob.objective, a) for a in (start, res.alpha))
    assert np.linalg.norm(end) <= 1e-4 * np.linalg.norm(start)
