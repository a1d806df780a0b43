"""Exact gradients of the Gram-space (kernel-mode) objectives."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatdd.basis import KernelSpec, kernel_eval
from flatdd.matching import MatchProblem, dd_match, kernel_match_problem
from flatdd.plant import collect_trajectory, example1_model, example2_model, simulate
from flatdd.simulation import SimProblem, dd_simulate, kernel_sim_problem
from flatdd.solver import NormalEquationsProblem

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
    "gaussian-simulation": lambda: kernel_sim_problem(*_sim_data(5), KernelSpec("gaussian", 1.0), 0.1),
    "gaussian_plus_linear-simulation": lambda: kernel_sim_problem(
        *_sim_data(5), KernelSpec("gaussian_plus_linear", 1.0), 0.1
    ),
    "gaussian_plus_linear-matching": lambda: kernel_match_problem(
        *_match_data(5), KernelSpec("gaussian_plus_linear", 1.0), 0.1
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
    prob, _, alpha0 = CASES[case]()
    assert prob.cross_terms is not None
    rng = np.random.default_rng(11)
    for _ in range(3):
        alpha = alpha0 + rng.normal(size=alpha0.size) * 0.05 * (1.0 + np.abs(alpha0).max())
        value, grad = prob.value_and_grad(alpha)
        assert abs(value - prob.objective(alpha)) <= 1e-12 * abs(value)
        fd = _central_differences(prob.objective, alpha)
        assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(fd)


def test_pair_function_problem_has_no_gradient():
    spec = KernelSpec("gaussian", 1.0)
    by_fn, _, a0 = kernel_sim_problem(*_sim_data(5), lambda Z1, Z2: kernel_eval(spec, Z1, Z2), 0.1)
    by_spec, _, _ = kernel_sim_problem(*_sim_data(5), spec, 0.1)
    assert by_fn.cross_terms is None
    # same objective either way; the spec form reads the diagonal in closed form
    assert abs(by_fn.objective(a0) - by_spec.objective(a0)) <= 1e-12 * by_spec.objective(a0)


def test_kernel_simulation_polish_uses_exact_gradient(monkeypatch):
    # with finite differences the polish alone costs thousands of objective calls
    evaluations = []
    for name in ("objective", "value_and_grad"):
        method = getattr(NormalEquationsProblem, name, None)
        if method is not None:
            monkeypatch.setattr(
                NormalEquationsProblem,
                name,
                lambda self, a, method=method: evaluations.append(1) or method(self, a),
            )
    prob = SimProblem(*_sim_data(5), "kernel", kernel=KernelSpec("gaussian", 1.0), lam=0.1)
    res = dd_simulate(prob)
    assert res.objective <= res.initial_objective
    assert 0 < len(evaluations) <= 3 * NormalEquationsProblem.polish_maxiter


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
            MatchProblem(*_match_data(seed), "kernel", kernel=KernelSpec("gaussian_plus_linear", sigma), lam=lam)
        )
    assert np.isfinite(res.objective)
    assert res.objective <= res.initial_objective
