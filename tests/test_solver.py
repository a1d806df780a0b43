import sys
import threading
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import flatdd.solver
from flatdd.basis import BasisSet, KernelSpec, named_basis
from flatdd.errors import (
    ConditioningWarning,
    ConfigError,
    DivergenceError,
    PersistencyWarning,
    SingularMatrixError,
)
from flatdd.experiments import ExperimentConfig, _collect, example2_defaults, reference_output, run_example1
from flatdd.matching import MatchProblem, dd_match, kernel_match_problem
from flatdd.plant import collect_trajectory, example1_model, example2_model
from flatdd.simulation import SimProblem, dd_simulate, kernel_sim_problem
from flatdd.solver import (
    NonlinearResidualProblem,
    NormalEquationsProblem,
    RidgeProblem,
    _cholesky,
    _projected,
    _svd,
    nonlinear_solve,
    ridge_solve,
)


def test_identity_shrinkage():
    b = np.array([3.0, -1.0, 2.0])
    for lam in (0.0, 0.5, 4.0):
        assert_allclose(ridge_solve(RidgeProblem(np.eye(3), b, lam)), b / (1 + lam))


def test_unregularized_square_solve():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(4, 4))
    b = rng.normal(size=4)
    assert_allclose(ridge_solve(RidgeProblem(A, b, 0.0)), np.linalg.solve(A, b), rtol=1e-10)


def test_first_order_optimality_fixed_instance():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(5, 3))
    b = rng.normal(size=5)
    alpha = ridge_solve(RidgeProblem(A, b, 0.1))
    grad = 2 * A.T @ (A @ alpha - b) + 2 * 0.1 * alpha
    assert np.linalg.norm(grad) <= 1e-10


def test_singular_without_regularization():
    A = np.column_stack([np.ones(4), np.ones(4)])
    with pytest.raises(SingularMatrixError, match="lam > 0"):
        ridge_solve(RidgeProblem(A, np.ones(4), 0.0))
    # the same data block is fine once regularized
    ridge_solve(RidgeProblem(A, np.ones(4), 1e-6))


def test_conditioning_warning():
    A = np.diag([1.0, 1e-8])
    with pytest.warns(ConditioningWarning, match="condition number"):
        ridge_solve(RidgeProblem(A, np.ones(2), 0.0))


def test_problem_validation():
    with pytest.raises(ConfigError):
        RidgeProblem(np.eye(2), np.ones(3), 0.0)
    with pytest.raises(ConfigError):
        RidgeProblem(np.eye(2), np.ones(2), -1.0)
    with pytest.raises(ConfigError):
        NonlinearResidualProblem(np.eye(2), lambda a: np.ones(2), 0.1, max_iter=0)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000))
def test_optimality_random_instances(seed):
    rng = np.random.default_rng(seed)
    m, p = int(rng.integers(2, 12)), int(rng.integers(1, 8))
    A = rng.normal(size=(m, p))
    b = rng.normal(size=m)
    lam = float(rng.uniform(1e-6, 2.0))
    alpha = ridge_solve(RidgeProblem(A, b, lam))
    grad = 2 * A.T @ (A @ alpha - b) + 2 * lam * alpha
    assert np.linalg.norm(grad) <= 1e-8 * (1 + np.linalg.norm(A.T @ b))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000))
def test_shrinkage_monotone_in_lambda(seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(8, 4))
    b = rng.normal(size=8)
    lams = [0.01, 0.1, 1.0, 10.0]
    norms = [np.linalg.norm(ridge_solve(RidgeProblem(A, b, l))) for l in lams]
    for small, big in zip(norms, norms[1:]):
        assert big <= small + 1e-12


def test_constant_rhs_reduces_to_ridge():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(10, 4))
    b = rng.normal(size=10)
    lam = 0.05
    direct = ridge_solve(RidgeProblem(A, b, lam))
    res = nonlinear_solve(NonlinearResidualProblem(A, lambda a: b, lam), np.zeros(4))
    assert res.converged
    assert res.iterations == 1
    assert_allclose(res.alpha, direct, rtol=1e-8, atol=1e-12)


def test_scalar_toy_matches_grid_search():
    prob = NonlinearResidualProblem(
        np.array([[1.0]]), lambda a: 0.5 * np.tanh(a) + 1.0, 0.1
    )
    res = nonlinear_solve(prob, np.zeros(1))
    grid = np.arange(-5.0, 5.0 + 1e-4, 1e-4)
    vals = (grid - 0.5 * np.tanh(grid) - 1.0) ** 2 + 0.1 * grid**2
    best = grid[np.argmin(vals)]
    assert abs(res.alpha[0] - best) <= 1e-3
    assert res.objective <= vals.min() + 1e-9


def test_objective_never_above_initial():
    rng = np.random.default_rng(4)
    A = rng.normal(size=(6, 3))

    def wild_rhs(a):
        return 10.0 * np.sin(3.0 * A @ a) + rng.standard_normal(6) * 0.0 + 1.0

    prob = NonlinearResidualProblem(A, wild_rhs, 0.01, max_iter=50)
    for trial in range(5):
        a0 = np.random.default_rng(trial).normal(size=3) * 3
        res = nonlinear_solve(prob, a0)
        assert res.objective <= prob.objective(a0) + 1e-12


def test_divergent_rhs_raises():
    prob = NonlinearResidualProblem(
        np.eye(2), lambda a: np.array([np.inf, 0.0]), 0.1
    )
    with pytest.raises(DivergenceError):
        nonlinear_solve(prob, np.zeros(2))


def _fixed_terms(cross, offset=0.0):
    """Terms of a Gram problem whose cross and offset do not move with the signal."""
    return lambda v: (cross, offset, lambda alpha: np.zeros(v.size))


def test_normal_equations_form_matches_explicit():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(9, 4))
    b = rng.normal(size=9)
    lam = 0.2
    explicit = nonlinear_solve(NonlinearResidualProblem(A, lambda a: b, lam), np.zeros(4))
    viagram = nonlinear_solve(
        NormalEquationsProblem(_cholesky(A.T @ A, lam), _fixed_terms(A.T @ b, float(b @ b)), np.eye(4)),
        np.zeros(4),
    )
    assert_allclose(viagram.alpha, explicit.alpha, rtol=1e-8)
    assert_allclose(viagram.objective, explicit.objective, rtol=1e-8, atol=1e-10)


def test_normal_equations_signal_map_must_fit_gram():
    with pytest.raises(ConfigError, match="signal map"):
        NormalEquationsProblem(_cholesky(np.eye(3), 0.1), _fixed_terms(np.ones(3)), np.eye(2))


def test_normal_equations_singular_guard():
    with pytest.raises(SingularMatrixError):
        _cholesky(np.zeros((3, 3)), 0.0)


def test_normal_equations_conditioning_warning():
    G = np.diag([1.0, 1e-13])
    with pytest.warns(ConditioningWarning, match=r"condition number 1\.000e\+13"):
        _cholesky(G, 0.0)


def test_condition_estimate_warns_on_dense_ill_conditioned_gram():
    n = 20
    Q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(n, n)))
    G = (Q * np.logspace(0, -13, n)) @ Q.T
    with pytest.warns(ConditioningWarning) as record:
        _cholesky(G, 0.0)
    # the 1-norm estimate is within a small factor of the true condition number 1e13
    estimate = float(str(record[0].message).rsplit(" ", 1)[1])
    assert 1e12 < estimate < 1e15


def test_condition_estimate_quiet_on_kernel_sim_gram():
    config = example2_defaults(seed=5)
    traj = _collect(config, example2_model())
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConditioningWarning)
        prob, _ = kernel_sim_problem(
            SimProblem(
                traj, config.horizon, np.zeros(config.horizon - 2), np.zeros(2), "kernel",
                kernel=KernelSpec("gaussian", config.sigma), lam=config.lam,
            )
        )
    # LAPACK's estimate on the factor, which the build may skip, is quiet as well
    L = np.tril(prob.L)
    M = L @ L.T
    assert scipy.linalg.lapack.dpocon(prob.L, scipy.linalg.lapack.dlange("1", M), uplo="L")[0] >= 1e-12


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_nonfinite_gram_is_singular(value):
    M = np.random.default_rng(3).normal(size=(4, 4))
    G = M @ M.T
    G[1, 2] = G[2, 1] = value
    with pytest.raises(SingularMatrixError, match="lam = 0.1"):
        _cholesky(G, 0.1)


def _kernel_sim_seed5():
    config = example2_defaults(seed=5)
    u = np.random.default_rng(6).uniform(-1.0, 1.0, config.horizon - 2)
    traj = _collect(config, example2_model())
    spec = KernelSpec("gaussian", config.sigma)
    return kernel_sim_problem(SimProblem(traj, config.horizon, u, np.zeros(2), "kernel", kernel=spec, lam=config.lam))


def _kernel_match_seed5():
    traj = _collect(ExperimentConfig(seed=5), example1_model())
    return kernel_match_problem(
        MatchProblem(traj, 50, reference_output(50), "kernel", kernel=KernelSpec("gaussian", 1.0), lam=0.1)
    )


@pytest.mark.parametrize("build", [_kernel_sim_seed5, _kernel_match_seed5])
def test_whitened_evaluation_matches_objective(build):
    # the solver never forms gram @ alpha; at each point of its coordinates its
    # value must be the problem's own objective at the alpha it returns, that
    # alpha must move the signal the terms were taken at, and it must minimize
    # the objective among the alphas that move the same signal
    prob, alpha0 = build()
    H, signals = prob.H, []
    recording = NormalEquationsProblem(prob.L, lambda v: signals.append(v) or prob.terms(v), H)
    L = np.tril(prob.L)
    M = L @ L.T
    eta0, evaluate = _projected(recording, alpha0)
    rng = np.random.default_rng(8)
    for scale in (0.0, 0.1, 1.0):
        value, _, alpha = evaluate(eta0 + scale * rng.normal(size=eta0.size))
        v = signals[-1]
        assert np.linalg.norm(H @ alpha - v) <= 1e-10 * np.linalg.norm(np.abs(H) @ np.abs(alpha))
        assert_allclose(value, prob.objective(alpha), rtol=1e-10)
        # M alpha - cross(v) = H' mu: no part of it keeps the signal fixed
        gap = M @ alpha - prob.terms(v)[0]
        mu = np.linalg.lstsq(H.T, gap, rcond=None)[0]
        assert np.linalg.norm(gap - H.T @ mu) <= 1e-8 * np.linalg.norm(gap)
    # the start is the signal of alpha0
    evaluate(eta0)
    assert np.linalg.norm(signals[-1] - H @ alpha0) <= 1e-10 * np.linalg.norm(H @ alpha0)


def test_gram_factor_makes_one_copy():
    # the one copy is the caller's G, factored in its own memory: no second copy, no |M| temporary
    M = np.random.default_rng(3).normal(size=(701, 701))
    G = M @ M.T / 701
    tracemalloc.start()
    try:
        L = _cholesky(G, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(L, G)
    assert peak <= 0.1 * G.nbytes


def test_kernel_solve_factors_its_gram_in_the_data_block():
    # the Gram is summed and factored in the data kernel block's memory: no Gram-sized copy
    config = example2_defaults(seed=5)
    u = np.random.default_rng(6).uniform(-1.0, 1.0, config.horizon - 2)
    traj = _collect(config, example2_model())
    spec = KernelSpec("gaussian", config.sigma)
    sim = SimProblem(traj, config.horizon, u, np.zeros(2), "kernel", kernel=spec, lam=config.lam)
    tracemalloc.start()
    try:
        prob, alpha0 = kernel_sim_problem(sim)
        res = nonlinear_solve(prob, alpha0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * traj.u.length**2 * 8  # the 748 x 748 block of the data points
    assert_allclose(prob.objective(res.alpha), res.objective, rtol=1e-10)


@pytest.mark.parametrize("radius", [0.0, 0.5])
def test_gram_solve_survives_nonfinite_region(radius):
    # the objective is NaN farther than radius from alpha0; L-BFGS-B sees
    # 1e300 there, and at radius 0 every point it tries but its start is
    # outside, so the result is the start or, by the guard on it, alpha0
    M = np.random.default_rng(3).normal(size=(3, 3))
    alpha0 = np.array([0.3, -0.2, 0.1])
    outside = []

    def terms(a):
        if np.linalg.norm(a - alpha0) > radius:
            outside.append(a)
            return np.full(3, np.nan), np.nan, lambda alpha: np.full(3, np.nan)
        return np.array([10.0, 5.0, -3.0]), 0.0, lambda alpha: np.zeros(3)

    prob = NormalEquationsProblem(_cholesky(M @ M.T, 0.1), terms, np.eye(3))
    res = nonlinear_solve(prob, alpha0)
    assert outside
    assert np.isfinite(res.objective) and res.objective <= res.initial_objective
    assert_allclose(prob.objective(res.alpha), res.objective, rtol=1e-12)
    # the stand-in value has a zero gradient, which is no sign of a minimum:
    # the true gradient at alpha0 has norm 17.8
    assert not res.converged


def test_gram_solve_started_at_its_minimizer_converges():
    M = np.random.default_rng(3).normal(size=(3, 3))
    c = np.array([10.0, 5.0, -3.0])
    prob = NormalEquationsProblem(_cholesky(M @ M.T, 0.1), _fixed_terms(c), np.eye(3))
    alpha_star = np.linalg.solve(M @ M.T + 0.1 * np.eye(3), c)
    res = nonlinear_solve(prob, alpha_star)
    assert res.converged
    assert res.objective <= res.initial_objective
    assert np.linalg.norm(res.alpha - alpha_star) <= 1e-12 * np.linalg.norm(alpha_star)


@pytest.mark.parametrize("seed", [0, 1, 57])
def test_rank_deficient_gram_is_singular(seed):
    # seed 57 gives a 2-vector whose v v' passes Cholesky with a pivot at rounding level
    rng = np.random.default_rng(seed)
    v = rng.normal(size=rng.integers(2, 12))
    with pytest.raises(SingularMatrixError):
        _cholesky(np.outer(v, v), 0.0)


def test_ridge_nonfinite_block_is_singular():
    A = np.eye(3)
    A[1, 2] = np.nan
    with pytest.raises(SingularMatrixError, match="did not converge"):
        ridge_solve(RidgeProblem(A, np.ones(3), 0.1))


def test_ridge_nonfinite_block_raises_for_any_lam():
    for lam in (0.0, 0.1):
        for value in (np.nan, np.inf, -np.inf):
            A = np.eye(3)
            A[2, 0] = value
            with pytest.raises(SingularMatrixError, match="non-finite"):
                ridge_solve(RidgeProblem(A, np.ones(3), lam))


@pytest.mark.parametrize("shape", [(12, 30), (30, 12)])
@pytest.mark.parametrize("seed", range(6))
def test_svd_rank_is_matrix_rank(shape, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(0, min(shape)))
    M = rng.normal(size=(shape[0], k)) @ rng.normal(size=(k, shape[1]))
    for vectors in (True, False):
        out, rank = _svd(M, "M", vectors)
        assert rank == np.linalg.matrix_rank(M)
        s = np.linalg.svd(M, compute_uv=False)
        assert_allclose(out[1] if vectors else out, s, rtol=0, atol=1e-12 * s[0])


def test_svd_of_infinite_entry_raises_before_lapack(capfd):
    # with inf at [2, 3], OpenBLAS's LAPACK would print a DLASCL parameter error
    M = np.random.default_rng(3).normal(size=(20, 40))
    M[2, 3] = np.inf
    with pytest.raises(SingularMatrixError, match="did not converge"):
        _svd(M, "the test matrix")
    assert capfd.readouterr() == ("", "")


def _svd_filter_solution(A, b, lam):
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    return Vt.T @ (s / (s**2 + lam) * (U.T @ b))


@pytest.fixture(scope="module")
def example1_match_block():
    """The data block A - C and right-hand side of the seed-5 example1 explicit
    match: the one Gauss-Newton step of a basis affine in u."""
    captured = []

    def recording(prob):
        captured.append((prob.A.copy(), prob.b))  # A is the solve's Jacobian scratch
        return ridge_solve(prob)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flatdd.solver, "ridge_solve", recording)
        dd_match(MatchProblem(
            _collect(ExperimentConfig(seed=5), example1_model()), 50, reference_output(50),
            "explicit", basis=named_basis("example1-poly"), lam=0.1,
        ))
    ((A, b),) = captured
    return A, b


def test_explicit_match_block_holds_equations_only(example1_match_block):
    # 48 points times the 5 functions besides the identity, then the 50 reference outputs; the
    # identity's rows would be zero rows of A - C, as the moved input is the identity's value
    A, b = example1_match_block
    assert A.shape == (5 * 48 + 50, 451) and b.size == A.shape[0]
    assert np.abs(A).max(axis=1).min() > 0.0


@pytest.mark.parametrize("lam", [1e-8, 1e-3, 0.1])
@pytest.mark.parametrize("block", ["wide", "tall", "example1"])
def test_regularized_ridge_matches_svd_filter(block, lam, example1_match_block):
    if block == "example1":
        A, b = example1_match_block
    else:
        rng = np.random.default_rng(7)
        A = rng.normal(size=(30, 45) if block == "wide" else (45, 30))
        b = rng.normal(size=A.shape[0])
    expected = _svd_filter_solution(A, b, lam)
    alpha = ridge_solve(RidgeProblem(A, b, lam))
    assert np.linalg.norm(alpha - expected) <= 1e-10 * np.linalg.norm(expected)


def test_regularized_ridge_calls_no_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    rng = np.random.default_rng(8)
    for shape in ((6, 9), (9, 6), (7, 7)):
        ridge_solve(RidgeProblem(rng.normal(size=shape), rng.normal(size=shape[0]), 1e-3))
    assert calls == []
    ridge_solve(RidgeProblem(rng.normal(size=(9, 6)), rng.normal(size=9), 0.0))
    assert calls == [1]


def test_regularized_ill_conditioned_block_warns_at_caller():
    A = np.diag([1.0, 1e-7])
    with pytest.warns(ConditioningWarning, match="condition number") as record:
        ridge_solve(RidgeProblem(A, np.ones(2), 1e-14))
    assert record[0].filename == __file__
    prob = NonlinearResidualProblem(A, lambda a: np.ones(2), 1e-14)
    with pytest.warns(ConditioningWarning, match="condition number") as record:
        nonlinear_solve(prob, np.zeros(2))
    assert record[0].filename == __file__


@pytest.mark.parametrize("task", ["simulation", "matching", "explicit", "driver"])
def test_conditioning_warning_names_caller(task, tmp_path):
    # the warning names the first caller outside flatdd, wherever in it the solve warns: the kernel
    # Gram is factored where the front end builds it, the explicit normal equations in a Gauss-Newton
    # step, and the driver reaches that step through dd_match
    L = 20
    if task == "simulation":
        traj = collect_trajectory(example2_model(), 150, (-1.0, 1.0), seed=12)
        u = np.random.default_rng(13).uniform(-1.0, 1.0, L - 2)
        front_end, prob = dd_simulate, SimProblem(
            traj, L, u, np.zeros(2), "kernel", kernel=KernelSpec("gaussian", 1000.0), lam=1e-9
        )
    elif task == "matching":
        traj = collect_trajectory(example1_model(), 150, (-0.5, 0.5), seed=12)
        front_end, prob = dd_match, MatchProblem(
            traj, L, reference_output(L), "kernel", kernel=KernelSpec("gaussian", 1000.0), lam=1e-9
        )
    elif task == "explicit":
        # a constant input: the data also warn that they excite nothing
        traj = collect_trajectory(example1_model(), 150, (0.1, 0.1), seed=12)
        front_end, prob = dd_match, MatchProblem(
            traj, L, reference_output(L), "explicit", basis=named_basis("example1-poly"), lam=1e-10
        )
    else:
        front_end, prob = run_example1, ExperimentConfig(
            seed=12, n_samples=150, horizon=L, lam=1e-10, input_lo=0.1, input_hi=0.1, out_dir=str(tmp_path)
        )
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        front_end(prob)
    assert [w.category for w in record] == [PersistencyWarning] * (task in ("explicit", "driver")) + [
        ConditioningWarning
    ]
    assert "condition number" in str(record[-1].message)
    assert [w.filename for w in record] == [__file__] * len(record)


def test_regularized_singular_gram_names_lam():
    A = np.column_stack([np.ones(4), np.ones(4)])
    with pytest.raises(SingularMatrixError, match="increase lam") as info:
        ridge_solve(RidgeProblem(A, np.ones(4), 1e-300))
    assert "lam = 0" not in str(info.value)


def test_explicit_match_quiet_at_small_lam():
    basis = named_basis("example1-poly")
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConditioningWarning)
        for seed in range(5, 30):
            traj = _collect(ExperimentConfig(seed=seed), example1_model())
            dd_match(MatchProblem(traj, 50, reference_output(50), "explicit", basis=basis, lam=1e-8))


def test_explicit_match_without_identity_rows_is_quiet_on_seed12_data(tmp_path):
    # the identity function's rows were zero rows of the Gauss-Newton matrix J, whose eigenvalue
    # lam = 1e-10 set the condition number of JJ' + lam I (6.5e12); the rows that are equations read 1e5
    traj = collect_trajectory(example1_model(), 150, (-0.5, 0.5), seed=12)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConditioningWarning)
        dd_match(MatchProblem(
            traj, 20, reference_output(20), "explicit", basis=named_basis("example1-poly"), lam=1e-10
        ))
        run_example1(ExperimentConfig(seed=12, n_samples=150, horizon=20, lam=1e-10, out_dir=str(tmp_path)))


def test_objective_and_minimize_calls_by_mode(monkeypatch):
    # the benchmark's traced self-check counts these: none on explicit
    # workloads, some on kernel ones
    calls = Counter()
    for cls in (NonlinearResidualProblem, NormalEquationsProblem):
        objective = cls.objective
        monkeypatch.setattr(
            cls, "objective", lambda self, a, f=objective, name=cls.__name__: calls.update([name]) or f(self, a)
        )
    minimize = scipy.optimize.minimize
    monkeypatch.setattr(scipy.optimize, "minimize", lambda *a, **k: calls.update(["minimize"]) or minimize(*a, **k))
    ex1 = _collect(ExperimentConfig(seed=5), example1_model())
    dd_match(MatchProblem(ex1, 50, reference_output(50), "explicit", basis=named_basis("example1-poly"), lam=0.1))
    assert calls == Counter()
    config = example2_defaults(seed=5)
    ex2 = _collect(config, example2_model())
    u = np.random.default_rng(6).uniform(-1.0, 1.0, config.horizon - 2)
    dd_simulate(SimProblem(
        ex2, config.horizon, u, np.zeros(2), "kernel", kernel=KernelSpec("gaussian", config.sigma), lam=config.lam
    ))
    assert calls["NormalEquationsProblem"] >= 1 and calls["minimize"] == 1
    assert calls["NonlinearResidualProblem"] == 0


def test_certified_gram_skips_condition_estimate(monkeypatch):
    # a Gram that flatdd builds skips dpocon where n trace(M) / (lam - delta)
    # certifies its condition number below the warning limit; on random
    # positive semidefinite Grams, with lam on both sides of that bound,
    # every skipped estimate would have been quiet
    calls = []
    dpocon = scipy.linalg.lapack.dpocon
    monkeypatch.setattr(scipy.linalg.lapack, "dpocon", lambda *a, **k: calls.append(1) or dpocon(*a, **k))
    rng = np.random.default_rng(12)
    skipped = estimated = 0
    for _ in range(200):
        n = int(rng.integers(2, 60))
        A = rng.normal(size=(n, int(rng.integers(1, 2 * n)))) * 10.0 ** rng.uniform(-3, 3)
        G = A @ A.T
        # lam / trace(G) from 1e-16 to 1e-6, across the rounding margin delta = 1e-8 trace(M)
        lam = float(np.trace(G)) * 10.0 ** rng.uniform(-16, -6)
        M = G + lam * np.eye(n)
        calls.clear()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConditioningWarning)
                L = _cholesky(G, lam)
        except SingularMatrixError:
            L = None
        if calls:
            estimated += 1
            continue
        skipped += 1
        assert dpocon(L, scipy.linalg.lapack.dlange("1", M), uplo="L")[0] >= 1e-12
    assert skipped >= 20 and estimated >= 20


@settings(deadline=None, max_examples=80)
@given(
    st.integers(1, 60), st.floats(1e-10, 1.0), st.integers(0, 2**32 - 1), st.sampled_from([1e12, 10.0])
)
def test_cholesky_factor_contract(n, lam, seed, limit):
    # L L' = G + lam I with L read as its lower triangle; every condition
    # estimate behind a warning or a pass is LAPACK's lower bound on
    # cond_1(G + lam I), so it never exceeds it beyond rounding (the limit
    # 10 makes most of them warn)
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n + int(rng.integers(1, n + 1)))) * 10.0 ** rng.uniform(-3, 3)
    G = A @ A.T
    M = G + lam * np.eye(n)
    estimates = []
    factor = flatdd.solver._lower_cholesky

    def recording(M, estimate=True):
        out = factor(M, estimate)
        estimates.extend([out[2]] if estimate else [])
        return out

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(record=True) as caught:
        mp.setattr(flatdd.solver, "_lower_cholesky", recording)
        mp.setattr(flatdd.solver, "_COND_LIMIT", limit)
        warnings.simplefilter("always")
        L = np.tril(_cholesky(G, lam))
    assert np.linalg.norm(L @ L.T - M) <= 1e-12 * np.linalg.norm(M)
    cond = np.linalg.cond(M, 1)
    assert all(1.0 / rcond <= cond * (1.0 + 1e-8) for rcond in estimates)
    assert len(caught) == sum(1.0 / rcond > limit for rcond in estimates)


@pytest.mark.parametrize("certified", [False, True])
def test_empty_gram_factors_without_lapack_error(capfd, monkeypatch, certified):
    # LAPACK's dpocon rejects the leading dimension of an empty factor with a
    # printed error; at lam = 0 the trace bound certifies nothing, so the
    # factorization takes the condition-estimate path
    factor, estimates = flatdd.solver._lower_cholesky, []

    def recording(M, estimate=True):
        estimates.append(estimate)
        return factor(M, estimate)

    monkeypatch.setattr(flatdd.solver, "_lower_cholesky", recording)
    L = _cholesky(np.zeros((0, 0)), 0.1 if certified else 0.0)
    assert L.shape == (0, 0)
    assert estimates == [not certified]
    assert capfd.readouterr() == ("", "")


def test_gauss_newton_from_zero_multiplies_nothing_by_it():
    # a start at alpha = 0 takes its residual as -rhs(0) and its first
    # target as rhs(0): neither the data block nor the Jacobian meets the
    # zero vector, and the start's objective is the one the product gives
    zero_products = []

    class Recording(np.ndarray):
        def __matmul__(self, other):
            zero_products.extend([self.shape] if not np.any(other) else [])
            return np.asarray(self) @ other

    rng = np.random.default_rng(7)
    A, S = rng.normal(size=(12, 5)), 0.5 * rng.normal(size=(12, 5))
    prob = NonlinearResidualProblem(
        A, lambda a: np.tanh(S @ a) + 1.0, 0.1,
        jacobian=lambda a: ((1.0 - np.tanh(S @ a) ** 2)[:, None] * S).view(Recording),
    )
    start = prob.objective(np.zeros(5))
    object.__setattr__(prob, "A", A.view(Recording))
    res = nonlinear_solve(prob)
    assert zero_products == []
    assert res.iterations >= 2 and res.converged
    assert res.initial_objective == start


def _fresh_match(seed: int, y_ref: np.ndarray, basis: BasisSet | None = None):
    """An explicit example1 match at L = 50 on a record made for this call alone."""
    traj = collect_trajectory(example1_model(), 500, (-0.5, 0.5), seed=seed)
    return dd_match(MatchProblem(traj, 50, y_ref, "explicit", basis=basis or named_basis("example1-poly"), lam=0.1))


def _bits(res) -> dict:
    return {k: (v.values if k == "u" else np.asarray(v)).tobytes() for k, v in vars(res).items()}


def test_explicit_requests_on_fresh_data_keep_the_thread_workspace():
    _fresh_match(11, reference_output(50))
    held = {role: getattr(flatdd.solver._scratch, role) for role in ("block", "jacobian", "gram")}
    _fresh_match(12, reference_output(50))
    assert all(getattr(flatdd.solver._scratch, role) is buf for role, buf in held.items())


def test_repeated_explicit_request_is_bit_identical_after_another():
    first = _fresh_match(11, reference_output(50))
    _fresh_match(12, 0.6 * reference_output(50))
    assert _bits(_fresh_match(11, reference_output(50))) == _bits(first)


def test_basis_running_its_own_explicit_match_nests_on_one_thread():
    # the inner match runs while the outer solve holds the Jacobian workspace
    basis = named_basis("example1-poly")
    inner = MatchProblem(collect_trajectory(example1_model(), 500, (-0.5, 0.5), seed=14), 50,
                         reference_output(50), "explicit", basis=basis, lam=0.1)
    expected = dd_match(inner).u.values
    inner_inputs, checked_out = [], []

    def u_xi1(u, xi):
        checked_out.append(not hasattr(flatdd.solver._scratch, "jacobian"))
        inner_inputs.append(dd_match(inner).u.values)
        return u * xi[:, 0]

    nesting = BasisSet((basis.functions[0], u_xi1, *basis.functions[2:]), 2, "nesting", identity_index=0)
    y_ref = 0.6 * reference_output(50)
    assert _bits(_fresh_match(13, y_ref, nesting)) == _bits(_fresh_match(13, y_ref))
    assert any(checked_out)
    assert all(np.array_equal(u, expected) for u in inner_inputs)


def test_explicit_solves_on_four_threads_equal_sequential_ones():
    seeds = (21, 22, 23, 24)
    sequential = [_bits(_fresh_match(s, reference_output(50))) for s in seeds]
    threaded = [[None] * len(seeds) for _ in seeds]
    barrier = threading.Barrier(len(seeds))

    def run(t: int) -> None:
        barrier.wait(timeout=60)
        for k in range(len(seeds)):  # each thread takes the seeds in its own order
            i = (t + k) % len(seeds)
            threaded[t][i] = _bits(_fresh_match(seeds[i], reference_output(50)))

    threads = [threading.Thread(target=run, args=(t,)) for t in range(len(seeds))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the solves too
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert threaded == [sequential] * len(seeds)
