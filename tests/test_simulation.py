import numpy as np
import pytest
from numpy.testing import assert_allclose

import flatdd.window
from flatdd.basis import (
    KernelSpec,
    build_psi_hankel,
    eval_psi_hat,
    kernel_eval,
    named_basis,
    psi_jacobian,
    window_points,
)
from flatdd.errors import ConfigError, DimensionError, PersistencyWarning
from flatdd.experiments import ExperimentConfig, _collect
from flatdd.matching import MatchProblem, dd_match, kernel_match_problem
from flatdd.membership import flat_membership
from flatdd.plant import (
    FlatModel,
    collect_trajectory,
    example1_model,
    example2_model,
    simulate,
)
from flatdd.signals import build_hankel
from flatdd.simulation import SimProblem, dd_simulate, kernel_sim_problem
from flatdd.solver import RidgeProblem, nonlinear_solve, ridge_solve
from flatdd.window import _slice_sum_gram, explicit_solve


@pytest.fixture(scope="module")
def ex1_traj():
    return collect_trajectory(example1_model(), 500, (-0.5, 0.5), seed=1)


@pytest.fixture(scope="module")
def ex1_basis():
    return named_basis("example1-poly")


def fresh_case(seed, length=48):
    rng = np.random.default_rng(seed)
    u = rng.uniform(-0.5, 0.5, size=length)
    y_true = simulate(example1_model(), rng.uniform(-0.3, 0.3, size=2), u).flat
    return u, y_true


def test_zero_input_gives_zero_output(ex1_traj, ex1_basis):
    res = dd_simulate(
        SimProblem(ex1_traj, 50, np.zeros(48), np.zeros(2), "explicit", basis=ex1_basis, lam=1e-8)
    )
    assert np.linalg.norm(res.y.flat) <= 1e-4
    assert res.converged


def test_explicit_matches_plant_oracle(ex1_traj, ex1_basis):
    u, y_true = fresh_case(7)
    res = dd_simulate(
        SimProblem(ex1_traj, 50, u, y_true[:2], "explicit", basis=ex1_basis, lam=1e-8)
    )
    rel = np.linalg.norm(res.y.flat - y_true) / np.linalg.norm(y_true)
    assert rel <= 1e-3
    assert res.converged and res.objective <= res.initial_objective


def test_output_is_exact_hankel_combination(ex1_traj, ex1_basis):
    u, y_true = fresh_case(8)
    res = dd_simulate(
        SimProblem(ex1_traj, 50, u, y_true[:2], "explicit", basis=ex1_basis, lam=1e-8)
    )
    H = build_hankel(ex1_traj.y, 50).entries
    assert np.array_equal(res.y.flat, H @ res.alpha)


def test_initial_condition_fidelity(ex1_traj, ex1_basis):
    u, y_true = fresh_case(9)
    res = dd_simulate(
        SimProblem(ex1_traj, 50, u, y_true[:2], "explicit", basis=ex1_basis, lam=1e-8)
    )
    assert np.linalg.norm(res.y.flat[:2] - y_true[:2]) <= 1e-6


def test_simulated_pair_passes_membership(ex1_traj, ex1_basis):
    u, y_true = fresh_case(10)
    res = dd_simulate(
        SimProblem(ex1_traj, 50, u, y_true[:2], "explicit", basis=ex1_basis, lam=1e-8)
    )
    assert res.converged
    verdict = flat_membership(ex1_traj, ex1_basis, 50, u, res.y.flat, tol=1e-4)
    assert verdict.is_member


@pytest.mark.parametrize("seed", [15, 28])
def test_explicit_simulation_passes_noisy_local_minima(seed, ex1_basis):
    # on these noisy records a solve that ignores how the right-hand side
    # moves with alpha stops at objectives of 6e-3 and 2e-2
    traj = _collect(ExperimentConfig(seed=seed), example1_model())
    u = np.random.default_rng(seed).uniform(-0.5, 0.5, 48)
    y_init = simulate(example1_model(), np.zeros(2), u).flat[:2]
    res = dd_simulate(SimProblem(traj, 50, u, y_init, "explicit", basis=ex1_basis, lam=1e-8))
    # every simulation that met the criterion-3 error bound in a 1006-case
    # probe (perfbench/README.md) ended below 1.8e-7
    assert res.converged and res.objective < 1.8e-7


def test_affine_window_basis_solves_in_closed_form():
    gain = 1.7
    chain = FlatModel(2, lambda x, u: np.array([x[1], gain * u]), lambda x: float(x[0]), "chain")
    traj = collect_trajectory(chain, 150, (-1.0, 1.0), seed=3)
    rng = np.random.default_rng(4)
    u = rng.uniform(-1, 1, size=18)
    y_true = simulate(chain, rng.normal(size=2) * 0.2, u).flat
    res = dd_simulate(
        SimProblem(traj, 20, u, y_true[:2], "explicit", basis=named_basis("identity-only"), lam=1e-10)
    )
    assert res.iterations == 1 and res.converged
    assert np.linalg.norm(res.y.flat - y_true) / np.linalg.norm(y_true) <= 1e-5


def test_kernel_mode_small_instance():
    traj = collect_trajectory(example2_model(), 120, (-1.0, 1.0), seed=5)
    rng = np.random.default_rng(6)
    u = rng.uniform(-1, 1, size=18)
    y_true = simulate(example2_model(), np.zeros(2), u).flat
    res = dd_simulate(
        SimProblem(traj, 20, u, y_true[:2], "kernel", kernel=KernelSpec("gaussian", 1.0), lam=0.1)
    )
    assert np.isfinite(res.objective)
    assert res.objective <= res.initial_objective
    assert res.y.length == 20


@pytest.mark.parametrize(
    "depth, cols, extra",
    [(1, 9, 0), (6, 1, 0), (5, 5, 0), (4, 7, 3), (48, 701, 0)],
    ids=["depth1", "cols1", "square-windows", "larger-block", "kernel-sim"],
)
def test_slice_sum_gram_matches_naive_sum(depth, cols, extra):
    size = depth + cols - 1 + extra
    K = np.random.default_rng(depth * 1000 + cols).normal(size=(size, size))
    naive = sum(K[k : k + cols, k : k + cols] for k in range(depth))
    work = K.copy()
    G = _slice_sum_gram(work, depth, cols)
    assert G.shape == (cols, cols)
    assert np.shares_memory(G, work)  # computed in the block's memory
    assert np.abs(G - naive).max() <= 1e-12 * np.abs(naive).max()
    # bit for bit the diagonal prefix sums P and, row by row, P[i+depth-1, j+depth-1] - P[i-1, j-1]
    n = depth + cols - 1
    P = K.copy()
    for i in range(1, n):
        P[i, 1:n] += P[i - 1, : n - 1]
    rows = [P[depth - 1, depth - 1 : n]] + [
        np.concatenate([P[depth - 1 + r, depth - 1 : depth], P[depth - 1 + r, depth:n] - P[r - 1, : cols - 1]])
        for r in range(1, cols)
    ]
    assert np.array_equal(G, np.stack(rows))


@pytest.mark.parametrize("task", ["simulation", "matching"])
def test_kernel_problem_gram_matches_naive_sum(task, monkeypatch):
    # the Gram is summed, moved, topped up with B'B and factored inside the data kernel block's memory
    traj = collect_trajectory(example1_model(), 150, (-0.5, 0.5), seed=12)
    L, n = 20, traj.n
    blocks = []
    monkeypatch.setattr(flatdd.window, "kernel_eval", lambda *a: blocks.append(kernel_eval(*a)) or blocks[-1])
    if task == "simulation":
        spec, b = KernelSpec("gaussian", 0.8), np.array([0.1, -0.2])
        prob, _ = kernel_sim_problem(SimProblem(traj, L, np.zeros(L - n), b, "kernel", kernel=spec, lam=0.1))
    else:
        spec, b = KernelSpec("gaussian", 1.0), np.sin(np.arange(L) / 3.0)
        prob, _ = kernel_match_problem(MatchProblem(traj, L, b, "kernel", kernel=spec, lam=0.1))
    Z_data = window_points(traj.u.flat, traj.y.flat, n)
    K = kernel_eval(spec, Z_data, Z_data)
    B = build_hankel(traj.y, L).entries[: b.size]
    cols = B.shape[1]
    naive = sum(K[k : k + cols, k : k + cols] for k in range(L - n)) + B.T @ B
    (block,) = blocks
    assert np.shares_memory(prob.L, block)
    L = np.tril(prob.L)
    gram = L @ L.T - 0.1 * np.eye(cols)
    assert np.abs(gram - naive).max() <= 1e-12 * np.abs(naive).max()


def test_kernel_builders_reject_explicit_problems(ex1_traj, ex1_basis):
    sim = SimProblem(ex1_traj, 50, np.zeros(48), np.zeros(2), "explicit", basis=ex1_basis)
    with pytest.raises(ConfigError, match="mode 'explicit'"):
        kernel_sim_problem(sim)
    match = MatchProblem(ex1_traj, 50, np.zeros(50), "explicit", basis=ex1_basis)
    with pytest.raises(ConfigError, match="mode 'explicit'"):
        kernel_match_problem(match)


def test_explicit_solve_rejects_kernel_problems(ex1_traj):
    for prob in (
        SimProblem(ex1_traj, 50, np.zeros(48), np.zeros(2), "kernel", kernel=KernelSpec("gaussian")),
        MatchProblem(ex1_traj, 50, np.zeros(50), "kernel", kernel=KernelSpec("gaussian")),
    ):
        with pytest.raises(ConfigError, match="mode 'kernel'"):
            explicit_solve(prob)


def test_kernel_with_finite_basis_product_matches_explicit(ex1_basis, monkeypatch):
    lam = 1e-3
    traj = collect_trajectory(example1_model(), 150, (-0.5, 0.5), seed=12)
    u, y_true = fresh_case(13, length=18)
    explicit = dd_simulate(
        SimProblem(traj, 20, u, y_true[:2], "explicit", basis=ex1_basis, lam=lam)
    )

    # the kernel <Psi(z), Psi(z')> of the explicit basis, with its exact
    # diagonal and gradients, stands in for the spec's kernel functions
    def psi(Z):
        return eval_psi_hat(ex1_basis, Z)

    def dpsi(Z):
        return psi_jacobian(ex1_basis, Z, range(Z.shape[1]))

    monkeypatch.setattr(flatdd.window, "kernel_eval", lambda spec, Z1, Z2: psi(Z1) @ psi(Z2).T)
    monkeypatch.setattr(
        flatdd.window,
        "kernel_diag",
        lambda spec, Z: ((psi(Z) ** 2).sum(axis=1), 2.0 * np.einsum("krc,kr->kc", dpsi(Z), psi(Z))),
    )
    monkeypatch.setattr(
        flatdd.window,
        "kernel_grad",
        lambda spec, Z1, Z2, K, W: np.einsum("krc,kr->kc", dpsi(Z1), W @ psi(Z2)),
    )
    # any spec serves as a token: the kernel functions above ignore it
    normal, alpha0 = kernel_sim_problem(
        SimProblem(traj, 20, u, y_true[:2], "kernel", kernel=KernelSpec("gaussian"), lam=lam)
    )
    H_L_y = normal.H

    # the Gram-space objective is the explicit residual objective, at any point
    A = np.vstack(
        [build_psi_hankel(traj, ex1_basis, 20).entries, build_hankel(traj.y.flat[: traj.N - 18], 2).entries]
    )

    def explicit_rhs(alpha):
        return np.concatenate([eval_psi_hat(ex1_basis, window_points(u, H_L_y @ alpha, 2)).reshape(-1), y_true[:2]])

    def explicit_obj(alpha):
        r = A @ alpha - explicit_rhs(alpha)
        return float(r @ r + lam * (alpha @ alpha))

    rng = np.random.default_rng(17)
    for point in (explicit.alpha, alpha0, rng.normal(size=normal.dim) * 0.05):
        assert_allclose(normal.objective(point), explicit_obj(point), rtol=1e-8)

    # one frozen step from a common point agrees as well
    a0 = rng.normal(size=normal.dim) * 0.02
    step_explicit = ridge_solve(RidgeProblem(A, explicit_rhs(a0), lam))
    step_kernel = np.linalg.solve(np.tril(normal.L) @ np.tril(normal.L).T, normal.terms(H_L_y @ a0)[0])
    assert_allclose(step_kernel, step_explicit, atol=1e-8 * (1 + np.linalg.norm(step_explicit)))

    # endpoints of the two pipelines are optimizer-path dependent (same
    # objective through different factorizations), so from a shared start
    # only coarse agreement is meaningful
    # the identity rows, those of function 0 of example1-poly, fix the input
    H_psi = build_psi_hankel(traj, ex1_basis, 20).entries
    alpha0_explicit = ridge_solve(
        RidgeProblem(
            np.vstack([H_psi[:: ex1_basis.r, :], A[-2:, :]]),
            np.concatenate([u, y_true[:2]]),
            lam,
        )
    )
    res = nonlinear_solve(normal, alpha0_explicit)
    assert res.converged
    assert res.objective <= explicit.objective * 1.05 + 1e-12
    assert_allclose(H_L_y @ res.alpha, explicit.y.flat, atol=5e-2)


@pytest.mark.parametrize("mode", ["explicit", "kernel"])
@pytest.mark.parametrize("name, index", [("u_new", 0), ("y_init", 1), ("y_ref", 17)])
def test_nonfinite_problem_signal_rejected(ex1_traj, ex1_basis, mode, name, index):
    # rejected where they enter, not deep in the solve or by scipy's ValueError
    signals = {"u_new": np.zeros(48), "y_init": np.zeros(2), "y_ref": np.sin(np.arange(50.0))}
    signals[name][index] = np.nan if index else np.inf
    features = dict(basis=ex1_basis) if mode == "explicit" else dict(kernel=KernelSpec("gaussian"))
    with pytest.raises(ConfigError, match=rf"non-finite .*sample {name}\[{index}\]"):
        if name == "y_ref":
            dd_match(MatchProblem(ex1_traj, 50, signals["y_ref"], mode, **features))
        else:
            dd_simulate(SimProblem(ex1_traj, 50, signals["u_new"], signals["y_init"], mode, **features))


def test_problem_validation(ex1_traj, ex1_basis):
    with pytest.raises(ConfigError):
        SimProblem(ex1_traj, 50, np.zeros(48), np.zeros(2), "explicit", basis=ex1_basis, lam=0.0)
    with pytest.raises(DimensionError):
        SimProblem(ex1_traj, 50, np.zeros(47), np.zeros(2), "explicit", basis=ex1_basis)
    with pytest.raises(DimensionError):
        SimProblem(ex1_traj, 50, np.zeros(48), np.zeros(3), "explicit", basis=ex1_basis)
    with pytest.raises(ConfigError):
        SimProblem(ex1_traj, 50, np.zeros(48), np.zeros(2), "explicit")
    with pytest.raises(ConfigError):
        SimProblem(ex1_traj, 50, np.zeros(48), np.zeros(2), "kernel")
    with pytest.raises(ConfigError):
        SimProblem(ex1_traj, 50, np.zeros(48), np.zeros(2), "implicit", basis=ex1_basis)
    with pytest.raises(ConfigError):
        SimProblem(ex1_traj, 2, np.zeros(0), np.zeros(2), "explicit", basis=ex1_basis)


def test_short_data_warns(ex1_basis):
    traj = collect_trajectory(example1_model(), 120, (-0.5, 0.5), seed=14)
    u, y_true = fresh_case(15, length=18)
    with pytest.warns(PersistencyWarning) as record:
        dd_simulate(SimProblem(traj, 20, u, y_true[:2], "explicit", basis=ex1_basis, lam=1e-6))
    # one data-sufficiency warning, pointing at the caller
    assert len(record) == 1 and record[0].filename == __file__ and "too short" in str(record[0].message)
