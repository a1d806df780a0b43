import numpy as np
import pytest

from flatdd.basis import (
    BasisSet,
    KernelSpec,
    build_psi_hankel,
    eval_psi_hat,
    named_basis,
    psi_jacobian,
    window_points,
)
from flatdd.errors import ConfigError, DimensionError, PersistencyWarning
from flatdd.experiments import ExperimentConfig, _collect
from flatdd.matching import MatchProblem, dd_match
from flatdd.membership import candidate_stack, flat_membership, flat_stack
from flatdd.plant import collect_trajectory, example1_model, matching_input_oracle, simulate
from flatdd.signals import build_hankel
from flatdd.solver import (
    NonlinearResidualProblem,
    RidgeProblem,
    nonlinear_solve,
    ridge_solve,
)


@pytest.fixture(scope="module")
def model():
    return example1_model()


@pytest.fixture(scope="module")
def basis():
    return named_basis("example1-poly")


@pytest.fixture(scope="module")
def clean_traj(model):
    return collect_trajectory(model, 500, (-0.5, 0.5), seed=1)


@pytest.fixture(scope="module")
def sin_ref():
    return 0.5 * np.sin(2 * np.pi * np.arange(50) / 25)


def test_window_reference_recovers_data_input(clean_traj, basis):
    y_ref = clean_traj.y.flat[100:150]
    res = dd_match(MatchProblem(clean_traj, 50, y_ref, "explicit", basis=basis, lam=1e-8))
    assert np.allclose(res.u.flat, clean_traj.u.flat[100:148], atol=1e-4)


def test_sinusoid_reference_matches_model_inverse(clean_traj, basis, model, sin_ref):
    res = dd_match(MatchProblem(clean_traj, 50, sin_ref, "explicit", basis=basis, lam=1e-8))
    u_oracle = matching_input_oracle(model, sin_ref)
    assert np.linalg.norm(res.u.flat - u_oracle) <= 1e-2 * np.linalg.norm(u_oracle)


def test_closed_loop_reproduces_reference(clean_traj, basis, model, sin_ref):
    res = dd_match(MatchProblem(clean_traj, 50, sin_ref, "explicit", basis=basis, lam=1e-8))
    y = simulate(model, sin_ref[:2], res.u.flat).flat[:50]
    assert np.linalg.norm(y - sin_ref) <= 1e-2 * np.linalg.norm(sin_ref)


@pytest.mark.parametrize("phase", [0, 6, 15])
def test_matched_pair_passes_membership(clean_traj, basis, phase):
    # the matching counterpart of test_simulated_pair_passes_membership
    y_ref = 0.5 * np.sin(2 * np.pi * (np.arange(50) + phase) / 25)
    res = dd_match(MatchProblem(clean_traj, 50, y_ref, "explicit", basis=basis, lam=1e-8))
    assert res.converged
    verdict = flat_membership(clean_traj, basis, 50, res.u.flat, y_ref, tol=1e-4)
    assert verdict.is_member


def test_input_recovery_identity_is_exact(clean_traj, basis, sin_ref):
    res = dd_match(MatchProblem(clean_traj, 50, sin_ref, "explicit", basis=basis, lam=0.1))
    U = build_hankel(clean_traj.u, 48).entries
    assert np.array_equal(res.u.flat, U @ res.alpha)


def test_identity_row_matches_returned_input(clean_traj, basis, sin_ref):
    res = dd_match(MatchProblem(clean_traj, 50, sin_ref, "explicit", basis=basis, lam=0.1))
    psi = eval_psi_hat(basis, window_points(res.u.flat, sin_ref, 2))
    assert np.array_equal(psi[:, basis.identity_index], res.u.flat)


def test_substituted_residual_is_linear_in_alpha(clean_traj, basis, sin_ref):
    H_psi = build_psi_hankel(clean_traj, basis, 50).entries
    U = build_hankel(clean_traj.u, 48).entries
    A = np.vstack([H_psi, build_hankel(clean_traj.y, 50).entries])

    def residual(alpha):
        psi = eval_psi_hat(basis, window_points(U @ alpha, sin_ref, 2))
        return A @ alpha - np.concatenate([psi.reshape(-1), sin_ref])

    rng = np.random.default_rng(0)
    alpha = rng.normal(size=A.shape[1])
    step = rng.normal(size=A.shape[1])
    second_diff = residual(alpha + step) - 2 * residual(alpha) + residual(alpha - step)
    assert np.abs(second_diff).max() <= 1e-10


def test_qp_agrees_with_generic_solver(clean_traj, basis, sin_ref):
    # the affine split turns the residual into a constant-target ridge
    # problem; the generic iteration must land on the same point
    H_psi = build_psi_hankel(clean_traj, basis, 50).entries
    U = build_hankel(clean_traj.u, 48).entries
    H_L_y = build_hankel(clean_traj.y, 50).entries
    A = np.vstack([H_psi, H_L_y])
    # every basis function is affine in u: its value at u = 0 and its slope
    base = eval_psi_hat(basis, window_points(np.zeros(48), sin_ref, 2))
    slope = eval_psi_hat(basis, window_points(np.ones(48), sin_ref, 2)) - base
    C = np.zeros_like(A)
    for k in range(48):
        C[k * basis.r : (k + 1) * basis.r, :] = np.outer(slope[k], U[k, :])
    rhs0 = np.concatenate([base.reshape(-1), sin_ref])

    direct = ridge_solve(RidgeProblem(A - C, rhs0, 0.1))
    alpha0 = ridge_solve(RidgeProblem(H_L_y, sin_ref, 0.1))
    iterated = nonlinear_solve(
        NonlinearResidualProblem(A - C, lambda _: rhs0, 0.1), alpha0
    )
    assert iterated.converged
    assert np.abs(iterated.alpha - direct).max() <= 1e-8

    res = dd_match(MatchProblem(clean_traj, 50, sin_ref, "explicit", basis=basis, lam=0.1))
    assert np.abs(res.alpha - direct).max() <= 1e-8


@pytest.mark.parametrize("lam", [0.1, 1e-8])
@pytest.mark.parametrize("functions", [(0,), (0, 4), (0, 1, 2), (3, 0, 5), (0, 1, 2, 3, 4, 5)])
def test_explicit_match_equals_full_system_with_identity_rows(model, basis, sin_ref, functions, lam):
    # the one Gauss-Newton step of a basis affine in u, on every row of flat_stack: the identity's
    # rows are zero rows of A - C with a zero right-hand side at alpha = 0, so they change nothing
    traj = collect_trajectory(model, 500, (-0.5, 0.5), seed=5)
    subset = BasisSet(tuple(basis.functions[i] for i in functions), 2, f"subset{functions}", functions.index(0))
    A = flat_stack(traj, subset, 50)
    U = build_hankel(traj.u, 48).entries
    Z = window_points(np.zeros(48), sin_ref, 2)
    C = np.zeros_like(A)
    C[: 48 * subset.r] = (psi_jacobian(subset, Z, (0,))[:, :, 0, None] * U[:, None, :]).reshape(-1, A.shape[1])
    alpha = ridge_solve(RidgeProblem(A - C, candidate_stack(subset, Z, sin_ref), lam))
    res = dd_match(MatchProblem(traj, 50, sin_ref, "explicit", basis=subset, lam=lam))
    assert res.iterations == 1 and res.converged
    assert np.linalg.norm(res.alpha - alpha) <= 1e-10 * np.linalg.norm(alpha)
    assert np.linalg.norm(res.u.flat - U @ alpha) <= 1e-10 * np.linalg.norm(U @ alpha)


def test_identity_only_match_solves_the_output_rows_alone(model, sin_ref):
    # no Psi row is an equation: the block is H_L(y) alone
    traj = collect_trajectory(model, 500, (-0.5, 0.5), seed=5)
    res = dd_match(MatchProblem(traj, 50, sin_ref, "explicit", basis=named_basis("identity-only"), lam=0.1))
    assert res.iterations == 1 and res.converged
    assert res.objective == pytest.approx(0.0017837994314230839, rel=1e-10)


def test_kernel_mode_recovers_data_window(model):
    traj = collect_trajectory(model, 200, (-0.5, 0.5), seed=3)
    y_ref = traj.y.flat[60:80]
    res = dd_match(
        MatchProblem(
            traj,
            20,
            y_ref,
            "kernel",
            kernel=KernelSpec("gaussian", sigma=1.0),
            lam=1e-8,
        )
    )
    assert np.allclose(res.u.flat, traj.u.flat[60:78], atol=1e-4)
    assert res.objective <= res.initial_objective
    assert res.u.length == 18


def test_noisy_regime_error_scale(model, basis, sin_ref):
    from flatdd.plant import NoiseSpec

    traj = collect_trajectory(
        model, 500, (-0.5, 0.5), seed=5, noise=NoiseSpec(-0.025, 0.025, seed=77)
    )
    res = dd_match(MatchProblem(traj, 50, sin_ref, "explicit", basis=basis, lam=0.1))
    u_oracle = matching_input_oracle(model, sin_ref)
    y = simulate(model, np.zeros(2), res.u.flat).flat[:50]
    assert np.linalg.norm(res.u.flat - u_oracle) < 0.2
    assert np.linalg.norm(y - sin_ref) < 0.5


def test_explicit_mode_needs_identity_function(clean_traj, basis, model, sin_ref):
    no_identity = BasisSet(
        name="squares-only",
        n=2,
        functions=(lambda u, xi: u * u, lambda u, xi: xi[..., 0]),
        identity_index=None,
    )
    with pytest.raises(ConfigError, match="identity"):
        MatchProblem(clean_traj, 50, sin_ref, "explicit", basis=no_identity, lam=0.1)
    # a mislabelled identity, u xi1^2, would drop that function's equations: on run_example1's
    # data (seed 5) the input error grew tenfold without a warning
    mislabelled = BasisSet(basis.functions, 2, "mislabelled", identity_index=4)
    with pytest.raises(ConfigError, match="function 4 of 'mislabelled' is not the identity in u"):
        MatchProblem(_collect(ExperimentConfig(seed=5), model), 50, sin_ref, "explicit", basis=mislabelled, lam=0.1)
    with pytest.raises(ConfigError, match="identity_index 6 out of range for r=6"):
        BasisSet(basis.functions, 2, "past-the-end", identity_index=6)


def test_gaussian_kernel_matches_in_criterion_4_band(model, sin_ref):
    # run_example1's kernel-mode request on data seed 5: the plain Gaussian needs
    # no input term, and its input error lies in criterion 4's band
    traj = _collect(ExperimentConfig(seed=5), model)
    res = dd_match(MatchProblem(traj, 50, sin_ref, "kernel", kernel=KernelSpec("gaussian", sigma=1.0), lam=0.1))
    assert res.converged and res.objective <= res.initial_objective
    assert 0.02 <= np.linalg.norm(res.u.flat - matching_input_oracle(model, sin_ref)) <= 0.25


def test_validation_errors(clean_traj, basis, sin_ref):
    with pytest.raises(ConfigError, match="lam"):
        MatchProblem(clean_traj, 50, sin_ref, "explicit", basis=basis, lam=0.0)
    with pytest.raises(DimensionError, match="expected L=40"):
        MatchProblem(clean_traj, 40, sin_ref, "explicit", basis=basis, lam=0.1)
    with pytest.raises(ConfigError, match="exceed"):
        MatchProblem(clean_traj, 2, sin_ref[:2], "explicit", basis=basis, lam=0.1)
    with pytest.raises(ConfigError, match="mode"):
        MatchProblem(clean_traj, 50, sin_ref, "implicit", basis=basis, lam=0.1)
    with pytest.raises(ConfigError, match="kernel"):
        MatchProblem(clean_traj, 50, sin_ref, "kernel", lam=0.1)


def test_short_data_warns(model, basis):
    traj = collect_trajectory(model, 120, (-0.5, 0.5), seed=2)
    y_ref = traj.y.flat[10:60]
    with pytest.warns(PersistencyWarning) as record:
        dd_match(MatchProblem(traj, 50, y_ref, "explicit", basis=basis, lam=0.1))
    # one data-sufficiency warning, pointing at the caller, names the samples missing: 351 - 120
    assert len(record) == 1 and record[0].filename == __file__
    assert "too short" in str(record[0].message) and "231 more samples needed" in str(record[0].message)


def test_unexciting_data_warns(model, basis):
    u = np.full(248, 0.1)
    y = simulate(model, np.zeros(2), u)
    from flatdd.signals import IoTrajectory

    traj = IoTrajectory.from_arrays(u, y.flat, 2)
    with pytest.warns(PersistencyWarning, match="not persistently exciting"):
        dd_match(MatchProblem(traj, 50, y.flat[20:70], "explicit", basis=basis, lam=0.1))


def test_fresh_explicit_match_evaluates_psi_sequence_once(model, basis, monkeypatch):
    # the excitation check and the data stack share one evaluation of Psi along the data
    import flatdd.basis

    traj = collect_trajectory(model, 500, (-0.5, 0.5), seed=3)
    evaluated = []
    eval_psi_hat = flatdd.basis.eval_psi_hat

    def counting(basis_set, Z):
        evaluated.append(len(Z))
        return eval_psi_hat(basis_set, Z)

    monkeypatch.setattr(flatdd.basis, "eval_psi_hat", counting)
    y_ref = 0.5 * np.sin(2 * np.pi * np.arange(50) / 25)
    dd_match(MatchProblem(traj, 50, y_ref, "explicit", basis=basis, lam=0.1))
    assert evaluated.count(traj.N - traj.n) == 1
