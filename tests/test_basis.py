import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from flatdd.basis import (
    BasisSet,
    KernelSpec,
    build_psi_hankel,
    eval_psi_hat,
    kernel_eval,
    kernel_grad,
    kernel_gram,
    named_basis,
    psi_hat_signal,
    psi_jacobian,
    window_points,
)
from flatdd.errors import ConfigError, DimensionError, EvaluationError
from flatdd.plant import collect_trajectory, example1_model

TRUE_COEFFS = np.array([2.0, 0.0, 0.0, 0.0, 1.0, 0.0])


@pytest.fixture(scope="module")
def ex1_traj():
    return collect_trajectory(example1_model(), 120, (-0.5, 0.5), seed=11)


def test_named_bases_validate():
    named_basis("example1-poly").validate()
    named_basis("identity-only", n=3).validate()
    with pytest.raises(ConfigError):
        named_basis("no-such-basis")
    with pytest.raises(ConfigError):
        named_basis("example1-poly", n=3)


def test_validate_rejects_wrong_declarations():
    not_id = BasisSet((lambda u, xi: 2.0 * u,), 2, "scaled", identity_index=0)
    with pytest.raises(ConfigError, match="identity"):
        not_id.validate()


def test_example1_basis_spans_recursion(ex1_traj):
    # y_{k+2} = 2 u_k + u_k y_k^2 is a fixed linear combination of the basis
    psi = psi_hat_signal(ex1_traj, named_basis("example1-poly"))
    y = ex1_traj.y.flat
    assert_allclose(psi.values @ TRUE_COEFFS, y[2:], rtol=1e-12, atol=1e-14)


def test_psi_hat_signal_matches_pointwise(ex1_traj):
    basis = named_basis("example1-poly")
    psi = psi_hat_signal(ex1_traj, basis)
    u, y = ex1_traj.u.flat, ex1_traj.y.flat
    assert psi.length == ex1_traj.N - 2 and psi.sigma == 6
    for k in (0, 5, psi.length - 1):
        row = eval_psi_hat(basis, np.array([[u[k], y[k], y[k + 1]]]))
        assert_allclose(psi.values[k], row[0])


def test_window_points(ex1_traj):
    u, y = ex1_traj.u.flat, ex1_traj.y.flat
    Z = window_points(u, y, 2)
    assert Z.shape == (u.size, 3)
    for k in (0, 7, u.size - 1):
        assert np.array_equal(Z[k], [u[k], y[k], y[k + 1]])
    for short_y in (y[:-1], y[:-3]):
        with pytest.raises(DimensionError):
            window_points(u, short_y, 2)
    basis = named_basis("example1-poly")
    assert np.array_equal(eval_psi_hat(basis, Z), psi_hat_signal(ex1_traj, basis).values)


def test_eval_rejects_points_of_wrong_width():
    basis = named_basis("example1-poly")
    for shape in ((4, 2), (4, 4), (3,)):
        with pytest.raises(EvaluationError, match="expected"):
            eval_psi_hat(basis, np.zeros(shape))


def test_psi_hankel_shape_on_long_record():
    traj = collect_trajectory(example1_model(), 500, (-0.5, 0.5), seed=0)
    H = build_psi_hankel(traj, named_basis("example1-poly"), 50)
    assert H.entries.shape == (288, 451)


def test_psi_hankel_requires_window_beyond_order(ex1_traj):
    with pytest.raises(ConfigError):
        build_psi_hankel(ex1_traj, named_basis("example1-poly"), 2)


def _example1_derivatives(u, xi):
    """Analytic d psi/d(u, xi1, xi2) of example1-poly, shape (m, 6, 3)."""
    x1, x2 = xi[:, 0], xi[:, 1]
    zero, one = np.zeros_like(u), np.ones_like(u)
    d_u = [one, x1, x2, zero, x1**2, x2**2]
    d_x1 = [zero, u, zero, x2, 2 * u * x1, zero]
    d_x2 = [zero, zero, u, x1, zero, 2 * u * x2]
    return np.stack([np.column_stack(d) for d in (d_u, d_x1, d_x2)], axis=2)


def test_psi_jacobian_in_u():
    basis = named_basis("example1-poly")
    rng = np.random.default_rng(2)
    xi = rng.normal(size=(40, 2))
    u = rng.normal(size=40)
    slope = psi_jacobian(basis, np.column_stack([u, xi]), [0])
    assert slope.shape == (40, 6, 1)
    assert_allclose(slope, _example1_derivatives(u, xi)[:, :, :1], rtol=1e-9, atol=1e-9)
    # at u = 0, where the matching solve starts, the power-of-two step reads
    # the slope of this basis, linear in u, without rounding
    at_zero = psi_jacobian(basis, np.column_stack([np.zeros(40), xi]), [0])
    assert np.array_equal(at_zero, _example1_derivatives(np.zeros(40), xi)[:, :, :1])


def test_psi_jacobian_in_xi():
    basis = named_basis("example1-poly")
    rng = np.random.default_rng(3)
    u = rng.normal(size=15)
    xi = rng.normal(size=(15, 2))
    grad = psi_jacobian(basis, np.column_stack([u, xi]), [1, 2])
    assert grad.shape == (15, 6, 2)
    assert_allclose(grad, _example1_derivatives(u, xi)[:, :, 1:], rtol=1e-9, atol=1e-9)
    # coordinates come back in the order asked
    assert np.array_equal(psi_jacobian(basis, np.column_stack([u, xi]), [2, 1]), grad[:, :, ::-1])


def test_eval_rejects_nonfinite():
    bad = BasisSet((lambda u, xi: 1.0 / u,), 1, "recip")
    with pytest.raises(EvaluationError, match="non-finite"):
        eval_psi_hat(bad, np.zeros((1, 2)))


def test_gaussian_kernel_values():
    spec = KernelSpec("gaussian", sigma=1.0)
    z = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    K = kernel_eval(spec, z, z)
    assert_allclose(np.diag(K), 1.0)
    assert_allclose(K[0, 1], np.exp(-0.5))
    wide = kernel_eval(KernelSpec("gaussian", sigma=2.0), z, z)
    assert_allclose(wide[0, 1], np.exp(-1.0 / 8.0))


@pytest.mark.parametrize("kind", ["gaussian"])
def test_kernel_eval_matches_broadcast_reference(kind):
    rng = np.random.default_rng(21)
    Z2 = rng.normal(scale=1.5, size=(40, 3))
    Z1 = np.vstack([Z2[:10], rng.normal(scale=1.5, size=(15, 3))])  # ten points coincide with data points
    sigma = 0.7
    gauss = np.exp(-((Z1[:, None, :] - Z2[None, :, :]) ** 2).sum(axis=2) / (2.0 * sigma**2))
    K = kernel_eval(KernelSpec(kind, sigma), Z1, Z2)
    assert np.abs(K - gauss).max() <= 1e-13
    # far from the origin the distance of coincident points rounds to either side of 0; it is
    # clamped, so no Gaussian value exceeds 1
    far = Z2 + 40.0
    assert kernel_eval(KernelSpec("gaussian", sigma), far, far).max() <= 1.0


@pytest.mark.parametrize("kind", ["gaussian"])
def test_kernel_grad_weights_the_block_in_place(kind):
    # the weighted gradient of a matching request's shape, against the formula that forms
    # W * K as a new array
    rng = np.random.default_rng(23)
    Z2 = rng.normal(scale=0.5, size=(498, 3))
    Z1 = rng.normal(scale=0.5, size=(48, 3))
    W = np.zeros((48, 498))
    W[:, :451] = rng.normal(size=451)
    spec = KernelSpec(kind, 0.8)
    K = kernel_eval(spec, Z1, Z2)
    WK = W * K
    expected = (WK @ Z2 - Z1 * WK.sum(axis=1)[:, None]) / spec.sigma**2
    tracemalloc.start()
    try:
        grad = kernel_grad(spec, Z1, Z2, K, W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.abs(grad - expected).max() <= 1e-13 * np.abs(expected).max()
    assert peak < 0.5 * K.nbytes  # no m x N temporary
    assert np.abs(K - WK).max() <= 1e-13 * np.abs(WK).max()  # K now holds the weighted values


def test_kernel_spec_validation():
    for kind in ("cubic", "gaussian_plus_linear"):
        with pytest.raises(ConfigError, match="unknown kernel kind"):
            KernelSpec(kind)
    with pytest.raises(ConfigError):
        KernelSpec("gaussian", sigma=0.0)


@given(st.integers(0, 500))
def test_gram_symmetric_psd(seed):
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(rng.integers(2, 12), 3))
    G = kernel_gram(KernelSpec("gaussian", sigma=0.8), Z)
    assert_allclose(G, G.T)
    assert np.linalg.eigvalsh(G).min() > -1e-10


@given(st.integers(0, 300))
def test_psi_hankel_columns_stack_windows(seed):
    rng = np.random.default_rng(seed)
    traj = collect_trajectory(example1_model(), 20, (-0.5, 0.5), seed=rng)
    basis = named_basis("example1-poly")
    L = int(rng.integers(3, 10))
    H = build_psi_hankel(traj, basis, L)
    psi = psi_hat_signal(traj, basis).values
    assert H.entries.shape[1] == traj.N - L + 1
    for j in range(0, H.entries.shape[1], 3):
        assert_allclose(H.entries[:, j], psi[j : j + L - 2].reshape(-1))
