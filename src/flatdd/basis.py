"""Feature maps over (input, output window) pairs, and kernel substitutes.

A basis is a list of functions psi_i(u_k, xi_k) with xi_k the output
window (y_k, ..., y_{k+n-1}).  The stacked vector Psi_k drives the
synthetic-input recursion y_{k+n} = a^T Psi_k, so trajectories of the
plant are parameterized by Hankel matrices of Psi and y.  Kernels replace
an explicit (possibly infinite) basis with pairwise inner products.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Literal

import numpy as np

from .errors import ConfigError, DimensionError, EvaluationError
from .signals import HankelMatrix, IoTrajectory, Signal, _memo, _window_cols, build_hankel
from .solver import _central_differences

__all__ = [
    "BasisSet",
    "named_basis",
    "window_points",
    "eval_psi_hat",
    "psi_hat_signal",
    "build_psi_hankel",
    "psi_jacobian",
    "KernelSpec",
    "kernel_eval",
    "kernel_diag",
    "kernel_grad",
    "kernel_gram",
]

BasisFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class BasisSet:
    """Ordered basis functions psi_i(u, xi) with xi of width ``n``.

    Each function must accept a batch: u of shape (m,) and xi of shape
    (m, n), returning shape (m,).  A set needs at least one function and
    n >= 1, else ConfigError.  No structure is declared: matching finds
    the function equal to u on its data, and the solvers take derivatives
    from ``psi_jacobian``.
    """

    functions: tuple[BasisFn, ...]
    n: int
    name: str

    def __post_init__(self) -> None:
        # a tuple keeps the set hashable: it keys results stored on a trajectory
        object.__setattr__(self, "functions", tuple(self.functions))
        if self.r == 0:
            raise ConfigError(f"basis {self.name!r} has no functions")
        if self.n < 1:
            raise ConfigError(f"window width must be >= 1, got n={self.n}")

    @property
    def r(self) -> int:
        return len(self.functions)

    def _check_width(self, traj: IoTrajectory) -> None:
        """The one basis-width rule: the set reads windows as wide as the order of ``traj``."""
        if self.n != traj.n:
            raise ConfigError(f"basis window width {self.n} != trajectory order {traj.n}")


# one tuple per bundled basis, so that equal names give equal bases, which
# share the results stored on a trajectory
_IDENTITY_ONLY: tuple[BasisFn, ...] = (lambda u, xi: u,)
_EXAMPLE1_POLY: tuple[BasisFn, ...] = (
    *_IDENTITY_ONLY,
    lambda u, xi: u * xi[:, 0],
    lambda u, xi: u * xi[:, 1],
    lambda u, xi: xi[:, 0] * xi[:, 1],
    lambda u, xi: u * xi[:, 0] ** 2,
    lambda u, xi: u * xi[:, 1] ** 2,
)


def named_basis(name: str, n: int = 2) -> BasisSet:
    """Bundled bases by name.

    ``example1-poly``: [u, u xi1, u xi2, xi1 xi2, u xi1^2, u xi2^2] with
    n = 2; spans the example-1 recursion u (xi1^2 + 2) with coefficients
    (2, 0, 0, 0, 1, 0).  ``identity-only``: the single function u.
    Bases of one name and n are equal.
    """
    if name == "example1-poly":
        if n != 2:
            raise ConfigError(f"basis {name!r} is defined for n=2, got n={n}")
        return BasisSet(_EXAMPLE1_POLY, 2, name)
    if name == "identity-only":
        return BasisSet(_IDENTITY_ONLY, n, name)
    raise ConfigError(f"unknown basis {name!r}")


def window_points(u: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """The points z_k = (u_k, y_k, ..., y_{k+n-1}), k < len(u), as rows of
    shape (len(u), 1+n); the outputs run n samples past the inputs."""
    u = np.asarray(u, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != u.size + n:
        raise DimensionError(f"output length {y.size} must equal input length + n = {u.size + n}")
    return np.column_stack([u, np.lib.stride_tricks.sliding_window_view(y, n)[: u.size]])


def eval_psi_hat(basis: BasisSet, Z: np.ndarray) -> np.ndarray:
    """Evaluate all basis functions at a batch of points z_k = (u_k, xi_k).

    Rows of Z are points (u, xi_1, ..., xi_n), as ``window_points`` builds
    them; a Z of another width raises EvaluationError.  Returns shape
    (m, r): row k is Psi(u_k, xi_k).
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[1] != 1 + basis.n:
        raise EvaluationError(f"point batch has shape {Z.shape}, expected (m, {1 + basis.n})")
    u, xi = Z[:, 0], Z[:, 1:]
    out = np.empty((u.size, basis.r))
    # evaluation faults (division by zero, log of negatives) surface as
    # non-finite entries and are reported below
    with np.errstate(all="ignore"):
        for i, fn in enumerate(basis.functions):
            col = np.asarray(fn(u, xi), dtype=float).reshape(-1)
            if col.size != u.size:
                raise EvaluationError(f"basis function {i} returned {col.size} values for {u.size} points")
            out[:, i] = col
    if not np.all(np.isfinite(out)):
        bad = int(np.argwhere(~np.isfinite(out))[0][1])
        raise EvaluationError(f"basis function {bad} returned a non-finite value at finite arguments")
    return out


def psi_hat_signal(traj: IoTrajectory, basis: BasisSet) -> Signal:
    """The sequence Psi_0 ... Psi_{N-n-1} along a recorded trajectory,
    evaluated once per basis and kept on ``traj``."""
    basis._check_width(traj)
    return _memo(
        traj, ("psi", basis), lambda: Signal(eval_psi_hat(basis, window_points(traj.u.flat, traj.y.flat, traj.n)))
    )


def build_psi_hankel(traj: IoTrajectory, basis: BasisSet, L: int) -> HankelMatrix:
    """Depth-(L-n) Hankel matrix of the Psi sequence.

    Shape r(L-n) x (N-L+1); its columns align with the depth-L Hankel
    matrix of y over the same trajectory.
    """
    _window_cols(traj, L)
    return build_hankel(psi_hat_signal(traj, basis), L - traj.n)


def psi_jacobian(basis: BasisSet, Z: np.ndarray, coords: Iterable[int]) -> np.ndarray:
    """Derivatives of the basis functions in the coordinates ``coords`` at
    the points Z, by central differences (``solver._central_differences``).

    Rows of Z are points (u, xi_1, ..., xi_n).  Returns shape
    (m, r, len(coords)).  The complex step is not used: it reads a zero
    slope off a basis such as np.abs.
    """
    Z = np.asarray(Z, dtype=float)
    return _central_differences(lambda z: eval_psi_hat(basis, z), Z, [(slice(None), c) for c in coords])


@dataclass(frozen=True)
class KernelSpec:
    """Positive-definite kernel over points z = (u, xi) in R^{1+n}, for
    simulation and matching alike.

    ``kind`` names it; ``gaussian``, exp(-|z - z'|^2 / (2 sigma^2)), is
    the one kind.
    """

    kind: Literal["gaussian"]
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if self.kind != "gaussian":
            raise ConfigError(f"unknown kernel kind {self.kind!r}")
        # outside this range 1/(2 sigma^2) is not a finite nonzero float
        if not 1e-150 < self.sigma < 1e150:
            raise ConfigError(f"kernel width must lie in (1e-150, 1e150), got sigma={self.sigma}")


def kernel_eval(spec: KernelSpec, Z1: np.ndarray, Z2: np.ndarray) -> np.ndarray:
    """Pairwise Gaussian kernel values, shape (len(Z1), len(Z2)).

    Rows of Z are points (u, xi_1, ..., xi_n).
    """
    Z1 = np.atleast_2d(np.asarray(Z1, dtype=float))
    Z2 = np.atleast_2d(np.asarray(Z2, dtype=float))
    if Z1.shape[1] != Z2.shape[1]:
        raise EvaluationError(f"point widths differ: {Z1.shape[1]} vs {Z2.shape[1]}")
    # the exponent -s |z1 - z2|^2 = 2s z1.z2 - s|z2|^2 - s|z1|^2, s = 1/(2 sigma^2), is one
    # product of the rows [z1, 1, -s|z1|^2] and [2s z2, -s|z2|^2, 1], clamped and exponentiated
    # in place; a distance that rounds below zero is clamped, so no Gaussian value exceeds 1
    s = 1.0 / (2.0 * spec.sigma**2)
    sq1, sq2 = (-s * np.einsum("ij,ij->i", Z, Z) for Z in (Z1, Z2))
    left = np.column_stack([Z1, np.ones_like(sq1), sq1])
    right = np.column_stack([2.0 * s * Z2, sq2, np.ones_like(sq2)])
    K = left @ right.T
    np.minimum(K, 0.0, out=K)
    np.exp(K, out=K)
    return K


def kernel_diag(spec: KernelSpec, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kernel values k(z, z) at each row z of Z, and their gradients in z.

    Returns shapes (m,) and (m, 1+n): the Gaussian's diagonal is 1, with
    zero gradient.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    return np.ones(Z.shape[0]), np.zeros_like(Z)


def kernel_grad(
    spec: KernelSpec, Z1: np.ndarray, Z2: np.ndarray, K: np.ndarray, W: np.ndarray
) -> np.ndarray:
    """Weighted kernel gradients in the first argument, shape Z1.shape.

    Row k is sum_j W[k, j] dk(z, Z2_j)/dz at z = Z1_k, given the values
    K = kernel_eval(spec, Z1, Z2); each term is -(z - Z2_j) / sigma^2
    times its value.  K is overwritten: the weighted values are formed in
    its memory (a K that is not a writable C-contiguous float array is
    copied first).
    """
    Z1 = np.atleast_2d(np.asarray(Z1, dtype=float))
    Z2 = np.atleast_2d(np.asarray(Z2, dtype=float))
    K = np.require(K, dtype=float, requirements=("C", "W"))
    K *= W
    return (K @ Z2 - Z1 * K.sum(axis=1)[:, None]) / spec.sigma**2


def kernel_gram(spec: KernelSpec, Z: np.ndarray) -> np.ndarray:
    """Symmetric Gram matrix of a point set."""
    K = kernel_eval(spec, Z, Z)
    return 0.5 * (K + K.T)
