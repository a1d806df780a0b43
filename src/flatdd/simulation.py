"""Data-based simulation.

Given recorded data of an unknown flat plant, a new input and the first n
outputs, the output response over a horizon L is found as a combination
of data windows: alpha solves

    [H_{L-n}(Psi(u, y)); H_n(y_init-part)] alpha = [Psi(u_new, H_L(y) alpha); y_init]

in the regularized least-squares sense, and the response is H_L(y) alpha.
The right-hand side depends on alpha, so the solve is iterative except
when the basis is affine in the output window, which collapses the
problem to plain ridge regression.  Kernel mode carries the same
objective through Gram matrices without materializing any basis.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import (
    BasisSet,
    KernelSpec,
    affine_xi_decomposition,
    build_psi_hankel,
    eval_psi_hat,
    kernel_diag,
    kernel_eval,
    kernel_grad,
)
from .errors import ConfigError, DataLengthWarning, DimensionError
from .membership import _warn_if_not_excited, data_length_check
from .signals import IoTrajectory, Signal, build_hankel
from .solver import (
    NonlinearResidualProblem,
    NonlinearResult,
    NormalEquationsProblem,
    RidgeProblem,
    ridge_solve,
)
from .solver import nonlinear_solve

__all__ = ["SimProblem", "SimResult", "dd_simulate", "kernel_sim_problem"]


@dataclass(frozen=True)
class SimProblem:
    """Inputs of a data-based simulation over one horizon.

    ``mode`` is "explicit" (requires ``basis``) or "kernel" (requires
    ``kernel``).  ``u_new`` has length L - n and ``y_init`` length n.
    """

    traj: IoTrajectory
    L: int
    u_new: np.ndarray
    y_init: np.ndarray
    mode: str = "explicit"
    basis: BasisSet | None = None
    kernel: KernelSpec | None = None
    lam: float = 0.1
    max_iter: int = 500
    rel_tol: float = 1e-8
    damping: float = 1.0
    polish: bool = True
    polish_maxiter: int = 100

    def __post_init__(self) -> None:
        n = self.traj.n
        if self.L <= n:
            raise ConfigError(f"horizon L={self.L} must exceed order n={n}")
        if self.lam <= 0:
            raise ConfigError(f"simulation requires lam > 0, got {self.lam}")
        u_new = np.asarray(self.u_new, dtype=float).reshape(-1)
        y_init = np.asarray(self.y_init, dtype=float).reshape(-1)
        if u_new.size != self.L - n:
            raise DimensionError(f"new input has {u_new.size} samples, expected L-n={self.L - n}")
        if y_init.size != n:
            raise DimensionError(f"initial output has {y_init.size} samples, expected n={n}")
        if self.mode == "explicit":
            if self.basis is None:
                raise ConfigError("explicit mode requires a basis")
            if self.basis.n != n:
                raise ConfigError(f"basis window width {self.basis.n} != trajectory order {n}")
        elif self.mode == "kernel":
            if self.kernel is None:
                raise ConfigError("kernel mode requires a kernel spec")
        else:
            raise ConfigError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "u_new", u_new)
        object.__setattr__(self, "y_init", y_init)


@dataclass(frozen=True)
class SimResult:
    """Simulated response y = H_L(y_data) alpha and solve diagnostics.

    ``initial_objective`` is the objective at the solver's starting point
    (equal to ``objective`` when the problem is solved in closed form);
    the guard guarantees objective <= initial_objective.
    """

    y: Signal
    alpha: np.ndarray
    objective: float
    iterations: int
    converged: bool
    initial_objective: float = float("nan")


def _window_points(traj: IoTrajectory) -> np.ndarray:
    """Data points z_k = (u_k, y_k, ..., y_{k+n-1}), shape (N-n, 1+n)."""
    y = traj.y.flat
    xi = np.lib.stride_tricks.sliding_window_view(y, traj.n)[: traj.N - traj.n]
    return np.column_stack([traj.u.flat, xi])


def _slice_sum_gram(K: np.ndarray, depth: int, cols: int) -> np.ndarray:
    """sum_k K[k:k+cols, k:k+cols] for k = 0..depth-1, computed in K's memory.

    K is overwritten with its prefix sums along diagonals,
    P[i, j] = sum_t K[i-t, j-t], so each depth-long diagonal run is one
    difference P[i+depth-1, j+depth-1] - P[i-1, j-1].  The result is a
    view into K; no second matrix of K's size is made.
    """
    n = depth + cols - 1
    for i in range(1, n):
        K[i, 1:n] += K[i - 1, : n - 1]
    # bottom row first: row depth-1+r is written only after row r-1 was read
    for r in range(cols - 1, 0, -1):
        K[depth - 1 + r, depth:n] -= K[r - 1, : cols - 1]
    return K[depth - 1 : n, depth - 1 : n]


def _band(A: np.ndarray, cols: int) -> np.ndarray:
    """View V[k, j] = A[k, k+j] of an m x (m+cols-1) array; writes go through.

    Candidate point k meets data point k+j in column j of the feature
    Hankel matrix, so V holds the pairs that enter the objective.
    """
    s0, s1 = A.strides
    return np.lib.stride_tricks.as_strided(A, (A.shape[0], cols), (s0 + s1, s1))


def _kernel_window_problem(
    traj: IoTrajectory,
    kernel: KernelSpec | Callable[[np.ndarray, np.ndarray], np.ndarray],
    Z0: np.ndarray,
    J: np.ndarray,
    B: np.ndarray,
    b: np.ndarray,
    lam: float,
    **controls,
) -> NormalEquationsProblem:
    """Gram-space form of |[H_psi; B] alpha - [Psi(Z(alpha)); b]|^2 + lam |alpha|^2.

    H_psi is the depth-m feature Hankel matrix of the data, whose row
    block k pairs with candidate point k, and the m candidate points
    Z(alpha)[k, c] = Z0[k, c] + J[k, c, :] @ alpha are affine in alpha.
    ``kernel`` is a KernelSpec, in which case the problem carries the
    exact gradient, or any pair_fn(Z1, Z2) returning pairwise inner
    products of feature vectors.
    """
    m, width, cols = J.shape
    J = J.reshape(m * width, cols)
    Z_data = _window_points(traj)
    if isinstance(kernel, KernelSpec):
        spec = kernel
        pair_fn = lambda Z1, Z2: kernel_eval(spec, Z1, Z2)
    else:
        spec, pair_fn = None, kernel
    data_block = pair_fn(Z_data, Z_data)
    if spec is None:  # the Gram sum overwrites the block; keep a caller's array intact
        data_block = np.array(data_block, dtype=float)
    gram = _slice_sum_gram(data_block, m, cols) + B.T @ B
    const_cross = B.T @ b
    b_sq = float(b @ b)

    def points(alpha: np.ndarray) -> np.ndarray:
        return Z0 + (J @ alpha).reshape(m, width)

    def cross(alpha: np.ndarray) -> np.ndarray:
        return _band(pair_fn(points(alpha), Z_data), cols).sum(axis=0) + const_cross

    def offset(alpha: np.ndarray) -> float:
        Z_bar = points(alpha)
        if spec is None:
            return float(np.trace(pair_fn(Z_bar, Z_bar))) + b_sq
        return float(kernel_diag(spec, Z_bar)[0].sum()) + b_sq

    def cross_terms(alpha: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
        Z_bar = points(alpha)
        K = kernel_eval(spec, Z_bar, Z_data)
        diag, diag_grad = kernel_diag(spec, Z_bar)
        W = np.zeros_like(K)
        _band(W, cols)[:] = alpha
        point_grad = diag_grad - 2.0 * kernel_grad(spec, Z_bar, Z_data, K, W)
        return _band(K, cols).sum(axis=0) + const_cross, float(diag.sum()) + b_sq, J.T @ point_grad.reshape(-1)

    return NormalEquationsProblem(
        gram, cross, offset, lam, cross_terms=None if spec is None else cross_terms, **controls
    )


def kernel_sim_problem(
    traj: IoTrajectory,
    L: int,
    u_new: np.ndarray,
    y_init: np.ndarray,
    kernel: KernelSpec | Callable[[np.ndarray, np.ndarray], np.ndarray],
    lam: float,
    **controls,
) -> tuple[NormalEquationsProblem, np.ndarray, np.ndarray]:
    """Assemble the Gram-space simulation objective.

    ``kernel`` is a KernelSpec (the problem then carries its exact
    gradient) or any ``pair_fn(Z1, Z2)`` returning pairwise inner products
    of feature vectors at points z = (u, output window).  Returns the
    problem, the depth-L output Hankel matrix (for recovering y from
    alpha), and the starting point alpha0 fit to the initial-output rows.
    """
    n = traj.n
    m = L - n
    Y0 = build_hankel(traj.y.window(0, traj.N - L + n - 1), n).entries
    H_L_y = build_hankel(traj.y, L).entries
    # candidate point k is (u_new[k], y[k], ..., y[k+n-1]) with y = H_L_y alpha
    Z0 = np.zeros((m, 1 + n))
    Z0[:, 0] = u_new
    J = np.zeros((m, 1 + n, H_L_y.shape[1]))
    for i in range(n):
        J[:, 1 + i, :] = H_L_y[i : i + m, :]
    prob = _kernel_window_problem(traj, kernel, Z0, J, Y0, y_init, lam, **controls)
    alpha0 = ridge_solve(RidgeProblem(Y0, y_init, lam))
    return prob, H_L_y, alpha0


def _explicit_qp(
    prob: SimProblem, A: np.ndarray, H_L_y: np.ndarray, b_const: np.ndarray
) -> NonlinearResult:
    """Affine-in-window bases collapse the residual to (A - C) alpha - b."""
    basis = prob.basis
    n = prob.traj.n
    base, grad = affine_xi_decomposition(basis, prob.u_new)
    m = prob.L - n
    C = np.zeros_like(A)
    # block k of rows is sum_j outer(grad[k, :, j], H_L_y[k + j, :])
    blocks = C[: m * basis.r].reshape(m, basis.r, -1)
    for j in range(n):
        blocks += grad[:, :, j, None] * H_L_y[j : j + m, None, :]
    A_eff = A - C
    rhs0 = np.concatenate([base.reshape(-1), b_const])
    alpha = ridge_solve(RidgeProblem(A_eff, rhs0, prob.lam))
    r = A_eff @ alpha - rhs0
    obj = float(r @ r + prob.lam * (alpha @ alpha))
    return NonlinearResult(alpha, obj, 0, True, obj)


def dd_simulate(prob: SimProblem) -> SimResult:
    """Simulate the response to ``u_new`` from ``y_init`` using data only.

    Warns when the recorded data cannot certify completeness (excitation
    rank or data-length bound); these checks need explicit features and
    are skipped in kernel mode.  The excitation verdict is kept on
    ``prob.traj`` and shared with later explicit solves and membership
    queries on the same data, basis and L.
    """
    traj, n, L = prob.traj, prob.traj.n, prob.L
    controls = dict(
        max_iter=prob.max_iter,
        rel_tol=prob.rel_tol,
        damping=prob.damping,
        polish=prob.polish,
        polish_maxiter=prob.polish_maxiter,
    )

    if prob.mode == "kernel":
        normal, H_L_y, alpha0 = kernel_sim_problem(
            traj,
            L,
            prob.u_new,
            prob.y_init,
            prob.kernel,
            prob.lam,
            **controls,
        )
        res = nonlinear_solve(normal, alpha0)
        return SimResult(
            Signal(H_L_y @ res.alpha),
            res.alpha,
            res.objective,
            res.iterations,
            res.converged,
            res.initial_objective,
        )

    basis = prob.basis
    chk = data_length_check(traj.N, L, n, basis.r)
    if not chk.feasible:
        warnings.warn(
            f"data length N={traj.N} is below the excitation bound {chk.required_N}",
            DataLengthWarning,
            stacklevel=2,
        )
    _warn_if_not_excited(traj, basis, L)

    H_psi = build_psi_hankel(traj, basis, L).entries
    Y0 = build_hankel(traj.y.window(0, traj.N - L + n - 1), n).entries
    H_L_y = build_hankel(traj.y, L).entries
    A = np.vstack([H_psi, Y0])

    if basis.affine_in_xi:
        res = _explicit_qp(prob, A, H_L_y, prob.y_init)
        return SimResult(
            Signal(H_L_y @ res.alpha),
            res.alpha,
            res.objective,
            res.iterations,
            res.converged,
            res.initial_objective,
        )

    def rhs(alpha: np.ndarray) -> np.ndarray:
        y_cand = H_L_y @ alpha
        xi = np.lib.stride_tricks.sliding_window_view(y_cand, n)[: L - n]
        psi = eval_psi_hat(basis, prob.u_new, xi)
        return np.concatenate([psi.reshape(-1), prob.y_init])

    rows0 = [Y0]
    rhs0 = [prob.y_init]
    if basis.identity_index is not None:
        rows0.insert(0, H_psi[basis.identity_index :: basis.r, :])
        rhs0.insert(0, prob.u_new)
    alpha0 = ridge_solve(RidgeProblem(np.vstack(rows0), np.concatenate(rhs0), prob.lam))

    nl = NonlinearResidualProblem(A, rhs, prob.lam, **controls)
    res = nonlinear_solve(nl, alpha0)
    return SimResult(
        Signal(H_L_y @ res.alpha),
        res.alpha,
        res.objective,
        res.iterations,
        res.converged,
        res.initial_objective,
    )
