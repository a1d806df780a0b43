"""Data-based output matching.

Given recorded data and a reference output over a horizon L (whose first
n samples are the initial conditions), find the input that makes the
unknown plant track the reference: alpha solves

    [H_{L-n}(Psi(u, y)); H_L(y)] alpha = [Psi(H_{L-n}(u) alpha, y_ref); y_ref]

in the regularized least-squares sense, and the input is H_{L-n}(u) alpha.
Here the reference is fixed and the unknown input appears inside Psi, so
bases affine in u collapse the problem to ridge regression; kernel mode
needs the gaussian_plus_linear kernel, whose linear term is what makes
the input recoverable at all.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import (
    BasisSet,
    KernelSpec,
    affine_u_decomposition,
    build_psi_hankel,
    eval_psi_hat,
)
from .errors import ConfigError, DataLengthWarning, DimensionError
from .membership import _warn_if_not_excited, data_length_check
from .signals import IoTrajectory, Signal, build_hankel
from .solver import (
    NonlinearResidualProblem,
    NormalEquationsProblem,
    RidgeProblem,
    nonlinear_solve,
    ridge_solve,
)
from .simulation import _kernel_window_problem

__all__ = ["MatchProblem", "MatchResult", "dd_match", "kernel_match_problem"]


@dataclass(frozen=True)
class MatchProblem:
    """Inputs of a data-based output-matching solve.

    ``y_ref`` has length L; its first n samples play the role of initial
    conditions.  Explicit mode requires a basis containing the identity
    function; kernel mode requires the gaussian_plus_linear kernel.
    """

    traj: IoTrajectory
    L: int
    y_ref: np.ndarray
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
            raise ConfigError(f"matching requires lam > 0, got {self.lam}")
        y_ref = np.asarray(self.y_ref, dtype=float).reshape(-1)
        if y_ref.size != self.L:
            raise DimensionError(f"reference has {y_ref.size} samples, expected L={self.L}")
        if self.mode == "explicit":
            if self.basis is None:
                raise ConfigError("explicit mode requires a basis")
            if self.basis.n != n:
                raise ConfigError(f"basis window width {self.basis.n} != trajectory order {n}")
            if self.basis.identity_index is None:
                raise ConfigError(
                    "matching needs the input itself among the basis functions "
                    "(identity_index) to retrieve it from the solution"
                )
        elif self.mode == "kernel":
            if self.kernel is None:
                raise ConfigError("kernel mode requires a kernel spec")
            if self.kernel.kind != "gaussian_plus_linear":
                raise ConfigError(
                    "matching requires the gaussian_plus_linear kernel; a plain "
                    "gaussian leaves the input unrecoverable"
                )
        else:
            raise ConfigError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "y_ref", y_ref)


@dataclass(frozen=True)
class MatchResult:
    """Matching input u = H_{L-n}(u_data) alpha and solve diagnostics.

    ``y_achieved`` stays None here; closed-loop validation needs the
    plant and lives with the experiment drivers.
    """

    u: Signal
    alpha: np.ndarray
    objective: float
    iterations: int
    converged: bool
    initial_objective: float = float("nan")
    y_achieved: Signal | None = None


def _reference_windows(y_ref: np.ndarray, n: int) -> np.ndarray:
    return np.lib.stride_tricks.sliding_window_view(y_ref, n)[: y_ref.size - n]


def kernel_match_problem(
    traj: IoTrajectory,
    L: int,
    y_ref: np.ndarray,
    kernel: KernelSpec | Callable[[np.ndarray, np.ndarray], np.ndarray],
    lam: float,
    **controls,
) -> tuple[NormalEquationsProblem, np.ndarray, np.ndarray]:
    """Assemble the Gram-space matching objective.

    ``kernel`` is a KernelSpec (the problem then carries its exact
    gradient) or any ``pair_fn(Z1, Z2)``.  Returns the problem, the
    depth-(L-n) input Hankel matrix (for recovering u from alpha), and the
    starting point alpha0 fit to the reference rows.
    """
    n = traj.n
    U = build_hankel(traj.u, L - n).entries
    H_L_y = build_hankel(traj.y, L).entries
    # candidate point k is ((U alpha)[k], y_ref[k], ..., y_ref[k+n-1])
    Z0 = np.column_stack([np.zeros(L - n), _reference_windows(y_ref, n)])
    J = np.zeros((L - n, 1 + n, U.shape[1]))
    J[:, 0, :] = U
    prob = _kernel_window_problem(traj, kernel, Z0, J, H_L_y, y_ref, lam, **controls)
    alpha0 = ridge_solve(RidgeProblem(H_L_y, y_ref, lam))
    return prob, U, alpha0


def dd_match(prob: MatchProblem) -> MatchResult:
    """Compute the input that tracks ``y_ref`` using recorded data only.

    Warns when excitation rank or the data-length bound cannot be
    certified; both checks need explicit features and are skipped in
    kernel mode.  The excitation verdict is kept on ``prob.traj`` and
    shared with later explicit solves and membership queries on the same
    data, basis and L.  A basis affine in u is solved in closed form;
    otherwise the iterative solve starts from the ridge fit of the output
    rows to the reference.
    """
    traj, n, L = prob.traj, prob.traj.n, prob.L
    y_ref = prob.y_ref
    controls = dict(
        max_iter=prob.max_iter,
        rel_tol=prob.rel_tol,
        damping=prob.damping,
        polish=prob.polish,
        polish_maxiter=prob.polish_maxiter,
    )

    if prob.mode == "kernel":
        normal, U, alpha0 = kernel_match_problem(
            traj,
            L,
            y_ref,
            prob.kernel,
            prob.lam,
            **controls,
        )
        res = nonlinear_solve(normal, alpha0)
        return MatchResult(
            Signal(U @ res.alpha),
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
    U = build_hankel(traj.u, L - n).entries
    H_L_y = build_hankel(traj.y, L).entries
    A = np.vstack([H_psi, H_L_y])
    xi_ref = _reference_windows(y_ref, n)

    if basis.affine_in_u:
        # psi_i(u, xi_ref_k) = base_ki + slope_ki u makes the substituted
        # residual linear in alpha
        base, slope = affine_u_decomposition(basis, xi_ref)
        rows = (L - n) * basis.r
        # A becomes A - C, where block k of C's rows is the outer product slope[k] U[k, :]
        A[:rows] -= (slope[:, :, None] * U[:, None, :]).reshape(rows, -1)
        rhs0 = np.concatenate([base.reshape(-1), y_ref])
        alpha = ridge_solve(RidgeProblem(A, rhs0, prob.lam))
        r = A @ alpha - rhs0
        obj = float(r @ r + prob.lam * (alpha @ alpha))
        return MatchResult(Signal(U @ alpha), alpha, obj, 0, True, obj)

    def rhs(alpha: np.ndarray) -> np.ndarray:
        psi = eval_psi_hat(basis, U @ alpha, xi_ref)
        return np.concatenate([psi.reshape(-1), y_ref])

    alpha0 = ridge_solve(RidgeProblem(H_L_y, y_ref, prob.lam))
    nl = NonlinearResidualProblem(A, rhs, prob.lam, **controls)
    res = nonlinear_solve(nl, alpha0)
    return MatchResult(
        Signal(U @ res.alpha),
        res.alpha,
        res.objective,
        res.iterations,
        res.converged,
        res.initial_objective,
    )
