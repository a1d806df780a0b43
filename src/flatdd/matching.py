"""Data-based output matching.

Given recorded data and a reference output over a horizon L (whose first
n samples are the initial conditions), find the input that makes the
unknown plant track the reference: alpha solves

    [H_{L-n}(Psi(u, y)); H_L(y)] alpha = [Psi(H_{L-n}(u) alpha, y_ref); y_ref]

in the regularized least-squares sense, and the input is H_{L-n}(u) alpha.
This is the window problem of ``window`` with the input moved by
H_{L-n}(u) and every output fixed.  The unknown input appears inside Psi;
for a basis affine in u the explicit Gauss-Newton solve takes one step,
the ridge solve of the affine problem.  The rows of the identity, the
first basis function equal to u on the data, read (H_{L-n}(u) alpha)_k
= (H_{L-n}(u) alpha)_k for any alpha: the explicit solve leaves them
out.  Kernel mode needs no input term in its kernel: the input is
H_{L-n}(u) alpha in any kernel, and on the set {H_{L-n}(u) alpha = v} a
solve searches, a term u u' would add |H_{L-n}(u) alpha - v|^2 = 0.
"""
from __future__ import annotations

from dataclasses import KW_ONLY, dataclass

import numpy as np

from .basis import psi_hat_signal, window_points
from .errors import ConfigError
from .signals import Signal, _memo, build_hankel
from .solver import NonlinearResult, NormalEquationsProblem, nonlinear_solve
from .window import WindowProblem, explicit_solve, kernel_problem

__all__ = ["MatchProblem", "MatchResult", "dd_match", "kernel_match_problem"]


@dataclass(frozen=True, eq=False)
class MatchProblem(WindowProblem):
    """Inputs of a data-based output-matching solve.

    ``y_ref`` has length L; its first n samples play the role of initial
    conditions, and a non-finite sample raises ConfigError.  Explicit mode
    requires a basis containing the identity function: the input is read
    as H_{L-n}(u) alpha, which is the input of the trajectory alpha
    parameterizes only when the input itself is a basis function, whose
    rows then hold by construction: the first equal to u on the data, found
    once per data set (a basis without one raises ConfigError).  The
    equations are the other functions' rows and the L reference outputs.
    """

    y_ref: np.ndarray
    mode: str = "explicit"

    def __post_init__(self) -> None:
        super().__post_init__()
        self._known_signal("y_ref", "reference", self.L, "L")
        if self.mode == "explicit":
            # the first function equal to u on the data, found once per data set: the solve leaves out its rows
            psi = psi_hat_signal(self.traj, self.basis).values
            is_u = _memo(self.traj, ("identity", self.basis), lambda: np.isclose(psi, self.traj.u.values).all(axis=0))
            if not is_u.any():
                raise ConfigError(
                    f"matching needs the input itself among the functions of basis {self.basis.name!r} "
                    "(the identity, found on the data): the input is read as H_{L-n}(u) alpha, the input "
                    "of the trajectory alpha parameterizes only when the input is a basis function"
                )
            object.__setattr__(self, "_identity", int(is_u.argmax()))
        n, L = self.traj.n, self.L
        # candidate point k is ((U alpha)[k], y_ref[k], ..., y_ref[k+n-1]) with U = H_{L-n}(u)
        Z0 = window_points(np.zeros(L - n), self.y_ref, n)
        self._alpha_enters(Z0, build_hankel(self.traj.u, L - n).entries, {0: 0}, self.y_ref)

    @property
    def equations(self) -> np.ndarray:
        """Every basis function but the identity: at candidate point k it is
        the moved input (H_u alpha)_k itself, so its rows hold for any alpha."""
        return np.delete(np.arange(self.basis.r), self._identity)


@dataclass(frozen=True, eq=False)
class MatchResult(NonlinearResult):
    """Matching input u = H_{L-n}(u_data) alpha and solve diagnostics;
    ``initial_objective`` (never below ``objective``) is the objective at
    alpha = 0 in explicit mode, at the fit to the reference in kernel mode."""

    _: KW_ONLY
    u: Signal


def kernel_match_problem(prob: MatchProblem) -> tuple[NormalEquationsProblem, np.ndarray]:
    """Assemble the Gram-space matching objective of a kernel-mode
    ``prob``, with its exact gradient.

    Returns the problem, whose signal map H is the depth-(L-n) input
    Hankel matrix (u = H alpha), and the starting point alpha0 fit to the
    reference rows.
    """
    return kernel_problem(prob)


def dd_match(prob: MatchProblem) -> MatchResult:
    """Compute the input that tracks ``y_ref`` using recorded data only.

    Warns when the stored excitation verdict cannot certify the data (a
    record below the data-length bound is its "too short" diagnostic);
    the check needs explicit features and is skipped in kernel mode.  The
    verdict is kept on ``prob.traj`` and shared with later explicit
    solves and membership queries on the same data, basis and L.  The
    explicit solve's equations leave out the identity function's rows,
    which hold for any alpha; it starts from alpha = 0 and takes one step
    for a basis affine in u.  The kernel solve starts from the ridge fit
    to the reference.
    """
    res = nonlinear_solve(*kernel_match_problem(prob)) if prob.mode == "kernel" else explicit_solve(prob)
    return MatchResult(**vars(res), u=Signal(prob.H @ res.alpha))
