"""Data-based output matching.

Given recorded data and a reference output over a horizon L (whose first
n samples are the initial conditions), find the input that makes the
unknown plant track the reference: alpha solves

    [H_{L-n}(Psi(u, y)); H_L(y)] alpha = [Psi(H_{L-n}(u) alpha, y_ref); y_ref]

in the regularized least-squares sense, and the input is H_{L-n}(u) alpha.
This is the window problem of ``window`` with the input moved by
H_{L-n}(u) and every output fixed.  The unknown input appears inside Psi;
for a basis affine in u the explicit Gauss-Newton solve takes one step,
the ridge solve of the affine problem.  Kernel mode needs the
gaussian_plus_linear kernel, whose linear term is what makes the input
recoverable at all.
"""
from __future__ import annotations

from dataclasses import KW_ONLY, dataclass

import numpy as np

from .basis import window_points
from .errors import ConfigError
from .signals import Signal, build_hankel
from .solver import NonlinearResult, NormalEquationsProblem, nonlinear_solve
from .window import WindowLayout, WindowProblem, explicit_solve, kernel_problem

__all__ = ["MatchProblem", "MatchResult", "dd_match", "kernel_match_problem"]


@dataclass(frozen=True)
class MatchProblem(WindowProblem):
    """Inputs of a data-based output-matching solve.

    ``y_ref`` has length L; its first n samples play the role of initial
    conditions, and a non-finite sample raises ConfigError.  Explicit mode
    requires a basis containing the identity function; kernel mode
    requires the gaussian_plus_linear kernel.
    """

    y_ref: np.ndarray
    mode: str = "explicit"

    def __post_init__(self) -> None:
        super().__post_init__()
        self._known_signal("y_ref", "reference", self.L, "L")
        if self.mode == "explicit" and self.basis.identity_index is None:
            raise ConfigError(
                "matching needs the input itself among the basis functions "
                "(identity_index) to retrieve it from the solution"
            )
        if self.mode == "kernel" and self.kernel.kind != "gaussian_plus_linear":
            raise ConfigError(
                "matching requires the gaussian_plus_linear kernel; a plain "
                "gaussian leaves the input unrecoverable"
            )


@dataclass(frozen=True)
class MatchResult(NonlinearResult):
    """Matching input u = H_{L-n}(u_data) alpha and solve diagnostics;
    ``initial_objective`` (never below ``objective``) is the objective at
    alpha = 0 in explicit mode, at the fit to the reference in kernel mode."""

    _: KW_ONLY
    u: Signal


def _layout(prob: MatchProblem) -> WindowLayout:
    n, L = prob.traj.n, prob.L
    # candidate point k is ((U alpha)[k], y_ref[k], ..., y_ref[k+n-1]) with U = H_{L-n}(u)
    Z0 = window_points(np.zeros(L - n), prob.y_ref, n)
    return WindowLayout(Z0, build_hankel(prob.traj.u, L - n).entries, {0: 0}, prob.y_ref)


def kernel_match_problem(prob: MatchProblem) -> tuple[NormalEquationsProblem, np.ndarray]:
    """Assemble the Gram-space matching objective of a kernel-mode
    ``prob``, with its exact gradient.

    Returns the problem, whose signal map H is the depth-(L-n) input
    Hankel matrix (u = H alpha), and the starting point alpha0 fit to the
    reference rows.
    """
    return kernel_problem(prob, _layout(prob))


def dd_match(prob: MatchProblem) -> MatchResult:
    """Compute the input that tracks ``y_ref`` using recorded data only.

    Warns when excitation rank or the data-length bound cannot be
    certified; both checks need explicit features and are skipped in
    kernel mode.  The excitation verdict is kept on ``prob.traj`` and
    shared with later explicit solves and membership queries on the same
    data, basis and L.  The explicit solve starts from alpha = 0 and takes
    one step for a basis affine in u; the kernel solve starts from the
    ridge fit of the output rows to the reference.
    """
    if prob.mode == "kernel":
        normal, alpha0 = kernel_match_problem(prob)
        U, res = normal.H, nonlinear_solve(normal, alpha0)
    else:
        layout = _layout(prob)
        U, res = layout.H, explicit_solve(prob, layout)
    return MatchResult(**vars(res), u=Signal(U @ res.alpha))
