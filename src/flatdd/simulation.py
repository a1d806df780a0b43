"""Data-based simulation.

Given recorded data of an unknown flat plant, a new input and the first n
outputs, the output response over a horizon L is found as a combination
of data windows: alpha solves

    [H_{L-n}(Psi(u, y)); H_L(y)[:n]] alpha = [Psi(u_new, H_L(y) alpha); y_init]

in the regularized least-squares sense, and the response is H_L(y) alpha.
This is the window problem of ``window`` with the output window moved by
H_L(y) and the first n outputs fixed.  The right-hand side depends on
alpha, so the solve is iterative: Gauss-Newton in explicit mode, which
takes one step when the basis is affine in the output window.  Kernel
mode carries the same objective through Gram matrices without
materializing any basis.
"""
from __future__ import annotations

from dataclasses import KW_ONLY, dataclass

import numpy as np

from .basis import window_points
from .signals import Signal, build_hankel
from .solver import NonlinearResult, NormalEquationsProblem, nonlinear_solve
from .window import WindowProblem, explicit_solve, kernel_problem

__all__ = ["SimProblem", "SimResult", "dd_simulate", "kernel_sim_problem"]


@dataclass(frozen=True, eq=False)
class SimProblem(WindowProblem):
    """Inputs of a data-based simulation over one horizon.

    ``mode`` is "explicit" (requires ``basis``) or "kernel" (requires
    ``kernel``).  ``u_new`` has length L - n and ``y_init`` length n; a
    non-finite sample in either raises ConfigError.
    """

    u_new: np.ndarray
    y_init: np.ndarray
    mode: str = "explicit"

    def __post_init__(self) -> None:
        super().__post_init__()
        self._known_signal("u_new", "new input", self.L - self.traj.n, "L-n")
        self._known_signal("y_init", "initial output", self.traj.n, "n")
        n, L = self.traj.n, self.L
        # candidate point k is (u_new[k], y[k], ..., y[k+n-1]) with y = H_L(y) alpha
        Z0 = window_points(self.u_new, np.zeros(L), n)
        self._alpha_enters(Z0, build_hankel(self.traj.y, L).entries, {1 + i: i for i in range(n)}, self.y_init)


@dataclass(frozen=True, eq=False)
class SimResult(NonlinearResult):
    """Simulated response y = H_L(y_data) alpha and solve diagnostics.

    ``initial_objective`` is the objective at the solver's starting point:
    alpha = 0 in explicit mode, the fit to the initial outputs in kernel
    mode.  The solvers guarantee objective <= initial_objective.
    """

    _: KW_ONLY
    y: Signal


def kernel_sim_problem(prob: SimProblem) -> tuple[NormalEquationsProblem, np.ndarray]:
    """Assemble the Gram-space simulation objective of a kernel-mode
    ``prob``, with its exact gradient.

    The kernel pairs points z = (u, output window).  Returns the problem,
    whose signal map H is the depth-L output Hankel matrix (y = H alpha),
    and the starting point alpha0 fit to the initial-output rows.
    """
    return kernel_problem(prob)


def dd_simulate(prob: SimProblem) -> SimResult:
    """Simulate the response to ``u_new`` from ``y_init`` using data only.

    Warns when the stored excitation verdict cannot certify the data (a
    record below the data-length bound is its "too short" diagnostic);
    the check needs explicit features and is skipped in kernel mode.  The
    verdict is kept on ``prob.traj`` and shared with later explicit
    solves and membership queries on the same data, basis and L.
    """
    res = nonlinear_solve(*kernel_sim_problem(prob)) if prob.mode == "kernel" else explicit_solve(prob)
    return SimResult(**vars(res), y=Signal(prob.H @ res.alpha))
