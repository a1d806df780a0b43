"""The window problem behind data-based simulation and output matching.

Both find alpha minimizing

    |[H_{L-n}(Psi); H_L(y)[:l]] alpha - [Psi(Z(alpha)); b]|^2 + lam |alpha|^2,

where row k of Z(alpha) is the candidate point z_k = (u_k, y_k, ...,
y_{k+n-1}) of one horizon, k = 0 ... L-n-1, H_{L-n}(Psi) is the feature
Hankel matrix of the recorded data and b the l fixed first outputs of
the window.  The data block holds rows of membership's ``flat_stack``
and the right-hand side is its ``candidate_stack`` at Z(alpha):
membership is the same equation with every entry fixed.  A front end's
problem says where alpha enters: the data Hankel matrix through which
alpha moves the points, which point coordinates it moves, and b; and
which basis functions give equations.  Simulation moves the output
window through H_L(y), fixes the first n outputs and keeps every
function; matching moves the input through H_{L-n}(u), fixes the whole
reference and leaves out the identity, whose value is the moved input.
The points depend on alpha only through that moved signal v = H alpha,
a few dozen entries against hundreds of coefficients.  Explicit mode
evaluates a basis at the points; kernel mode carries the same objective
through Gram matrices, and its solve searches v itself, with alpha
eliminated.
"""
from __future__ import annotations

from dataclasses import KW_ONLY, dataclass

import numpy as np

from .basis import BasisSet, KernelSpec, kernel_diag, kernel_eval, kernel_grad, psi_jacobian, window_points
from .errors import ConfigError
from .membership import _warn_if_not_excited, candidate_stack, flat_stack
from .signals import IoTrajectory, _hankel_cols, _known_samples, build_hankel
from .solver import NonlinearResidualProblem, NonlinearResult, NormalEquationsProblem, RidgeProblem
from .solver import _ROW_BLOCK, _check_controls, _cholesky, _workspace, nonlinear_solve, ridge_solve

__all__ = ["WindowProblem", "explicit_solve", "kernel_problem"]


@dataclass(frozen=True, eq=False)
class WindowProblem:
    """Recorded data, horizon and solver settings shared by the front ends.

    Subclasses add the known signals and a positional ``mode``:
    "explicit" requires ``basis``, "kernel" requires ``kernel``.  A
    horizon above the record raises DimensionError naming L and N.  Each
    ends its checks by setting where alpha enters (``_alpha_enters``).
    """

    traj: IoTrajectory
    L: int
    _: KW_ONLY
    basis: BasisSet | None = None
    kernel: KernelSpec | None = None
    lam: float = 0.1
    max_iter: int = 500
    rel_tol: float = 1e-8

    def __post_init__(self) -> None:
        n = self.traj.n
        if self.L <= n:
            raise ConfigError(f"horizon L={self.L} must exceed order n={n}")
        _check_controls(self.lam, self.max_iter, self.rel_tol)
        if self.lam == 0:
            raise ConfigError(f"{type(self).__name__} requires lam > 0, got {self.lam}")
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
        _hankel_cols(self.traj.y, self.L)

    @property
    def controls(self) -> dict:
        return dict(max_iter=self.max_iter, rel_tol=self.rel_tol)

    def _known_signal(self, name: str, what: str, size: int, expected: str) -> None:
        """Store field ``name`` as checked by ``signals._known_samples``."""
        object.__setattr__(self, name, _known_samples(getattr(self, name), what, name, size, expected))

    def _alpha_enters(self, Z0: np.ndarray, H: np.ndarray, moved: dict[int, int], b: np.ndarray) -> None:
        """Set where alpha enters (see ``points``), as attributes that are not fields."""
        for name, value in (("Z0", Z0), ("H", H), ("moved", moved), ("b", b)):
            object.__setattr__(self, name, value)

    @property
    def equations(self) -> np.ndarray:
        """The basis functions whose rows are equations in explicit mode: all of them."""
        return np.arange(self.basis.r)

    def points(self, v: np.ndarray) -> np.ndarray:
        """The candidate points of the moved signal v = H @ alpha.

        Row k is Z0[k] with coordinate c replaced by v[k + moved[c]] for
        each c in ``moved`` (0 is the input, 1..n the output window); Z0
        holds zeros there.  v is also the signal the front end returns.
        The first len(b) outputs of the window are fixed to b: the rows
        H_L(y)[:len(b)] alpha must match it.
        """
        Z = self.Z0.copy()
        for c, first in self.moved.items():
            Z[:, c] = v[first : first + Z.shape[0]]
        return Z


def explicit_solve(prob: WindowProblem) -> NonlinearResult:
    """Solve the window problem with the basis features of ``prob``.

    ``prob`` must be in explicit mode, else ConfigError.
    Warns when the recorded data cannot certify completeness: too short
    or not exciting (``membership._warn_if_not_excited``, whose verdict
    is kept on ``prob.traj`` and covers the whole basis).  The equations
    are the rows of the problem's basis functions (``equations``) at each
    candidate point, then the fixed outputs b: matching leaves out the
    identity function, whose rows (H_u alpha)_k = (H_u alpha)_k hold for
    every alpha.  The data block is those rows of ``flat_stack``, copied
    into this thread's ``"block"`` scratch.  The solve is Gauss-Newton
    from alpha = 0 (``solver.nonlinear_solve``).  The right-hand side
    moves with alpha through the basis at the candidate points, so its
    Jacobian is ``psi_jacobian`` at those points times the rows of the
    problem's H that move them.  For a basis affine in the moved
    coordinates the first step is the exact minimizer.
    """
    if prob.mode != "explicit":
        raise ConfigError(f"a basis-feature solve needs explicit mode, got mode {prob.mode!r}")
    traj, basis, L, lam = prob.traj, prob.basis, prob.L, prob.lam
    _warn_if_not_excited(traj, basis, L)

    M, m, eqs = flat_stack(traj, basis, L), len(prob.Z0), prob.equations
    # row k*r + i of the Psi block for each point k and function i in eqs, then the b rows
    rows = np.concatenate([(basis.r * np.arange(m)[:, None] + eqs).reshape(-1), basis.r * m + np.arange(prob.b.size)])
    psi_rows = m * eqs.size
    coords = tuple(prob.moved)
    moving = np.stack([prob.H[first : first + m] for first in prob.moved.values()])

    def rhs(alpha: np.ndarray) -> np.ndarray:
        return candidate_stack(basis, prob.points(prob.H @ alpha), prob.b, eqs)

    def jacobian(alpha: np.ndarray) -> np.ndarray:
        # row k*q + j of the psi rows: sum over moved c of dpsi_eqs[j]/dz_c at point k times its moving row
        C[psi_rows:] = 0.0
        slope = psi_jacobian(basis, prob.points(prob.H @ alpha), coords)[:, eqs]
        np.einsum("kic,ckp->kip", slope, moving, out=C[:psi_rows].reshape(m, eqs.size, M.shape[1]))
        return C

    # one buffer each for every step: the solver overwrites C with J = A - C
    with _workspace("block", (rows.size, M.shape[1])) as A, _workspace("jacobian", A.shape) as C:
        np.take(M, rows, axis=0, out=A, mode="clip")  # "raise" would copy through a temporary of A's size
        return nonlinear_solve(NonlinearResidualProblem(A, rhs, lam, jacobian=jacobian, **prob.controls))


def _slice_sum_gram(K: np.ndarray, depth: int, cols: int) -> np.ndarray:
    """sum_k K[k:k+cols, k:k+cols] for k = 0..depth-1, computed in K's memory.

    K, C-contiguous, is overwritten with its prefix sums along diagonals,
    P[i, j] = sum_t K[i-t, j-t], so each depth-long diagonal run is one
    difference P[i+depth-1, j+depth-1] - P[i-1, j-1].  The result is then
    moved to the head of K's buffer and returned as a C-contiguous view of
    it, which LAPACK can factor in place; no second matrix of K's size is
    made.
    """
    n = depth + cols - 1
    for i in range(1, n):
        K[i, 1:n] += K[i - 1, : n - 1]
    # row depth-1+r becomes P[depth-1+r] - P[r-1], for r in blocks of depth rows, bottom block
    # first: a block writes rows that no later block reads, and reads none of the rows it writes
    for hi in range(cols, 1, -depth):
        lo = max(1, hi - depth)
        K[depth - 1 + lo : depth - 1 + hi, depth:n] -= K[lo - 1 : hi - 1, : cols - 1]
    # row r moves from K[depth-1+r, depth-1:n] to flat entries r*cols...: a block of rows ends
    # before any later block starts, so no row is overwritten before it moves (numpy buffers a
    # block that overlaps its own source)
    G, result = K.reshape(-1)[: cols * cols].reshape(cols, cols), K[depth - 1 : n, depth - 1 : n]
    for lo in range(0, cols, _ROW_BLOCK):
        G[lo : lo + _ROW_BLOCK] = result[lo : lo + _ROW_BLOCK]
    return G


def _band(A: np.ndarray, cols: int) -> np.ndarray:
    """View V[k, j] = A[k, k+j] of a C-contiguous m x (m+cols-1) array; writes go through.

    Candidate point k meets data point k+j in column j of the feature
    Hankel matrix, so V holds the pairs that enter the objective.
    """
    s0, s1 = A.strides
    return np.ndarray((A.shape[0], cols), A.dtype, A, 0, (s0 + s1, s1))


def kernel_problem(prob: WindowProblem) -> tuple[NormalEquationsProblem, np.ndarray]:
    """Gram-space form of the window problem, and its starting point.

    ``prob`` must be in kernel mode, else ConfigError.  The feature Hankel
    matrix stays implicit: its row block k pairs with candidate point k at
    ``prob.points(v)``.  The Gram-space problem's signal map is ``prob.H``,
    so its terms are taken at the moved signal v: the points, their kernel
    block against the data points, cross(v) and offset(v) come from v, and
    the slope, the gradient in v at given alpha, comes afterwards from the
    same kernel block.  The starting point alpha0 is the ridge fit of the fixed rows
    B = H_L(y)[:len(b)] to b.  The Gram is built in the memory of the
    data kernel block and factored there (``solver._cholesky``); the
    problem holds the factor.  A singular Gram raises SingularMatrixError
    here, and an ill-conditioned one warns here.
    """
    if prob.mode != "kernel":
        raise ConfigError(f"a Gram-space problem needs kernel mode, got mode {prob.mode!r}")
    traj, kernel, lam = prob.traj, prob.kernel, prob.lam
    # the solve's optimizer, loaded before the data kernel block exists so
    # that its memory does not add to the peak that block sets
    import scipy.optimize  # noqa: F401

    m, b = prob.Z0.shape[0], prob.b
    B = build_hankel(traj.y, m + traj.n).entries[: b.size]
    cols = B.shape[1]
    Z_data = window_points(traj.u.flat, traj.y.flat, traj.n)
    # B'B is added in row blocks: no Gram-sized product is made
    gram = _slice_sum_gram(kernel_eval(kernel, Z_data, Z_data), m, cols)
    for lo in range(0, cols, _ROW_BLOCK):
        gram[lo : lo + _ROW_BLOCK] += B[:, lo : lo + _ROW_BLOCK].T @ B
    const_cross = B.T @ b
    b_sq = float(b @ b)
    W = np.zeros((m, len(Z_data)))  # the band weights; only the band is ever written

    def terms(v: np.ndarray):
        Z_bar = prob.points(v)
        K = kernel_eval(kernel, Z_bar, Z_data)
        diag, diag_grad = kernel_diag(kernel, Z_bar)

        def slope(alpha: np.ndarray) -> np.ndarray:
            # kernel_grad overwrites K, whose band sum is taken below before slope can run
            _band(W, cols)[:] = alpha
            point_grad = diag_grad - 2.0 * kernel_grad(kernel, Z_bar, Z_data, K, W)
            g = np.zeros(v.size)  # point gradients, on the entries of v that moved them
            for c, first in prob.moved.items():
                g[first : first + m] += point_grad[:, c]
            return g

        return _band(K, cols).sum(axis=0) + const_cross, float(diag.sum()) + b_sq, slope

    L = _cholesky(gram, lam)
    return NormalEquationsProblem(L, terms, prob.H, **prob.controls), ridge_solve(RidgeProblem(B, b, lam))
