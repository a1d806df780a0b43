"""Regularized least-squares engines.

Plain ridge regression handles residuals that are linear in the
coefficient vector.  The window problems of simulation and matching
(assembled in ``window``) have a right-hand side that depends on the
coefficients and come in two shapes: explicit residual rows, solved by
Gauss-Newton, and the kernelized form through Gram matrices, which always
carries its exact gradient.  A Gram problem sees the coefficients only
through a short signal v = H alpha; it is solved by L-BFGS-B over that
signal in whitened coordinates (variable projection), with the
coefficients eliminated in closed form by two triangular solves on the
Gram's Cholesky factor per evaluation.  Each stops on one convergence
test or at one iteration cap.

Every regularized linear step is a Cholesky solve: of the Gram matrix in
kernel mode, factored once where it is built (a Gram problem holds only
the factor), of the Gram matrix of the smaller side of the data block in
explicit mode.  One helper, ``_lower_cholesky``, factors every Gram, the
excitation certificate's too.  A Gram that flatdd builds skips the
condition estimate where its trace already bounds the condition number
below the warning limit.  The explicit Gauss-Newton data block,
Jacobian and Gram are written into scratch buffers that each thread
keeps between requests (``_workspace``).  Only an unregularized ridge
solve (lam = 0) goes through the SVD of the data block: ``_svd``, the
one SVD of flatdd, which also gives membership's pseudo-inverse and the
excitation rank its cutoff.
"""
from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np
import scipy.linalg

from .errors import ConditioningWarning, ConfigError, DivergenceError, SingularMatrixError, _warn

__all__ = [
    "RidgeProblem",
    "NonlinearResidualProblem",
    "NormalEquationsProblem",
    "NonlinearResult",
    "ridge_solve",
    "nonlinear_solve",
]

_COND_LIMIT = 1e12
_ROW_BLOCK = 64  # rows per step where an array is rewritten in place
_GRAM_ROUNDING = 1e-8  # delta / trace(G + lam I): the rounding margin of a Gram flatdd builds
_scratch = threading.local()  # role -> this thread's scratch buffer, absent while checked out


@contextmanager
def _workspace(role: str, shape: tuple[int, ...]) -> Iterator[np.ndarray]:
    """An uninitialized C-contiguous float array of ``shape`` for the body
    of the ``with`` block: a prefix of this thread's scratch buffer for
    ``role``, grown to the largest size requested and kept, so that a
    request on fresh data writes pages the last one already faulted in.
    The buffer is checked out while in use; a nested request for the same
    role on this thread gets an array of its own."""
    size = math.prod(shape)
    buf = vars(_scratch).pop(role, None)
    if buf is None or buf.size < size:
        buf = np.empty(size)
    try:
        yield buf[:size].reshape(shape)
    finally:
        held = vars(_scratch).get(role)
        if held is None or held.size < buf.size:
            setattr(_scratch, role, buf)


@dataclass(frozen=True, eq=False)
class RidgeProblem:
    """minimize over alpha:  |A alpha - b|^2 + lam |alpha|^2"""

    A: np.ndarray
    b: np.ndarray
    lam: float = 0.0

    def __post_init__(self) -> None:
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float).reshape(-1)
        if A.ndim != 2 or A.shape[0] != b.size:
            raise ConfigError(f"A has shape {A.shape}, b has {b.size} entries")
        _check_lam(self.lam)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)


def ridge_solve(prob: RidgeProblem) -> np.ndarray:
    """Minimizer alpha of |A alpha - b|^2 + lam |alpha|^2.

    With lam > 0 the Gram matrix of the smaller side of A plus lam I is
    factored by Cholesky (``_cholesky``): alpha = A' (A A' + lam I)^-1 b
    when A has fewer rows than columns, alpha = (A'A + lam I)^-1 A'b
    otherwise, formed and factored in this thread's ``"gram"`` scratch
    (``_workspace``) and solved by ``dpotrs`` on the lower factor.  Its
    eigenvalues are s_i^2 + lam for the min(m, p) singular values s_i of
    A, so the warned condition number is that of the normal equations.  With lam = 0 the SVD of A (``_svd``) tells a
    rank-deficient block, which raises with advice to regularize, from
    an ill-conditioned one, as no Gram matrix can once cond(A) passes
    about 1e8.  A block with non-finite entries raises SingularMatrixError.
    """
    A, b, lam = prob.A, prob.b, prob.lam
    if not np.isfinite(A).all():
        raise SingularMatrixError("ridge solve did not converge: the data block has non-finite entries")
    if lam > 0.0:
        wide = A.shape[0] < A.shape[1]
        F = A if wide else A.T  # the Gram F F' of the smaller side
        with _workspace("gram", (len(F), len(F))) as G:
            L = _cholesky(np.matmul(F, F.T, out=G), lam)  # factored in the memory it is written to
            if wide:
                return A.T @ scipy.linalg.lapack.dpotrs(L, b, lower=1)[0]
            return scipy.linalg.lapack.dpotrs(L, A.T @ b, lower=1)[0]
    (U, s, Vt), rank = _svd(A, "the data block")
    if not 0 < rank == s.size:
        raise SingularMatrixError("data block is rank-deficient and lam = 0; set lam > 0 to regularize")
    cond = s[0] ** 2 / s[-1] ** 2
    if cond > _COND_LIMIT:
        _warn(f"normal equations have condition number {cond:.3e}", ConditioningWarning)
    return Vt.T @ ((1.0 / s) * (U.T @ b))


def _svd(M: np.ndarray, what: str, vectors: bool = True):
    """The thin SVD of M (its singular values alone unless ``vectors``)
    and its numerical rank at lstsq's cutoff, max(M.shape) * eps * s_max.
    Non-finite entries, on which OpenBLAS's LAPACK may print a parameter
    error or never return, and a failed SVD raise SingularMatrixError."""
    try:
        if not np.isfinite(M).all():
            raise np.linalg.LinAlgError
        out = np.linalg.svd(M, full_matrices=False, compute_uv=vectors)
    except np.linalg.LinAlgError:
        raise SingularMatrixError(f"SVD of {what} did not converge; is the data finite?") from None
    s = out[1] if vectors else out
    return out, int(np.count_nonzero(s > max(M.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)))


def _check_lam(lam: float) -> None:
    if not 0.0 <= lam < math.inf:
        raise ConfigError(f"regularization weight must be finite and >= 0, got {lam}")


def _check_controls(lam: float, max_iter: int, rel_tol: float) -> None:
    _check_lam(lam)
    if max_iter < 1:
        raise ConfigError(f"max_iter must be >= 1, got {max_iter}")
    if not 0.0 < rel_tol < math.inf:
        raise ConfigError(f"rel_tol must be positive and finite, got {rel_tol}")


@dataclass(frozen=True, eq=False)
class NonlinearResidualProblem:
    """minimize over alpha:  |A alpha - rhs(alpha)|^2 + lam |alpha|^2

    The data block A is fixed; only the right-hand side moves with alpha.
    ``jacobian``, when given, returns C = d rhs/d alpha at alpha as an
    array of A's shape, whose memory the solver reuses until the next
    call, so it may return the same array every time; without it,
    central differences of ``rhs`` stand in at two calls per coordinate.
    """

    A: np.ndarray
    rhs: Callable[[np.ndarray], np.ndarray]
    lam: float
    max_iter: int = 500
    rel_tol: float = 1e-8
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))
        _check_controls(self.lam, self.max_iter, self.rel_tol)

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def objective(self, alpha: np.ndarray) -> float:
        r = self.A @ alpha - self.rhs(alpha)
        return float(r @ r + self.lam * (alpha @ alpha))


@dataclass(frozen=True, eq=False)
class NormalEquationsProblem:
    """Same objective as NonlinearResidualProblem, expressed through inner
    products so that kernelized (implicit-basis) residuals fit.

    objective(alpha) = |L' alpha|^2 - 2 cross(v)' alpha + offset(v),  v = H alpha

    ``L`` holds in its lower triangle the Cholesky factor of the
    alpha-independent products plus the weight, L L' = gram + lam I, as
    ``_cholesky`` returns it; its other triangle is unspecified.  The nonlinear terms see
    alpha only through the signal v = H alpha.  ``terms(v)`` returns
    cross(v), the block offset(v) = |rhs(v)|^2 that holds no alpha, and
    ``slope``: a function that, called once with alpha, returns the
    gradient in v of offset(v) - 2 cross(v)' alpha at that alpha.  The exact gradient of
    the objective is 2 L L' alpha - 2 cross(v) + H' slope(alpha).
    """

    L: np.ndarray = field(repr=False)
    terms: Callable[[np.ndarray], tuple[np.ndarray, float, Callable[[np.ndarray], np.ndarray]]]
    H: np.ndarray = field(repr=False)
    max_iter: int = 500
    rel_tol: float = 1e-8

    def __post_init__(self) -> None:
        L, H = np.asarray(self.L, dtype=float), np.asarray(self.H, dtype=float)
        if L.ndim != 2 or L.shape[0] != L.shape[1]:
            raise ConfigError(f"Cholesky factor must be square, got shape {L.shape}")
        if H.ndim != 2 or H.shape[1] != L.shape[0]:
            raise ConfigError(f"signal map has shape {H.shape}, Cholesky factor {L.shape}")
        _check_controls(0.0, self.max_iter, self.rel_tol)  # the weight is in L
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "H", H)

    @property
    def dim(self) -> int:
        return self.H.shape[1]

    def objective(self, alpha: np.ndarray) -> float:
        """The objective alone, with no gradient formed."""
        c, off, _ = self.terms(self.H @ alpha)
        Lt_alpha = scipy.linalg.blas.dtrmv(self.L, alpha, lower=1, trans=1)
        return float(Lt_alpha @ Lt_alpha) - 2.0 * float(c @ alpha) + float(off)


@dataclass(frozen=True, eq=False)
class NonlinearResult:
    alpha: np.ndarray
    objective: float
    iterations: int
    converged: bool
    initial_objective: float


def _lower_cholesky(M: np.ndarray, estimate: bool = True) -> tuple[np.ndarray, float, float]:
    """L, whose lower triangle is the factor of M = L L', by ``dpotrf`` in
    the memory of M (symmetric, C- or Fortran-ordered: a C-ordered M is
    factored as its Fortran-ordered transpose); the upper triangle keeps
    M's entries, and no consumer reads it.  M's 1-norm (``dlange``, taken
    first); and LAPACK's estimate of 1/cond_1(M) from L (``dpocon``,
    Higham 1988), 0 where the factorization fails.  A factor with a
    non-finite diagonal has failed: OpenBLAS's ``dpotrf`` reports success
    on a NaN below the diagonal, which reaches the diagonal of its row.
    Without ``estimate`` the norm is nan and a factorization that
    succeeds, or an empty M, has estimate 1."""
    M = M if M.flags.f_contiguous else M.T
    anorm = scipy.linalg.lapack.dlange("1", M) if estimate else math.nan
    L, info = scipy.linalg.lapack.dpotrf(M, lower=1, clean=0, overwrite_a=1)
    factored = info == 0 and bool(np.isfinite(L.diagonal()).all())
    if not (factored and estimate and len(L)):
        return L, anorm, float(factored)
    return L, anorm, scipy.linalg.lapack.dpocon(L, anorm, uplo="L")[0]


def _cholesky(G: np.ndarray, lam: float) -> np.ndarray:
    """L, whose lower triangle is the factor with L L' = G + lam I, in G's
    own memory; its other triangle is unspecified.

    The caller hands G over: lam is added to its diagonal and it is
    factored in place (``_lower_cholesky``).  Consumers solve with L
    through LAPACK and BLAS on the lower triangle.  A failed
    factorization, or a reciprocal condition number below machine
    epsilon (singular to working precision, as in LAPACK's ``?posvx``),
    is singular; a condition number above the limit warns.

    G is a sum of outer products of finite data, as every Gram of flatdd
    is: positive semidefinite up to rounding of 2-norm at most delta =
    1e-8 trace(M), M = G + lam I, a margin that also covers the
    factorization's backward error.  Then cond_1(M) <= n lambda_max /
    lambda_min <= n (trace(M) + 2 delta) / (lam - delta), and where that
    bound is below the limit the estimate can neither warn nor call M
    singular, so it is not computed.
    """
    G.flat[:: G.shape[0] + 1] += lam
    trace = float(np.trace(G))
    delta = _GRAM_ROUNDING * trace
    bound = len(G) * (trace + 2.0 * delta)  # times 1 / (lam - delta)
    certified = 0.0 <= trace < math.inf and bound < _COND_LIMIT * (lam - delta)
    L, _, rcond = _lower_cholesky(G, estimate=not certified)
    if not rcond >= np.finfo(float).eps:
        raise SingularMatrixError(f"gram matrix plus lam I is numerically singular at lam = {lam:g}; increase lam")
    if rcond < 1.0 / _COND_LIMIT:
        _warn(f"normal equations have condition number {1.0 / rcond:.3e}", ConditioningWarning)
    return L


def _difference_jacobian(rhs: Callable[[np.ndarray], np.ndarray], alpha: np.ndarray) -> np.ndarray:
    """d rhs/d alpha by central differences, one column per coordinate."""
    columns = []
    for i in range(alpha.size):
        step = np.zeros_like(alpha)
        step[i] = 2.0**-17 * max(1.0, abs(alpha[i]))
        hi, lo = alpha + step, alpha - step
        columns.append((rhs(hi) - rhs(lo)) / (hi[i] - lo[i]))
    return np.column_stack(columns)


def _gauss_newton(prob: NonlinearResidualProblem, alpha: np.ndarray) -> NonlinearResult:
    A, lam = prob.A, prob.lam
    jacobian = prob.jacobian or (lambda a: _difference_jacobian(prob.rhs, a))
    rhs = prob.rhs(alpha)
    r = A @ alpha - rhs if alpha.any() else -rhs  # the zero start multiplies nothing
    obj = float(r @ r + lam * (alpha @ alpha))
    if not np.isfinite(obj):
        raise DivergenceError("objective is not finite at alpha0")
    initial_obj = obj
    iterations, converged = 0, False
    for _ in range(prob.max_iter):
        C = jacobian(alpha)
        # the residual A a - rhs(a) is linearized as J a - target
        target = rhs - C @ alpha if alpha.any() else rhs
        J = np.subtract(A, C, out=C)
        alpha_star = ridge_solve(RidgeProblem(J, target, lam))
        r = J @ alpha_star - target
        model = float(r @ r + lam * (alpha_star @ alpha_star))
        step = 1.0
        for _halving in range(20):
            cand = alpha + step * (alpha_star - alpha)
            cand_rhs = prob.rhs(cand)
            r = A @ cand - cand_rhs
            cand_obj = float(r @ r + lam * (cand @ cand))
            if cand_obj <= obj:
                break
            step *= 0.5
        else:
            break
        alpha, rhs, obj = cand, cand_rhs, cand_obj
        iterations += 1
        if step == 1.0 and abs(obj - model) <= prob.rel_tol * obj:
            converged = True
            break
    return NonlinearResult(alpha, obj, iterations, converged, initial_obj)


def _projected(prob: NormalEquationsProblem, alpha0: np.ndarray):
    """The coordinates eta of the signal v = H alpha, and the objective over them.

    For a fixed v the objective is quadratic in alpha on {alpha : H alpha
    = v}, and its minimizer there is alpha = M^-1 (cross(v) + H' mu) with
    M = L L' from the problem's lower factor L (variable projection; Golub &
    Pereyra, SIAM J. Numer. Anal., 1973).  Y = L^-1 H' takes one
    ``dtrsm`` on L, and S = Y'Y = H M^-1 H' is
    factored by pivoted Cholesky (``dpstrf``, at LAPACK's default
    tolerance m eps max S_ii for the m rows of H) as P'SP = U'U with U of
    rank r rows.  Then v = T' eta with T = U P' keeps v in the range of H
    and whitens the part of the objective quadratic in v, and Z = Y X,
    X = P [U_11^-1; 0], has orthonormal columns; Z is formed in Y's
    memory.  An evaluation at eta takes w = L^-1 cross(v), e = eta - Z'w
    and L' alpha = w + Z e, so alpha costs two triangular solves (``dtrsv``
    on L) and no Gram product.  The value is |w + Z e|^2 - 2 cross'alpha
    + offset(v), the objective at that alpha, and the gradient in eta is
    T slope(alpha) + 2 e.  Returns eta0 = X'H alpha0, the coordinates of
    the start's signal, and the evaluation, which gives the value, the
    gradient and alpha.
    """
    H, L = prob.H, prob.L
    Y = scipy.linalg.blas.dtrsm(1.0, L, H.T, lower=1)
    U, piv, rank, _ = scipy.linalg.lapack.dpstrf(Y.T @ Y)
    U, piv = np.triu(U[:rank]), piv - 1
    T = np.empty_like(U)
    T[:, piv] = U
    X = np.zeros((len(piv), rank))
    X[piv[:rank]] = scipy.linalg.solve_triangular(U[:, :rank], np.eye(rank))
    Z = Y[:, :rank]
    for lo in range(0, len(Y), _ROW_BLOCK):  # a block's rows are read before they are written
        Z[lo : lo + _ROW_BLOCK] = Y[lo : lo + _ROW_BLOCK] @ X

    def evaluate(eta: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        c, off, slope = prob.terms(T.T @ eta)
        w = scipy.linalg.blas.dtrsv(L, c, lower=1)
        e = eta - Z.T @ w
        Lt_alpha = w + Z @ e
        alpha = scipy.linalg.blas.dtrsv(L, Lt_alpha, lower=1, trans=1)
        value = float(Lt_alpha @ Lt_alpha) - 2.0 * float(c @ alpha) + float(off)
        return value, T @ slope(alpha) + 2.0 * e, alpha

    return X.T @ (H @ alpha0), evaluate


def _projected_lbfgs(prob: NormalEquationsProblem, alpha0: np.ndarray) -> NonlinearResult:
    # loaded on the first kernel solve only: explicit mode never needs it
    import scipy.optimize

    obj0 = prob.objective(alpha0)
    if not np.isfinite(obj0):
        raise DivergenceError("objective is not finite at alpha0")
    eta, evaluate = _projected(prob, alpha0)
    start_grad, fell_back, last = None, False, None

    def fun(eta: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal start_grad, fell_back, last
        last = eta.copy(), evaluate(eta)
        value, grad, _ = last[1]  # a non-finite slope stays non-finite through T
        if not (np.isfinite(value) and np.all(np.isfinite(grad))):
            # a stand-in whose zero gradient passes L-BFGS-B's gradient test
            fell_back, value, grad = True, 1e300, np.zeros_like(eta)
        start_grad = np.linalg.norm(grad) if start_grad is None else start_grad
        return value, grad

    nit, success, resume = 0, True, eta.size > 0  # a signal map of rank 0 leaves v = 0 only
    while resume:
        res = scipy.optimize.minimize(
            fun, eta, jac=True, method="L-BFGS-B",
            options={"maxiter": prob.max_iter - nit, "ftol": prob.rel_tol, "maxfun": math.inf},
        )
        eta, nit, success = res.x, nit + res.nit, bool(res.success)
        # an ftol stop on a flat stretch is resumed until the gradient falls to sqrt(rel_tol) of its start
        stalled = np.linalg.norm(res.jac) > math.sqrt(prob.rel_tol) * start_grad
        resume = res.success and res.nit > 0 and stalled and nit < prob.max_iter and not fell_back
    alpha, obj = alpha0, obj0
    if np.all(np.isfinite(eta)):
        # L-BFGS-B usually stops at the point it evaluated last
        value, _, alpha_eta = last[1] if last is not None and np.array_equal(last[0], eta) else evaluate(eta)
        if value < obj0:
            alpha, obj = alpha_eta, value
    return NonlinearResult(alpha, obj, int(nit), success and not fell_back, obj0)


def nonlinear_solve(
    prob: NonlinearResidualProblem | NormalEquationsProblem,
    alpha0: np.ndarray | None = None,
) -> NonlinearResult:
    """Minimize a window objective from alpha0 (default zero); the result's
    objective is never above ``initial_objective``, the one at alpha0.

    A NonlinearResidualProblem is solved by Gauss-Newton (Nocedal & Wright,
    Numerical Optimization, 2nd ed., 10.3): at alpha_t the ridge problem of
    the residual linearized with J = A - d rhs/d alpha gives alpha*, and the
    step to alpha* is halved up to 20 times until the objective does not
    increase.  It has converged once a full step is accepted whose objective
    matches the linear model's prediction to rel_tol (relative), which for
    a right-hand side affine in alpha is the first step; it stops short at
    max_iter accepted steps (``iterations``) or when no halving descends.

    A NormalEquationsProblem is solved by variable projection (Golub &
    Pereyra, SIAM J. Numer. Anal., 1973).  For a fixed signal v = H alpha
    the objective is quadratic in alpha, so alpha is eliminated, and one
    L-BFGS-B run (maxiter = max_iter, ftol = rel_tol) searches the signal
    alone.  Its coordinates eta give v = T'eta, where T'T = H (L L')^-1 H'
    on the range of H, so the part of the objective quadratic in v is
    |eta|^2 (a change of variables; Nocedal & Wright 5.1 and 7.2).  For
    H = I these are the coefficients whitened by L', up to a rotation.  The
    problem arrives factored, so this solve neither finds a Gram singular
    nor warns of its conditioning.  Every Gram problem carries its exact
    gradient.  An evaluation takes the terms at v, the alpha that
    minimizes the objective among those with H alpha = v (two triangular
    solves on the factor, no Gram product), the objective there, and the
    gradient T (slope(alpha) + 2 mu), mu the Lagrange multiplier of
    H alpha = v.  An ftol stop above sqrt(rel_tol) of the starting
    gradient in eta resumes from where it stopped, within max_iter
    iterations in total.  The result is the alpha of the last point, or
    alpha0 where that is not lower.  It has converged when L-BFGS-B
    succeeds and no evaluation met a non-finite objective.  A signal map
    of rank 0 leaves the one signal v = 0, whose minimizer takes one
    evaluation and no iteration.
    """
    if not isinstance(prob, (NonlinearResidualProblem, NormalEquationsProblem)):
        raise ConfigError(f"unsupported problem type {type(prob).__name__}")
    alpha = np.zeros(prob.dim) if alpha0 is None else np.asarray(alpha0, dtype=float).reshape(-1)
    if alpha.size != prob.dim:
        raise ConfigError(f"alpha0 has {alpha.size} entries, problem dimension is {prob.dim}")
    if not np.all(np.isfinite(alpha)):
        raise DivergenceError("alpha0 is not finite")
    if isinstance(prob, NonlinearResidualProblem):
        return _gauss_newton(prob, alpha)
    return _projected_lbfgs(prob, alpha)
