"""Trajectory-membership tests.

A candidate window is a trajectory of the unknown plant exactly when it
is a linear combination of time-shifted windows of recorded data.  For
LTI plants the stacked input/output Hankel matrices carry this; for flat
nonlinear plants the input block is replaced by the Hankel matrix of the
basis-function sequence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .basis import BasisSet, eval_psi_hat, psi_hat_signal, window_points
from .errors import ConfigError, DimensionError, PersistencyWarning, _warn
from .signals import IoTrajectory, PeResult, Signal, _known_samples, _memo, as_signal, build_hankel, pe_check
from .signals import _excitation, _too_short, _window_cols, _write_hankel
from .solver import _svd

__all__ = [
    "MembershipVerdict",
    "DataLengthCheck",
    "lti_membership",
    "flat_membership",
    "flat_stack",
    "candidate_stack",
    "data_length_check",
]


@dataclass(frozen=True, eq=False)
class MembershipVerdict:
    """Minimum-norm combination coefficients together with the fit residual."""

    alpha: np.ndarray
    residual: float
    is_member: bool


class DataLengthCheck(NamedTuple):
    feasible: bool
    required_N: int


def data_length_check(N: int, L: int, n: int, r: int) -> DataLengthCheck:
    """Feasibility of the excitation-rank requirement: N >= (r+1)L + n - 1.

    A sequence of r-dimensional samples can only be persistently exciting
    of order L when its depth-L Hankel matrix has at least rL columns.
    """
    if min(N, L, n, r) < 1 or L <= n:
        raise DimensionError(f"need positive sizes with L > n, got N={N} L={L} n={n} r={r}")
    required = (r + 1) * L + n - 1
    return DataLengthCheck(N >= required, required)


def _check_tol(tol: float | None) -> None:
    if tol is not None and not 0.0 <= tol < math.inf:
        raise ConfigError(f"membership tolerance must be finite and >= 0, got tol={tol}")


def _verdict(M: np.ndarray, alpha: np.ndarray, rhs: np.ndarray, tol: float | None) -> MembershipVerdict:
    if tol is None:
        tol = 1e-6 * (1.0 + float(np.linalg.norm(rhs)))
    residual = float(np.linalg.norm(M @ alpha - rhs))
    return MembershipVerdict(alpha, residual, residual <= tol)


def _pseudo_inverse(M: np.ndarray) -> np.ndarray:
    """Pseudo-inverse of M at lstsq's own cutoff (``solver._svd``), so
    P @ rhs is the minimum-norm least-squares solution lstsq returns."""
    (U, s, Vt), rank = _svd(M, "the membership data matrix")
    return (Vt[:rank].T / s[:rank]) @ U[:, :rank].T


def _warn_unless_excited(pe: PeResult, what: str, order: str, full: int) -> None:
    """Warn that ``what`` is not persistently exciting of ``order`` unless
    ``pe`` says it is, with the rank reached of the ``full`` one needed and
    the check's diagnostic when it gives one."""
    if not pe.order_satisfied:
        _warn(
            f"{what} is not persistently exciting of order {order} (rank {pe.numerical_rank} of {full})"
            + (f": {pe.diagnostic}" if pe.diagnostic else ""),
            PersistencyWarning,
        )


def _warn_if_not_excited(traj: IoTrajectory, basis: BasisSet, L: int) -> None:
    """Warn unless the basis-function sequence of the data is persistently
    exciting of order L.

    The verdict is computed once per (basis, L) and kept on the
    trajectory; every call that finds it unsatisfied warns.

    The depth-L Hankel matrix of the sequence is read from the Psi block
    of ``flat_stack``, whose depth is L - n: its first N-L+1-n columns
    are the top rows, and its last block row shifted right by 1 ... n
    columns gives the n block rows below them.  This verdict is the one
    data-sufficiency check of the window problems: too short a record
    warns here, with the samples missing; one with no such column
    (N < L + n) has rank 0.
    """

    def verdict() -> PeResult:
        top = flat_stack(traj, basis, L)[: basis.r * (L - traj.n)]  # a horizon above the record raises
        cols, last = top.shape[1] - traj.n, top[-basis.r :]
        if cols < 1:
            return _too_short(basis.r * L, cols)
        return _excitation([top[:, :cols], *(last[:, k : k + cols] for k in range(1, traj.n + 1))])

    pe = _memo(traj, ("pe", basis, L), verdict)
    _warn_unless_excited(pe, "basis-function sequence", f"L={L}", basis.r * L)


def lti_membership(
    u: np.ndarray | Signal,
    y: np.ndarray | Signal,
    n: int,
    L: int,
    u_bar: np.ndarray,
    y_bar: np.ndarray,
    tol: float | None = None,
) -> MembershipVerdict:
    """Is (u_bar, y_bar) a length-L window of the LTI plant behind (u, y)?

    Stacks [H_L(u); H_L(y)] alpha = [u_bar; y_bar] and returns the
    minimum-norm least-squares alpha.  The data input must be
    persistently exciting of order L + n for the span to be complete; a
    violation is reported as a warning since the residual remains
    informative.  Non-finite data or candidate samples and a negative or
    non-finite ``tol`` raise ConfigError.
    """
    _check_tol(tol)
    u = _known_samples(as_signal(u).flat, "data", "u")
    y = _known_samples(as_signal(y).flat, "data", "y", u.size, "len(u)")
    u_bar = _known_samples(u_bar, "candidate", "u_bar", L, "L")
    y_bar = _known_samples(y_bar, "candidate", "y_bar", L, "L")
    M = np.vstack([build_hankel(u, L).entries, build_hankel(y, L).entries])
    _warn_unless_excited(pe_check(u, L + n), "data input", f"L+n={L + n}", L + n)
    rhs = np.concatenate([u_bar, y_bar])
    return _verdict(M, _pseudo_inverse(M) @ rhs, rhs, tol)


def flat_stack(traj: IoTrajectory, basis: BasisSet, L: int) -> np.ndarray:
    """The stacked data matrix [H_{L-n}(Psi); H_L(y)], shape
    (r(L-n) + L) x (N-L+1).  A window problem keeps the Psi rows of its
    equations (every function but matching's identity) and the rows of its
    l fixed first outputs.  Built once per (basis, L), both blocks written
    straight into one array, and kept on ``traj``, read-only."""

    def build() -> np.ndarray:
        cols = _window_cols(traj, L)  # before the basis is evaluated on the data
        psi, top = psi_hat_signal(traj, basis), basis.r * (L - traj.n)
        M = np.empty((top + L, cols))
        _write_hankel(M[:top], psi, L - traj.n)
        _write_hankel(M[top:], traj.y, L)
        M.setflags(write=False)
        return M

    return _memo(traj, ("flat_stack", basis, L), build)


def candidate_stack(basis: BasisSet, Z: np.ndarray, b: np.ndarray, functions=slice(None)) -> np.ndarray:
    """Right-hand side [Psi(z_0); ...; Psi(z_{m-1}); b] of every window
    problem: membership fixes the points Z, simulation and matching move
    them with alpha.  b holds the fixed first outputs of the window.
    Each Psi(z_k) keeps the entries of ``functions`` (default all)."""
    return np.concatenate([eval_psi_hat(basis, Z)[:, functions].reshape(-1), b])


def flat_membership(
    traj: IoTrajectory,
    basis: BasisSet,
    L: int,
    u_bar: np.ndarray,
    y_bar: np.ndarray,
    tol: float | None = None,
) -> MembershipVerdict:
    """Is (u_bar, y_bar) a length-L trajectory window of the flat plant
    behind the recorded data?

    Solves [H_{L-n}(Psi(u,y)); H_L(y)] alpha = [Psi(u_bar, y_bar); y_bar]
    in the minimum-norm least-squares sense, as alpha = P rhs with P the
    pseudo-inverse of the data matrix.  Completeness of the span requires
    the Psi sequence to be persistently exciting of order L; violations
    warn rather than fail.  The excitation verdict, the data matrix and
    P depend only on the data, so they are computed once per (basis, L)
    and kept on ``traj``; the residual is always computed afresh.
    Non-finite candidate samples and a negative or non-finite ``tol``
    raise ConfigError.
    The verdict means nothing on noisy data, where the data matrix has
    full row rank (338x451 on example1 seed-1 data at L = 50) and every
    candidate fits to rounding; see the calibrated score of the ROADMAP.md
    item "Membership that means something, in both modes".
    """
    _check_tol(tol)
    n = traj.n
    M = flat_stack(traj, basis, L)  # checks the horizon, which the candidate lengths take
    u_bar = _known_samples(u_bar, "candidate", "u_bar", L - n, "L-n")
    y_bar = _known_samples(y_bar, "candidate", "y_bar", L, "L")
    _warn_if_not_excited(traj, basis, L)
    P = _memo(traj, ("flat_pinv", basis, L), lambda: _pseudo_inverse(M))
    rhs = candidate_stack(basis, window_points(u_bar, y_bar, n), y_bar)
    return _verdict(M, P @ rhs, rhs, tol)
