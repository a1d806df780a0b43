"""Trajectory data model, Hankel matrices, excitation checks and CSV I/O."""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence, TypeVar

import numpy as np

from .errors import ConfigError, DimensionError, FormatError, ParseError
from .solver import _lower_cholesky, _svd, _workspace

__all__ = [
    "Signal",
    "IoTrajectory",
    "HankelMatrix",
    "PeResult",
    "build_hankel",
    "pe_check",
    "read_trajectory",
    "write_trajectory",
    "read_signal_csv",
    "write_signal_csv",
]

# Floats are written with 17 significant digits, enough for a lossless
# decimal round trip of binary64.
_FLOAT_FMT = "{:.17g}"

_T = TypeVar("_T")


def _known_samples(values, what: str, name: str, size: int | None = None, expected: str = "") -> np.ndarray:
    """``values`` as a flat float array of finite samples.  With ``size``,
    another length raises DimensionError naming ``expected``; a non-finite
    sample raises ConfigError naming "``what`` sample ``name``" and its index."""
    values = np.asarray(values, dtype=float).reshape(-1)
    if size is not None and values.size != size:
        raise DimensionError(f"{what} {name} has {values.size} samples, expected {expected}={size}")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ConfigError(f"non-finite {what} sample {name}[{bad[0]}] = {values[bad[0]]}")
    return values


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Signal:
    """Finite sequence of real samples, each of fixed width ``sigma``.

    ``values`` has shape ``(N, sigma)``; row k is the sample z_k.  The
    stacked vector of the sequence is ``values.reshape(-1)``.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v.reshape(-1, 1)
        if v.ndim != 2:
            raise DimensionError(f"signal samples must be scalars or fixed-width vectors, got ndim={v.ndim}")
        if v.shape[0] < 1 or v.shape[1] < 1:
            raise DimensionError(f"signal needs N >= 1 and sigma >= 1, got shape {v.shape}")
        object.__setattr__(self, "values", _freeze(v))

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def sigma(self) -> int:
        return self.values.shape[1]

    @property
    def flat(self) -> np.ndarray:
        """1-D view of a scalar signal."""
        if self.sigma != 1:
            raise DimensionError(f"flat view requires sigma=1, got sigma={self.sigma}")
        return self.values[:, 0]


def as_signal(z: "Signal | np.ndarray | list") -> Signal:
    return z if isinstance(z, Signal) else Signal(np.asarray(z, dtype=float))


@dataclass(frozen=True, eq=False)
class IoTrajectory:
    """Paired input/output record of a system of order ``n``.

    The output carries ``n`` more samples than the input: the response to
    u_0 ... u_{N-n-1} is observed as y_0 ... y_{N-1}.  Every sample must be
    finite; a non-finite one raises ConfigError naming its signal and index.
    """

    u: Signal
    y: Signal
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DimensionError(f"system order must be >= 1, got n={self.n}")
        if self.u.sigma != 1 or self.y.sigma != 1:
            raise DimensionError("trajectory signals must be scalar")
        if self.y.length != self.u.length + self.n:
            raise FormatError(
                f"length(y)={self.y.length} must equal length(u)+n={self.u.length + self.n}"
            )
        for name, signal in (("u", self.u), ("y", self.y)):
            _known_samples(signal.flat, "trajectory", name)

    @property
    def N(self) -> int:
        return self.y.length

    @classmethod
    def from_arrays(cls, u, y, n: int) -> "IoTrajectory":
        return cls(as_signal(u), as_signal(y), n)


def _memo(traj: IoTrajectory, key: tuple, build: Callable[[], _T]) -> _T:
    """``build()``, computed once per ``key`` and kept on ``traj``.

    For results that depend only on the recorded data, such as an
    excitation verdict or a factorization of a data matrix.  The store is a
    dict in the instance ``__dict__``, as ``functools.cached_property`` keeps
    its values on frozen dataclasses, so an entry lives exactly as long as
    its trajectory.  Keys name the result and everything besides the data
    that it depends on, e.g. ``("pe", basis, L)``.  The trajectory's arrays
    are read-only; a caller that turns their write flag back on and edits
    them gets stale entries.
    """
    store = traj.__dict__.setdefault("_memo", {})
    if key not in store:
        store[key] = build()
    return store[key]


@dataclass(frozen=True, eq=False)
class HankelMatrix:
    """Block-Hankel matrix of a sequence with ``sigma``-dimensional samples:
    at depth L, ``entries`` has shape (sigma*L) x (N - L + 1) and column j
    stacks z_j ... z_{j+L-1}.  The entries are read-only: the constructor
    freezes a copy of the array it is given.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", _freeze(self.entries))

    @classmethod
    def _over(cls, entries: np.ndarray) -> "HankelMatrix":
        """The matrix over ``entries``, a float array that no caller holds:
        frozen in place instead of copied."""
        entries.setflags(write=False)
        out = cls.__new__(cls)
        out.__dict__["entries"] = entries
        return out


def _hankel_cols(z: Signal, L: int) -> int:
    """Column count of the depth-L Hankel matrix of z; a depth outside 1..N raises."""
    if not (1 <= L <= z.length):
        raise DimensionError(f"Hankel depth L={L} out of range for sequence length N={z.length}")
    return z.length - L + 1


def _write_hankel(out: np.ndarray, z: Signal, L: int) -> None:
    """Write the depth-L Hankel matrix of z into ``out``, an array of that matrix's shape,
    in one strided copy: row i*sigma + s, column j is z_{i+j}[s]."""
    windows = np.lib.stride_tricks.sliding_window_view(z.values, out.shape[1], axis=0)
    out[...] = windows[:L].reshape(out.shape)  # a view: z.values is C-contiguous


def build_hankel(z: Signal | np.ndarray, L: int) -> HankelMatrix:
    """Hankel matrix of depth L whose column j stacks z_j ... z_{j+L-1}."""
    z = as_signal(z)
    H = np.empty((z.sigma * L, _hankel_cols(z, L)))
    _write_hankel(H, z, L)
    return HankelMatrix._over(H)


@dataclass(frozen=True)
class PeResult:
    order_satisfied: bool
    numerical_rank: int
    diagnostic: str | None = field(default=None)


_PE_CERTIFY_RCOND = 1e-8  # the least dpocon estimate of 1/cond_1(H H') that certifies excitation


def pe_check(z: Signal | np.ndarray, L: int) -> PeResult:
    """Persistency-of-excitation check of order L.

    The sequence is persistently exciting of order L when its depth-L
    Hankel matrix H has full row rank sigma*L.  A Cholesky factor of
    G = H H' certifies that rank without an SVD: a ``dpocon`` estimate
    of 1/cond_1(G) of at least 1e-8 bounds cond(H) near 1e4, nine orders
    of magnitude inside the SVD cutoff.  Otherwise (a failed
    factorization, a lower estimate, a G within 1/eps of underflow or
    overflowing, too few columns, non-finite data) the numerical rank is
    the exact count of singular values above max(rows, cols) * eps * s_max
    (``solver._svd``).  A depth above the sequence length is too short
    at rank 0; a depth below 1 raises DimensionError.
    The window problems over a recorded trajectory reach the same verdict
    from the rows of their stored data matrix (``_excitation``), with no
    second Hankel matrix.
    """
    z = as_signal(z)
    if L > z.length:  # H has no column
        return _too_short(z.sigma * L, z.length - L + 1)
    return _excitation([build_hankel(z, L).entries])


def _too_short(full: int, cols: int, rank: int = 0) -> PeResult:
    """The verdict on a Hankel matrix of ``cols`` < ``full`` columns, N - L + 1
    for depth L, below 1 where L passes N: ``full - cols`` more samples needed."""
    short = f"sequence too short: {max(cols, 0)} columns < sigma*L = {full}, {full - cols} more samples needed"
    return PeResult(False, rank, diagnostic=short)


def _excitation(rows: Sequence[np.ndarray]) -> PeResult:
    """The ``pe_check`` verdict on the Hankel matrix H that the row blocks
    ``rows`` stack to, in order; they may be views into a larger array.
    H itself is stacked only for the SVD, where the Cholesky certificate
    fails.  Too few columns is the verdict on data length (``_too_short``).

    G = H H' is assembled block by block in this thread's ``"gram"``
    scratch (``solver._workspace``) and factored there by the solver's one
    factorization, which also gives its 1-norm and condition estimate
    (``solver._lower_cholesky``), so the certificate allocates nothing of
    G's size once that scratch has grown to it.
    """
    edges = np.cumsum([0, *(len(b) for b in rows)])
    full, cols = int(edges[-1]), rows[0].shape[1]
    if cols >= full:
        with _workspace("gram", (full, full)) as G:
            blocks = list(zip(rows, edges, edges[1:]))
            with np.errstate(over="ignore", invalid="ignore"):  # such a G is not certified
                for i, (a, lo, hi) in enumerate(blocks):
                    np.matmul(a, a.T, out=G[lo:hi, lo:hi])
                    for b, b_lo, b_hi in blocks[:i]:  # the block above the diagonal is this one's transpose
                        np.matmul(a, b.T, out=G[lo:hi, b_lo:b_hi])
                        G[b_lo:b_hi, lo:hi] = G[lo:hi, b_lo:b_hi].T
            _, anorm, rcond = _lower_cholesky(G)
            if np.finfo(float).tiny / np.finfo(float).eps <= anorm < math.inf and rcond >= _PE_CERTIFY_RCOND:
                return PeResult(True, full)
    _, rank = _svd(np.concatenate(rows), "the Hankel matrix", vectors=False)
    return _too_short(full, cols, rank) if cols < full else PeResult(rank == full, rank)


# ---------------------------------------------------------------------------
# CSV interchange
#
# Trajectory files: header "k,u,y", one row per output sample, u cells empty
# for the final n rows, floats with 17 significant digits, LF line endings.
# Signal files: header "k,<name>", used for bare input/reference sequences;
# the experiment plot files and the trajectory files are the same format
# with one column per name.
# ---------------------------------------------------------------------------


def write_trajectory(path: str | Path, traj: IoTrajectory) -> None:
    write_signal_csv(path, ("u", "y"), (traj.u.flat, traj.y.flat))


def _parse_cell(cell: str, row: int, col: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"non-numeric {col} cell at row {row}: {cell!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite {col} cell at row {row}: {cell!r}")
    return value


def _read_rows(path: str | Path, what: str) -> list[list[str]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise ParseError(f"{path} is not a CSV file: {exc}") from None
    if not rows:
        raise ParseError(f"empty {what} file: {path}")
    return rows


def read_trajectory(path: str | Path) -> IoTrajectory:
    rows = _read_rows(path, "trajectory")
    if [c.strip() for c in rows[0]] != ["k", "u", "y"]:
        raise FormatError(f"expected header 'k,u,y', got {rows[0]!r}")
    u_vals: list[float] = []
    y_vals: list[float] = []
    n_trailing_empty = 0
    for idx, row in enumerate(rows[1:]):
        if len(row) != 3:
            raise FormatError(f"row {idx} has {len(row)} cells, expected 3")
        _parse_cell(row[0], idx, "k")
        if row[1].strip() == "":
            n_trailing_empty += 1
        else:
            if n_trailing_empty:
                raise FormatError(f"non-empty u cell at row {idx} after empty u cells")
            u_vals.append(_parse_cell(row[1], idx, "u"))
        y_vals.append(_parse_cell(row[2], idx, "y"))
    if not y_vals:
        raise ParseError(f"no data rows in {path}")
    if n_trailing_empty == 0:
        raise FormatError("no trailing empty u cells; cannot infer system order n")
    return IoTrajectory.from_arrays(np.array(u_vals), np.array(y_vals), n_trailing_empty)


def write_signal_csv(path: str | Path, name: str | Sequence[str], values) -> None:
    """Write a signal file.  With a sequence of names, ``values`` holds one
    sequence per name, each written as a column; a column shorter than the
    longest leaves its last cells empty, as the input of a trajectory file."""
    names, columns = ([name], [values]) if isinstance(name, str) else (name, values)
    columns = [np.asarray(c, dtype=float).tolist() for c in columns]
    depth = max(len(c) for c in columns)
    cells = [[_FLOAT_FMT.format(v) for v in c] + [""] * (depth - len(c)) for c in columns]
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(["k", *names])  # a name may need quoting
    body = "".join(f"{k},{','.join(row)}\n" for k, row in enumerate(zip(*cells)))
    with open(path, "w", newline="") as fh:
        fh.write(header.getvalue() + body)


def read_signal_csv(path: str | Path) -> np.ndarray:
    rows = _read_rows(path, "signal")
    header = [c.strip() for c in rows[0]]
    if len(header) != 2 or header[0] != "k":
        raise FormatError(f"expected header 'k,<name>', got {rows[0]!r}")
    out = []
    for idx, row in enumerate(rows[1:]):
        if not row:
            continue
        if len(row) != 2:
            raise FormatError(f"row {idx} has {len(row)} cells, expected 2")
        out.append(_parse_cell(row[1], idx, header[1]))
    if not out:
        raise ParseError(f"no data rows in {path}")
    return np.array(out)
