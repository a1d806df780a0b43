import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from flatdd.basis import named_basis, psi_hat_signal
from flatdd.errors import ConfigError, DimensionError, FormatError, ParseError, SingularMatrixError
from flatdd.experiments import ExperimentConfig, _collect
from flatdd.matching import MatchProblem, MatchResult
from flatdd.membership import MembershipVerdict
from flatdd.plant import example1_model
from flatdd.simulation import SimProblem, SimResult
from flatdd.signals import (
    HankelMatrix,
    IoTrajectory,
    Signal,
    build_hankel,
    pe_check,
    read_signal_csv,
    read_trajectory,
    write_signal_csv,
    write_trajectory,
)
from flatdd.solver import NonlinearResidualProblem, NonlinearResult, NormalEquationsProblem, RidgeProblem


def test_hankel_small_example():
    H = build_hankel(np.array([1.0, 2.0, 3.0, 4.0]), 2)
    assert_array_equal(H.entries, [[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]])


def test_hankel_vector_samples():
    rng = np.random.default_rng(7)
    z = rng.normal(size=(6, 2))
    H = build_hankel(Signal(z), 3)
    assert H.entries.shape == (6, 4)
    for i in range(3):
        for j in range(4):
            assert_array_equal(H.entries[2 * i : 2 * i + 2, j], z[i + j])


def test_hankel_depth_bounds():
    with pytest.raises(DimensionError):
        build_hankel(np.arange(4.0), 0)
    with pytest.raises(DimensionError):
        build_hankel(np.arange(4.0), 5)


def test_hankel_entries_read_only():
    H = build_hankel(np.arange(5.0), 2)
    with pytest.raises(ValueError):
        H.entries[0, 0] = 9.0
    # a matrix over a caller's array freezes a copy and leaves the caller's array writable
    mine = np.array([[0.0, 1.0, 2.0], [1.0, 2.0, 3.0]])
    M = HankelMatrix(mine)
    mine[0, 0] = 9.0
    assert M.entries[0, 0] == 0.0 and not M.entries.flags.writeable


def test_io_trajectory_length_contract():
    u = Signal(np.arange(5.0))
    y = Signal(np.arange(7.0))
    t = IoTrajectory(u, y, 2)
    assert t.N == 7
    with pytest.raises(FormatError):
        IoTrajectory(u, y, 3)
    with pytest.raises(DimensionError):
        IoTrajectory(u, y, 0)


@pytest.mark.parametrize("name, index, value", [("y", 100, np.nan), ("u", 0, np.inf), ("y", 499, -np.inf)])
def test_io_trajectory_rejects_nonfinite_samples(name, index, value):
    traj = _collect(ExperimentConfig(seed=5), example1_model())
    signals = {"u": traj.u.flat.copy(), "y": traj.y.flat.copy()}
    signals[name][index] = value
    with pytest.raises(ConfigError, match=rf"non-finite trajectory sample {name}\[{index}\]"):
        IoTrajectory.from_arrays(signals["u"], signals["y"], traj.n)


def test_pe_constant_sequence_rank_one():
    res = pe_check(np.ones(20), 3)
    assert res.numerical_rank == 1
    assert not res.order_satisfied


def test_pe_alternating_sequence():
    # (1, -1, 1, -1, ...) spans a single direction in every window pair
    res = pe_check(np.array([1.0, -1.0, 1.0, -1.0]), 2)
    assert res.numerical_rank == 1
    assert not res.order_satisfied


def test_pe_too_short_diagnostic():
    res = pe_check(np.arange(4.0), 3)
    assert not res.order_satisfied
    assert res.diagnostic == "sequence too short: 2 columns < sigma*L = 3, 1 more samples needed"


def test_pe_depth_above_the_sequence_is_too_short():
    # no column at all: rank 0, and a depth-12 Hankel matrix needs 12 columns, 23 samples
    res = pe_check(np.arange(10.0), 12)
    assert (res.order_satisfied, res.numerical_rank) == (False, 0)
    assert res.diagnostic == "sequence too short: 0 columns < sigma*L = 12, 13 more samples needed"
    with pytest.raises(DimensionError):
        pe_check(np.arange(10.0), 0)


def test_pe_random_input_high_order():
    rng = np.random.default_rng(0)
    u = rng.uniform(-0.5, 0.5, size=500)
    assert pe_check(u, 52).order_satisfied


def test_trajectory_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    t = IoTrajectory.from_arrays(rng.normal(size=8), rng.normal(size=10), 2)
    p = tmp_path / "traj.csv"
    write_trajectory(p, t)
    back = read_trajectory(p)
    assert back.n == 2
    assert_array_equal(back.u.flat, t.u.flat)
    assert_array_equal(back.y.flat, t.y.flat)
    # byte-level: LF endings, fixed header
    raw = p.read_bytes()
    assert b"\r" not in raw
    assert raw.startswith(b"k,u,y\n")


def test_trajectory_read_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("")
    with pytest.raises(ParseError):
        read_trajectory(p)
    p.write_text("k,u\n0,1\n")
    with pytest.raises(FormatError):
        read_trajectory(p)
    p.write_text("k,u,y\n0,oops,1.0\n1,,2.0\n")
    with pytest.raises(ParseError, match="row 0"):
        read_trajectory(p)
    # u resumes after an empty cell: structural violation
    p.write_text("k,u,y\n0,1.0,1.0\n1,,2.0\n2,3.0,3.0\n")
    with pytest.raises(FormatError):
        read_trajectory(p)
    # no empty u tail at all
    p.write_text("k,u,y\n0,1.0,1.0\n1,2.0,2.0\n")
    with pytest.raises(FormatError):
        read_trajectory(p)


def test_signal_csv_roundtrip(tmp_path):
    p = tmp_path / "ref.csv"
    vals = np.array([0.0, 0.125, -3.5])
    write_signal_csv(p, "y_ref", vals)
    assert p.read_text().splitlines()[0] == "k,y_ref"
    assert_array_equal(read_signal_csv(p), vals)
    p.write_text("")
    with pytest.raises(ParseError):
        read_signal_csv(p)


def _csv_module_signal_file(path, names, columns):
    """The signal-file format row by row through the csv module: the reference
    that write_signal_csv's one-pass formatting must match byte for byte."""
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["k", *names])
        for k in range(max(len(c) for c in columns)):
            w.writerow([k, *("{:.17g}".format(c[k]) if k < len(c) else "" for c in columns)])


@pytest.mark.parametrize(
    "names, columns",
    [
        # a trajectory file: the u column is n samples shorter, its last cells empty
        (("u", "y"), lambda rng: (rng.normal(size=48), rng.normal(size=50))),
        (("y_ref",), lambda rng: (np.array([0.0, -0.0, 1e-300, -2.5e300, 0.1, 1.0 / 3.0, 7.0]),)),
        # names that need quoting, and an empty column
        (('y, "est"', "u\nnew", "plain"), lambda rng: (rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 3), [])),
    ],
    ids=["trajectory", "edge-values", "quoted-names"],
)
def test_signal_csv_bytes_match_csv_module(tmp_path, names, columns):
    cols = columns(np.random.default_rng(8))
    write_signal_csv(tmp_path / "fast.csv", names if len(names) > 1 else names[0], cols if len(names) > 1 else cols[0])
    _csv_module_signal_file(tmp_path / "ref.csv", names, [np.asarray(c, dtype=float) for c in cols])
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_signal_csv_one_cell_row(tmp_path):
    p = tmp_path / "short.csv"
    p.write_text("k,u\n0,0.5\n1\n")
    with pytest.raises(FormatError, match="row 1 has 1 cells"):
        read_signal_csv(p)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
def test_nonfinite_cells_rejected_on_read(tmp_path, cell):
    p = tmp_path / "sig.csv"
    p.write_text(f"k,u\n0,0.5\n1,{cell}\n")
    with pytest.raises(ParseError, match="non-finite u cell at row 1"):
        read_signal_csv(p)
    p = tmp_path / "traj.csv"
    p.write_text(f"k,u,y\n0,{cell},1.0\n1,,2.0\n")
    with pytest.raises(ParseError, match="non-finite u cell at row 0"):
        read_trajectory(p)
    p.write_text(f"k,u,y\n0,1.0,1.0\n1,,{cell}\n")
    with pytest.raises(ParseError, match="non-finite y cell at row 1"):
        read_trajectory(p)


def test_pe_check_nonfinite_sequence_is_singular():
    z = np.ones(40)
    z[7] = np.nan
    with pytest.raises(SingularMatrixError, match="did not converge"):
        pe_check(z, 5)


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_pe_check_infinite_sequence_is_singular(capfd, value):
    # raised before the SVD: OpenBLAS's LAPACK would first print a DLASCL parameter error to stdout
    for index, L in [(7, 3), (7, 5), (7, 10), (20, 3), (20, 5), (20, 10)]:
        z = np.random.default_rng(4).uniform(-1.0, 1.0, size=40)
        z[index] = value
        with pytest.raises(SingularMatrixError, match="did not converge"):
            pe_check(z, L)
    out, err = capfd.readouterr()
    assert "DLASCL" not in out + err


@given(st.integers(2, 30), st.integers(0, 1000), st.integers(1, 3))
def test_hankel_columns_are_windows(N, seed, sigma):
    rng = np.random.default_rng(seed)
    z = Signal(rng.normal(size=(N, sigma)))
    L = int(rng.integers(1, N + 1))
    H = build_hankel(z, L)
    for j in range(H.entries.shape[1]):
        assert_allclose(H.entries[:, j], z.values[j : j + L].reshape(-1))


@given(st.integers(3, 25), st.integers(0, 1000))
def test_hankel_block_antidiagonal_constancy(N, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(N, 2))
    L = int(rng.integers(2, N))
    H = build_hankel(Signal(z), L)
    for i in range(L - 1):
        for j in range(H.entries.shape[1] - 1):
            assert_array_equal(H.entries[2 * i + 2 : 2 * i + 4, j], H.entries[2 * i : 2 * i + 2, j + 1])


@settings(deadline=None)
@given(st.integers(0, 200))
def test_pe_order_monotone(seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=30)
    L = int(rng.integers(2, 10))
    if pe_check(z, L).order_satisfied:
        assert pe_check(z, L - 1).order_satisfied


@given(st.integers(2, 12))
def test_pe_requires_enough_columns(L):
    # N - L + 1 >= sigma * L is necessary regardless of the sequence
    z = np.linspace(1.0, 2.0, 2 * L - 2)
    res = pe_check(z, L)
    assert not res.order_satisfied


def _svd_pe(z, L):
    """The exact verdict and rank: singular values above max(rows, cols) * eps * s_max."""
    H = build_hankel(z, L).entries
    s = np.linalg.svd(H, compute_uv=False)
    rank = int(np.count_nonzero(s > max(H.shape) * np.finfo(float).eps * s[0]))
    return rank == H.shape[0], rank


def _pe_sequence(kind, seed, sigma, L, scale):
    rng = np.random.default_rng(seed)
    width = {"duplicated": sigma + 1, "sinusoid": 1, "near-deficient": 2}.get(kind, sigma)
    N = (width + 1) * L + int(rng.integers(0, 20))  # at least width*L + 1 columns
    if kind == "random":
        z = rng.normal(size=(N, width))
    elif kind == "duplicated":  # two equal coordinates
        z = rng.normal(size=(N, width))
        z[:, -1] = z[:, 0]
    elif kind == "constant":
        z = np.ones((N, width))
    elif kind == "alternating":
        z = np.outer((-1.0) ** np.arange(N), rng.normal(size=width))
    elif kind == "sinusoid":  # H has rank 2 for every L >= 2
        z = np.sin(rng.uniform(0.1, 3.0) * np.arange(N) + rng.uniform(0.0, 6.0))
    elif kind == "near-deficient":  # cond(H) around 1e6: full rank, not certified
        z1 = rng.normal(size=N)
        z = np.column_stack([z1, z1 + 3e-6 * rng.normal(size=N)])
    else:  # too short: width*L - k columns, 1 <= k < L
        z = rng.normal(size=(width * L + L - 1 - int(rng.integers(1, L)), width))
    return Signal(scale * z)


@settings(deadline=None)
@given(
    st.sampled_from(["random", "duplicated", "constant", "alternating", "sinusoid", "near-deficient", "too-short"]),
    st.integers(0, 10**6),
    st.integers(1, 3),
    st.integers(2, 12),
    st.sampled_from([1.0, 1e-150, 1e150, 1e-160, 1e160]),
)
def test_pe_check_matches_svd_rank(kind, seed, sigma, L, scale):
    z = _pe_sequence(kind, seed, sigma, L, scale)
    res = pe_check(z, L)
    assert (res.order_satisfied, res.numerical_rank) == _svd_pe(z, L)


@pytest.mark.parametrize(
    "sequence, L, svd_calls",
    [
        (lambda: psi_hat_signal(_collect(ExperimentConfig(seed=5), example1_model()), named_basis("example1-poly")), 50, 0),
        (lambda: np.ones(20), 3, 1),
        (lambda: _pe_sequence("near-deficient", 0, 2, 5, 1.0), 5, 1),
    ],
    ids=["example1-psi", "constant", "near-deficient"],
)
def test_pe_check_takes_the_svd_only_without_a_certificate(monkeypatch, sequence, L, svd_calls):
    z = sequence()
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    pe_check(z, L)
    assert len(calls) == svd_calls


def _values_holding_arrays() -> dict:
    """One instance of each type that holds arrays; WindowProblem through its two subclasses."""
    traj = IoTrajectory.from_arrays(np.linspace(-0.5, 0.5, 12), np.linspace(0.0, 1.0, 14), 2)
    basis, solve = named_basis("example1-poly"), (np.zeros(3), 1.0, 2, True, 3.0)
    values = [
        Signal(np.arange(5.0)),
        build_hankel(np.arange(5.0), 2),
        traj,
        RidgeProblem(np.eye(2), np.ones(2), 0.1),
        NonlinearResidualProblem(np.eye(2), np.sin, 0.1),
        NormalEquationsProblem(np.eye(2), None, np.eye(2)),
        NonlinearResult(*solve),
        SimResult(*solve, y=Signal(np.ones(4))),
        MatchResult(*solve, u=Signal(np.ones(4))),
        MembershipVerdict(np.zeros(3), 0.0, True),
        SimProblem(traj, 4, np.zeros(2), np.zeros(2), basis=basis),
        MatchProblem(traj, 4, np.zeros(4), basis=basis),
    ]
    return {type(x).__name__: x for x in values}


@pytest.mark.parametrize("name", list(_values_holding_arrays()))
def test_values_holding_arrays_compare_and_hash_by_identity(name):
    x = _values_holding_arrays()[name]
    assert x == x
    assert (x == copy.copy(x)) is False
    assert hash(x) == hash(x) and x in {x}
