import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from flatdd.basis import BasisSet, KernelSpec, named_basis, psi_hat_signal, window_points
from flatdd.errors import ConfigError, DimensionError, PersistencyWarning
from flatdd.experiments import ExperimentConfig, _collect
from flatdd.matching import MatchProblem, dd_match
from flatdd.membership import (
    candidate_stack,
    data_length_check,
    flat_membership,
    flat_stack,
    lti_membership,
)
from flatdd.plant import FlatModel, collect_trajectory, example1_model, simulate
from flatdd.signals import IoTrajectory, pe_check
from flatdd.simulation import SimProblem, dd_simulate


def lti_response(u, x0=0.0):
    # x+ = 0.5 x + u, y = x
    y = np.empty(u.size)
    x = x0
    for k, uk in enumerate(u):
        y[k] = x
        x = 0.5 * x + uk
    return y


@pytest.fixture(scope="module")
def lti_data():
    rng = np.random.default_rng(0)
    u = rng.uniform(-1.0, 1.0, size=60)
    return u, lti_response(u)


@pytest.fixture(scope="module")
def ex1_data():
    return collect_trajectory(example1_model(), 500, (-0.5, 0.5), seed=1)


def test_lti_window_of_data_is_member(lti_data):
    u, y = lti_data
    for off in (0, 7, 50):
        v = lti_membership(u, y, 1, 10, u[off : off + 10], y[off : off + 10])
        assert v.is_member and v.residual < 1e-10


def test_lti_fresh_trajectory_is_member(lti_data):
    u, y = lti_data
    rng = np.random.default_rng(9)
    u_bar = rng.uniform(-1, 1, size=10)
    y_bar = lti_response(u_bar, x0=rng.normal())
    v = lti_membership(u, y, 1, 10, u_bar, y_bar)
    assert v.residual < 1e-8 and v.is_member


def test_lti_perturbed_candidate_rejected(lti_data):
    u, y = lti_data
    u_bar = u[5:15].copy()
    y_bar = y[5:15].copy()
    y_bar[4] += 0.1
    v = lti_membership(u, y, 1, 10, u_bar, y_bar)
    assert v.residual > 1e-3 and not v.is_member


def test_lti_alpha_is_min_norm(lti_data):
    u, y = lti_data
    v = lti_membership(u, y, 1, 10, u[3:13], y[3:13])
    M = np.vstack(
        [np.lib.stride_tricks.sliding_window_view(u, 10).T, np.lib.stride_tricks.sliding_window_view(y, 10).T]
    )
    # minimum-norm solutions live in the row space
    proj = np.linalg.pinv(M) @ (M @ v.alpha)
    assert_allclose(proj, v.alpha, atol=1e-8)


def test_lti_pe_warning():
    u = np.ones(30)
    y = lti_response(u)
    with pytest.warns(PersistencyWarning, match="order L\\+n=6") as record:
        lti_membership(u, y, 1, 5, u[:5], y[:5])
    assert record[0].filename == __file__


@pytest.mark.parametrize(
    "name, index, value",
    [("u", 0, np.inf), ("u", 3, np.nan), ("y", 41, np.inf), ("u_bar", 0, np.nan), ("y_bar", 9, -np.inf)],
)
def test_lti_nonfinite_sample_rejected(lti_data, name, index, value):
    u, y = lti_data
    arrays = {"u": u.copy(), "y": y.copy(), "u_bar": u[5:15].copy(), "y_bar": y[5:15].copy()}
    arrays[name][index] = value
    kind = "candidate" if name.endswith("_bar") else "data"
    with pytest.raises(ConfigError, match=rf"non-finite {kind} sample {name}\[{index}\]"):
        lti_membership(arrays["u"], arrays["y"], 1, 10, arrays["u_bar"], arrays["y_bar"])


def test_lti_dimension_checks(lti_data):
    u, y = lti_data
    with pytest.raises(DimensionError):
        lti_membership(u, y, 1, 10, u[:9], y[:10])
    with pytest.raises(DimensionError):
        lti_membership(u[:-1], y, 1, 10, u[:10], y[:10])


@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
def test_lti_rejects_bad_tolerance(lti_data, tol):
    u, y = lti_data
    with pytest.raises(ConfigError, match="tolerance"):
        lti_membership(u, y, 1, 10, u[:10], y[:10], tol=tol)


def test_flat_window_of_data_is_member(ex1_data):
    basis = named_basis("example1-poly")
    u, y = ex1_data.u.flat, ex1_data.y.flat
    for off in (0, 100, 451 - 1):
        v = flat_membership(ex1_data, basis, 50, u[off : off + 48], y[off : off + 50])
        assert v.is_member and v.residual < 1e-9


def test_flat_fresh_candidate_is_member(ex1_data):
    basis = named_basis("example1-poly")
    rng = np.random.default_rng(21)
    u_bar = rng.uniform(-0.5, 0.5, size=48)
    y_bar = simulate(example1_model(), rng.uniform(-0.3, 0.3, size=2), u_bar).flat
    v = flat_membership(ex1_data, basis, 50, u_bar, y_bar)
    assert v.residual < 1e-6 and v.is_member


def test_flat_perturbed_candidate_rejected(ex1_data):
    basis = named_basis("example1-poly")
    u, y = ex1_data.u.flat, ex1_data.y.flat
    y_bar = y[:50].copy()
    y_bar[25] += 0.1
    v = flat_membership(ex1_data, basis, 50, u[:48], y_bar, tol=1e-4)
    assert not v.is_member


def test_flat_stack_shapes(ex1_data):
    basis = named_basis("example1-poly")
    M = flat_stack(ex1_data, basis, 50)
    assert M.shape == (6 * 48 + 50, 451)
    rhs = candidate_stack(basis, window_points(ex1_data.u.flat[:48], ex1_data.y.flat[:50], 2), ex1_data.y.flat[:50])
    assert rhs.shape == (M.shape[0],)
    assert_allclose(M[:, 0], rhs)


def test_flat_pe_warning_short_data():
    traj = collect_trajectory(example1_model(), 30, (-0.5, 0.5), seed=2)
    basis = named_basis("example1-poly")
    with pytest.warns(PersistencyWarning, match="not persistently exciting") as record:
        flat_membership(traj, basis, 10, traj.u.flat[:8], traj.y.flat[:10])
    assert record[0].filename == __file__


def test_linear_flat_system_agrees_with_lti_baseline():
    gain = 1.7
    chain = FlatModel(
        2, lambda x, u: np.array([x[1], gain * u]), lambda x: float(x[0]), "chain"
    )
    rng = np.random.default_rng(4)
    traj = collect_trajectory(chain, 80, (-1.0, 1.0), seed=5)
    basis = named_basis("identity-only")
    L = 12
    u_bar = rng.uniform(-1, 1, size=L)
    y_bar = simulate(chain, rng.normal(size=2), u_bar).flat[:L]

    flat_v = flat_membership(traj, basis, L, u_bar[: L - 2], y_bar)
    lti_v = lti_membership(traj.u.flat[:70], traj.y.flat[:70], 2, L, u_bar, y_bar)
    assert flat_v.is_member and lti_v.is_member

    y_off = y_bar.copy()
    y_off[6] += 0.2
    assert not flat_membership(traj, basis, L, u_bar[: L - 2], y_off).is_member
    assert not lti_membership(traj.u.flat[:70], traj.y.flat[:70], 2, L, u_bar, y_off).is_member


def test_data_length_bound():
    chk = data_length_check(500, 50, 2, 6)
    assert chk.feasible and chk.required_N == 351
    assert data_length_check(13, 4, 3, 1).required_N == 2 * 4 + 3 - 1
    assert not data_length_check(350, 50, 2, 6).feasible
    assert data_length_check(351, 50, 2, 6).feasible
    with pytest.raises(DimensionError):
        data_length_check(100, 2, 2, 1)


@pytest.mark.parametrize("name", ["example1-poly", "identity-only"])
def test_stored_verdict_is_too_short_exactly_below_the_data_length_bound(name):
    from flatdd import membership

    record = collect_trajectory(example1_model(), 400, (-0.5, 0.5), seed=5)
    basis, n = named_basis(name), record.n
    for L in (3, 5, 10, 20, 50):
        required = data_length_check(L + n, L, n, basis.r).required_N
        for N in sorted({L, L + 1, L + n, required - 1, required, required + 1, required + 40}):
            traj = IoTrajectory.from_arrays(record.u.flat[: N - n], record.y.flat[:N], n)
            chk = data_length_check(N, L, n, basis.r)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PersistencyWarning)
                membership._warn_if_not_excited(traj, basis, L)
            diagnostic = traj.__dict__["_memo"][("pe", basis, L)].diagnostic or ""
            assert ("too short" in diagnostic) == (not chk.feasible), (name, N, L)
            if not chk.feasible:
                assert diagnostic.endswith(f", {chk.required_N - N} more samples needed"), (name, N, L)


def _short_example1_requests(N):
    """Explicit dd_match, dd_simulate and flat_membership at L = 50 on the
    first N samples of an example1 record."""
    record, basis = collect_trajectory(example1_model(), 200, (-0.5, 0.5), seed=5), named_basis("example1-poly")
    traj = IoTrajectory.from_arrays(record.u.flat[: N - 2], record.y.flat[:N], 2)
    u, y = record.u.flat[100:148], record.y.flat[100:150]
    return [
        lambda: dd_match(MatchProblem(traj, 50, y, "explicit", basis=basis, lam=0.1)),
        lambda: dd_simulate(SimProblem(traj, 50, u, y[:2], "explicit", basis=basis, lam=0.1)),
        lambda: flat_membership(traj, basis, 50, u, y),
    ]


@pytest.mark.parametrize("N", [50, 51])
def test_record_without_a_psi_column_is_too_short(N):
    # L <= N < L + n: the data matrix has columns, the depth-L Psi Hankel matrix none
    required = data_length_check(N, 50, 2, 6).required_N
    for request in _short_example1_requests(N):
        with pytest.warns(PersistencyWarning) as record:
            request()
        assert len(record) == 1 and record[0].filename == __file__
        message = str(record[0].message)
        assert "(rank 0 of 300): sequence too short: 0 columns" in message
        assert message.endswith(f", {required - N} more samples needed")


def test_horizon_above_the_record_raises_before_any_warning():
    for request in _short_example1_requests(49):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionError, match="L=50 out of range for sequence length N=49"):
                request()


def test_horizon_above_the_record_names_the_record():
    record = collect_trajectory(example1_model(), 200, (-0.5, 0.5), seed=5)
    traj = IoTrajectory.from_arrays(record.u.flat[:47], record.y.flat[:49], 2)
    y = record.y.flat[100:150]
    for settings in (
        dict(mode="explicit", basis=named_basis("example1-poly")),
        dict(mode="kernel", kernel=KernelSpec("gaussian")),
    ):
        with pytest.raises(DimensionError, match=r"^Hankel depth L=50 out of range for sequence length N=49$"):
            MatchProblem(traj, 50, y, **settings)


def _example1_windows(seed):
    """Member windows of an example1 record on another seed, and copies of
    them perturbed off the trajectory set."""
    other = collect_trajectory(example1_model(), 500, (-0.5, 0.5), seed=seed + 10)
    rng = np.random.default_rng(seed)
    for k in rng.integers(0, 451, size=3):
        u, y = other.u.flat[k : k + 48], other.y.flat[k : k + 50]
        yield u, y, True
        yield u, y + 0.1 * (1.0 + np.abs(y)) * rng.choice([-1.0, 1.0], size=50), False


@pytest.mark.parametrize("seed", range(5, 10))
def test_stored_pseudo_inverse_agrees_with_lstsq(seed):
    traj = collect_trajectory(example1_model(), 500, (-0.5, 0.5), seed=seed)
    basis = named_basis("example1-poly")
    M = flat_stack(traj, basis, 50)
    for u, y, member in _example1_windows(seed):
        v = flat_membership(traj, basis, 50, u, y)
        rhs = candidate_stack(basis, window_points(u, y, 2), y)
        alpha = np.linalg.lstsq(M, rhs, rcond=None)[0]
        residual = np.linalg.norm(M @ alpha - rhs)
        assert v.is_member == member == (residual <= 1e-6 * (1.0 + np.linalg.norm(rhs)))
        assert_allclose(v.alpha, alpha, rtol=0, atol=1e-9 * np.linalg.norm(alpha))
        # member residuals sit at rounding level, so compare on the scale
        # of the verdict tolerance
        assert abs(v.residual - residual) <= 1e-9 * max(residual, 1.0 + np.linalg.norm(rhs))


def _count_calls(monkeypatch, owner, name, counts):
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_repeated_queries_reuse_stored_factorizations(monkeypatch):
    from flatdd import membership

    traj = collect_trajectory(example1_model(), 500, (-0.5, 0.5), seed=5)
    basis = named_basis("example1-poly")
    u, y = traj.u.flat[:48], traj.y.flat[:50]
    counts = {}
    _count_calls(monkeypatch, membership, "_excitation", counts)
    for name in ("svd", "lstsq"):
        _count_calls(monkeypatch, np.linalg, name, counts)
    # the excitation check is certified without an SVD; the one SVD is the pseudo-inverse's
    first = flat_membership(traj, basis, 50, u, y)
    assert counts == {"_excitation": 1, "svd": 1}
    counts.clear()
    second = flat_membership(traj, basis, 50, u, y)
    assert counts == {}
    assert_allclose(second.alpha, first.alpha, rtol=0, atol=0)
    stack = flat_stack(traj, basis, 50)
    assert flat_stack(traj, basis, 50) is stack and not stack.flags.writeable
    # a different horizon or a different basis object is another entry
    flat_membership(traj, basis, 40, u[:38], y[:40])
    assert counts == {"_excitation": 1, "svd": 1}
    counts.clear()
    flat_membership(traj, BasisSet(basis.functions, 2, "copy", identity_index=0), 50, u, y)
    assert counts == {"_excitation": 1, "svd": 1}
    # a basis named again is the same basis: no new entry, no new factorization
    counts.clear()
    entries = len(traj.__dict__["_memo"])
    flat_membership(traj, named_basis("example1-poly"), 50, u, y)
    assert counts == {} and len(traj.__dict__["_memo"]) == entries


def test_explicit_match_reads_the_stored_pe_verdict(monkeypatch):
    from flatdd import membership

    traj = collect_trajectory(example1_model(), 500, (-0.5, 0.5), seed=5)
    basis = named_basis("example1-poly")
    flat_membership(traj, basis, 50, traj.u.flat[:48], traj.y.flat[:50])
    counts = {}
    _count_calls(monkeypatch, membership, "_excitation", counts)
    dd_match(MatchProblem(traj, 50, traj.y.flat[100:150], "explicit", basis=basis, lam=1e-8))
    assert counts == {}


def test_basis_given_as_list_keys_the_store():
    traj = collect_trajectory(example1_model(), 500, (-0.5, 0.5), seed=5)
    basis = named_basis("example1-poly")
    as_list = BasisSet(list(basis.functions), 2, "listed", identity_index=0)
    v = flat_membership(traj, as_list, 50, traj.u.flat[:48], traj.y.flat[:50])
    assert v.is_member and v.residual < 1e-9


def _verdict_from_stack(monkeypatch, traj, basis, L):
    """The excitation verdict that the window problems store, computed from
    the rows of flat_stack, and the SVDs computing it took."""
    from flatdd import membership

    verdicts, svds = [], []
    excitation, svd = membership._excitation, np.linalg.svd
    monkeypatch.setattr(membership, "_excitation", lambda *a: verdicts.append(excitation(*a)) or verdicts[-1])
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(1) or svd(*a, **k))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PersistencyWarning)
        membership._warn_if_not_excited(traj, basis, L)
    monkeypatch.undo()
    (verdict,) = verdicts
    return verdict, len(svds)


def _constant_input_data(model, N):
    u = np.full(N - 2, 0.1)
    return IoTrajectory.from_arrays(u, simulate(model, np.zeros(2), u).flat, 2)


def _random_data(n, N, seed):
    rng = np.random.default_rng(seed)
    return IoTrajectory.from_arrays(rng.uniform(-1, 1, N - n), rng.uniform(-1, 1, N), n)


def _product_basis(n):
    """Three functions of (u, xi) for a window of width n: u, u xi_1 and xi_n^2."""
    return BasisSet((lambda u, xi: u, lambda u, xi: u * xi[:, 0], lambda u, xi: xi[:, -1] ** 2), n, "product", 0)


def _example1_basis():
    return named_basis("example1-poly")


@pytest.mark.parametrize(
    "data, basis, L, svd_calls",
    [*((lambda seed=seed: _collect(ExperimentConfig(seed=seed), example1_model()), _example1_basis, L, 0)
       for seed in range(5, 30) for L in (40, 50)),
     (lambda: collect_trajectory(example1_model(), 120, (-0.5, 0.5), seed=2), _example1_basis, 50, 1),
     (lambda: _constant_input_data(example1_model(), 250), _example1_basis, 50, 1),
     (lambda: _constant_input_data(example1_model(), 500), _example1_basis, 50, 1),
     # other window widths and basis sizes; the last two leave too few columns
     (lambda: _random_data(1, 60, 0), lambda: named_basis("identity-only", n=1), 20, 0),
     (lambda: _random_data(3, 90, 1), lambda: _product_basis(3), 20, 0),
     (lambda: _random_data(3, 60, 2), lambda: _product_basis(3), 20, 1),
     (lambda: _random_data(3, 60, 3), lambda: _product_basis(3), 57, 1)],
    ids=[*(f"seed{seed}-L{L}" for seed in range(5, 30) for L in (40, 50)), "too-short", "constant-input",
         "constant-input-long", "n1-r1", "n3-r3", "n3-r3-too-short", "n3-r3-one-column"],
)
def test_verdict_from_flat_stack_equals_pe_check(monkeypatch, data, basis, L, svd_calls):
    traj, basis = data(), basis()
    verdict, svds = _verdict_from_stack(monkeypatch, traj, basis, L)
    assert verdict == pe_check(psi_hat_signal(traj, basis), L)
    assert svds == svd_calls  # the SVD runs only where the Cholesky certificate fails


@pytest.mark.parametrize(
    "solve",
    [
        lambda traj, basis: dd_match(MatchProblem(traj, 50, traj.y.flat[20:70], "explicit", basis=basis)),
        lambda traj, basis: dd_simulate(SimProblem(traj, 50, np.full(48, 0.1), np.zeros(2), "explicit", basis=basis)),
        lambda traj, basis: flat_membership(traj, basis, 50, traj.u.flat[:48], traj.y.flat[:50]),
    ],
    ids=["match", "simulate", "membership"],
)
def test_long_unexciting_data_warns_once_with_its_rank(solve):
    # 500 samples clear the data-length bound of 351, but a constant input excites rank 7 only
    traj, basis = _constant_input_data(example1_model(), 500), named_basis("example1-poly")
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        solve(traj, basis)
    (w,) = record
    assert w.category is PersistencyWarning
    assert "(rank 7 of 300)" in str(w.message) and "too short" not in str(w.message)
    assert w.filename == __file__


def test_explicit_match_builds_no_second_psi_hankel(monkeypatch):
    from flatdd import membership, signals

    traj = collect_trajectory(example1_model(), 500, (-0.5, 0.5), seed=5)
    written = []
    write = signals._write_hankel

    def counted(out, z, depth):
        written.append((z.sigma, depth))
        write(out, z, depth)

    monkeypatch.setattr(signals, "_write_hankel", counted)
    monkeypatch.setattr(membership, "_write_hankel", counted)
    basis = named_basis("example1-poly")
    dd_match(MatchProblem(traj, 50, traj.y.flat[100:150], "explicit", basis=basis, lam=0.1))
    # one Psi Hankel, flat_stack's block of depth L - n; the excitation check reads its rows
    assert [depth for sigma, depth in written if sigma == basis.r] == [48]


def test_excitation_certificate_allocates_only_its_gram():
    from flatdd import membership

    traj = collect_trajectory(example1_model(), 500, (-0.5, 0.5), seed=5)
    basis, L = named_basis("example1-poly"), 50
    flat_stack(traj, basis, L)  # the data matrix and the Psi sequence are stored before tracing
    tracemalloc.start()
    try:
        membership._warn_if_not_excited(traj, basis, L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * (basis.r * L) ** 2 * 8


def test_stored_pe_verdict_still_warns():
    traj = collect_trajectory(example1_model(), 30, (-0.5, 0.5), seed=2)
    basis = named_basis("example1-poly")
    for _ in range(2):
        with pytest.warns(PersistencyWarning, match="sequence too short"):
            flat_membership(traj, basis, 10, traj.u.flat[:8], traj.y.flat[:10])


def test_stored_results_die_with_their_trajectory():
    traj = collect_trajectory(example1_model(), 500, (-0.5, 0.5), seed=5)
    flat_membership(traj, named_basis("example1-poly"), 50, traj.u.flat[:48], traj.y.flat[:50])
    ref = weakref.ref(traj)
    del traj
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("name, index", [("u_bar", 0), ("y_bar", 17), ("y_bar", 49)])
def test_nonfinite_candidate_rejected(ex1_data, name, index):
    basis = named_basis("example1-poly")
    cand = {"u_bar": ex1_data.u.flat[:48].copy(), "y_bar": ex1_data.y.flat[:50].copy()}
    cand[name][index] = np.nan if index else np.inf
    with pytest.raises(ConfigError, match=rf"non-finite candidate sample {name}\[{index}\]"):
        flat_membership(ex1_data, basis, 50, cand["u_bar"], cand["y_bar"])
