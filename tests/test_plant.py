import numpy as np
import pytest
from numpy.testing import assert_allclose

from flatdd.errors import DimensionError, DivergenceError, EvaluationError
from flatdd.plant import (
    FlatModel,
    NoiseSpec,
    add_noise,
    collect_trajectory,
    example1_model,
    example2_model,
    generate_excitation,
    matching_input_oracle,
    simulate,
)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def test_example1_output_recursion(rng):
    m = example1_model()
    u = rng.uniform(-0.5, 0.5, size=30)
    y = simulate(m, rng.normal(size=2) * 0.1, u).flat
    assert y.size == 32
    for k in range(30):
        assert_allclose(y[k + 2], u[k] * (y[k] ** 2 + 2.0), rtol=1e-13)


def test_example2_output_recursion(rng):
    m = example2_model()
    u = rng.uniform(-1.0, 1.0, size=30)
    y = simulate(m, rng.normal(size=2) * 0.1, u).flat
    for k in range(30):
        assert_allclose(y[k + 2], np.sin(u[k]) / (1.0 + y[k + 1] ** 2), rtol=1e-13)


def test_simulate_zero_fixed_point():
    for m in (example1_model(), example2_model()):
        y = simulate(m, np.zeros(2), np.zeros(10)).flat
        assert_allclose(y, 0.0)


def test_simulate_pulse_by_hand():
    y1 = simulate(example1_model(), np.zeros(2), np.array([1.0, 0.0, 0.0])).flat
    assert_allclose(y1, [0.0, 0.0, 2.0, 0.0, 0.0])
    y2 = simulate(example2_model(), np.zeros(2), np.array([np.pi / 2, 0.0, 0.0])).flat
    assert_allclose(y2, [0.0, 0.0, 1.0, 0.0, 0.0], atol=1e-15)


def test_leading_outputs_ignore_all_inputs(rng):
    m = example2_model()
    u = rng.uniform(-1, 1, size=10)
    x0 = rng.normal(size=2)
    bumped = u.copy()
    bumped[0] += 0.3
    a = simulate(m, x0, u).flat
    b = simulate(m, x0, bumped).flat
    assert_allclose(a[:2], b[:2])


def test_tail_outputs_independent_of_later_inputs(rng):
    m = example1_model()
    u = rng.uniform(-0.5, 0.5, size=12)
    y_short = simulate(m, np.zeros(2), u).flat
    y_long = simulate(m, np.zeros(2), np.append(u, 5.0)).flat
    assert_allclose(y_long[: y_short.size], y_short)


def test_simulate_divergence_reports_step():
    m = example1_model()
    with pytest.raises(DivergenceError, match=r"step \d+"):
        simulate(m, np.zeros(2), np.full(2000, 3.0))


def test_simulate_divergence_step_numbers():
    def shift(x, u):
        return np.array([x[1], u])

    def output(x):
        return float("nan") if x[0] == 1.0 else float(x[0])

    m = FlatModel(2, shift, output, "shift")
    u = np.zeros(6)
    u[3] = np.inf
    with pytest.raises(DivergenceError, match=r"^state became non-finite at step 4$"):
        simulate(m, np.zeros(2), u)
    u[3] = 0.0
    u[2] = 1.0
    with pytest.raises(DivergenceError, match=r"^output became non-finite at step 4$"):
        simulate(m, np.zeros(2), u)


def test_simulate_state_turning_nan_reports_step():
    # sqrt of a negative input gives NaN, not inf, in the state
    def root(x, u):
        return np.array([x[1], np.sqrt(u)])

    m = FlatModel(2, root, lambda x: float(x[0]), "root")
    u = np.ones(6)
    u[3] = -1.0
    with pytest.raises(DivergenceError, match=r"^state became non-finite at step 4$"):
        simulate(m, np.zeros(2), u)


# the bundled models' equations, stepped as ndarrays of numpy floats
_NDARRAY_STEPS = {
    "example1": (example1_model, lambda x, u: np.array([x[1], u * (x[0] ** 2 + 2.0)])),
    "example2": (example2_model, lambda x, u: np.array([x[1], np.sin(u) / (1.0 + x[1] ** 2)])),
}


def _ndarray_reference(f, u):
    """Outputs of f from rest under inputs u, and the step at which the state left the
    finite range (None if it never did)."""
    x, y = np.zeros(2), [0.0]
    with np.errstate(over="ignore", invalid="ignore"):
        for k, uk in enumerate(np.append(np.asarray(u, dtype=float), 0.0)):
            x = f(x, uk)
            if not np.isfinite(x).all():
                return np.array(y), k + 1
            y.append(float(x[0]))
    return np.array(y), None


@pytest.mark.parametrize("seed", range(5, 30))
@pytest.mark.parametrize("name, N, bounds", [("example1", 500, (-0.5, 0.5)), ("example2", 750, (-1.0, 1.0))])
def test_bundled_models_match_ndarray_stepping(name, N, bounds, seed):
    # the experiments' recordings, bit for bit; x ** 2 and x * x differ in the last bit of a
    # few states and the next step mostly absorbs it, so all 25 data seeds are needed to see it
    model, f = _NDARRAY_STEPS[name]
    u = generate_excitation(N - 2, bounds, seed)
    expected, diverged = _ndarray_reference(f, u)
    assert diverged is None
    np.testing.assert_array_equal(simulate(model(), np.zeros(2), u).flat, expected)


@pytest.mark.parametrize(
    "name, u",
    [
        ("example1", np.full(2000, 3.0)),
        ("example1", [1e200, 1.0, 1.0, 0.0, 0.0]),  # x1 ** 2 overflows: a Python float raises
        ("example1", [0.0, np.inf, 1.0]),
        ("example2", [0.1, np.inf, 0.2]),  # math.sin(inf) raises
        ("example2", [0.1, np.nan, 0.2]),
    ],
)
def test_bundled_model_divergence_step_matches_ndarray_stepping(name, u):
    model, f = _NDARRAY_STEPS[name]
    _, step = _ndarray_reference(f, u)
    with pytest.raises(DivergenceError, match=rf"^state became non-finite at step {step}$"):
        simulate(model(), np.zeros(2), u)


def test_matching_oracle_recovers_input_example1(rng):
    m = example1_model()
    u = rng.uniform(-0.5, 0.5, size=20)
    y = simulate(m, np.zeros(2), u).flat
    assert_allclose(matching_input_oracle(m, y), u, atol=1e-12)


def test_matching_oracle_recovers_input_example2(rng):
    m = example2_model()
    u = rng.uniform(-1.0, 1.0, size=20)
    y = simulate(m, np.zeros(2), u).flat
    assert_allclose(matching_input_oracle(m, y), u, atol=1e-12)


def test_example2_inverse_domain():
    m = example2_model()
    with pytest.raises(EvaluationError):
        m.flat_inverse(1.5, np.zeros(2))


def test_excitation_mean_bound():
    u = generate_excitation(500, (-0.5, 0.5), 123)
    assert abs(u.mean()) < 0.07


def test_generate_excitation_bounds_and_repeatability():
    a = generate_excitation(200, (-0.5, 0.5), 7)
    b = generate_excitation(200, (-0.5, 0.5), 7)
    assert_allclose(a, b)
    assert a.min() >= -0.5 and a.max() <= 0.5


def test_add_noise_bounds(rng):
    y = rng.normal(size=100)
    noisy = add_noise(y, NoiseSpec(-0.002, 0.002, 5)).flat
    delta = noisy - y
    assert np.all(np.abs(delta) <= 0.002)
    assert np.any(delta != 0.0)


def test_collect_trajectory_shapes():
    m = example1_model()
    t = collect_trajectory(m, 50, (-0.5, 0.5), seed=3)
    assert t.N == 50 and t.u.length == 48 and t.n == 2
    resim = simulate(m, np.zeros(2), t.u.flat)
    assert_allclose(t.y.flat, resim.flat)


@pytest.mark.parametrize("N", [-5, 1, 2])
def test_collect_trajectory_rejects_record_no_longer_than_order(N):
    with pytest.raises(DimensionError, match=f"N={N} must exceed model order n=2"):
        collect_trajectory(example1_model(), N, (-0.5, 0.5), seed=3)
