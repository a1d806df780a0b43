"""SISO nonlinear plant models, simulation and data collection.

Models are state-space systems x+ = f(x, u), y = h(x) with scalar input
and output, f(0, 0) = 0, h(0) = 0, and relative degree equal to the state
dimension n.  For such systems the window y_k ... y_{k+n-1} acts as a
state, and y_{k+n} is a function of that window and u_k alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, DivergenceError, EvaluationError
from .signals import IoTrajectory, Signal

__all__ = [
    "FlatModel",
    "example1_model",
    "example2_model",
    "simulate",
    "generate_excitation",
    "NoiseSpec",
    "add_noise",
    "collect_trajectory",
    "matching_input_oracle",
]


@dataclass(frozen=True)
class FlatModel:
    """SISO plant x+ = f(x, u), y = h(x) with relative degree n.

    ``flat_inverse(v, xi)`` returns the input u achieving next output
    window value v from the output window xi = (y_k, ..., y_{k+n-1});
    it is the exact inverse of the input-output recursion and is used
    for oracle checks, not by the data-driven algorithms.

    ``f`` takes the n state values and the input and returns the n next
    state values, each as any sequence of floats (a tuple, a list or a
    1-D ndarray); ``h`` takes the same sequence.  ``simulate`` starts from
    a tuple of floats and passes on whatever ``f`` returns.

    ``state_from_window(xi)`` maps an output window to the state x_k.
    """

    n: int
    f: Callable[[Sequence[float], float], Sequence[float]]
    h: Callable[[Sequence[float]], float]
    name: str
    flat_inverse: Callable[[float, np.ndarray], float] | None = None
    state_from_window: Callable[[np.ndarray], np.ndarray] | None = None


def example1_model() -> FlatModel:
    """Polynomial second-order plant: x1+ = x2, x2+ = u (x1^2 + 2), y = x1.

    Output recursion: y_{k+2} = u_k (y_k^2 + 2).
    """

    def f(x: Sequence[float], u: float) -> tuple[float, float]:
        return (x[1], u * (x[0] ** 2 + 2.0))

    def h(x: Sequence[float]) -> float:
        return float(x[0])

    def inv(v: float, xi: np.ndarray) -> float:
        return float(v) / (float(xi[0]) ** 2 + 2.0)

    return FlatModel(2, f, h, "example1", flat_inverse=inv, state_from_window=np.asarray)


def example2_model() -> FlatModel:
    """Trigonometric second-order plant: x1+ = x2, x2+ = sin(u)/(1 + x2^2), y = x1.

    Output recursion: y_{k+2} = sin(u_k)/(1 + y_{k+1}^2).  The inverse is
    the principal arcsin branch, so it recovers inputs in (-pi/2, pi/2).
    """

    def f(x: Sequence[float], u: float) -> tuple[float, float]:
        return (x[1], math.sin(u) / (1.0 + x[1] ** 2))

    def h(x: Sequence[float]) -> float:
        return float(x[0])

    def inv(v: float, xi: np.ndarray) -> float:
        arg = float(v) * (1.0 + float(xi[1]) ** 2)
        if abs(arg) > 1.0:
            raise EvaluationError(f"next output {v} unreachable from window {xi}: |sin(u)| would be {arg}")
        return float(np.arcsin(arg))

    return FlatModel(2, f, h, "example2", flat_inverse=inv, state_from_window=np.asarray)


def simulate(model: FlatModel, x0: np.ndarray, u: np.ndarray | Signal) -> Signal:
    """Outputs y_0 ... y_{M+n-1} produced by inputs u_0 ... u_{M-1} from x0.

    Because the relative degree is n, the last n outputs do not depend on
    any input beyond u_{M-1}; the state is stepped with zero inputs there.
    The state starts as a tuple of Python floats and the inputs are Python
    floats.  Raises DivergenceError naming the first step at which the
    state or output leaves the finite range, or at which ``f`` raises
    ArithmeticError or ValueError, as Python float arithmetic and the
    ``math`` module do where numpy returns inf or nan (``x ** 2``
    overflowing, ``math.sin(inf)``).
    """
    inputs = (u.flat if isinstance(u, Signal) else np.asarray(u, dtype=float).reshape(-1)).tolist()
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.size != model.n:
        raise EvaluationError(f"initial state has size {x.size}, model order is {model.n}")
    x = tuple(x.tolist())
    steps = len(inputs) + model.n
    inputs += [0.0] * (model.n - 1)
    y = []
    # a model stepping ndarrays overflows to a non-finite state, reported with its step index
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            yk = model.h(x)
            if not math.isfinite(yk):
                raise DivergenceError(f"output became non-finite at step {k}")
            y.append(yk)
            if k < steps - 1:
                try:
                    x = model.f(x, inputs[k])
                except (ArithmeticError, ValueError) as exc:
                    raise DivergenceError(f"state became non-finite at step {k + 1}") from exc
                if not all(map(math.isfinite, x)):
                    raise DivergenceError(f"state became non-finite at step {k + 1}")
    return Signal(y)


def generate_excitation(
    length: int, bounds: tuple[float, float], seed: int | np.random.Generator
) -> np.ndarray:
    """Uniform i.i.d. excitation over [lo, hi]."""
    lo, hi = bounds
    return np.random.default_rng(seed).uniform(lo, hi, size=length)


@dataclass(frozen=True)
class NoiseSpec:
    """Additive output noise, uniform over [lo, hi]."""

    lo: float
    hi: float
    seed: int | np.random.Generator


def add_noise(y: np.ndarray | Signal, spec: NoiseSpec) -> Signal:
    yy = y.flat if isinstance(y, Signal) else np.asarray(y, dtype=float).reshape(-1)
    return Signal(yy + np.random.default_rng(spec.seed).uniform(spec.lo, spec.hi, size=yy.size))


def collect_trajectory(
    model: FlatModel,
    N: int,
    input_bounds: tuple[float, float],
    seed: int | np.random.Generator,
    noise: NoiseSpec | None = None,
) -> IoTrajectory:
    """Excite the plant from the origin with uniform random input and
    record N outputs; the input has N - n samples."""
    if N <= model.n:
        raise DimensionError(f"record length N={N} must exceed model order n={model.n}")
    u = generate_excitation(N - model.n, input_bounds, seed)
    y = simulate(model, np.zeros(model.n), u)
    if noise is not None:
        y = add_noise(y, noise)
    return IoTrajectory(Signal(u), y, model.n)


def matching_input_oracle(model: FlatModel, y_ref: np.ndarray) -> np.ndarray:
    """Exact input sequence reproducing the reference output window.

    For a reference y_0 ... y_{L-1} the returned u_0 ... u_{L-n-1} satisfy
    the plant's output recursion; requires the model's flat_inverse.
    """
    if model.flat_inverse is None:
        raise EvaluationError(f"model {model.name!r} has no inverse map")
    y_ref = np.asarray(y_ref, dtype=float).reshape(-1)
    n = model.n
    L = y_ref.size
    if L <= n:
        raise EvaluationError(f"reference length {L} must exceed model order {n}")
    return np.array(
        [model.flat_inverse(y_ref[k + n], y_ref[k : k + n]) for k in range(L - n)]
    )
