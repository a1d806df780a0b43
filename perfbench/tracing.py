"""Spans around the public functions of the flatdd layers, recorded from outside.

Every public function (listed in a layer module's ``__all__``) is replaced
by a wrapper in each flatdd module that bound it, so calls through
``from .x import y`` names are seen too.  ``objective`` on both solver
problem classes and ``scipy.optimize.minimize`` (the polish) are wrapped
as well; private helpers are not.  Spans are kept in memory while the
workload runs and written out when it ends.
"""
from __future__ import annotations

import csv
import functools
import gzip
import importlib
import inspect
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("signals", "plant", "basis", "solver", "membership", "simulation", "matching", "experiments")


# Counters taken from arguments (bound to their parameter names) and
# results at span boundaries.
def _kernel_eval_counts(counts: Counter, args: dict, out) -> None:
    # computed from the array sizes, not measured
    z_bytes = sum(np.asarray(args[z], dtype=float).nbytes for z in ("Z1", "Z2"))
    counts["basis.kernel_eval.pairs"] += out.size
    counts["basis.kernel_eval.bytes"] += z_bytes + out.nbytes


def _polish_counts(counts: Counter, args: dict, out) -> None:
    counts["solver.polish.nit"] += int(out.nit)
    counts["solver.polish.nfev"] += int(out.nfev)


def _solve_counts(counts: Counter, args: dict, out) -> None:
    counts["solver.fixed_point.iterations"] += int(out.iterations)
    counts["solver.nonlinear_solve.converged"] += int(out.converged)


_AFTER = {
    "basis.kernel_eval": _kernel_eval_counts,
    "solver.polish": _polish_counts,
    "solver.nonlinear_solve": _solve_counts,
}


class Tracer:
    """Span recorder; records only while ``active`` and a request is open."""

    def __init__(self) -> None:
        self.active = False
        self.request = -1
        self.spans: list[tuple] = []  # (id, parent, request, name, start, end)
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [id, start, child seconds]
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn):
        after = _AFTER.get(name)
        signature = inspect.signature(fn) if after is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(self.spans) + len(self._stack)
            frame = [sid, time.perf_counter(), 0.0]
            parent = self._stack[-1][0] if self._stack else -1
            self._stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                dur = end - frame[1]
                self.calls[name] += 1
                self.self_s[name] += dur - frame[2]
                if self._stack:
                    self._stack[-1][2] += dur
                self.spans.append((sid, parent, self.request, name, frame[1], end))
            if after is not None:
                after(self.counts, signature.bind(*args, **kwargs).arguments, out)
            return out

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every public layer function everywhere flatdd bound it."""
        import scipy.optimize

        modules = {layer: importlib.import_module(f"flatdd.{layer}") for layer in LAYERS}
        bound = [m for n, m in list(sys.modules.items()) if n == "flatdd" or n.startswith("flatdd.")]
        for layer, mod in modules.items():
            for fname in mod.__all__:
                fn = getattr(mod, fname)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self.wrap(f"{layer}.{fname}", fn)
                for m in bound:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, attr, wrapped)
        solver = modules["solver"]
        for cls in (solver.NonlinearResidualProblem, solver.NormalEquationsProblem):
            self._patch(cls, "objective", self.wrap("solver.objective", cls.objective))
        self._patch(scipy.optimize, "minimize", self.wrap("solver.polish", scipy.optimize.minimize))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def snapshot(self) -> dict:
        """Running totals of the calls, self seconds and extra counters."""
        out = {f"{n}.calls": c for n, c in self.calls.items()}
        out.update({f"{n}.s": s for n, s in self.self_s.items()})
        out.update(self.counts)
        return out

    def write_spans(self, path: str) -> None:
        origin = min((span[4] for span in self.spans), default=0.0)
        with gzip.open(path, "wt", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["span", "parent", "request", "name", "start_s", "end_s"])
            for sid, parent, req, name, start, end in sorted(self.spans):
                w.writerow([sid, parent, req, name, f"{start - origin:.9f}", f"{end - origin:.9f}"])
