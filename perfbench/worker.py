"""One workload process: set up, run a closed loop of requests, report JSON.

Started by ``run.py`` with BLAS threads pinned in its environment and
``src`` on ``PYTHONPATH``.  One client sends the next request only when the
previous one has returned.  The last line on stdout is a JSON object with
the set-up times, one record per request and, in a traced run, the layer
totals.
"""
import time

_STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402


# One reference sample is due per this many wall seconds; due samples are
# taken in the next gap between requests, at most REFERENCE_BURST at once.
REFERENCE_EVERY_S = 0.5
REFERENCE_BURST = 40
# Reference samples taken right after set-up, so that run.py can scale the
# set-up time by the host's speed at that moment.
SETUP_REFERENCE_SAMPLES = 15


class Reference:
    """A fixed numpy and Python computation, timed between requests.

    Host speed on a shared machine drifts by tens of percent over minutes.
    Request times divided by the reference time, sampled in the same
    process over the same minutes, keep much less of that drift.  It calls
    no flatdd code, so no change to flatdd moves it.  Its parts mirror the
    workloads' hot spots: the SVD of a data-block-sized matrix, Gaussian
    kernel blocks and interpreted Python.
    """

    def __init__(self) -> None:
        import numpy

        self.np = numpy
        rng = numpy.random.default_rng(0)
        self.block = rng.standard_normal((300, 450))
        self.z1 = rng.standard_normal((48, 3))
        self.z2 = rng.standard_normal((700, 3))
        self.samples: list[tuple[float, float]] = []  # (wall s, cpu s)
        self.last = 0.0

    def sample(self) -> None:
        np = self.np
        c0, t0 = time.process_time(), time.perf_counter()
        np.linalg.svd(self.block, compute_uv=False)
        for _ in range(10):
            sq = (self.z1**2).sum(1)[:, None] + (self.z2**2).sum(1)[None, :] - 2.0 * (self.z1 @ self.z2.T)
            np.exp(-0.5 * sq)
        acc = 0
        for k in range(20000):
            acc += k * k
        self.samples.append((time.perf_counter() - t0, time.process_time() - c0))
        self.last = time.monotonic()

    def sample_due(self) -> None:
        due = int((time.monotonic() - self.last) / REFERENCE_EVERY_S)
        for _ in range(min(due, REFERENCE_BURST)):
            self.sample()


def _versions() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-requests", type=int, default=0)
    p.add_argument("--first-request", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--record-objectives", action="store_true", help="do not compare objectives with the record")
    p.add_argument("--src", required=True)
    p.add_argument("--work-dir", required=True)
    p.add_argument("--spans", default="")
    args = p.parse_args()

    import flatdd
    import spec
    import workloads

    import_s = time.monotonic() - _STARTED
    if not Path(flatdd.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        print(f"flatdd imported from {flatdd.__file__}, not from {args.src}", file=sys.stderr)
        return 2

    work_dir = Path(args.work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    wl = cls(args.seed, work_dir, recording=True) if args.record_objectives else cls(args.seed, work_dir)
    t = time.monotonic()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        wl.setup()
    ready_at = time.monotonic()
    setup_ref = Reference()
    for _ in range(SETUP_REFERENCE_SAMPLES):
        setup_ref.sample()
    result = {
        "ready_at": ready_at,
        "import_s": import_s,
        "data_s": ready_at - t,
        "setup_reference_s": statistics.median(w for w, _ in setup_ref.samples),
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    requests = []
    ref = Reference()
    start = time.monotonic()
    first = i = args.first_request

    def more() -> bool:
        done = i - first
        if done == 0:
            return True
        if 0 < args.max_requests <= done:
            return False
        # a process ends only after a whole repetition of the request-kind mix
        return done % wl.cycle != 0 or time.monotonic() - start < args.seconds

    while more():
        ref.sample_due()
        req = wl.make(i)
        before = tracer.snapshot() if tracer else {}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if tracer:
                tracer.request, tracer.active = i, True
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                res, error = wl.run(req), None
            except Exception as exc:  # any raise is a failed request, recorded and counted
                res, error = None, "".join(traceback.format_exception_only(exc)).strip()
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            if tracer:
                tracer.active = False
        if error is None:
            out = wl.check(req, res)
        else:
            out = workloads.Outcome().fail(error)
        wl.cleanup(req)
        rec = {
            "i": i,
            "kind": req.kind,
            "s": wall,
            "cpu_s": cpu,
            "ok": out.ok,
            "why": out.why,
            "values": out.values,
            "warnings": dict(Counter(w.category.__name__ for w in caught)),
        }
        if tracer:
            after = tracer.snapshot()
            rec["counts"] = {k: after.get(k, 0) - before.get(k, 0) for k in spec.SELF_CHECK_COUNTS}
        requests.append(rec)
        i += 1
    measured_s = time.monotonic() - start
    ref.sample_due()

    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.snapshot()
        if args.spans:
            tracer.write_spans(args.spans)
    ru = resource.getrusage(resource.RUSAGE_SELF)
    result.update(
        requests=requests,
        measured_s=measured_s,
        reference=ref.samples,
        cycle=wl.cycle,
        peak_rss_mb=ru.ru_maxrss / 1024.0,
        nivcsw=ru.ru_nivcsw,
        nvcsw=ru.ru_nvcsw,
        versions=_versions(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
