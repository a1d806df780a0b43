"""Benchmark harness for flatdd: closed-loop workloads in fresh processes.

Run from the repository root:

    python3 perfbench/run.py --workload kernel-sim --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of the workload and ``--trace 1``
the per-layer metrics of a traced run; either way every request's output
is checked, and the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Other modes:

    python3 perfbench/run.py --write-manifest      # writes BENCHMARK.json
    python3 perfbench/run.py --baseline --seeds 0-9  # writes perfbench/baseline.json
    python3 perfbench/run.py --record-objectives     # writes perfbench/objectives.json

Workload processes get ``OPENBLAS_NUM_THREADS=1`` and ``OMP_NUM_THREADS=1``
before numpy loads, and import flatdd from ``src``.  Run outputs go to
``perfbench/out``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
PROCESSES = 5  # most workload processes that measure requests in an end-to-end run
SETUPS = 9  # set-ups timed per end-to-end run; set-up-only processes make up the count
# setup_s is in seconds on a host where the reference computation
# (worker.Reference) takes this long: each set-up is scaled by this over the
# reference time sampled right after it in the same process.
NOMINAL_REFERENCE_S = 0.016
EXIT_SLACK_S = 150  # a workload process gets --seconds plus this before it is killed
UNITS = {m["name"]: m["unit"] for m in spec.END_TO_END + spec.PER_LAYER}


class BenchError(RuntimeError):
    pass


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _worker(root: Path, workload: str, seed: int, seconds: float, trace: int, *extra: str) -> dict:
    out = HERE / "out"
    tag = f"{workload}-s{seed}-t{trace}-{os.getpid()}-{time.monotonic_ns()}"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONPATH=str(root / "src"))
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--src", str(root / "src"), "--work-dir", str(out / "work" / tag), *extra,
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=seconds + EXIT_SLACK_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} process exceeded {seconds + EXIT_SLACK_S:.0f} s") from exc
    finally:
        shutil.rmtree(out / "work" / tag, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"{workload} process exited with {proc.returncode}: {tail}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_s"] = res["ready_at"] - spawned
    return res


def _accuracy(reqs: list[dict]) -> dict:
    acc = {}
    for key in ("y_err_2", "u_err_2", "objective"):
        vals = [r["values"][key] for r in reqs if key in r["values"]]
        if vals:
            acc[f"{key}.median"] = _median(vals)
    return acc


def _failures(reqs: list[dict], label: str = "") -> tuple[int, list[str]]:
    failed = [r for r in reqs if not r["ok"]]
    return len(failed), [f"{label}request {r['i']} ({r['kind']}): {r['why']}" for r in failed]


def _cycle_median(values: list[float], cycle: int) -> float:
    """Median over whole repetitions of the request-kind mix of their mean
    value; the plain median when every request is of one kind.  A mix's
    plain median would sit on the edge between two kinds' latencies."""
    means = [statistics.fmean(values[j : j + cycle]) for j in range(0, len(values) - cycle + 1, cycle)]
    return _median(means or [statistics.fmean(values)])


def _reference(res: dict) -> tuple[float, float]:
    """Median wall and CPU seconds of the process's reference samples."""
    return _median([w for w, _ in res["reference"]]), _median([c for _, c in res["reference"]])


def end_to_end(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """Spread ``seconds`` of one request stream over up to PROCESSES fresh
    processes, each continuing the stream where the last stopped.  Each
    process's request times are divided by its own reference time, and the
    metric is the median over processes, so one process's luck in memory
    placement or CPU does not set the figure."""
    load_before = _loadavg()
    procs = []
    while len(procs) < PROCESSES and sum(p["measured_s"] for p in procs) < seconds:
        first = sum(len(p["requests"]) for p in procs)
        procs.append(_worker(root, workload, seed, seconds / PROCESSES, 0, "--first-request", str(first)))
    setups = list(procs)
    while len(setups) < SETUPS:
        setups.append(_worker(root, workload, seed, seconds, 0, "--setup-only"))
    load_after = _loadavg()

    cycle = procs[0]["cycle"]
    request_ref, cpu_ref, refs = [], [], []
    for p in procs:
        ref_s, ref_cpu_s = _reference(p)
        refs.append(ref_s)
        request_ref.append(_cycle_median([r["s"] for r in p["requests"]], cycle) / ref_s)
        cpu_ref.append(_cycle_median([r["cpu_s"] for r in p["requests"]], cycle) / ref_cpu_s)
    reqs = [r for p in procs for r in p["requests"]]
    times = [r["s"] for r in reqs]
    n = len(reqs)
    metrics = {
        "setup_s": _median([p["setup_s"] * NOMINAL_REFERENCE_S / p["setup_reference_s"] for p in setups]),
        "request_ref.p50": _median(request_ref),
        "cpu_ref_per_request.p50": _median(cpu_ref),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in procs),
    }
    failed, notes = _failures(reqs)
    accuracy = _accuracy(reqs)
    problems = [
        f"{name} {accuracy[name]:.6g} above the {label} band's upper edge {hi}"
        for name, (lo, hi, label) in spec.BANDS.get(workload, {}).items()
        if not accuracy.get(name, -math.inf) <= hi
    ]
    detail = {
        "requests": n,
        "processes": len(procs),
        "fail_rate": failed / n,
        "request_s.p50": _cycle_median(times, cycle),
        "cpu_s_per_request.p50": _cycle_median([r["cpu_s"] for r in reqs], cycle),
        "request_ref.per_process": request_ref,
        "reference_s.per_process": refs,
        "request_s.median_all": _median(times),
        "throughput_rps": n / sum(times),
        "cpu_s_per_request": sum(r["cpu_s"] for r in reqs) / n,
        "setup_s.raw": _median([p["setup_s"] for p in setups]),
        "setup_s.samples": [p["setup_s"] for p in setups],
        "setup_reference_s.samples": [p["setup_reference_s"] for p in setups],
        "setup.import_s": _median([p["import_s"] for p in procs]),
        "setup.data_s": _median([p["data_s"] for p in procs]),
        "measured_s": sum(p["measured_s"] for p in procs),
        **accuracy,
    }
    if n >= 100:
        p90 = statistics.quantiles(times, n=10)[-1]
        beyond = sum(t > p90 for t in times)
        if beyond >= 10:
            detail["request_s.p90"] = p90
            detail["request_s.p90.beyond"] = beyond
    kinds = sorted({r["kind"] for r in reqs})
    if len(kinds) > 1:
        for k in kinds:
            kt = [r["s"] for r in reqs if r["kind"] == k]
            detail[f"{k}.request_s.p50"] = _median(kt)
            detail[f"{k}.requests"] = len(kt)
    env = {
        "cores": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **procs[0]["versions"],
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "involuntary_ctx_switches": sum(p["nivcsw"] for p in procs),
        "voluntary_ctx_switches": sum(p["nvcsw"] for p in procs),
    }
    return {
        "correct": failed == 0 and not problems,
        "attempted": n,
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
        "failures": notes + problems,
        "env": env,
    }


def traced(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """Three processes on one request stream: traced (A), untraced (B) for
    the tracing overhead, each measuring half of ``seconds``, and a second
    traced run of request 0 (C) for the count self-check."""
    load_before = _loadavg()
    spans = HERE / "out" / f"spans-{workload}-seed{seed}.csv.gz"
    spans.parent.mkdir(parents=True, exist_ok=True)
    a = _worker(root, workload, seed, seconds / 2, 1, "--spans", str(spans))
    b = _worker(root, workload, seed, seconds / 2, 0)
    c = _worker(root, workload, seed, seconds, 1, "--max-requests", "1")
    load_after = _loadavg()

    ra, rb = a["requests"], b["requests"]
    n = len(ra)
    tot = a["layers"]
    layers = {m["name"]: tot.get(m["name"], 0) / n for m in spec.PER_LAYER}
    solves = tot.get("solver.nonlinear_solve.calls", 0)
    layers["solver.converged_share"] = tot.get("solver.nonlinear_solve.converged", 0) / solves if solves else 0.0
    layers["experiments.bytes_written"] = sum(r["values"].get("bytes_written", 0) for r in ra) / n
    layers["setup.import_s"] = a["import_s"]
    layers["setup.data_s"] = a["data_s"]
    layers["trace.request_s"] = sum(r["s"] for r in ra) / n
    pairs = list(zip(ra, rb))
    overhead = _median([x["s"] - y["s"] for x, y in pairs])
    layers["trace.overhead_s"] = overhead
    layers["trace.overhead_share"] = overhead / _median([y["s"] for _, y in pairs])

    problems = []
    first_a, first_c = ra[0]["counts"], c["requests"][0]["counts"]
    for name, bypassed_on in spec.SELF_CHECK_COUNTS.items():
        if first_a[name] != first_c[name]:
            problems.append(f"{name} read {first_a[name]} then {first_c[name]} on request 0 of seed {seed}")
        total = tot.get(name, 0)
        if workload in bypassed_on and total != 0:
            problems.append(f"{name} reads {total} on {workload}, which bypasses it")
        if workload not in bypassed_on and total == 0:
            problems.append(f"{name} reads 0 on {workload}, which uses it")

    all_reqs = ra + rb + c["requests"]
    failed = 0
    notes = []
    for label, reqs in (("traced ", ra), ("untraced ", rb), ("repeat ", c["requests"])):
        f, ns = _failures(reqs, label)
        failed, notes = failed + f, notes + ns
    request_total = sum(r["s"] for r in ra)
    shares = {
        name[:-2]: s / request_total
        for name, s in sorted(tot.items(), key=lambda kv: -kv[1])
        if name.endswith(".s")
    }
    return {
        "correct": failed == 0 and not problems,
        "attempted": len(all_reqs),
        "failed": failed,
        "metrics": layers,
        "detail": {
            "traced_requests": n,
            "untraced_requests": len(rb),
            "self_check": problems or "counts repeat and bypassed layers read 0",
            "self_time_share": shares,
            "fail_rate": failed / len(all_reqs),
            "spans_file": str(spans.relative_to(root)) if spans.is_relative_to(root) else str(spans),
            "spans": sum(v for k, v in tot.items() if k.endswith(".calls")),
        },
        "failures": notes,
        "env": {
            "cores": os.cpu_count(),
            **a["versions"],
            "loadavg_before": load_before,
            "loadavg_after": load_after,
            "involuntary_ctx_switches": a["nivcsw"],
        },
    }


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(workload: str, seed: int, seconds: float, trace: int, res: dict) -> None:
    print(f"perfbench {workload} seed={seed} seconds={seconds:g} trace={trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in res["env"].items()))
    for name, value in res["metrics"].items():
        note = " (computed)" if name in ("basis.kernel_eval.pairs", "basis.kernel_eval.bytes") else ""
        print(f"metric {name} = {_fmt(value)} {UNITS[name]}{note}")
    for name, value in res["detail"].items():
        print(f"detail {name} = {_fmt(value) if not isinstance(value, dict) else json.dumps(value)}")
    for name, (lo, hi, label) in spec.BANDS.get(workload, {}).items():
        v = res["detail"].get(name)
        if v is not None:
            where = "inside" if lo <= v <= hi else "outside"
            print(f"accuracy {name} = {_fmt(v)}, {label} band [{lo}, {hi}]: {where} (above {hi} fails)")
    print(f"check attempted={res['attempted']} failed={res['failed']} correct={res['correct']}")
    for note in res["failures"]:
        print(f"failure {note}")


def run(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    res = (traced if trace else end_to_end)(root, workload, seed, seconds)
    saved = HERE / "out" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    saved.parent.mkdir(parents=True, exist_ok=True)
    saved.write_text(json.dumps(res, indent=1) + "\n", encoding="utf-8")
    return res


def _seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "values": values}


def baseline(root: Path, seeds: list[int], seconds: float) -> dict:
    out = {"run_seconds": seconds, "seeds": seeds, "expected_moves": spec.EXPECTED_MOVES, "workloads": {}}
    for w in spec.WORKLOADS:
        name = w["name"]
        runs = []
        for s in seeds:
            res = run(root, name, s, seconds, 0)
            print(f"{name} seed {s}: " + " ".join(f"{k}={_fmt(v)}" for k, v in res["metrics"].items()), flush=True)
            runs.append(res)
        trace = run(root, name, seeds[0], seconds, 1)
        e2e = {}
        for m in spec.END_TO_END:
            q = _quartiles([r["metrics"][m["name"]] for r in runs])
            q["bound"] = m["bound"]
            e2e[m["name"]] = q
            print(f"{name} {m['name']}: median {_fmt(q['median'])} spread {q['spread']:.4f} "
                  f"(bound {m['bound']})", flush=True)
        accuracy = {}
        for key in ("request_s.p50", "fail_rate", "y_err_2.median", "u_err_2.median", "objective.median",
                    "request_s.p90"):
            vals = [r["detail"][key] for r in runs if key in r["detail"]]
            if vals:
                accuracy[key] = {"median": _median(vals), "values": vals}
        out["workloads"][name] = {
            "end_to_end": e2e,
            "accuracy": accuracy,
            "correct": all(r["correct"] for r in runs) and trace["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "failures": [f for r in runs for f in r["failures"]],
            "per_layer": trace["metrics"],
            "trace_detail": trace["detail"],
            "env": runs[0]["env"],
        }
    return out


def record_objectives(root: Path) -> dict:
    """One request per data seed on each experiment workload: the objective
    every later request on that seed is compared with."""
    record = {}
    for name in spec.RECORDED_WORKLOADS:
        res = _worker(root, name, 0, 1e6, 0, "--record-objectives", "--max-requests", str(spec.DATA_SEED_COUNT))
        failed, notes = _failures(res["requests"])
        if failed:
            raise BenchError(f"{name}: " + "; ".join(notes))
        record[name] = {str(r["values"]["data_seed"]): r["values"]["objective"] for r in res["requests"]}
        for r in res["requests"]:
            print(f"{name} data seed {r['values']['data_seed']}: " + " ".join(
                f"{k}={r['values'][k]:.6g}" for k in ("objective", "y_err_2", "u_err_2") if k in r["values"]), flush=True)
    return record


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=[w["name"] for w in spec.WORKLOADS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-manifest", action="store_true", help="write BENCHMARK.json and exit")
    p.add_argument("--baseline", action="store_true", help="run every workload and write perfbench/baseline.json")
    p.add_argument("--seeds", default="0-9", help="seed range for --baseline, e.g. 0-9")
    p.add_argument("--record-objectives", action="store_true",
                   help="run each data seed once and write perfbench/objectives.json")
    args = p.parse_args(argv)

    root = Path.cwd()
    if args.write_manifest:
        (root / "BENCHMARK.json").write_text(json.dumps(spec.manifest(), indent=2) + "\n", encoding="utf-8")
        return 0
    if not (root / "src" / "flatdd" / "__init__.py").is_file():
        print(f"perfbench: no flatdd sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    try:
        if args.record_objectives:
            res = record_objectives(root)
            (HERE / "objectives.json").write_text(json.dumps(res, indent=1) + "\n", encoding="utf-8")
            return 0
        if args.baseline:
            res = baseline(root, _seed_list(args.seeds), args.seconds)
            (HERE / "baseline.json").write_text(json.dumps(res, indent=1) + "\n", encoding="utf-8")
            return 0
        if not args.workload:
            p.error("--workload is required")
        res = run(root, args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    report(args.workload, args.seed, args.seconds, args.trace, res)
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
