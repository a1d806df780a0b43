#!/usr/bin/env python3
"""Run the perfbench end-to-end benchmark in alternated pairs and keep every result.

    python3 scripts/bench.py --workload kernel-match --seed 43 --pairs 10 --parent ../flatdd-parent

Each run is the tree's own ``python3 perfbench/run.py --workload W --seed S
--seconds 15 --trace T``, started from that tree's root, with T from
``--trace`` (0, the default: end-to-end metrics; 1: the per-layer metrics
of a traced run).  With ``--parent
DIR`` (a checkout of the commit to compare against) each of K pairs runs
both trees, the parent first in even pairs and this checkout first in odd
ones, so that a drift in the host's load falls on both sides alike.
Without it, this checkout runs K times.  perfbench overwrites its result
file ``perfbench/out/results/W-seedS-traceT.json`` on every run, so the
file is read right after each run.

The record goes to ``BENCH_<W>.json`` at the root of this checkout, or
to ``BENCH_<W>-trace1.json`` with ``--trace 1``, which keeps the first:

- ``command``: the command line;
- ``trees``: per side, ``git rev-parse HEAD`` and whether its files
  differ from that commit (``BENCH_*.json`` files aside), null outside a
  git checkout;
- ``runs``: per finished pair, the order and per side the whole result file:
  the ``metrics``, ``detail`` (per-process and per-kind figures,
  accuracy medians, or the traced run's self-check and time shares),
  ``env`` (versions, host load before and after), the request counts
  and any failures;
- ``end_to_end``, or ``per_layer`` with ``--trace 1``: per metric of
  that list in ``BENCHMARK.json``, its bound (null for a per-layer
  metric) and direction, per side the values with their median and
  quartiles, and with a parent the number of pairs this checkout won,
  its median's relative change, and whether that change lies outside
  the parent's interquartile range;
- ``failed_run``: null, or the command, tree, exit code and last five
  lines of stderr of a run that exited non-zero.  No run follows it, and
  the record keeps the pairs finished before it.

The exit code is 1 if a run fails or a request is wrong, else 0.  A
full set of ten pairs takes about 10 minutes per workload.
"""

import argparse
import json
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SECONDS = 15


class RunFailed(Exception):
    """A perfbench run that exited non-zero; ``args[0]`` is its record."""


def _perfbench(tree: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    """One run of the tree's own perfbench, from the tree's root."""
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=tree, capture_output=True, text=True)


def run_once(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """Run the tree's benchmark and return its result file, read before the next run overwrites it.
    A run that exits non-zero raises RunFailed with its command, exit code and last lines of stderr."""
    proc = _perfbench(tree, workload, seed, trace)
    if proc.returncode != 0:
        raise RunFailed({"command": shlex.join(proc.args), "tree": str(tree), "exit_code": proc.returncode,
                         "stderr_tail": proc.stderr.strip().splitlines()[-5:]})
    return json.loads((tree / "perfbench" / "out" / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def tree_state(tree: Path) -> dict:
    """The tree's HEAD commit and dirty flag (null outside a git checkout)."""
    head = dirty = None
    if (tree / ".git").exists():
        git = ["git", "-C", str(tree)]
        head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True, check=True).stdout.strip()
        status = [*git, "status", "--porcelain", "--", ".", ":(exclude)BENCH_*.json"]
        dirty = bool(subprocess.run(status, capture_output=True, text=True, check=True).stdout.strip())
    return {"head": head, "dirty": dirty}


def spread(values: list[float]) -> dict:
    """The values with their median and quartiles (perfbench's quartile rule)."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric, each side's spread and, with both sides, the comparison."""
    out = {}
    for m in metrics:
        name = m["name"]
        row = {"bound": m.get("bound"), "better": m["better"]}
        for side in ("change", "parent"):
            if side in runs[0]:
                row[side] = spread([r[side]["metrics"][name] for r in runs])
        if "parent" in row:
            sign = 1.0 if m["better"] == "lower" else -1.0
            new, old = row["change"], row["parent"]
            row["wins"] = sum(sign * (c - p) < 0 for c, p in zip(new["values"], old["values"]))
            row["relative_change"] = new["median"] / old["median"] - 1.0 if old["median"] else None
            row["outside_parent_iqr"] = abs(new["median"] - old["median"]) > old["q3"] - old["q1"]
        out[name] = row
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--parent", type=Path, help="checkout of the commit to compare against")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics of traced runs")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    trees = {"change": ROOT}
    if args.parent is not None:
        trees["parent"] = args.parent.resolve()
        if not (trees["parent"] / "perfbench" / "run.py").is_file():
            p.error(f"no perfbench/run.py under {trees['parent']}")

    states = {side: tree_state(tree) for side, tree in trees.items()}
    runs, failed = [], None
    try:
        for i in range(args.pairs):
            order = [side for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")) if side in trees]
            pair = {"order": order}
            for side in order:
                pair[side] = run_once(trees[side], args.workload, args.seed, args.trace)
                print(f"pair {i} {side}: " + " ".join(f"{k}={v:.6g}" for k, v in pair[side]["metrics"].items()),
                      flush=True)
            runs.append(pair)
    except RunFailed as exc:  # keep the finished pairs
        failed = exc.args[0]
        print(f"bench: {failed['command']} in {failed['tree']} exited with {failed['exit_code']}:",
              *failed["stderr_tail"], sep="\n", file=sys.stderr)

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    record = {
        "command": shlex.join(["python3", "scripts/bench.py", *(sys.argv[1:] if argv is None else argv)]),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": SECONDS,
        "trees": states,
        "runs": runs,
        "failed_run": failed,
        section: summarize(runs, manifest[section]) if runs else {},
    }
    out = ROOT / f"BENCH_{args.workload}{'-trace1' if args.trace else ''}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for name, row in record[section].items():
        line = f"{name}: change median {row['change']['median']:.6g}"
        if "parent" in row:
            line += (f", parent median {row['parent']['median']:.6g} "
                     f"(IQR {row['parent']['q1']:.6g}-{row['parent']['q3']:.6g}), "
                     f"wins {row['wins']}/{len(runs)}")
        print(line)
    print(f"wrote {out}")
    ok = failed is None and all(r[side]["correct"] and r[side]["failed"] == 0 for r in runs for side in trees)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
