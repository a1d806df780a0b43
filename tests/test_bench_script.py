"""Smoke test of scripts/bench.py, the alternated-pairs benchmark record, with a
stubbed perfbench run: the benchmark itself never starts."""
import importlib.util
import json
import shutil
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "scripts" / "bench.py"
METRICS = ("setup_s", "request_ref.p50", "cpu_ref_per_request.p50", "peak_rss_mb")
PER_LAYER = tuple(m["name"] for m in json.loads((REPO / "BENCHMARK.json").read_text())["per_layer"])


@pytest.fixture
def bench(monkeypatch, tmp_path):
    """The script as a module on two stand-in trees, with a perfbench stub that
    writes a result file whose request_ref.p50 (trace.request_s when traced)
    is new on every run."""
    spec = importlib.util.spec_from_file_location("bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for side in ("change", "parent"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "change")
    monkeypatch.setattr(module, "ROOT", tmp_path / "change")
    calls = []

    def perfbench(tree, workload, seed, trace):
        calls.append(tree.name)
        ref = (2.0, 1.0, 3.0, 2.5, 4.0, 3.5)[len(calls) - 1]  # the change wins pairs 0 and 2
        timed = "trace.request_s" if trace else "request_ref.p50"
        result = {
            "metrics": {name: ref if name == timed else 1.0 for name in (PER_LAYER if trace else METRICS)},
            "correct": True, "attempted": 4, "failed": 0, "detail": {}, "failures": [],
            "env": {"loadavg_before": "0.1", "loadavg_after": "0.2"},
        }
        out = tree / "perfbench" / "out" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result))  # overwritten by the tree's next run

    monkeypatch.setattr(module, "_perfbench", perfbench)
    return module, calls, tmp_path


def test_bench_alternates_pairs_and_keeps_every_run(bench):
    module, calls, root = bench
    argv = ["--workload", "kernel-sim", "--seed", "3", "--pairs", "3", "--parent", str(root / "parent")]
    assert module.main(argv) == 0
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]
    record = json.loads((root / "change" / "BENCH_kernel-sim.json").read_text())
    assert record["command"] == "python3 scripts/bench.py " + " ".join(argv)
    assert record["trees"]["parent"] == {"head": None, "dirty": None}
    assert [pair["order"] for pair in record["runs"]] == [calls[0:2], calls[2:4], calls[4:6]]
    assert [p["parent"]["metrics"]["request_ref.p50"] for p in record["runs"]] == [2.0, 2.5, 4.0]
    assert [p["change"]["metrics"]["request_ref.p50"] for p in record["runs"]] == [1.0, 3.0, 3.5]
    assert record["runs"][0]["parent"]["env"] == {"loadavg_before": "0.1", "loadavg_after": "0.2"}
    ref = record["end_to_end"]["request_ref.p50"]
    assert ref["bound"] == 0.25 and ref["better"] == "lower"
    assert ref["change"]["median"] == 3.0 and ref["parent"]["median"] == 2.5
    assert ref["wins"] == 2
    assert ref["relative_change"] == pytest.approx(0.2)
    assert ref["outside_parent_iqr"] is False  # 0.5 apart, the parent's quartiles 2.0 and 4.0
    assert set(record["end_to_end"]) == set(METRICS)
    assert record["end_to_end"]["peak_rss_mb"]["wins"] == 0  # ties win nothing


def test_bench_without_parent_runs_this_tree_alone(bench):
    module, calls, root = bench
    assert module.main(["--workload", "explicit-shared", "--seed", "0", "--pairs", "1"]) == 0
    assert calls == ["change"]
    record = json.loads((root / "change" / "BENCH_explicit-shared.json").read_text())
    setup = record["end_to_end"]["setup_s"]
    assert "parent" not in setup and setup["change"] == {"values": [1.0], "median": 1.0, "q1": 1.0, "q3": 1.0}


def test_bench_trace_run_keeps_the_end_to_end_record(bench):
    module, calls, root = bench
    kept = root / "change" / "BENCH_kernel-match.json"
    kept.write_text("{}")
    argv = ["--workload", "kernel-match", "--seed", "3", "--pairs", "3", "--parent", str(root / "parent"),
            "--trace", "1"]
    assert module.main(argv) == 0
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]
    assert kept.read_text() == "{}"
    record = json.loads((root / "change" / "BENCH_kernel-match-trace1.json").read_text())
    assert "end_to_end" not in record and list(record["per_layer"]) == list(PER_LAYER)
    request = record["per_layer"]["trace.request_s"]
    assert request["bound"] is None and request["better"] == "lower"
    assert request["change"]["values"] == [1.0, 3.0, 3.5] and request["parent"]["values"] == [2.0, 2.5, 4.0]
    assert request["wins"] == 2
    share = record["per_layer"]["solver.converged_share"]
    assert share["better"] == "higher" and share["wins"] == 0  # ties win nothing
