"""Smoke test of scripts/output_digest.py, the byte-identity check of outputs."""
import importlib.util
import json
import os
import re
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"


@pytest.fixture
def digest_script(monkeypatch):
    """The script as a module, run on one data seed instead of 25."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):  # the import sets them if unset
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "SEEDS", range(5, 6))
    return module


def _documented_groups(doc: str) -> list[str]:
    section = doc.split("Groups:\n", 1)[1].split("\n\n", 1)[0]
    return re.findall(r"^  (\S+)", section, flags=re.MULTILINE)


def test_output_digest_prints_each_documented_group(digest_script, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT)])
    digest_script.main()
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    groups = _documented_groups(digest_script.__doc__)
    assert groups and [label for label, _ in lines] == groups
    for _, digest in lines:
        assert re.fullmatch(r"[0-9a-f]{64}", digest)


def test_output_digest_solves_prints_one_json_line_per_run(digest_script, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--solves"])
    digest_script.main()
    runs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    groups = ["example1-explicit", "example1-kernel", "example2"]
    assert [(r["group"], r["seed"]) for r in runs] == [(group, 5) for group in groups]
    for r in runs:
        assert set(r) == {"group", "seed", "objective", "initial_objective", "iterations", "converged"}
        assert r["objective"] <= r["initial_objective"]


def test_output_digest_against_reports_changes_and_fails_on_changed_runs(digest_script, monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--solves"])
    digest_script.main()
    runs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    old = tmp_path / "old.jsonl"
    old.write_text("".join(json.dumps(r) + "\n" for r in runs))
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--solves", "--against", str(old)])
    assert digest_script.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [r["group"] for r in runs]
    assert all(line.endswith("objective 0, initial_objective 0") for line in lines)
    # a run whose iteration count moved is named and fails the comparison
    runs[1]["iterations"] += 1
    runs[2]["objective"] *= 1.0 + 1e-12
    old.write_text("".join(json.dumps(r) + "\n" for r in runs))
    assert digest_script.main() == 1
    out = capsys.readouterr().out
    assert f"changed  example1-kernel seed 5: iterations {runs[1]['iterations']} -> {runs[1]['iterations'] - 1}" in out
    assert re.search(r"^example2 .* objective 1e-12, initial_objective 0$", out, flags=re.MULTILINE)
