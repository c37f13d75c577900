"""Tests of the benchmark itself, on its smoke mode (tiny inputs, every check).

    python3 -m pytest perfbench/test_perfbench.py -q

Run from the root of the repository.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct(workload, trace):
    proc = bench("--workload", workload, "--smoke", "--trace", str(trace), "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names


def test_reference_covers_default_and_held_out_seed():
    cases = json.loads((HERE / "reference.json").read_text())["cases"]
    for seed in (1, 2):
        assert any(key.endswith(f"-s{seed * 1000}") for key in cases if key.startswith("landscape-k3-n17"))
        assert any(key.endswith(f"-s{seed * 1000}") for key in cases if key.startswith("landscape-k3-n10"))


def test_reference_ignores_added_keys_and_flags_changed_values():
    outcome = {"code": 0, "records": [{"state": "0110", "energy": 2}], "summary": {"local_minima": 1}}
    ref = worker.reference_entry(outcome)
    added = {"code": 0, "records": [{"state": "0110", "energy": 2, "tree": [1]}],
             "summary": {"local_minima": 1, "metrics": {"wall_s": 0.1}}}
    assert worker.reference_problems(ref, added) == []
    changed = {"code": 0, "records": [{"state": "0110", "energy": 3}], "summary": {"local_minima": 1}}
    assert worker.reference_problems(ref, changed) == ["records differ from the reference"]
    dropped = {"code": 0, "records": outcome["records"], "summary": {}}
    assert worker.reference_problems(ref, dropped) == ["summary['local_minima'] differs from the reference"]


def test_rejects_a_workload_not_in_the_spec():
    proc = bench("--workload", "nosuch", "--smoke")
    assert proc.returncode == 2 and '"correct"' not in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "walk", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
