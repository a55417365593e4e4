"""Self-test of the pipeline benchmark at tiny sizes (never used for numbers).

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PRINTED = ("run_s", "setup_s", "eps_s", "peak_rss_mb", "mse", "eig_err",
           "fail_ratio")


def _run(tmp_path, workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=170, cwd=cwd)
    return proc


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric(tmp_path, workload, trace):
    proc = _run(tmp_path, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 2
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    for name in PRINTED:
        assert any(line.split()[:1] == [name] for line in lines[:-1]), name
    assert not any(line.startswith("check failed") for line in lines)


def test_end_to_end_metrics_are_nonzero_times(tmp_path):
    result = json.loads(_run(tmp_path, "sphere_dense", 0).stdout.splitlines()[-1])
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0.0


def test_fails_without_sources(tmp_path):
    checkout = tmp_path / "checkout"
    shutil.copytree(BENCH, checkout / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", checkout)
    proc = _run(tmp_path / "out", "sphere_dense", 0, cwd=checkout)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_eigenvalue_check_flags_bad_spectra(tmp_path):
    path = tmp_path / "eigvecs_0.0001.csv"
    for row, ok in [(",,1e-14,-1,-2", True), (",-1e-9,-3e-5,-2e-4", True),
                    (",0,-2,-1", False), (",0.5,-1,-2", False),
                    (",-1e-3,-1,-2", False), (",0,1e-3,-2", False)]:
        path.write_text(row + "\n0,1,2,3\n")
        assert (run.check_eigenvalues(path, 1e-4) == []) is ok, row


def test_self_time_excludes_child_spans():
    spans = [{"name": "root", "start": 0.0, "end": 10.0, "parent": None},
             {"name": "a", "start": 1.0, "end": 4.0, "parent": 0},
             {"name": "b", "start": 2.0, "end": 3.0, "parent": 1},
             {"name": "a", "start": 5.0, "end": 6.0, "parent": 0}]
    assert run.self_times(spans) == {"root": 6.0, "a": 3.0, "b": 1.0}
