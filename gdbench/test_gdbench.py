"""Smoke test of the benchmark itself, on tiny graphs.

Run from the repository root with ``python3 -m pytest gdbench -q``. It checks
that ``BENCHMARK.json`` and the code name the same workloads and metrics, that
a tiny run prints the result schema with every metric, that the benchmark
refuses to run without the repository, and that the output check rejects
doctored assignments. The full benchmark never runs here.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gdcheck  # noqa: E402
import gdlayers  # noqa: E402
import run  # noqa: E402


def _bench(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "gdbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


def test_benchmark_json_names_what_the_code_reports():
    b = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert b["command"] == ["python3", "gdbench/run.py"]
    assert b["paths"] == ["gdbench"]
    assert {w["name"] for w in b["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in b["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in b["per_layer"]} == gdlayers.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in b["end_to_end"]}
    assert all(0 < v <= 0.25 for v in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize(
    "workload,trace", [("kway-local", 0), ("kway-spark", 1)]
)
def test_tiny_run_prints_every_metric(workload, trace):
    p = _bench(["--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny"], ROOT)
    assert p.returncode == 0, p.stderr[-3000:]
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    # One second gives a pool of one input, plus the warm-up input.
    assert res["attempted"] == 2 and 0 <= res["failed"] <= res["attempted"]
    expected = gdlayers.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    m = {k: v["value"] for k, v in res["metrics"].items()}
    if trace:
        parts = ("gd.collect_s", "gd.checkpoint_s", "gd.other_actions_s",
                 "gd.final_project_s", "gd.driver_s")
        assert sum(m[k] for k in parts) == pytest.approx(m["gd.relax_s"], rel=1e-6)
        assert m["trace.extra_jobs"] == 0
        assert m["rec.spark_nodes"] == 1 and m["rec.local_nodes"] == 14
    else:
        assert m["partition_s"] > 0 and m["setup_s"] > 0


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "gdbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _bench(["--workload", "kway-local", "--seed", "1", "--seconds", "1",
                "--trace", "0"], tmp_path)
    assert p.returncode != 0
    assert p.stdout.strip() == ""


def _ring(n: int = 8) -> pd.DataFrame:
    src = np.arange(n)
    dst = (src + 1) % n
    return pd.DataFrame({"src": np.minimum(src, dst), "dst": np.maximum(src, dst)})


def test_check_accepts_a_balanced_assignment():
    v = gdcheck.check_assignment(_ring(), 8, 2, 0.05, np.arange(8), np.arange(8) // 4)
    assert v.ok
    assert v.eps_achieved == 0.0
    assert v.locality == pytest.approx(6 / 8)


def test_check_rejects_a_dropped_vertex():
    v = gdcheck.check_assignment(_ring(), 8, 2, 0.05, np.arange(7), np.arange(7) // 4)
    assert not v.total and not v.ok


def test_check_rejects_an_overweight_part():
    parts = np.array([0, 0, 0, 0, 0, 1, 1, 1])
    v = gdcheck.check_assignment(_ring(), 8, 2, 0.05, np.arange(8), parts)
    assert v.total and v.in_range and not v.ok
    assert v.eps_achieved == pytest.approx(0.25)


def test_check_rejects_a_part_out_of_range():
    parts = np.array([0, 0, 0, 0, 1, 1, 1, 2])
    v = gdcheck.check_assignment(_ring(), 8, 2, 0.05, np.arange(8), parts)
    assert not v.in_range and not v.ok
