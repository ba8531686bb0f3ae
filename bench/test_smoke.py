"""Smoke test of the benchmark itself, at about 2k rows per workload.

    python3 -m pytest bench/test_smoke.py

Every workload runs once untraced and twice traced: all metrics named in
BENCHMARK.json must come out with their units, no call may fail, and the
exact per-layer counts must repeat.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from layers import Span, Tracer, oracle_check

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
ROWS = 2000
# simulate-default is not a BENCHMARK.json workload (see README.md) but stays
# runnable by hand, so it is smoke-tested too.
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]] + ["simulate-default"]


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--rows", str(ROWS)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def units(result: dict) -> dict[str, str]:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_workload(workload):
    plain = run_benchmark(workload, 0)
    result = result_of(plain)
    assert "'committed'" in plain.stdout  # checked against the stored outputs too
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced = [result_of(run_benchmark(workload, 1)) for _ in range(2)]
    for result in traced:
        assert result["failed"] == 0
        assert units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [
        {name: m["value"] for name, m in result["metrics"].items() if m["unit"] != "s"}
        for result in traced
    ]
    assert counts[0] == counts[1]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_oracle_flags_a_wrong_kernel():
    qs = np.linspace(0.05, 0.95, 50)
    wrong = np.where(qs < 0.5, 0.9, 0.0)  # accepts low q and rejects everything else
    tracer = Tracer()
    tracer.spans = [
        Span("metrics.tce", None, 0.0, 1.0, ({"name": "TCE(P)"}, None)),
        Span("stattest.binom_kernel", 0, 0.0, 1.0, ({"n": 40, "k": 20, "qs": qs}, wrong)),
    ]
    oracle = oracle_check(tracer, alpha=0.05, seed=0)
    assert oracle["pairs"] == qs.size
    assert oracle["disagreements"]
