import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_summary.py"
spec = importlib.util.spec_from_file_location("bench_summary", TOOL)
bench_summary = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_summary)


def write_result(directory, name, commit, seed, wall_rel, rows=500_000, trace=0,
                 workload="compute-500k"):
    result = {
        "workload": workload,
        "rows": rows,
        "seconds": 30,
        "trace": trace,
        "attempted": 3,
        "failed": 0,
        "provenance": {"git_commit": commit, "src_sha256": "f" * 64, "seed": seed,
                       "cpu_model": "test cpu", "nproc": 2},
        "end_to_end": {"wall_rel": wall_rel, "cpu_rel": wall_rel, "peak_rss_mb": 100.0,
                       "setup_s": 1.0},
    }
    (directory / f"{name}.json").write_text(json.dumps(result), encoding="utf-8")


def test_summary_pairs_seeds_and_counts_wins(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    for seed, (old, new) in enumerate([(1.0, 0.8), (1.2, 0.9), (0.9, 1.0)]):
        write_result(results, f"a{seed}", "aaaa111", seed, old)
        write_result(results, f"b{seed}", "bbbb222", seed, new)
    write_result(results, "b9-smoke", "bbbb222", 9, 5.0, rows=2000)  # fewer rows: ignored
    write_result(results, "b9-traced", "bbbb222", 9, 5.0, trace=1)  # traced: ignored
    write_result(results, "c0", "cccc333", 0, 7.0)  # neither side
    assert bench_summary.main(["--label", "t", "--parent", "aaaa", "--change", "bbbb",
                               "--results", str(results), "--out-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    assert summary["host"]["cpu_model"] == "test cpu"
    compute = summary["workloads"]["compute-500k"]
    assert compute["seeds"] == [0, 1, 2]
    wall = compute["metrics"]["wall_rel"]
    assert wall["parent"]["median"] == 1.0 and wall["change"]["median"] == 0.9
    assert wall["pairs_won_by_change"] == 2
    assert wall["median_change_minus_parent"] == pytest.approx(-0.2)
    assert compute["metrics"]["peak_rss_mb"]["pairs_won_by_change"] == 0
    assert compute["change"]["commits"] == ["bbbb222"] and compute["change"]["runs"] == 3
    assert summary["workloads"]["diagram-ties-500k"]["pairs"] == 0


def test_summary_takes_the_workloads_named_on_the_command_line(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    for seed, (old, new) in enumerate([(1.4, 1.1), (1.5, 1.2)]):
        for side, commit, value in (("a", "aaaa111", old), ("b", "bbbb222", new)):
            write_result(results, f"{side}{seed}", commit, seed, value, rows=6000,
                         workload="simulate-default")
    write_result(results, "a9", "aaaa111", 0, 0.3)  # a BENCHMARK.json workload: not asked for
    assert bench_summary.main(["--label", "t", "--parent", "aaaa", "--change", "bbbb",
                               "--results", str(results), "--out-dir", str(tmp_path),
                               "--workload", "simulate-default"]) == 0
    summary = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    assert list(summary["workloads"]) == ["simulate-default"]
    simulate = summary["workloads"]["simulate-default"]
    assert simulate["seeds"] == [0, 1] and simulate["change"]["runs"] == 2
    assert simulate["metrics"]["wall_rel"]["pairs_won_by_change"] == 2


PARENT_WALL = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


@pytest.mark.parametrize("parent, change, expected", [
    # 10/10 pairs won and medians 0.2 apart, against a parent IQR of 0.045
    (PARENT_WALL, [v - 0.2 for v in PARENT_WALL], "gain"),
    # 9/10 pairs won is still a gain
    (PARENT_WALL, [v - 0.2 for v in PARENT_WALL[:9]] + [1.5], "gain"),
    # 10/10 won, but the medians differ by less than the parent's IQR
    (PARENT_WALL, [v - 0.01 for v in PARENT_WALL], "no change"),
    # the median is 30% worse; the bound is 25%
    (PARENT_WALL, [v * 1.3 for v in PARENT_WALL], "regression"),
    # the parent's IQR is about 80% of its median and the runs overlap
    ([0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 0.5, 1.5, 1.1], [1.0] * 10, "unresolved"),
    # as wide, but every change run beats every parent run
    ([0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 0.5, 1.5, 1.1], [0.3] * 10, "no change"),
    (PARENT_WALL, PARENT_WALL[::-1], "no change"),
])
def test_summary_states_a_verdict_per_metric(tmp_path, parent, change, expected):
    results = tmp_path / "results"
    results.mkdir()
    for seed, (old, new) in enumerate(zip(parent, change)):
        write_result(results, f"a{seed}", "aaaa111", seed, old)
        write_result(results, f"b{seed}", "bbbb222", seed, new)
    assert bench_summary.main(["--label", "t", "--parent", "aaaa", "--change", "bbbb",
                               "--results", str(results), "--out-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    metrics = summary["workloads"]["compute-500k"]["metrics"]
    assert metrics["wall_rel"]["verdict"] == expected
    assert metrics["cpu_rel"]["verdict"] == expected  # the helper writes the same values
    assert metrics["peak_rss_mb"]["verdict"] == "no change"  # 100.0 on every run
    assert "verdict" not in summary["workloads"]["diagram-ties-500k"]["metrics"]["wall_rel"]


def write_traced(directory, name, commit, seed, per_layer):
    result = {
        "workload": "compute-500k",
        "rows": 500_000,
        "seconds": 30,
        "trace": 1,
        "attempted": 1,
        "failed": 0,
        "provenance": {"git_commit": commit, "src_sha256": "f" * 64, "seed": seed},
        "per_layer": per_layer,
    }
    (directory / f"{name}.json").write_text(json.dumps(result), encoding="utf-8")


TRACED = {"binning.bins.P": 12, "stattest.rejected.Q": 300, "diagram.svg_bytes": 9000,
          "core.partition_s": 0.10}
EXACT = [m["name"] for m in json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text(
    encoding="utf-8"))["per_layer"] if m["unit"] in ("count", "bytes")]


@pytest.mark.parametrize("changed, differ", [
    # times differ from run to run; only counts and bytes are compared
    ({"core.partition_s": 0.25}, []),
    ({"binning.bins.P": 13, "diagram.svg_bytes": 9001}, ["binning.bins.P", "diagram.svg_bytes"]),
])
def test_summary_compares_traced_counts(tmp_path, capsys, changed, differ):
    results = tmp_path / "results"
    results.mkdir()
    write_traced(results, "a0", "aaaa111", 0, TRACED)
    write_traced(results, "b0", "bbbb222", 0, {**TRACED, **changed})
    # seeds 1 and 2 run on one side each, seed 3 on both: seed 0 is compared
    for name, commit, seed in [("a1", "aaaa111", 1), ("b2", "bbbb222", 2), ("a3", "aaaa111", 3),
                               ("b3", "bbbb222", 3)]:
        write_traced(results, name, commit, seed, {**TRACED, "binning.bins.P": 99})
    assert bench_summary.main(["--label", "t", "--parent", "aaaa", "--change", "bbbb",
                               "--results", str(results), "--out-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    counts = summary["workloads"]["compute-500k"]["traced_counts"]
    assert counts["seed"] == 0
    assert list(counts["metrics"]) == EXACT
    assert counts["metrics"]["binning.bins.P"]["parent"] == 12
    assert counts["metrics"]["stattest.distinct_q.P"] == {
        "unit": "count", "parent": None, "change": None, "equal": True}
    assert counts["differ"] == differ
    printed = capsys.readouterr().out
    assert f"compute-500k traced counts at seed 0: {len(EXACT) - len(differ)} of {len(EXACT)} equal" in printed
    for name in differ:
        entry = counts["metrics"][name]
        assert f"compute-500k {name} differs: parent {entry['parent']}, change {entry['change']}" in printed
    assert summary["workloads"]["diagram-ties-500k"]["traced_counts"]["seed"] is None
