"""Summarize parent/change benchmark runs into one committed BENCH_<label>.json.

    python3 tools/bench_summary.py --label pava --parent 2a9fed2 --change 161daf4
    python3 tools/bench_summary.py --label simulate --parent 2a9fed2 --change 161daf4 \
        --workload simulate-default

Summarizes the workloads of ``BENCHMARK.json``, or those named by
``--workload``, such as ``simulate-default``, which ``bench/run.py`` runs
but ``BENCHMARK.json`` does not list. Reads only the results files that ``bench/run.py`` leaves in
``.bench_work/results/`` (copy in those of other checkouts first). A file
belongs to a side when its recorded git commit or its ``src`` tree sha256
starts with the given prefix. Only untraced runs at the workload's largest
row count count; per seed the latest run of each side is kept, and seeds run
on both sides form the pairs.

For every end-to-end metric of ``BENCHMARK.json`` the summary gives each
side's median and quartiles over its runs, the median of the change minus
the parent, and how many pairs the change won (strictly better in the
metric's direction), and one verdict:

- ``gain``: the change won at least 9 of every 10 pairs, and its median is
  better than the parent's by more than the parent's interquartile range;
- ``regression``: the change's median is worse than the parent's by more
  than the metric's ``bound`` (from ``BENCHMARK.json``) times the parent's
  median;
- ``unresolved``: either side's interquartile range is wider than that
  bound times the parent's median, and not every change run is better than
  every parent run;
- ``no change``: none of these.

It also records the seeds, both sides' commits and source hashes, the host,
and the calls attempted and failed.

From the traced runs (``--trace 1``) at the lowest seed both sides ran, it
lists every per-layer metric of ``BENCHMARK.json`` whose unit is ``count`` or
``bytes``, with each side's value and whether they are equal, and prints the
ones that differ: a change meant to keep outputs the same repeats them all.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".bench_work" / "results"
HOST_KEYS = ("cpu_model", "nproc", "cpus_usable", "python", "numpy", "scipy")
EXACT_UNITS = ("count", "bytes")


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def side_of(result: dict, prefixes: dict[str, str]) -> str | None:
    prov = result["provenance"]
    ids = (prov.get("git_commit") or "", prov.get("src_sha256") or "")
    matches = [side for side, prefix in prefixes.items() if any(i.startswith(prefix) for i in ids)]
    return matches[0] if len(matches) == 1 else None


def load_runs(results_dir: Path, prefixes: dict[str, str], traced: bool = False) -> dict:
    """{workload: {side: {seed: result}}} of the traced or the untraced runs, keeping
    the latest run per seed among the runs with the most rows (smoke runs use fewer)."""
    runs: dict = {}
    for path in sorted(results_dir.glob("*.json")):  # names end in a timestamp
        result = json.loads(path.read_text(encoding="utf-8"))
        side = side_of(result, prefixes)
        if bool(result.get("trace")) != traced or side is None:
            continue
        by_rows = runs.setdefault(result["workload"], {}).setdefault(result["rows"], {})
        by_rows.setdefault(side, {})[result["provenance"]["seed"]] = result
    return {workload: by_rows[max(by_rows)] for workload, by_rows in runs.items()}


def verdict(entry: dict, parent: list[float], change: list[float], pairs: int,
            bound: float) -> str:
    """The verdict on one metric's summary entry, given each side's values."""
    sign = 1 if entry["better"] == "lower" else -1
    base = entry["parent"]["median"]
    gain = sign * (base - entry["change"]["median"])  # > 0: the change's median is better
    if 10 * entry["pairs_won_by_change"] >= 9 * pairs and gain > entry["parent"]["iqr"]:
        return "gain"
    limit = bound * abs(base)
    if -gain > limit:
        return "regression"
    spread = max(entry["parent"]["iqr"], entry["change"]["iqr"])
    every_run_better = max(sign * v for v in change) < min(sign * v for v in parent)
    if spread > limit and not every_run_better:
        return "unresolved"
    return "no change"


def summarize_workload(sides: dict, metrics: list[dict]) -> dict:
    parent, change = sides.get("parent", {}), sides.get("change", {})
    seeds = sorted(set(parent) & set(change))
    out: dict = {"seeds": seeds, "pairs": len(seeds), "metrics": {}}
    for side, runs in (("parent", parent), ("change", change)):
        out[side] = {
            "runs": len(runs),
            "calls_attempted": sum(r["attempted"] for r in runs.values()),
            "calls_failed": sum(r["failed"] for r in runs.values()),
            "commits": sorted({r["provenance"]["git_commit"] or "" for r in runs.values()}),
            "src_sha256": sorted({r["provenance"]["src_sha256"] for r in runs.values()}),
        }
    for metric in metrics:
        name, sign = metric["name"], (1 if metric["better"] == "lower" else -1)
        entry: dict = {"unit": metric["unit"], "better": metric["better"]}
        values = {}
        for side, runs in (("parent", parent), ("change", change)):
            values[side] = [r["end_to_end"][name] for r in runs.values()]
            if values[side]:
                q1, q2, q3 = quartiles(values[side])
                entry[side] = {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1}
        if seeds:
            diffs = [change[s]["end_to_end"][name] - parent[s]["end_to_end"][name] for s in seeds]
            entry["median_change_minus_parent"] = statistics.median(diffs)
            entry["pairs_won_by_change"] = sum(sign * d < 0 for d in diffs)
            entry["verdict"] = verdict(entry, values["parent"], values["change"], len(seeds),
                                       metric["bound"])
        out["metrics"][name] = entry
    return out


def compare_counts(sides: dict, metrics: list[dict]) -> dict:
    """Each side's exact per-layer metrics from the traced runs at the lowest seed both ran."""
    parent, change = sides.get("parent", {}), sides.get("change", {})
    seed = min(set(parent) & set(change), default=None)
    out = {}
    for metric in metrics if seed is not None else ():
        if metric["unit"] in EXACT_UNITS:
            name = metric["name"]
            old, new = parent[seed]["per_layer"].get(name), change[seed]["per_layer"].get(name)
            out[name] = {"unit": metric["unit"], "parent": old, "change": new, "equal": old == new}
    return {"seed": seed, "metrics": out,
            "differ": [name for name, entry in out.items() if not entry["equal"]]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the output, BENCH_<label>.json")
    parser.add_argument("--parent", required=True, help="commit or src sha256 prefix")
    parser.add_argument("--change", required=True, help="commit or src sha256 prefix")
    parser.add_argument("--results", type=Path, default=RESULTS)
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    parser.add_argument("--workload", action="append", dest="workloads", metavar="NAME",
                        help="summarize this workload; repeat for more (default: BENCHMARK.json's)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    prefixes = {"parent": args.parent, "change": args.change}
    runs = load_runs(args.results, prefixes)
    traced = load_runs(args.results, prefixes, traced=True)
    if not runs and not traced:
        print(f"no results for either side in {args.results}", file=sys.stderr)
        return 1
    any_run = next(r for sides in (*runs.values(), *traced.values())
                   for side in sides.values() for r in side.values())
    summary = {
        "label": args.label,
        "parent": args.parent,
        "change": args.change,
        "host": {key: any_run["provenance"].get(key) for key in HOST_KEYS},
        "run_seconds": any_run["seconds"],
        "workloads": {
            name: {
                **summarize_workload(runs.get(name, {}), spec["end_to_end"]),
                "traced_counts": compare_counts(traced.get(name, {}), spec["per_layer"]),
            }
            for name in args.workloads or [w["name"] for w in spec["workloads"]]
        },
    }
    out = args.out_dir / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    for workload, result in summary["workloads"].items():
        for name, entry in result["metrics"].items():
            print(f"{workload} {name}: {entry.get('verdict', 'no pairs')}")
        counts = result["traced_counts"]
        if counts["seed"] is None:
            print(f"{workload} traced counts: no pairs")
            continue
        print(f"{workload} traced counts at seed {counts['seed']}: "
              f"{len(counts['metrics']) - len(counts['differ'])} of {len(counts['metrics'])} equal")
        for name in counts["differ"]:
            entry = counts["metrics"][name]
            print(f"{workload} {name} differs: parent {entry['parent']}, change {entry['change']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
