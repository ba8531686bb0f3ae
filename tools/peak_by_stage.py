"""Print the peak memory of one process after each stage of scoring a CSV file.

    PYTHONPATH=src python3 tools/peak_by_stage.py scores.csv

The stages run in one process, in the order a ``caltest compute`` call and
then a ``caltest diagram --kind test-based`` call run them, each with the
CLI defaults: import ``caltest.cli``; ingest the file; build the dataset's
sorted view; each TCE variant's bins, then its tests; the whole metric
battery; and the diagram's bins, its build and its rendering. After each
stage it prints, as a markdown table, ``ru_maxrss`` (the peak resident set
so far, in MiB), its rise over the stage, the stage's scratch and its wall
seconds. The peak only rises, so a stage shows in it only where it goes
above every stage before it. The scratch column shows every stage: it is
the highest ``tracemalloc`` count during the stage above the count when the
stage began, so it holds the stage's temporary arrays and what the stage
keeps. Tracing starts after the import and slows the later stages a little.
Last it prints the bytes of the numpy arrays that the dataset holds, cached
values included, and those bytes per record.
"""
from __future__ import annotations

import argparse
import importlib
import resource
import time
import tracemalloc
from contextlib import contextmanager


def peak_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def held_bytes(obj) -> int:
    """Bytes of the numpy arrays among an object's attributes, arrays in a tuple included."""
    total = 0
    for value in vars(obj).values():
        for item in value if isinstance(value, tuple) else (value,):
            total += getattr(item, "nbytes", 0)
    return total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("csv", help="a prediction,label file, as caltest compute reads it")
    path = parser.parse_args(argv).csv

    print("| stage | peak MiB | rise MiB | scratch MiB | seconds |")
    print("|---|---|---|---|---|")
    print(f"| interpreter | {peak_mib():.1f} | | | |")

    @contextmanager
    def stage(name: str):
        held = tracemalloc.get_traced_memory()[0] if tracemalloc.is_tracing() else None
        tracemalloc.reset_peak()
        before, start = peak_mib(), time.perf_counter()
        yield
        seconds, peak = time.perf_counter() - start, peak_mib()
        scratch = "" if held is None else f"{(tracemalloc.get_traced_memory()[1] - held) / 2**20:+.2f}"
        print(f"| {name} | {peak:.1f} | {peak - before:+.1f} | {scratch} | {seconds:.3f} |",
              flush=True)

    with stage("import caltest.cli"):
        cli = importlib.import_module("caltest.cli")
    from caltest import binning, diagram, experiments, metrics, stattest

    tracemalloc.start()
    with stage("ingest"):
        dataset = cli.ingest(path)
    with stage("sorted view"):
        dataset.label_prefix  # sorts the dataset first
    strategies = {"TCE(P)": "pava_bc", "TCE(Q)": "quantile", "TCE(V)": "pava"}
    for name, kind in strategies.items():
        with stage(f"{name} bins"):
            bins = binning.build_bins(dataset, binning.BinStrategy(kind))
        with stage(f"{name} tests"):
            metrics.tce(dataset, bins, stattest.TestConfig(), name=name)
    with stage("metric_battery"):
        experiments.metric_battery(dataset)
    with stage("diagram bins"):
        bins = binning.build_bins(dataset, binning.BinStrategy())
    with stage("build_diagram"):
        spec = diagram.build_diagram(dataset, bins, stattest.TestConfig(), "test_based")
    with stage("render_svg"):
        diagram.render_svg(spec)
    tracemalloc.stop()

    held = held_bytes(dataset)
    print(f"\ndataset arrays: {held} bytes for {dataset.n} records,"
          f" {held / dataset.n:.2f} bytes per record")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
