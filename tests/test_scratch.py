"""Ingest, scoring and diagrams run in the arrays a dataset holds plus scratch that does not grow with N.

tracemalloc counts numpy's buffers, so the peaks below are the arrays alive
at once. Ingest, whether it reads a block by the plain-decimal reader or
by loadtxt, holds no more than the 26 bytes per record that the scored
dataset will hold. After it, the scratch allowed to grow is the one table
of log j! that each binomial pass over a bin set builds, sized to its
largest bin, and that the binomial screen and the exact kernel both read:
8 bytes per record of that bin, built in place. Under the t-test it is a
bin's labels as float64 and the temporary of their standard deviation, 16
bytes per record of the bin, taken once per bin. A diagram reads each
bin's quartiles from the sorted view in place. A bin of ``pava_bc`` holds
at most n_max records.
"""
import tracemalloc

import numpy as np
import pytest

from caltest.binning import BinStrategy, build_bins
from caltest.cli import ingest, write_dataset_csv
from caltest.core import Dataset
from caltest.diagram import build_diagram, render_svg
from caltest.experiments import BatteryConfig, metric_battery, scenario_dataset
from caltest.stattest import TestConfig

SIZES = (100_000, 400_000)
SORT_SLACK = 64 * 1024  # bytes above 26 per record while the sorted view is built
SCORING_SLACK = 256 * 1024  # bytes of growth from the smaller size to the larger
INGEST_SLACK = 512 * 1024  # bytes above 26 per record: the reads of the file, loadtxt's buffers, a block's scratch


def scenario(n: int, tied: bool) -> Dataset:
    """The benchmark's scenario, or its predictions rounded to 99 values."""
    ds = scenario_dataset(0.5, 0.4, 14000, n, 0)
    return Dataset(np.round(ds.predictions, 2), ds.labels) if tied else ds


def traced_peak(run) -> int:
    """Highest traced bytes while run() runs, above the bytes traced when it began."""
    start = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    run()
    return tracemalloc.get_traced_memory()[1] - start


def score(ds: Dataset, cfg: TestConfig) -> None:
    metric_battery(ds, BatteryConfig(test=cfg))
    bins = build_bins(ds, BinStrategy())
    render_svg(build_diagram(ds, bins, cfg, "test_based"))


def scoring_scratch(tied: bool, cfg: TestConfig) -> dict[int, int]:
    """The traced scratch of scoring the scenario at each size under cfg."""
    tracemalloc.start()
    try:
        scratch = {}
        for n in SIZES:
            ds = scenario(n, tied)
            assert np.unique(ds.predictions).size == (99 if tied else n)
            # The dataset's own predictions and labels, 9 bytes per record, are
            # held already; the view adds 17 and no more is ever alive.
            sort_peak = traced_peak(lambda: ds.label_prefix)
            assert 9 * n + sort_peak <= 26 * n + SORT_SLACK
            scratch[n] = traced_peak(lambda: score(ds, cfg))
            del ds
    finally:
        tracemalloc.stop()
    return scratch


def n_max_growth() -> int:
    """Growth of the largest ``pava_bc`` bin from the smaller size to the larger."""
    n_max = {n: BinStrategy().resolve_sizes(n)[1] for n in SIZES}
    return n_max[SIZES[1]] - n_max[SIZES[0]]


@pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
def test_scoring_scratch_grows_only_with_the_kernel_tables(tied):
    scratch = scoring_scratch(tied, TestConfig())
    table_growth = 8 * n_max_growth()
    assert scratch[SIZES[1]] - scratch[SIZES[0]] <= table_growth + SCORING_SLACK


@pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
def test_t_test_scratch_grows_only_with_one_bin_of_labels(tied):
    import scipy.special  # noqa: F401  its first import traces about 14 MB

    scratch = scoring_scratch(tied, TestConfig("t"))
    labels_growth = 16 * n_max_growth()
    assert scratch[SIZES[1]] - scratch[SIZES[0]] <= labels_growth + SCORING_SLACK


@pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
def test_ingest_holds_no_more_than_the_scored_dataset(tmp_path, tied):
    """The plain-decimal file, its CRLF copy (loadtxt reads every block) and its ``.gz``-named copy."""
    for n in SIZES:
        path = tmp_path / "scores.csv"
        write_dataset_csv(scenario(n, tied), path)
        crlf = tmp_path / "scores_crlf.csv"
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        gz_name = tmp_path / "scores.csv.gz"  # plain text under a name numpy would decompress
        gz_name.write_bytes(path.read_bytes())
        tracemalloc.start()
        try:
            peaks = [traced_peak(lambda: ingest(p)) for p in (path, crlf, gz_name)]
        finally:
            tracemalloc.stop()
        assert max(peaks) <= 26 * n + INGEST_SLACK, peaks
