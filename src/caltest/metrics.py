"""Calibration error metrics over binned predictions.

Every metric here is an instance of one scheme (``gce``): compute a per-bin
loss, then aggregate the per-bin losses with a norm. The absolute-gap metrics
(ECE, ACE, MCE) use |label mean - prediction mean| per bin; the test-based
metric uses the percentage of predictions in the bin rejected by a test
against the bin's labels, settled per bin from the test's bounds and run by
run only where they leave it open, which keeps its value on a fixed [0, 100]
scale regardless of class prevalence.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np

from .binning import BinStrategy, build_bins, quantile_bins, equispaced_bins
from .core import Bin, BinSet, Dataset, partition
from .stattest import TestConfig, rejection_test

__all__ = [
    "BinMetric",
    "MetricReport",
    "gce",
    "ece",
    "ace",
    "mce",
    "tce",
    "tce_variants",
    "tce_classwise",
]

NORMS = ("weighted_l1", "sup")


@dataclass(frozen=True)
class BinMetric:
    """Per-bin slice of a metric report; statistics are NaN for empty bins."""

    bin: Bin
    count: int
    empirical_prob: float
    mean_prediction: float
    loss: float


@dataclass(frozen=True)
class MetricReport:
    name: str
    value: float
    per_bin: tuple[BinMetric, ...]
    config: Mapping[str, object]


def _aggregate(losses: np.ndarray, counts: np.ndarray, norm: str) -> float:
    """Aggregate per-bin losses; empty bins carry zero weight and are excluded from sup.

    The weighted 1-norm divides once by the record count, after summing
    count * |loss|, so it cannot round above the largest loss: TCE stays
    within [0, 100] even when every bin rejects everything.
    """
    if norm not in NORMS:
        raise ValueError(f"unknown norm {norm!r}; expected one of {NORMS}")
    filled = counts > 0
    if not np.any(filled):
        raise ValueError("all bins are empty")
    if norm == "weighted_l1":
        return float(np.sum(counts[filled] * np.abs(losses[filled])) / np.sum(counts))
    return float(np.max(np.abs(losses[filled])))


def _report(name, binned, losses, norm, config) -> MetricReport:
    value = _aggregate(losses, binned.counts, norm)
    per_bin = tuple(
        BinMetric(
            bin=binned.bins.bins[b],
            count=int(binned.counts[b]),
            empirical_prob=float(binned.empirical_prob[b]),
            mean_prediction=float(binned.mean_prediction[b]),
            loss=float(losses[b]),
        )
        for b in range(len(binned.bins))
    )
    return MetricReport(name=name, value=value, per_bin=per_bin, config=dict(config))


def gce(
    dataset: Dataset,
    bins: BinSet,
    loss: Callable[[np.ndarray, np.ndarray], float],
    norm: str = "weighted_l1",
    name: str = "GCE",
) -> MetricReport:
    """Generic per-bin-loss metric: ``norm`` applied to ``loss(labels_b, preds_b)``.

    The loss receives each non-empty bin's labels (int8) and predictions
    (float64) as read-only arrays in ascending-prediction order; empty bins
    are skipped with zero weight.
    """
    binned = partition(dataset, bins)
    losses = np.full(len(bins), np.nan)
    for b in range(len(bins)):
        if binned.counts[b] > 0:
            losses[b] = loss(binned.labels_in(b), binned.predictions_in(b))
    return _report(name, binned, losses, norm, {"norm": norm})


def _gap_metric(dataset, bins, norm, name, config) -> MetricReport:
    binned = partition(dataset, bins)
    losses = np.abs(binned.empirical_prob - binned.mean_prediction)
    return _report(name, binned, losses, norm, config)


def ece(dataset: Dataset, num_bins: int = BinStrategy.num_bins) -> MetricReport:
    """Expected calibration error: size-weighted |label mean - prediction mean|
    over equispaced bins."""
    return _gap_metric(
        dataset,
        equispaced_bins(num_bins),
        "weighted_l1",
        "ECE",
        {"bins": "equispaced", "num_bins": num_bins},
    )


def ace(dataset: Dataset, num_bins: int = BinStrategy.num_bins) -> MetricReport:
    """Adaptive calibration error: the ECE formula over quantile bins."""
    return _gap_metric(
        dataset,
        quantile_bins(dataset, num_bins),
        "weighted_l1",
        "ACE",
        {"bins": "quantile", "num_bins": num_bins},
    )


def mce(
    dataset: Dataset, num_bins: int = BinStrategy.num_bins, bins_kind: str = "equispaced"
) -> MetricReport:
    """Maximum calibration error: the worst per-bin gap over non-empty bins."""
    if bins_kind == "equispaced":
        bins = equispaced_bins(num_bins)
        name = "MCE"
    elif bins_kind == "quantile":
        bins = quantile_bins(dataset, num_bins)
        name = "MCE(Q)"
    else:
        raise ValueError(f"unsupported bins_kind {bins_kind!r}")
    return _gap_metric(dataset, bins, "sup", name, {"bins": bins_kind, "num_bins": num_bins})


# Records per chunk of the walk over the runs of equal predictions.
_RUN_CHUNK = 1 << 14


def _runs(preds: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """The runs of equal predictions in the slices ``preds[starts[i]:ends[i]]``, in chunks:
    values, lengths and the slice of each run.

    The slices are ascending and disjoint, and each is cut between runs.
    Each chunk looks at up to ``_RUN_CHUNK`` records of the slices, in order,
    and ends where the run of its last record ends, found by binary search,
    so its arrays stay that small however long the runs are. Each value is
    its run's first record.
    """
    sizes = ends - starts
    before = np.cumsum(sizes) - sizes  # records of the slices before each
    walked, total = 0, int(sizes.sum())
    while walked < total:
        first = int(before.searchsorted(walked, side="right")) - 1
        last = int(before.searchsorted(walked + _RUN_CHUNK))
        lo = starts[first:last].copy()
        lo[0] += walked - before[first]
        lengths = ends[first:last] - lo
        end = int(ends[last - 1])
        seen = min(end, int(starts[last - 1] + walked + _RUN_CHUNK - before[last - 1]))
        if seen < end:  # the chunk ends where the run of its last record ends
            lengths[-1] = seen - lo[-1]
            end = min(end, int(preds.searchsorted(preds[seen - 1], side="right")))
        pieces = lengths.cumsum() - lengths  # where each slice opens in the chunk
        count, start = int(pieces[-1] + lengths[-1]), int(lo[0])
        if seen - start == count:  # the slices touch: read them in place
            part = preds[start:seen]
        else:
            part = np.concatenate([preds[a : a + m] for a, m in zip(lo.tolist(), lengths.tolist())])
        # Slices are cut between runs, so a run opens wherever the value changes.
        firsts = np.flatnonzero(np.concatenate(([True], part[1:] != part[:-1])))
        runs = np.diff(firsts, append=count + end - seen)
        values, at = part[firsts], first - 1 + pieces.searchsorted(firsts, side="right")
        del part, firsts  # not held while the chunk is decided
        yield values, runs, at
        walked = int(before[last - 1] + end - starts[last - 1])


def tce(
    dataset: Dataset,
    bins: BinSet,
    cfg: TestConfig = TestConfig(),
    norm: str = "weighted_l1",
    name: str = "TCE",
) -> MetricReport:
    """Test-based calibration error: per-bin rejection percentages aggregated by the norm.

    Each prediction is tested as the hypothesized probability for the full
    label set of its bin, own outcome included. The binomial test
    (:func:`~caltest.stattest.rejection_test`) settles whole stretches of
    each bin's sorted predictions from its bounds: on each side of the bin's
    k/n, float x = k log q + (n - k) log(1 - q) is monotone but for its
    error e = 64 eps (log n! + n M + 1), so every prediction past where x
    crosses a bound by 2e is decided as its own x decides it. A walk over
    the slices left, the windows that hold the band (:func:`_runs`), hands
    each chunk of runs to the test's decision, each run of equal values
    tested once. Under the weighted 1-norm the value equals 100 times the
    overall fraction of predictions rejected, so it always lies in [0, 100].
    """
    binned = partition(dataset, bins)
    cuts, counts, preds = binned.cuts, binned.counts, dataset.sorted_predictions
    test = rejection_test(cfg, preds, cuts, binned.label_sums, binned.labels_in)
    rejected = (test.below - cuts[:-1]) + (cuts[1:] - test.above)
    for values, lengths, at in _runs(preds, test.starts, test.ends):
        owners = test.owners[at]
        hits = lengths * test.rejects(owners, values)
        rejected += np.bincount(owners, hits, len(bins)).astype(np.int64)
    losses = 100.0 * np.divide(rejected, counts, out=np.full(len(bins), np.nan), where=counts > 0)
    config = {"test": cfg.kind, "alpha": cfg.alpha, "norm": norm, "num_bins": len(bins)}
    return _report(name, binned, losses, norm, config)


def tce_variants(
    dataset: Dataset,
    cfg: TestConfig = TestConfig(),
    num_bins: int = BinStrategy.num_bins,
    nmin_frac: float = BinStrategy.nmin_frac,
    nmax_frac: float = BinStrategy.nmax_frac,
    n_min: int | None = None,
    n_max: int | None = None,
    norm: str = "weighted_l1",
) -> dict[str, MetricReport]:
    """The test-based metric under its three bin constructions.

    TCE(P) uses block-constrained fits, TCE(Q) quantile bins, TCE(V) the
    unconstrained fit.
    """
    strategies = {
        "TCE(P)": BinStrategy(
            "pava_bc", nmin_frac=nmin_frac, nmax_frac=nmax_frac, n_min=n_min, n_max=n_max
        ),
        "TCE(Q)": BinStrategy("quantile", num_bins=num_bins),
        "TCE(V)": BinStrategy("pava"),
    }
    out = {}
    for label, strategy in strategies.items():
        bins = build_bins(dataset, strategy)
        report = tce(dataset, bins, cfg, norm=norm, name=label)
        out[label] = replace(report, config={**report.config, "bins": strategy.kind})
    return out


def tce_classwise(
    probabilities: np.ndarray,
    labels: np.ndarray,
    cfg: TestConfig = TestConfig(),
    strategy: BinStrategy = BinStrategy(),
    norm: str = "weighted_l1",
) -> float:
    """One-vs-rest extension to multi-class: the mean of the binary metric
    over classes, with bins rebuilt per class under the given strategy.

    ``probabilities`` is an (N, K) row-stochastic matrix and ``labels`` holds
    class indices 0..K-1 aligned with its columns.
    """
    probs = np.asarray(probabilities, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.ndim != 2 or probs.shape[1] < 2:
        raise ValueError("probabilities must be an (N, K) matrix with K >= 2")
    if np.any(np.abs(probs.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError("probability rows must sum to 1 within 1e-9")
    if np.any(probs < 0.0) or np.any(probs > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    k = probs.shape[1]
    if np.any((labels < 0) | (labels >= k)):
        raise ValueError("labels must be class indices in [0, K)")
    values = []
    for c in range(k):
        binary = Dataset(probs[:, c], labels == c)
        bins = build_bins(binary, strategy)
        values.append(tce(binary, bins, cfg, norm=norm).value)
    return float(np.mean(values))
