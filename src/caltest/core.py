"""Shared data model: prediction/label datasets, bins over [0, 1], and binned summaries."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["Dataset", "Bin", "BinSet", "BinnedData", "partition"]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Dataset:
    """Paired model predictions in [0, 1] and binary labels.

    The constructor validates float64 copies of the predictions and int8 copies
    of the labels and makes them read-only, so instances can be shared freely
    across threads and the caller's arrays stay the caller's. Out-of-range
    predictions are rejected rather than clamped; silent clamping would hide
    upstream bugs.

    The view sorted ascending by prediction (``sorted_predictions``,
    ``sorted_labels``, ``label_prefix``) is built on first use and kept, so each
    dataset is sorted at most once: 26 bytes per record with the arrays above.
    It is not built in the constructor, where the sort would overlap the
    caller's peak memory (ingest's parsed table); the sort permutation is
    not kept with it. Datasets compare and hash by identity.
    """

    predictions: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        preds = np.array(self.predictions, dtype=np.float64)
        labels = np.ascontiguousarray(self.labels)
        _check(preds, labels)
        object.__setattr__(self, "predictions", _frozen(preds))
        object.__setattr__(self, "labels", _frozen(labels.astype(np.int8)))

    @classmethod
    def _adopt(cls, predictions: np.ndarray, labels: np.ndarray) -> "Dataset":
        """A dataset that holds these fresh arrays themselves, as float64 and int8.

        For ingest, whose arrays nothing else holds: they are checked as the
        constructor checks its copies and made read-only, and not copied.
        """
        preds = np.ascontiguousarray(predictions, dtype=np.float64)
        _check(preds, labels)
        labels = np.ascontiguousarray(labels, dtype=np.int8)
        dataset = object.__new__(cls)
        object.__setattr__(dataset, "predictions", _frozen(preds))
        object.__setattr__(dataset, "labels", _frozen(labels))
        return dataset

    @property
    def n(self) -> int:
        return int(self.predictions.shape[0])

    @property
    def prevalence(self) -> float:
        return float(self.labels.mean())

    @cached_property
    def _sorted(self) -> tuple[np.ndarray, np.ndarray]:
        order, preds = _sort(self.predictions)
        return _frozen(preds), _frozen(self.labels[order])

    @property
    def sorted_predictions(self) -> np.ndarray:
        return self._sorted[0]

    @property
    def sorted_labels(self) -> np.ndarray:
        return self._sorted[1]

    @cached_property
    def label_prefix(self) -> np.ndarray:
        """Exact integer label sums of the sorted prefixes: entry i covers the first i records."""
        return _frozen(_prefix_sums(self.sorted_labels))


def _check(preds: np.ndarray, labels: np.ndarray) -> None:
    if preds.ndim != 1 or labels.ndim != 1:
        raise ValueError("predictions and labels must be one-dimensional")
    if preds.shape[0] != labels.shape[0]:
        raise ValueError(
            f"length mismatch: {preds.shape[0]} predictions vs {labels.shape[0]} labels"
        )
    if preds.shape[0] == 0:
        raise ValueError("dataset must contain at least one record")
    if not np.all(np.isfinite(preds)):
        raise ValueError("predictions must be finite")
    if np.any(preds < 0.0) or np.any(preds > 1.0):
        raise ValueError("predictions must lie in [0, 1]")
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be 0 or 1")


def json_safe(obj):
    """Copy of a JSON payload with non-finite floats as null and tuples as lists."""
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    return obj


def _prefix_sums(values: np.ndarray) -> np.ndarray:
    """[0, v[0], v[0] + v[1], ...] as int64, for integer or boolean values.

    The values are copied into the output and summed there in place: a
    cumsum with ``dtype=np.int64`` would first cast its whole input.
    """
    out = np.empty(values.size + 1, dtype=np.int64)
    out[0] = 0
    out[1:] = values
    np.cumsum(out, out=out)
    return out


def _sort(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices that sort values ascending, stable on ties, and the sorted values.

    numpy's default argsort (SIMD where the CPU allows) is several times
    faster than its stable sort but may permute a tie group. Where ties exist
    they are put back in index order by sorting the keys g*N + i, g being the
    rank of record i's tie group among the distinct values: keys stay below
    N**2, so N must stay below 3e9. The values are then gathered again, since
    -0.0 and 0.0 tie but differ in their bits.
    """
    order = np.argsort(values)
    ordered = values[order]
    opens = ordered[1:] != ordered[:-1]  # where a tie group opens
    if not opens.all():  # some value is tied
        del ordered
        group = _prefix_sums(opens)
        del opens
        group *= order.size
        order += group
        order.sort()
        order -= group
        del group
        ordered = values[order]
    return order, ordered


@dataclass(frozen=True)
class Bin:
    """One interval of prediction values: [lower, upper), or [lower, upper] when closed."""

    lower: float
    upper: float
    closed_upper: bool = False

    def __post_init__(self) -> None:
        if not (0.0 <= self.lower < self.upper <= 1.0):
            raise ValueError(f"invalid bin interval [{self.lower}, {self.upper}]")

    def __str__(self) -> str:
        right = "]" if self.closed_upper else ")"
        return f"[{self.lower:.6g}, {self.upper:.6g}{right}"


@dataclass(frozen=True)
class BinSet:
    """Ordered, disjoint, contiguous bins whose union is exactly [0, 1].

    Every bin is half-open [L, R) except the last, which is closed [L, 1.0]
    so that a prediction of exactly 1 is assignable.
    """

    bins: tuple[Bin, ...]

    def __post_init__(self) -> None:
        bins = tuple(self.bins)
        if not bins:
            raise ValueError("a bin set needs at least one bin")
        if bins[0].lower != 0.0:
            raise ValueError("first bin must start at 0")
        if bins[-1].upper != 1.0 or not bins[-1].closed_upper:
            raise ValueError("last bin must be closed at 1")
        for left, right in zip(bins, bins[1:]):
            if left.closed_upper:
                raise ValueError("only the last bin may be closed")
            if left.upper != right.lower:
                raise ValueError("bins must be contiguous")
        object.__setattr__(self, "bins", bins)

    @classmethod
    def from_edges(cls, edges) -> "BinSet":
        """Build a bin set from a full strictly increasing edge list [0, ..., 1]."""
        e = [float(v) for v in edges]
        if len(e) < 2 or e[0] != 0.0 or e[-1] != 1.0:
            raise ValueError("edges must run from 0 to 1")
        if any(a >= b for a, b in zip(e, e[1:])):
            raise ValueError("edges must be strictly increasing")
        bins = [Bin(a, b) for a, b in zip(e[:-2], e[1:-1])]
        bins.append(Bin(e[-2], e[-1], closed_upper=True))
        return cls(tuple(bins))

    @property
    def edges(self) -> np.ndarray:
        return np.array([b.lower for b in self.bins] + [1.0])

    def __len__(self) -> int:
        return len(self.bins)


@dataclass(frozen=True, eq=False)
class BinnedData:
    """Per-bin segments and summary statistics for one (dataset, bins) pair.

    Bin b holds the records at positions ``cuts[b]:cuts[b + 1]`` of the
    dataset's sorted view. Empty bins are retained with count 0 and NaN
    statistics. Instances compare and hash by identity.
    """

    dataset: Dataset
    bins: BinSet
    cuts: np.ndarray
    counts: np.ndarray
    label_sums: np.ndarray
    empirical_prob: np.ndarray
    mean_prediction: np.ndarray

    def labels_in(self, b: int) -> np.ndarray:
        return self.dataset.sorted_labels[self.cuts[b] : self.cuts[b + 1]]

    def predictions_in(self, b: int) -> np.ndarray:
        return self.dataset.sorted_predictions[self.cuts[b] : self.cuts[b + 1]]


def partition(dataset: Dataset, bins: BinSet) -> BinnedData:
    """Split a dataset into per-bin segments with counts, label means, and prediction means.

    Every record lands in exactly one bin; a prediction on an interior edge
    goes to the bin above it, since bins are closed below. The per-bin label
    mean is the estimated probability of the positive class for predictions
    in that bin.
    """
    preds = dataset.sorted_predictions
    interior = np.searchsorted(preds, bins.edges[1:-1], side="left")
    cuts = np.concatenate(([0], interior, [dataset.n]))
    counts = np.diff(cuts)
    label_sums = np.diff(dataset.label_prefix[cuts])
    filled = counts > 0
    pred_sums = np.zeros(len(bins))
    # Starts of consecutive non-empty bins delimit exactly their segments.
    pred_sums[filled] = np.add.reduceat(preds, cuts[:-1][filled])
    with np.errstate(invalid="ignore", divide="ignore"):
        empirical = np.where(filled, label_sums / np.maximum(counts, 1), np.nan)
        mean_pred = np.where(filled, pred_sums / np.maximum(counts, 1), np.nan)
    return BinnedData(
        dataset=dataset,
        bins=bins,
        cuts=_frozen(cuts),
        counts=_frozen(counts),
        label_sums=_frozen(label_sums),
        empirical_prob=_frozen(empirical),
        mean_prediction=_frozen(mean_pred),
    )
