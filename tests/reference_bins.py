"""The per-boundary loops that ``caltest.binning`` replaced, and per-record binning.

``quantile_bins`` and ``bins_from_fit`` here place one boundary at a time
with ``_shifted_boundary``. They plainly follow their docstrings, so the
tests hold the vectorized boundary placement in ``caltest.binning`` to them
edge for edge. They are kept verbatim except for ``_edge``, the rounding
rule that ``caltest.binning`` follows too.

``assign`` places each record in its bin independently of any sort, so the
tests hold the sorted-segment ``partition`` to it.
"""
from __future__ import annotations

import numpy as np

from caltest.binning import IsotonicFit
from caltest.core import BinSet, Dataset


def assign(bins: BinSet, predictions: np.ndarray) -> np.ndarray:
    """Bin index for each prediction; boundary values go to the right bin."""
    interior = bins.edges[1:-1]
    return np.searchsorted(interior, predictions, side="right")


def _edge(low: float, high: float) -> float:
    """The midpoint of adjacent distinct predictions low < high, or high when
    the midpoint rounds onto low: a boundary at low would put low's group in
    the bin above, since bins are closed below."""
    mid = (low + high) / 2.0
    return float(mid if mid > low else high)


def _shifted_boundary(preds_sorted: np.ndarray, i: int) -> float | None:
    """Boundary between records i-1 and i, moved off tied prediction values.

    The natural boundary is the :func:`_edge` of the straddling predictions. When
    those are equal the midpoint would split a tie group, so the boundary
    moves to the nearest strictly increasing adjacent pair, rightward first
    and then leftward. Returns None when every prediction is identical.
    """
    value = preds_sorted[i]
    if preds_sorted[i - 1] < value:
        return _edge(preds_sorted[i - 1], value)
    right = int(np.searchsorted(preds_sorted, value, side="right"))
    if right < preds_sorted.size:  # first value above the tie group
        return _edge(value, preds_sorted[right])
    left = int(np.searchsorted(preds_sorted, value, side="left"))
    if left > 0:  # last value below the tie group
        return _edge(preds_sorted[left - 1], value)
    return None


def _bins_from_boundaries(boundaries: list[float]) -> BinSet:
    # A boundary at 1 is vacuous: the last bin is closed at 1.
    uniq = sorted({b for b in boundaries if b < 1.0})
    return BinSet.from_edges([0.0, *uniq, 1.0])


def quantile_bins(dataset: Dataset, num_bins: int) -> BinSet:
    """Bins holding near-equal record counts, cut at prediction midpoints.

    Cut positions sit at the j*N/num_bins order statistics; each boundary is
    the midpoint of the straddling sorted predictions, shifted off ties the
    same way as :func:`bins_from_fit`. Duplicate boundaries collapse, so the
    result can have fewer than num_bins bins.
    """
    if num_bins < 1:
        raise ValueError("need at least one bin")
    preds = dataset.sorted_predictions
    n = preds.size
    boundaries = []
    for j in range(1, num_bins):
        cut = (j * n) // num_bins
        if 0 < cut < n:
            b = _shifted_boundary(preds, cut)
            if b is not None:
                boundaries.append(b)
    return _bins_from_boundaries(boundaries)


def bins_from_fit(fit: IsotonicFit, preds_sorted) -> BinSet:
    """Bins with one boundary at each change point of the fitted sequence.

    Each boundary is the midpoint of the adjacent predictions straddling the
    change point; ties are shifted per :func:`_shifted_boundary` and duplicate
    boundaries collapse.
    """
    preds = np.asarray(preds_sorted, dtype=np.float64)
    if preds.shape[0] != fit.fitted.shape[0]:
        raise ValueError("fit and predictions must have equal length")
    if np.any(preds[1:] < preds[:-1]):
        raise ValueError("predictions must be sorted ascending")
    changes = np.flatnonzero(fit.fitted[1:] != fit.fitted[:-1]) + 1
    boundaries = []
    for i in changes.tolist():
        b = _shifted_boundary(preds, i)
        if b is not None:
            boundaries.append(b)
    return _bins_from_boundaries(boundaries)
