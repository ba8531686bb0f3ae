"""Every bin boundary lands on the tie-group boundary its fit or quantile asked for."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caltest.binning import BinStrategy, _bins_at_cuts, build_bins, pava, pava_bc
from caltest.core import Dataset, partition

# Endpoints and their nearest floats; each drawn level also brings its two
# float neighbours, whose midpoints round onto one side or the other.
EDGE_VALUES = [0.0, 5e-324, float(np.nextafter(1.0, 0.0)), 1.0]


@st.composite
def adjacent_float_datasets(draw):
    bases = draw(st.lists(st.sampled_from(EDGE_VALUES) | st.floats(0.0, 1.0), min_size=1, max_size=4))
    levels = sorted({float(np.nextafter(b, to)) for b in bases for to in (0.0, 1.0)} | set(bases))
    n = draw(st.integers(1, 60))
    preds = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return Dataset(np.array(preds), np.array(labels))


def asked_boundaries(preds: np.ndarray, cuts) -> set[int]:
    """The tie-group boundary for each cut i, as the binning docstrings state it:
    the start of p[i]'s group when i opens it or nothing lies above it, else its end.
    c = 0 and boundaries whose edge would be 1.0 give no bin boundary."""
    out = set()
    for i in cuts:
        left = int(np.searchsorted(preds, preds[i], side="left"))
        right = int(np.searchsorted(preds, preds[i], side="right"))
        c = left if left == i or right == preds.size else right
        low = preds[c - 1]
        at_one = preds[c] == 1.0 and not low < (low + 1.0) / 2.0 < 1.0
        if c > 0 and not at_one:
            out.add(c)
    return out


def changes(fit) -> np.ndarray:
    return np.flatnonzero(fit.fitted[1:] != fit.fitted[:-1]) + 1


@settings(max_examples=300, deadline=None)
@given(ds=adjacent_float_datasets(), num_bins=st.integers(1, 12), fracs=st.sampled_from(
    [(0.05, 0.2), (0.0, 1.0), (0.1, 0.3)]))
def test_partition_cuts_where_the_bins_asked(ds, num_bins, fracs):
    preds, labels, n = ds.sorted_predictions, ds.sorted_labels, ds.n
    bc = BinStrategy("pava_bc", nmin_frac=fracs[0], nmax_frac=fracs[1])
    asked = {
        BinStrategy("quantile", num_bins=num_bins): np.arange(1, min(num_bins, n)) * n // min(num_bins, n),
        BinStrategy("pava"): changes(pava(labels)),
        bc: changes(pava_bc(labels, *bc.resolve_sizes(n))),
    }
    for strategy, cuts in asked.items():
        binned = partition(ds, build_bins(ds, strategy))
        assert set(binned.cuts[1:-1].tolist()) == asked_boundaries(preds, cuts), strategy


@pytest.mark.parametrize("low", [0.1, 0.25, 0.3, 0.5, 0.7, 0.0])
def test_adjacent_float_groups_keep_their_bins(low):
    # The midpoint of low and the next float rounds onto low for most low.
    preds = np.array([low] * 5 + [np.nextafter(low, 1.0)] * 5)
    ds = Dataset(preds, np.array([0] * 5 + [1] * 5))
    for strategy in (BinStrategy("pava"), BinStrategy("quantile", num_bins=2)):
        assert partition(ds, build_bins(ds, strategy)).counts.tolist() == [5, 5]


def unique_edges(preds: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """The edges ``_bins_at_cuts`` gave when it collapsed duplicates with ``np.unique``."""
    n = preds.size
    left = np.searchsorted(preds, preds[cuts], side="left")
    right = np.searchsorted(preds, preds[cuts], side="right")
    c = np.where((left == cuts) | (right == n), left, right)
    c = c[c > 0]
    low, high = preds[c - 1], preds[c]
    mids = (low + high) / 2.0
    edges = np.where(mids > low, mids, high)
    return np.concatenate(([0.0], np.unique(edges[edges < 1.0]), [1.0]))


@st.composite
def tied_cuts(draw):
    """Sorted predictions over a few levels, 0.0 and 1.0 among them, and ascending cuts."""
    levels = [0.0, 1.0, *draw(st.lists(st.sampled_from(EDGE_VALUES) | st.floats(0.0, 1.0), max_size=4))]
    n = draw(st.integers(1, 80))
    preds = np.sort(np.array(draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))))
    drawn = draw(st.lists(st.integers(1, n - 1), max_size=12)) if n > 1 else []
    cuts = np.sort(np.array(drawn, dtype=np.int64))
    return preds, cuts


@settings(max_examples=300, deadline=None)
@given(tied_cuts())
def test_bins_at_cuts_matches_the_unique_formula(case):
    preds, cuts = case
    assert _bins_at_cuts(preds, cuts).edges.tobytes() == unique_edges(preds, cuts).tobytes()
