"""Properties of the sorted-segment data path.

Each dataset is sorted once; a bin set becomes cut offsets into that sorted
view. These tests hold the segment path to per-record references built from
``reference_bins.assign``, which places every record independently of any sort.
"""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_bins import assign

from caltest.binning import BinStrategy, build_bins, total_error, within_bin_error_avg
from caltest.core import BinSet, Dataset, partition
from caltest.diagram import build_diagram
from caltest.experiments import metric_battery
from caltest.stattest import TestConfig

unit = st.floats(0.0, 1.0, allow_nan=False)

# -0.0 ties with 0.0 but differs in bits; the others sit at or next to the ends.
EDGE_VALUES = [0.0, -0.0, 5e-324, float(np.nextafter(1.0, 0.0)), 1.0]


@st.composite
def tied_dataset_and_bins(draw):
    """Few distinct predictions (heavy ties, 0 and 1 included) and bin edges
    that often sit exactly on a prediction value."""
    pool = draw(st.lists(unit, min_size=1, max_size=5)) + [0.0, 1.0]
    n = draw(st.integers(1, 60))
    preds = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    edges = draw(st.lists(st.one_of(st.sampled_from(pool), unit), max_size=6))
    interior = sorted({e for e in edges if 0.0 < e < 1.0})
    return Dataset(np.array(preds), np.array(labels)), BinSet.from_edges([0.0, *interior, 1.0])


@settings(max_examples=300, deadline=None)
@given(tied_dataset_and_bins())
def test_partition_matches_assign_reference(case):
    ds, bins = case
    idx = assign(bins, ds.predictions)
    b = len(bins)
    binned = partition(ds, bins)
    assert binned.counts.tolist() == np.bincount(idx, minlength=b).tolist()
    ref_sums = np.bincount(idx, weights=ds.labels, minlength=b)
    assert binned.label_sums.tolist() == ref_sums.astype(np.int64).tolist()
    ref_pred_sums = np.bincount(idx, weights=ds.predictions, minlength=b)
    filled = binned.counts > 0
    assert np.allclose(
        binned.mean_prediction[filled],
        ref_pred_sums[filled] / binned.counts[filled],
        rtol=1e-12,
        atol=0.0,
    )
    for k in range(b):
        assert sorted(binned.labels_in(k).tolist()) == sorted(ds.labels[idx == k].tolist())
        assert sorted(binned.predictions_in(k).tolist()) == sorted(
            ds.predictions[idx == k].tolist()
        )


def loop_errors(ds: Dataset, bins: BinSet) -> tuple[float, float]:
    """Per-record reference: (size-weighted, unweighted) mean within-bin variance."""
    idx = assign(bins, ds.predictions)
    sq, sizes = [], []
    for b in range(len(bins)):
        y = ds.labels[idx == b]
        if y.size:
            sq.append(float(np.sum((y - y.sum() / y.size) ** 2)))
            sizes.append(y.size)
    return sum(sq) / ds.n, float(np.mean([s / n for s, n in zip(sq, sizes)]))


@settings(max_examples=300, deadline=None)
@given(tied_dataset_and_bins())
def test_binning_errors_match_per_record_loop(case):
    ds, bins = case
    total_ref, avg_ref = loop_errors(ds, bins)
    assert abs(total_error(ds, bins) - total_ref) <= 1e-12
    assert abs(within_bin_error_avg(ds, bins) - avg_ref) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.lists(unit, min_size=1, max_size=80, unique=True).flatmap(
    lambda preds: st.tuples(
        st.just(preds),
        st.lists(st.integers(0, 1), min_size=len(preds), max_size=len(preds)),
        st.permutations(range(len(preds))),
    )
))
def test_battery_invariant_under_row_permutation(case):
    preds, labels, perm = case
    ds = Dataset(np.array(preds), np.array(labels))
    shuffled = Dataset(ds.predictions[list(perm)], ds.labels[list(perm)])
    for kind in ("quantile", "pava", "pava_bc"):
        edges = build_bins(ds, BinStrategy(kind)).edges
        assert edges.tolist() == build_bins(shuffled, BinStrategy(kind)).edges.tolist()
    a, b = metric_battery(ds), metric_battery(shuffled)
    for column in ("TCE", "TCE(Q)", "TCE(V)"):
        assert a[column] == b[column]
    for column in ("ECE", "ACE", "MCE", "MCE(Q)"):
        assert abs(a[column] - b[column]) <= 1e-12


def test_dataset_is_sorted_once_and_lazily(monkeypatch):
    rng = np.random.default_rng(5)
    ds = Dataset(rng.random(500), rng.integers(0, 2, 500))
    calls = []
    argsort = np.argsort

    def counting_argsort(*args, **kwargs):
        calls.append(1)
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting_argsort)
    metric_battery(ds)
    metric_battery(ds)
    assert len(calls) == 1


@st.composite
def tie_heavy_records(draw):
    """Predictions drawn from a few values, mostly the edge values, in any order."""
    levels = draw(st.lists(st.sampled_from(EDGE_VALUES) | unit, min_size=1, max_size=6))
    preds = draw(st.lists(st.sampled_from(levels), min_size=1, max_size=400))
    labels = draw(st.lists(st.integers(0, 1), min_size=len(preds), max_size=len(preds)))
    return preds, labels


@settings(max_examples=300, deadline=None)
@given(tie_heavy_records())
@example(([-0.0], [1]))
@example(([0.5] * 300, [k % 2 for k in range(300)]))
@example(([0.5 if k % 7 == 0 else 0.0 if k % 3 == 0 else -0.0 for k in range(300)], [1] * 300))
def test_sorted_view_matches_stable_sort(case):
    ds = Dataset(np.array(case[0]), np.array(case[1]))
    order = np.argsort(ds.predictions, kind="stable")
    assert ds.sorted_predictions.tobytes() == ds.predictions[order].tobytes()
    assert np.array_equal(ds.sorted_labels, ds.labels[order])
    assert np.array_equal(ds.label_prefix, np.concatenate(([0], np.cumsum(ds.sorted_labels))))


def held_bytes(ds):
    """Bytes of the numpy arrays a dataset holds: its fields and cached values, tuples included."""
    values = [v for value in vars(ds).values()
              for v in (value if isinstance(value, tuple) else (value,))]
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


def test_a_scored_dataset_keeps_26_bytes_per_record():
    """Predictions and their sorted copy 8 bytes each, labels and theirs 1, prefix sums 8."""
    rng = np.random.default_rng(16)
    n = 20_000
    preds = rng.random(n)
    preds[::5] = np.round(preds[::5], 2)  # some ties
    labels = (rng.random(n) < preds).astype(np.int64)

    def diagram(ds):
        return build_diagram(ds, build_bins(ds, BinStrategy()), TestConfig(), "test_based")
    for score in (metric_battery, diagram):
        ds = Dataset(preds, labels)
        score(ds)
        assert ds.labels.dtype == np.int8
        assert held_bytes(ds) == 26 * n + 8
