import tracemalloc
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_bins import assign
from reference_bins import bins_from_fit as loop_bins_from_fit
from reference_bins import quantile_bins as loop_quantile_bins
from reference_pava import pava as loop_pava
from reference_optimal import block_error, constrained_optimal
from reference_pava import pava_bc as loop_pava_bc

from caltest import binning
from caltest.binning import (
    BinStrategy,
    IsotonicFit,
    bins_from_fit,
    brute_force_optimal,
    build_bins,
    equispaced_bins,
    monotonicity_report,
    pava,
    pava_bc,
    quantile_bins,
    total_error,
    within_bin_error_avg,
)
from caltest.core import BinSet, Dataset, partition


def make_fit(sums, lengths):
    lengths = np.asarray(lengths, dtype=np.int64)
    sums = np.asarray(sums, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    return IsotonicFit(
        fitted=np.repeat(sums / lengths, lengths),
        block_starts=starts,
        block_lengths=lengths,
        block_label_sums=sums,
    )


def test_equispaced_examples():
    assert equispaced_bins(2).edges.tolist() == [0.0, 0.5, 1.0]
    assert equispaced_bins(1).edges.tolist() == [0.0, 1.0]
    edges = equispaced_bins(10).edges
    assert edges.tolist() == [k / 10 for k in range(11)]
    with pytest.raises(ValueError):
        equispaced_bins(0)


def test_quantile_examples():
    ds = Dataset(np.array([0.1, 0.2, 0.3, 0.4]), np.array([0, 0, 1, 1]))
    assert quantile_bins(ds, 2).edges.tolist() == [0.0, 0.25, 1.0]

    tied = Dataset(np.full(9, 0.7), np.zeros(9, dtype=int))
    assert quantile_bins(tied, 5).edges.tolist() == [0.0, 1.0]

    assert quantile_bins(ds, 1).edges.tolist() == [0.0, 1.0]
    with pytest.raises(ValueError, match="need at least one bin"):
        quantile_bins(ds, 0)


def test_quantile_never_splits_ties():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(2, 120))
        preds = rng.integers(0, 6, n) / 6 + 1 / 12  # heavy ties
        ds = Dataset(preds, rng.integers(0, 2, n))
        bins = quantile_bins(ds, int(rng.integers(1, 12)))
        idx = assign(bins, ds.predictions)
        for value in np.unique(ds.predictions):
            assert len(np.unique(idx[ds.predictions == value])) == 1


def test_pava_examples():
    assert pava([0, 0, 1, 1]).fitted.tolist() == [0, 0, 1, 1]
    assert pava([1, 0]).fitted.tolist() == [0.5, 0.5]
    fit = pava([0, 1, 0, 1])
    assert fit.fitted.tolist() == [0.0, 0.5, 0.5, 1.0]
    assert fit.blocks == ((0, 1, 0.0), (1, 2, 0.5), (3, 1, 1.0))
    with pytest.raises(ValueError):
        pava([])
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        pava([0, 2])


def test_pava_is_monotone_with_increasing_block_means():
    rng = np.random.default_rng(4)
    for _ in range(100):
        y = rng.integers(0, 2, int(rng.integers(1, 150)))
        fit = pava(y)
        assert np.all(np.diff(fit.fitted) >= 0)
        assert np.all(np.diff(fit.block_means) > 0)
        assert int(fit.block_lengths.sum()) == y.size
        # block means equal the mean of the labels they cover
        for start, length, mean in fit.blocks:
            assert y[start : start + length].mean() == mean


def test_pava_bc_hand_trace():
    fit = pava_bc([1, 0, 0, 1], 2, 3)
    assert fit.blocks == ((0, 2, 0.5), (2, 2, 0.5))
    assert fit.fitted.tolist() == [0.5] * 4


def test_pava_bc_reserved_tail_branch():
    # With n_max=3 the reserved final pair cannot merge and forms its own block.
    fit = pava_bc([0, 0, 1, 1], 2, 3)
    assert fit.blocks == ((0, 2, 0.0), (2, 2, 1.0))
    # With n_max=4 the merge fits (2 + 2 <= 4), so the sweep pools everything.
    fit = pava_bc([0, 0, 1, 1], 2, 4)
    assert fit.blocks == ((0, 4, 0.5),)


def test_pava_bc_whole_input_reserved():
    fit = pava_bc([0, 1, 1], 3, 3)
    assert fit.blocks == ((0, 3, 2 / 3),)


def test_pava_bc_unconstrained_equals_pava():
    rng = np.random.default_rng(6)
    for _ in range(100):
        y = rng.integers(0, 2, int(rng.integers(1, 150)))
        assert np.array_equal(pava_bc(y, 0, y.size).fitted, pava(y).fitted)


def test_pava_bc_size_guarantees():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(2, 400))
        y = (rng.random(n) < rng.uniform(0.05, 0.5)).astype(int)
        n_min = int(rng.integers(0, n // 2 + 1))
        n_max = int(rng.integers(max(n_min, 1), n + 1))
        fit = pava_bc(y, n_min, n_max)
        assert int(fit.block_lengths.sum()) == n
        assert np.all(fit.block_lengths <= n_max)
        assert fit.block_lengths[-1] >= min(n_min, n)


def test_bin_strategy_resolves_the_sizes_asked():
    strategy = BinStrategy("pava_bc", n_min=100, n_max=20)
    assert strategy.resolve_sizes(1000) == (100, 20)
    with pytest.raises(ValueError, match=r"got \(100, 20\)"):  # not clamped to (20, 20)
        build_bins(Dataset(np.linspace(0, 1, 1000), np.arange(1000) % 2), strategy)
    # A zero cap, as the fractional defaults give below 5 records, makes
    # one-record blocks, as a cap of one does.
    rng = np.random.default_rng(12)
    for n in range(1, 40):
        ds = Dataset(rng.random(n), rng.integers(0, 2, n))
        capped = [build_bins(ds, BinStrategy("pava_bc", n_min=0, n_max=cap)).edges for cap in (0, 1)]
        assert np.array_equal(*capped)


def test_pava_bc_validation():
    with pytest.raises(ValueError):
        pava_bc([0, 1], 2, 1)
    with pytest.raises(ValueError):
        pava_bc([0, 1], 0, 3)


def test_bins_from_fit_examples():
    fit = make_fit([0, 2], [2, 2])
    bins = bins_from_fit(fit, np.array([0.1, 0.2, 0.6, 0.8]))
    assert bins.edges.tolist() == [0.0, 0.4, 1.0]

    flat = make_fit([2], [4])
    assert bins_from_fit(flat, np.array([0.1, 0.2, 0.6, 0.8])).edges.tolist() == [0.0, 1.0]

    # tie at the change point: boundary shifts to the next strict gap
    fit = make_fit([0, 1, 1], [1, 1, 1])
    bins = bins_from_fit(fit, np.array([0.5, 0.5, 0.9]))
    assert bins.edges.tolist() == [0.0, 0.7, 1.0]

    with pytest.raises(ValueError):
        bins_from_fit(flat, np.array([0.1, 0.2]))
    with pytest.raises(ValueError, match="sorted ascending"):
        bins_from_fit(fit, np.array([0.9, 0.5, 0.5]))


def test_bins_from_fit_all_predictions_tied():
    fit = make_fit([0, 1], [1, 1])
    assert bins_from_fit(fit, np.array([0.3, 0.3])).edges.tolist() == [0.0, 1.0]


def test_fit_bins_never_split_ties():
    rng = np.random.default_rng(10)
    for _ in range(50):
        n = int(rng.integers(2, 100))
        preds = np.sort(rng.integers(0, 5, n) / 5 + 0.1)
        labels = rng.integers(0, 2, n)
        bins = bins_from_fit(pava(labels), preds)
        idx = assign(bins, preds)
        for value in np.unique(preds):
            assert len(np.unique(idx[preds == value])) == 1


def test_total_error_examples():
    one_bin = BinSet.from_edges([0.0, 1.0])
    ds = Dataset(np.array([0.4, 0.6]), np.array([0, 1]))
    assert total_error(ds, one_bin) == pytest.approx(0.25)
    assert within_bin_error_avg(ds, one_bin) == pytest.approx(0.25)

    # one point per bin gives zero error
    ds4 = Dataset(np.array([0.1, 0.3, 0.6, 0.9]), np.array([0, 1, 0, 1]))
    singles = BinSet.from_edges([0.0, 0.2, 0.5, 0.8, 1.0])
    assert total_error(ds4, singles) == 0.0


def test_within_bin_error_is_unweighted_mean():
    # two bins with variances 0.25 and 0 -> average 0.125
    ds = Dataset(np.array([0.1, 0.2, 0.8, 0.9]), np.array([0, 1, 1, 1]))
    bins = BinSet.from_edges([0.0, 0.5, 1.0])
    assert within_bin_error_avg(ds, bins) == pytest.approx(0.125)
    assert total_error(ds, bins) == pytest.approx(0.125)


def test_refining_a_partition_never_increases_total_error():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(2, 150))
        ds = Dataset(rng.random(n), rng.integers(0, 2, n))
        interior = np.unique(rng.random(int(rng.integers(0, 4))))
        interior = interior[(interior > 0) & (interior < 1)]
        coarse = BinSet.from_edges([0.0, *interior.tolist(), 1.0])
        extra = float(rng.random())
        if extra in (0.0, 1.0) or extra in interior:
            continue
        fine = BinSet.from_edges(sorted({0.0, 1.0, extra, *interior.tolist()}))
        assert total_error(ds, fine) <= total_error(ds, coarse) + 1e-12


def test_brute_force_examples():
    blocks, objective = brute_force_optimal([0, 1])
    assert objective == 0.0 and blocks == ((0, 1), (1, 1))

    blocks, objective = brute_force_optimal([1, 0])
    assert objective == pytest.approx(0.25) and blocks == ((0, 2),)

    blocks, objective = brute_force_optimal([0, 1, 0, 1])
    assert objective == pytest.approx(0.125)
    assert blocks == ((0, 1), (1, 2), (3, 1))  # matches the pooled fit

    with pytest.raises(ValueError):
        brute_force_optimal([0, 1] * 9)


def test_pava_attains_brute_force_minimum():
    rng = np.random.default_rng(14)
    for _ in range(60):
        n = int(rng.integers(1, 13))
        labels = rng.integers(0, 2, n)
        preds = (np.arange(n) + 0.5) / n
        ds = Dataset(preds, labels)
        bins = bins_from_fit(pava(labels), preds)
        _, best = brute_force_optimal(labels)
        assert total_error(ds, bins) == pytest.approx(best, abs=1e-12)


def exhaustive_constrained_error(labels, n_min, n_max):
    """Least error over every contiguous partition meeting the sizes and the
    non-decreasing means, or None."""
    n, best = len(labels), None
    for mask in range(1 << (n - 1)):
        cuts = [0, *(i + 1 for i in range(n - 1) if mask >> i & 1), n]
        lens = np.diff(cuts).tolist()
        sums = [int(labels[a:b].sum()) for a, b in zip(cuts, cuts[1:])]
        if min(lens) < n_min or max(lens) > n_max:
            continue
        if all(sums[i] * lens[i + 1] <= sums[i + 1] * lens[i] for i in range(len(sums) - 1)):
            err = block_error(sums, lens)
            best = err if best is None else min(best, err)
    return best


def test_constrained_optimum_matches_exhaustive_search():
    rng = np.random.default_rng(15)
    for _ in range(80):
        n = int(rng.integers(1, 13))
        labels = rng.integers(0, 2, n)
        _, best = constrained_optimal(labels, 1, n)
        assert best == pytest.approx(brute_force_optimal(labels)[1], abs=1e-12)
        n_min = int(rng.integers(1, n + 1))
        n_max = int(rng.integers(n_min, n + 1))
        found = constrained_optimal(labels, n_min, n_max)
        expected = exhaustive_constrained_error(labels, n_min, n_max)
        if expected is None:
            assert found is None
            continue
        blocks, best = found
        assert best == pytest.approx(expected, abs=1e-12)
        assert [start for start, _ in blocks] == np.cumsum([0] + [w for _, w in blocks[:-1]]).tolist()
        assert all(n_min <= w <= n_max for _, w in blocks)


def test_pava_bc_meeting_every_constraint_is_no_better_than_the_optimum():
    # Decisions ledger "How optimal is `pava_bc`": interior blocks may fall
    # below n_min, so only some fits meet every constraint of the optimum.
    rng = np.random.default_rng(17)
    met = 0
    for _ in range(400):
        n = int(rng.integers(2, 60))
        y = (rng.random(n) < rng.uniform(0.05, 0.6)).astype(int)
        n_min = int(rng.integers(1, n // 4 + 2))
        n_max = int(rng.integers(n_min, n + 1))
        fit = pava_bc(y, n_min, n_max)
        if fit.block_lengths.min() < n_min or monotonicity_report(fit):
            continue
        met += 1
        _, best = constrained_optimal(y, n_min, n_max)
        assert block_error(fit.block_label_sums, fit.block_lengths) >= best - 1e-12
    assert met >= 100


def test_monotonicity_report():
    rng = np.random.default_rng(16)
    for _ in range(50):
        y = rng.integers(0, 2, int(rng.integers(1, 100)))
        assert monotonicity_report(pava(y)) == []

    fit = make_fit([1, 1, 1], [5, 10, 2])  # means 0.2, 0.1, 0.5
    assert monotonicity_report(fit) == [(0, 1)]

    # report is consistent with independently recomputed block means
    for _ in range(50):
        n = int(rng.integers(4, 300))
        y = (rng.random(n) < 0.15).astype(int)
        n_min = int(rng.integers(1, max(2, n // 8)))
        n_max = int(rng.integers(n_min, n + 1))
        fit = pava_bc(y, n_min, n_max)
        means = [y[s : s + w].mean() for s, w, _ in fit.blocks]
        expected = [(b - 1, b) for b in range(1, len(means)) if means[b] < means[b - 1]]
        assert monotonicity_report(fit) == expected


def test_build_bins_strategies():
    rng = np.random.default_rng(18)
    ds = Dataset(rng.random(200), rng.integers(0, 2, 200))
    assert len(build_bins(ds, BinStrategy("equispaced", num_bins=10))) == 10
    assert len(build_bins(ds, BinStrategy("quantile", num_bins=10))) <= 10
    for kind in ("pava", "pava_bc"):
        bins = build_bins(ds, BinStrategy(kind))
        binned = partition(ds, bins)
        assert int(binned.counts.sum()) == 200
    with pytest.raises(ValueError):
        BinStrategy("fancy")
    with pytest.raises(ValueError, match="need at least one bin"):
        BinStrategy("quantile", num_bins=0)


@pytest.mark.parametrize("field", ["nmin_frac", "nmax_frac"])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_bin_strategy_refuses_a_non_finite_size_fraction(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        BinStrategy("pava_bc", **{field: value})


def test_build_bins_matches_fit_blocks_on_distinct_predictions():
    # with all-distinct predictions the bins reproduce the fit blocks exactly
    rng = np.random.default_rng(20)
    ds = Dataset(np.sort(rng.random(120)), rng.integers(0, 2, 120))
    labels, preds = ds.sorted_labels, ds.sorted_predictions
    fit = pava_bc(labels, 10, 40)
    bins = bins_from_fit(fit, preds)
    counts = partition(ds, bins).counts
    merged = [w for _, w, _ in fit.blocks]
    # adjacent equal-mean blocks merge into one bin
    assert int(counts.sum()) == 120
    assert len(counts) <= len(merged)


# --- the vectorized fits against the per-record loops they replaced ---

FIT_FIELDS = ("fitted", "block_starts", "block_lengths", "block_label_sums")

# Private tuning of the fits. "tiny" ends every jump window early, so jumps
# advance a record or two, pushes every record only when n_max <= 4, and
# leaves the hull to the stack after one pass; "scalar" pushes every record
# one at a time when n_max <= 64 and builds the hull with the stack alone.
TUNINGS = {
    "default": {},
    "tiny": {"_WINDOW": 1, "_JUMP_COST": 4, "_HULL_PASSES": 1},
    "scalar": {"_WINDOW": 2, "_JUMP_COST": 64, "_HULL_PASSES": 0},
    "hull_chunks": {"_HULL_CHUNK": 3, "_HULL_PASSES": 2},
}


def assert_same_fit(got, want):
    for field in FIT_FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, field
        assert np.array_equal(a, b), field


@st.composite
def label_sequences(draw):
    n = draw(st.integers(1, 120))
    shape = draw(
        st.sampled_from(["zeros", "ones", "alternating", "sorted", "convex_then_flat", "random"])
    )
    if shape == "zeros":
        return np.zeros(n, dtype=int)
    if shape == "ones":
        return np.ones(n, dtype=int)
    if shape == "alternating":
        return (np.arange(n) + draw(st.integers(0, 1))) % 2
    if shape == "convex_then_flat":
        # gaps between ones shrink, so the prefix sum is convex; then zeros
        gap = draw(st.integers(1, 12))
        labels = [v for g in range(gap, 0, -1) for v in [0] * g + [1]]
        labels += [0] * draw(st.integers(0, 60))
        return np.array(labels[:n] if len(labels) >= n else labels)
    rate = draw(st.floats(0.0, 1.0))
    bits = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=n, max_size=n))
    labels = (np.array(bits) < rate).astype(int)
    return np.sort(labels) if shape == "sorted" else labels


@st.composite
def sized_sequences(draw):
    labels = draw(label_sequences())
    n = labels.size
    n_min = draw(st.sampled_from([0, 1, n]) | st.integers(0, n))
    n_max = draw(st.sampled_from([max(n_min, 1), n]) | st.integers(max(n_min, 1), n))
    return labels, n_min, n_max


@pytest.mark.parametrize("tuning", sorted(TUNINGS))
@settings(max_examples=300, deadline=None)
@given(case=sized_sequences())
def test_fits_match_per_record_loops(tuning, case):
    labels, n_min, n_max = case
    patch = mock.patch.multiple(binning, **TUNINGS[tuning]) if TUNINGS[tuning] else nullcontext()
    with patch:
        assert_same_fit(pava(labels), loop_pava(labels))
        assert_same_fit(pava_bc(labels, n_min, n_max), loop_pava_bc(labels, n_min, n_max))


def test_fit_tunings_reach_every_path():
    rng = np.random.default_rng(22)
    labels = rng.integers(0, 2, 400)
    with mock.patch.multiple(binning, **TUNINGS["tiny"]), mock.patch.object(
        binning, "_jump", wraps=binning._jump
    ) as jump, mock.patch.object(binning, "_push", wraps=binning._push) as push:
        assert_same_fit(pava_bc(labels, 3, 40), loop_pava_bc(labels, 3, 40))
        assert_same_fit(pava_bc(labels, 1, 4), loop_pava_bc(labels, 1, 4))
    assert jump.call_count > 0
    assert max(len(call.args[2]) for call in push.call_args_list) > 1
    # a convex run then zeros: one pruning pass leaves the hull to the stack
    convex = np.array([v for gap in range(8, 0, -1) for v in [0] * gap + [1]] + [0] * 30)
    with mock.patch.object(binning, "_HULL_PASSES", 1), mock.patch.object(
        binning, "_settle", wraps=binning._settle
    ) as finish:
        assert_same_fit(pava(convex), loop_pava(convex))
    assert finish.call_count > 0


@pytest.mark.parametrize("n_min, n_max", [(0, 1), (0, 8), (3, 20), (0, binning._JUMP_COST)])
def test_pava_bc_never_jumps_when_blocks_stay_short(n_min, n_max):
    labels = np.random.default_rng(26).integers(0, 2, 500)
    with mock.patch.object(binning, "_jump", wraps=binning._jump) as jump:
        assert_same_fit(pava_bc(labels, n_min, n_max), loop_pava_bc(labels, n_min, n_max))
    assert jump.call_count == 0
    with mock.patch.object(binning, "_jump", wraps=binning._jump) as jump:
        pava_bc(labels, n_min, binning._JUMP_COST + 1)
    assert jump.call_count > 0


def test_fits_match_per_record_loops_at_scale():
    rng = np.random.default_rng(24)
    n = 20_000
    for labels in (
        (rng.random(n) < np.linspace(0.05, 0.95, n)).astype(int),
        (rng.random(n) < 0.01).astype(int),
    ):
        assert_same_fit(pava(labels), loop_pava(labels))
        for n_min, n_max in ((0, n), (0, 300), (10, 300), (100, 1000), (n // 20, n // 5)):
            assert_same_fit(pava_bc(labels, n_min, n_max), loop_pava_bc(labels, n_min, n_max))


# --- bins of every strategy on tie-heavy data ---


@st.composite
def tied_datasets(draw):
    n = draw(st.integers(1, 150))
    levels = draw(st.integers(1, 8))
    values = draw(st.lists(st.integers(0, levels - 1), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    preds = (np.array(values) + 0.5) / levels
    return Dataset(preds, np.array(labels))


@settings(max_examples=200, deadline=None)
@given(
    ds=tied_datasets(),
    kind=st.sampled_from(["equispaced", "quantile", "pava", "pava_bc"]),
    num_bins=st.integers(1, 12),
)
def test_bins_cover_unit_interval_and_keep_ties_together(ds, kind, num_bins):
    bins = build_bins(ds, BinStrategy(kind, num_bins=num_bins))
    edges = bins.edges
    assert edges[0] == 0.0 and edges[-1] == 1.0
    assert np.all(np.diff(edges) > 0)
    idx = assign(bins, ds.predictions)
    assert np.all((idx >= 0) & (idx < len(bins)))
    assert int(partition(ds, bins).counts.sum()) == ds.n
    for value in np.unique(ds.predictions):
        assert np.unique(idx[ds.predictions == value]).size == 1


# --- vectorized boundary placement against the per-boundary loops ---

# Endpoints and their nearest floats: midpoints next to them round onto 0 or 1.
EDGE_VALUES = [0.0, 1.0, 5e-324, float(np.nextafter(1.0, 0.0))]


@st.composite
def tie_heavy_cases(draw):
    levels = draw(
        st.lists(st.sampled_from(EDGE_VALUES) | st.floats(0.0, 1.0), min_size=1, max_size=6)
    )
    n = draw(st.integers(1, 80))
    preds = np.sort(np.array(draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))))
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    n_max = draw(st.integers(1, n))
    return preds, labels, draw(st.integers(0, n_max)), n_max


@settings(max_examples=300, deadline=None)
@given(case=tie_heavy_cases(), num_bins=st.integers(1, 12) | st.integers(80, 200))
def test_bins_match_per_boundary_loops(case, num_bins):
    preds, labels, n_min, n_max = case
    ds = Dataset(preds, labels)
    size = preds.size
    for bins in (num_bins, size, 2 * size + 1):
        assert np.array_equal(quantile_bins(ds, bins).edges, loop_quantile_bins(ds, bins).edges)
    # The loop cannot run 10**12 bins; as many bins as records cut at the same positions.
    assert np.array_equal(quantile_bins(ds, 10**12).edges, loop_quantile_bins(ds, size).edges)
    for fit in (pava(labels), pava_bc(labels, n_min, n_max)):
        assert np.array_equal(bins_from_fit(fit, preds).edges, loop_bins_from_fit(fit, preds).edges)


# --- build_bins fits the dataset's sorted view directly ---


@st.composite
def tie_heavy_datasets(draw):
    levels = draw(
        st.lists(st.sampled_from(EDGE_VALUES) | st.floats(0.0, 1.0), min_size=1, max_size=6)
    )
    n = draw(st.integers(1, 120))
    preds = np.array(draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n)))
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    return Dataset(preds, labels)


@settings(max_examples=200, deadline=None)
@given(ds=tie_heavy_datasets(), fracs=st.sampled_from([(0, 1), (0, 0.1), (0.05, 0.2), (0.3, 0.5)]))
def test_build_bins_equals_fit_of_the_sorted_view(ds, fracs):
    labels, preds = ds.sorted_labels, ds.sorted_predictions
    got = build_bins(ds, BinStrategy("pava")).edges
    assert np.array_equal(got, bins_from_fit(pava(labels), preds).edges)
    sizes = [(0, ds.n), (ds.n, ds.n), (1, 1), (int(fracs[0] * ds.n), int(fracs[1] * ds.n))]
    for n_min, n_max in sizes:
        strategy = BinStrategy("pava_bc", n_min=n_min, n_max=n_max)
        n_min, n_max = strategy.resolve_sizes(ds.n)
        got = build_bins(ds, strategy).edges
        assert np.array_equal(got, bins_from_fit(pava_bc(labels, n_min, n_max), preds).edges)


@pytest.mark.parametrize("kind", ["pava", "pava_bc"])
def test_build_bins_copies_no_full_length_array(kind):
    # Decisions ledger "`build_bins` fits the sorted view": ≈24 bytes per
    # record when each fit copied the labels and their prefix sums, ≈1-7 now.
    n = 200_000
    rng = np.random.default_rng(28)
    preds = rng.random(n)
    ds = Dataset(preds, (rng.random(n) < preds).astype(int))
    ds.label_prefix, ds.sorted_predictions  # the view is built once, before any fit
    tracemalloc.start()
    try:
        build_bins(ds, BinStrategy(kind))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * n
