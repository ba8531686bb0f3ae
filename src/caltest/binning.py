"""Bin construction: equispaced, quantile, and data-driven bins from isotonic fits.

The data-driven strategies fit a monotone step function to the label sequence
(sorted by prediction) and place a bin boundary wherever the fitted value
changes. The block-constrained variant bounds how many records each step may
cover, trading a little monotonicity for better-sized bins.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BinSet, Dataset, _prefix_sums, partition

__all__ = [
    "BinStrategy",
    "IsotonicFit",
    "equispaced_bins",
    "quantile_bins",
    "pava",
    "pava_bc",
    "bins_from_fit",
    "total_error",
    "within_bin_error_avg",
    "brute_force_optimal",
    "monotonicity_report",
    "build_bins",
]

STRATEGY_KINDS = ("equispaced", "quantile", "pava", "pava_bc")


@dataclass(frozen=True, eq=False)
class IsotonicFit:
    """Piecewise-constant fit to a binary sequence, with its block structure.

    ``blocks`` holds (start index, length, mean) triples; ``block_label_sums``
    keeps the integer label sum per block so order comparisons between block
    means can be done exactly. Fits compare and hash by identity.
    """

    fitted: np.ndarray
    block_starts: np.ndarray
    block_lengths: np.ndarray
    block_label_sums: np.ndarray

    @property
    def block_means(self) -> np.ndarray:
        return self.block_label_sums / self.block_lengths

    @property
    def blocks(self) -> tuple[tuple[int, int, float], ...]:
        means = self.block_means
        return tuple(
            (int(s), int(w), float(m))
            for s, w, m in zip(self.block_starts, self.block_lengths, means)
        )


def _as_binary(labels_sorted) -> np.ndarray:
    y = np.asarray(labels_sorted)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("label sequence must be one-dimensional and non-empty")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("labels must be 0 or 1")
    return y.astype(np.int64)


def _make_fit(sums, lengths) -> IsotonicFit:
    lengths_arr = np.asarray(lengths, dtype=np.int64)
    sums_arr = np.asarray(sums, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lengths_arr)[:-1]))
    fitted = np.repeat(sums_arr / lengths_arr, lengths_arr)
    return IsotonicFit(
        fitted=fitted,
        block_starts=starts,
        block_lengths=lengths_arr,
        block_label_sums=sums_arr,
    )


def _settle(sums: list[int], lengths: list[int], n_min: int, n_max: int) -> None:
    """Merge the top block into the one below while the constraints allow."""
    _push(sums, lengths, [sums.pop()], n_min, n_max, lengths.pop())


# Vectorized pruning passes before `pava` finishes the hull with a stack, and
# the records per chunk of the first pass.
_HULL_PASSES = 64
_HULL_CHUNK = 1 << 16


def pava(labels_sorted) -> IsotonicFit:
    """Least-squares monotone non-decreasing fit by pooling adjacent violators.

    Adjacent blocks merge while the earlier mean is >= the later one, so the
    result has strictly increasing block means. For binary labels the blocks
    are the segments of the greatest convex minorant of the label prefix sums
    S (Barlow et al. 1972), computed here as a lower hull. Its strict vertices
    are 0 and N and some of the "0-to-1 corners" i with y[i-1] = 0 and
    y[i] = 1. Each numpy pass drops every candidate that lies on or above the
    chord of its two neighbours; such a point is no strict vertex, so one
    pass may drop many. The passes run first on each chunk of
    ``_HULL_CHUNK`` records, with its corners and its two ends as
    candidates, so their arrays do not grow with N; the chunk ends are
    prefix points too, and a strict vertex of the hull of all prefix points
    is one of the hull of any subset that holds it. Then they run over the
    survivors of all chunks, and after ``_HULL_PASSES`` passes a stack
    finishes the hull. Chord tests use the same integer cross-multiplication
    as a pooling loop, so the blocks equal the loop's.
    """
    y = _as_binary(labels_sorted)
    s = _prefix_sums(y)
    return _make_fit(*_pava_blocks(y, s))


def _hull_prune(s: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, bool]:
    """Up to ``_HULL_PASSES`` pruning passes over candidate points of the
    prefix sums s; the survivors, and whether they form a convex chain."""
    for _ in range(_HULL_PASSES):
        dx, ds = np.diff(pts), np.diff(s[pts])
        above = ds[:-1] * dx[1:] >= ds[1:] * dx[:-1]
        if not above.any():
            return pts, True
        pts = pts[np.concatenate(([True], ~above, [True]))]
    return pts, False


def _pava_blocks(y: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block label sums and lengths of :func:`pava` for integer labels y in
    {0, 1}, such as a dataset's int8 sorted labels, and their int64 prefix sums s."""
    survivors = [np.zeros(1, dtype=np.int64)]
    for a in range(0, y.size, _HULL_CHUNK):
        b = min(a + _HULL_CHUNK, y.size)
        corners = np.flatnonzero((y[a : b - 1] == 0) & (y[a + 1 : b] == 1)) + (a + 1)
        pts, _ = _hull_prune(s, np.concatenate(([a], corners, [b])))
        survivors.append(pts[1:])
    pts, convex = _hull_prune(s, np.concatenate(survivors))
    if not convex:  # passes ran out: pool the surviving segments on a stack
        sums: list[int] = []
        lengths: list[int] = []
        for v, w in zip(np.diff(s[pts]).tolist(), np.diff(pts).tolist()):
            sums.append(v)
            lengths.append(w)
            _settle(sums, lengths, 0, y.size)
        return np.array(sums, dtype=np.int64), np.array(lengths, dtype=np.int64)
    return np.diff(s[pts]), np.diff(pts)


# `pava_bc` sweep tuning: the first window of a jump, in records; a jump
# costs about as much as pushing _JUMP_COST records one at a time, and
# advances fewer than n_max records, so with n_max <= _JUMP_COST the sweep
# pushes every record. Float block means order exactly while block lengths
# stay within _EXACT_SPAN (distinct fractions with denominators <= 2**26
# differ by more than their rounding), so jumps never extend a block past it.
_WINDOW = 256
_JUMP_COST = 32
_EXACT_SPAN = 2**26


def _push(sums: list[int], lengths: list[int], labels: list[int], n_min: int, n_max: int,
          width: int = 1) -> None:
    """Scalar steps of the sweep: push each label sum as a block of `width`
    records, then merge the top block into the one below while the
    constraints allow."""
    for v in labels:
        sums.append(v)
        lengths.append(width)
        while len(sums) > 1:
            combined = lengths[-2] + lengths[-1]
            if combined > n_min:
                if combined > n_max:
                    break
                if sums[-2] * lengths[-1] < sums[-1] * lengths[-2]:
                    break
            top, w = sums.pop(), lengths.pop()
            sums[-1] += top
            lengths[-1] += w


def _jump(s: np.ndarray, sums: list[int], lengths: list[int], e: int, limit: int,
          n_min: int, n_max: int, window: int) -> int:
    """Advance the sweep from position e over at most `window` records.

    With top block T = [t, e) and block B = [b, t) below it, the records
    after e either pool into T or form short blocks above it, which pool back
    into T when T's mean, extended to some j, reaches a new non-strict low
    (the mediant property). Likewise [t, j) pools into B at the first j where
    mean(y[b:j]) <= mean(B), while j - b <= n_max. The first such j is an
    event: B absorbs [t, j) and settles. Otherwise T extends to its last
    record low in the window, or fills unconditionally while shorter than
    n_min; when the window held every record T can reach, the record after
    T is pushed as a block of its own. Returns the new position, e itself
    when T cannot grow.
    """
    t = e - lengths[-1]
    filling = lengths[-1] < n_min
    hi = min(e + window, limit, t + (n_min if filling else min(n_max, _EXACT_SPAN)))
    if hi <= e:
        return e
    span = np.arange(e + 1 - t, hi + 1 - t)  # length of [t, j) for j in (e, hi]
    top = s[e + 1 : hi + 1] - s[t]  # label sum of [t, j)
    if len(sums) > 1:
        below = lengths[-2]
        reach = min(hi, t - below + n_max) - e
        if reach > 0:
            pools = sums[-2] * span[:reach] >= top[:reach] * below
            k = int(pools.argmax())
            if pools[k]:
                j = e + 1 + k
                lengths.pop()
                sums.pop()
                lengths[-1] += j - t
                sums[-1] += int(s[j] - s[t])
                _settle(sums, lengths, n_min, n_max)
                return j
    if filling:
        k = span.size - 1
    else:
        means = top / span
        k = span.size - 1 - int(means[::-1].argmin())
        if int(top[k]) * lengths[-1] > sums[-1] * int(span[k]):
            return e
    lengths[-1] = int(span[k])
    sums[-1] = int(top[k])
    j = e + 1 + k
    if not filling and j < hi < e + window:
        # T has seen every record it can reach, so a jump from j would
        # advance none: y[j] opens a block of its own.
        _push(sums, lengths, [int(s[j + 1] - s[j])], n_min, n_max)
        j += 1
    return j


def pava_bc(labels_sorted, n_min: int, n_max: int) -> IsotonicFit:
    """Pooling with block-size constraints: no block exceeds n_max and the
    final block keeps at least min(n_min, N) records.

    The sweep covers the first N - n_min points: adjacent blocks merge
    unconditionally while the combined size is <= n_min; above n_min a merge
    happens only if the combined size stays <= n_max and the earlier block
    mean is still >= the later one. The reserved last n_min points then join
    the final block when that keeps it within n_max, and otherwise form their
    own block. Interior blocks may end up below n_min and block means may
    mildly violate monotonicity; both are inherent to the constrained sweep
    and surfaced by :func:`monotonicity_report` rather than treated as errors.
    So the fit is a greedy sweep, not the least-error partition under both
    size bounds.

    The sweep is event-driven over the label prefix sums: each numpy jump
    (see :func:`_jump`) moves the top block to the next event, a pooling into
    the block below or the last prefix-mean record low in a window that
    doubles between events; a record that no jump advances over is pushed on
    its own. With n_max <= ``_JUMP_COST`` no jump can pay for itself, so every
    record is pushed. The blocks equal those of pushing every record one at a
    time.
    """
    y = _as_binary(labels_sorted)
    s = _prefix_sums(y)
    return _make_fit(*_pava_bc_blocks(y, s, n_min, n_max))


def _pava_bc_blocks(y: np.ndarray, s: np.ndarray, n_min: int,
                    n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Block label sums and lengths of :func:`pava_bc` for integer labels y in
    {0, 1}, such as a dataset's int8 sorted labels, and their int64 prefix sums s."""
    n = y.size
    n_min, n_max = int(n_min), int(n_max)
    if not (0 <= n_min <= n_max <= n):
        raise ValueError(f"need 0 <= n_min <= n_max <= {n}, got ({n_min}, {n_max})")

    limit = n - n_min
    sums: list[int] = []
    lengths: list[int] = []
    if n_max <= _JUMP_COST:
        _push(sums, lengths, y[:limit].tolist(), n_min, n_max)
    else:
        e, window = 0, _WINDOW
        while e < limit:
            j = _jump(s, sums, lengths, e, limit, n_min, n_max, window) if sums else e
            if j == e:  # y[e] opens a block of its own
                _push(sums, lengths, [int(y[e])], n_min, n_max)
                j += 1
            window = max(_WINDOW, 2 * (j - e))
            e = j

    tail_sum = int(s[n] - s[limit])
    if sums and lengths[-1] + n_min <= n_max:
        sums[-1] += tail_sum
        lengths[-1] += n_min
    elif n_min > 0 or not sums:
        # n_min == 0 with a non-empty sweep has an empty tail: nothing to add.
        sums.append(tail_sum)
        lengths.append(n_min)
    return np.array(sums, dtype=np.int64), np.array(lengths, dtype=np.int64)


def _bins_at_cuts(preds_sorted: np.ndarray, cuts: np.ndarray) -> BinSet:
    """Bins cut at a tie-group boundary c for each cut 0 < i < N of the sorted predictions p.

    c is the start of the group holding p[i] when i opens the group or no
    value lies above it, and the group's end otherwise. The edge is the
    midpoint of p[c - 1] and p[c], or p[c] when the midpoint rounds onto
    p[c - 1], so it lies in (p[c - 1], p[c]] and :func:`partition` cuts at c.
    c = 0 (all predictions tie) and an edge of 1.0 (the last bin is closed at
    1) give no boundary. The cuts must ascend; then c never decreases, the
    edges rise with c, and duplicate boundaries collapse by dropping repeats.
    """
    n = preds_sorted.size
    value = preds_sorted[cuts]
    left = np.searchsorted(preds_sorted, value, side="left")
    right = np.searchsorted(preds_sorted, value, side="right")
    c = np.where((left == cuts) | (right == n), left, right)
    c = c[c > 0]
    low, high = preds_sorted[c - 1], preds_sorted[c]
    mids = (low + high) / 2.0
    edges = np.where(mids > low, mids, high)
    edges = edges[edges < 1.0]
    edges = edges[np.diff(edges, prepend=-1.0) > 0.0]
    return BinSet.from_edges(np.concatenate(([0.0], edges, [1.0])))


def equispaced_bins(num_bins: int) -> BinSet:
    """num_bins bins of equal width 1/num_bins, the last closed at 1."""
    if num_bins < 1:
        raise ValueError("need at least one bin")
    return BinSet.from_edges(np.arange(num_bins + 1) / num_bins)


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
    # More than N bins cut at every position 1..N-1, as N bins do.
    num_bins = min(num_bins, n)
    return _bins_at_cuts(preds, np.arange(1, num_bins) * n // num_bins)


def bins_from_fit(fit: IsotonicFit, preds_sorted) -> BinSet:
    """Bins with one boundary at each change point of the fitted sequence.

    Each boundary is the midpoint of the adjacent predictions straddling the
    change point; ties are shifted per :func:`_bins_at_cuts` and duplicate
    boundaries collapse.
    """
    preds = np.asarray(preds_sorted, dtype=np.float64)
    if preds.shape[0] != fit.fitted.shape[0]:
        raise ValueError("fit and predictions must have equal length")
    if np.any(preds[1:] < preds[:-1]):
        raise ValueError("predictions must be sorted ascending")
    return _bins_at_changes(preds, fit.block_label_sums, fit.block_lengths)


def _bins_at_changes(preds_sorted: np.ndarray, sums: np.ndarray, lengths: np.ndarray) -> BinSet:
    """Bins cut at each block start whose mean differs from the block before."""
    means = sums / lengths
    starts = np.cumsum(lengths[:-1])
    return _bins_at_cuts(preds_sorted, starts[means[1:] != means[:-1]])


def _within_bin_sq_errors(dataset: Dataset, bins: BinSet) -> tuple[np.ndarray, np.ndarray]:
    """Per non-empty bin: the sum of (y - bin label mean)^2, and the bin size.

    For binary labels with k positives among n records that sum is k - k^2/n.
    """
    binned = partition(dataset, bins)
    filled = binned.counts > 0
    k = binned.label_sums[filled]
    n = binned.counts[filled]
    return k - k * k / n, n


def total_error(dataset: Dataset, bins: BinSet) -> float:
    """Size-weighted mean of the within-bin label variances.

    Equals (1/N) * sum over bins of sum over members of (y - bin label mean)^2;
    empty bins contribute nothing.
    """
    sq, _ = _within_bin_sq_errors(dataset, bins)
    return float(np.sum(sq)) / dataset.n


def within_bin_error_avg(dataset: Dataset, bins: BinSet) -> float:
    """Unweighted mean over non-empty bins of the within-bin label variance."""
    sq, n = _within_bin_sq_errors(dataset, bins)
    return float(np.mean(sq / n))


def brute_force_optimal(labels_sorted) -> tuple[tuple[tuple[int, int], ...], float]:
    """Exhaustive minimum of the weighted within-block variance over all
    contiguous partitions with non-decreasing block means.

    Enumerates every contiguous partition (2^(N-1) of them), keeps the
    monotone ones, and returns one argmin as ((start, length), ...) plus the
    objective value. Serves as an independent oracle for the isotonic route;
    refuses N > 16.
    """
    y = _as_binary(labels_sorted)
    n = y.size
    if n > 16:
        raise ValueError("brute force enumeration is limited to N <= 16")
    prefix = _prefix_sums(y)
    best_obj = None
    best_blocks = None
    for mask in range(1 << (n - 1)):
        cuts = [0]
        cuts.extend(i + 1 for i in range(n - 1) if mask >> i & 1)
        cuts.append(n)
        sums = [int(prefix[b] - prefix[a]) for a, b in zip(cuts, cuts[1:])]
        lens = [b - a for a, b in zip(cuts, cuts[1:])]
        ok = all(
            sums[i] * lens[i + 1] <= sums[i + 1] * lens[i] for i in range(len(sums) - 1)
        )
        if not ok:
            continue
        obj = sum(s - s * s / w for s, w in zip(sums, lens)) / n
        if best_obj is None or obj < best_obj:
            best_obj = obj
            best_blocks = tuple((a, b - a) for a, b in zip(cuts, cuts[1:]))
    assert best_obj is not None  # the single-block partition is always monotone
    return best_blocks, float(best_obj)


def monotonicity_report(fit: IsotonicFit) -> list[tuple[int, int]]:
    """Adjacent block index pairs (b-1, b) whose means decrease.

    Always empty for unconstrained fits; the block-constrained variant can
    produce a few mild violations. Comparisons use the integer label sums.
    """
    sums, lens = fit.block_label_sums, fit.block_lengths
    drops = np.flatnonzero(sums[1:] * lens[:-1] < sums[:-1] * lens[1:])
    return [(b, b + 1) for b in drops.tolist()]


@dataclass(frozen=True)
class BinStrategy:
    """A named bin-construction recipe resolvable against a dataset.

    ``n_min``/``n_max`` override the fractional defaults (N/20 and N/5) for
    the block-constrained strategy when set.
    """

    kind: str = "pava_bc"
    num_bins: int = 10
    nmin_frac: float = 1 / 20
    nmax_frac: float = 1 / 5
    n_min: int | None = None
    n_max: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy {self.kind!r}; expected one of {STRATEGY_KINDS}")
        if self.kind in ("equispaced", "quantile") and self.num_bins < 1:
            raise ValueError("need at least one bin")
        for name in ("nmin_frac", "nmax_frac"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    def resolve_sizes(self, n: int) -> tuple[int, int]:
        """(n_min, n_max) for n records, as asked; :func:`pava_bc` refuses an inverted pair."""
        n_min = self.n_min if self.n_min is not None else int(n * self.nmin_frac)
        n_max = self.n_max if self.n_max is not None else int(n * self.nmax_frac)
        return n_min, n_max


def build_bins(dataset: Dataset, strategy: BinStrategy) -> BinSet:
    """Construct bins for a dataset under the given strategy."""
    if strategy.kind == "equispaced":
        return equispaced_bins(strategy.num_bins)
    if strategy.kind == "quantile":
        return quantile_bins(dataset, strategy.num_bins)
    y, s = dataset.sorted_labels, dataset.label_prefix
    if strategy.kind == "pava":
        sums, lengths = _pava_blocks(y, s)
    else:
        sums, lengths = _pava_bc_blocks(y, s, *strategy.resolve_sizes(dataset.n))
    return _bins_at_changes(dataset.sorted_predictions, sums, lengths)
