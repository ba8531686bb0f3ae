"""The per-record pooling loops that ``caltest.binning`` replaced, kept verbatim.

``pava`` and ``pava_bc`` here push one label at a time and merge blocks on a
stack. They are slow (about 0.3-0.5 s at 500k records) but plainly follow
their docstrings, so the tests hold the vectorized fits in ``caltest.binning``
to them array for array.
"""
from __future__ import annotations

from caltest.binning import IsotonicFit, _as_binary, _make_fit


def pava(labels_sorted) -> IsotonicFit:
    """Least-squares monotone non-decreasing fit by pooling adjacent violators.

    Adjacent blocks merge while the earlier mean is >= the later one; block
    mean comparisons use integer cross-multiplication, so there is no float
    tie ambiguity. The result has strictly increasing block means.
    """
    y = _as_binary(labels_sorted)
    sums: list[int] = []
    lengths: list[int] = []
    for v in y.tolist():
        sums.append(v)
        lengths.append(1)
        while len(sums) > 1 and sums[-2] * lengths[-1] >= sums[-1] * lengths[-2]:
            s, w = sums.pop(), lengths.pop()
            sums[-1] += s
            lengths[-1] += w
    return _make_fit(sums, lengths)


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
    """
    y = _as_binary(labels_sorted)
    n = y.size
    n_min, n_max = int(n_min), int(n_max)
    if not (0 <= n_min <= n_max <= n):
        raise ValueError(f"need 0 <= n_min <= n_max <= {n}, got ({n_min}, {n_max})")

    sums: list[int] = []
    lengths: list[int] = []
    for v in y[: n - n_min].tolist():
        sums.append(v)
        lengths.append(1)
        while len(sums) > 1:
            combined = lengths[-2] + lengths[-1]
            if combined > n_min:
                if combined > n_max:
                    break
                if sums[-2] * lengths[-1] < sums[-1] * lengths[-2]:
                    break
            s, w = sums.pop(), lengths.pop()
            sums[-1] += s
            lengths[-1] += w

    tail_sum = int(y[n - n_min :].sum())
    if sums and lengths[-1] + n_min <= n_max:
        sums[-1] += tail_sum
        lengths[-1] += n_min
    elif n_min > 0 or not sums:
        # n_min == 0 with a non-empty sweep has an empty tail: nothing to add.
        sums.append(tail_sum)
        lengths.append(n_min)
    return _make_fit(sums, lengths)
