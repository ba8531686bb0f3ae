"""Parts of the exact binomial kernel that ``caltest.stattest`` replaced, kept verbatim.

``_interior_pvalues`` here finds the lower edge of the excluded block with a
left-leaning binary search and the upper edge with a right-leaning one, in a
table of log binomial coefficients from ``gammaln`` (``_log_binom_coeffs``).
The tests hold the kernel in ``caltest.stattest``, with its single mirrored
search in its own table, to it byte for byte, and ``_log_binom_coeffs`` to
the three-array expression ``log_binom_coeffs``. ``_log_binom_table`` is the
table of log C(n, j) that the screen and the kernel read before they formed
each coefficient from one table of log j!; the tests hold every coefficient
so formed to it byte for byte. ``binom_screen`` is the per-q screen that
``caltest.stattest.rejection_test`` replaced with a boundary search per bin:
the tests hold the q that search leaves, and every decision, to it.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

from caltest.stattest import (
    _EPS,
    _KERNEL_CHUNK,
    _LEAST_ALPHA,
    _LOG_SLACK,
    _TAIL_TERMS,
    _binom_tails,
    _log_fact_table,
    _screen_bounds,
    _tail_screen,
)


def _interior_pvalues(n: int, coeffs: np.ndarray, k: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The p-values of pairs with 0 < q < 1, given ``coeffs = _log_binom_coeffs(n)``.

    The pmf is unimodal, so the excluded outcomes form a contiguous block
    around the mode. Its edges are located by a vectorized binary search on
    each half of the pmf, so the cost per pair is logarithmic in n, and the
    two tails outside it are each one regularized incomplete beta value.
    """
    logq = np.log(q)
    log1mq = np.log1p(-q)

    def logpmf_at(idx: np.ndarray) -> np.ndarray:
        return coeffs[idx] + idx * logq + (n - idx) * log1mq

    thresh = coeffs[k] + k * logq + (n - k) * log1mq + _LOG_SLACK
    mode = np.minimum(np.floor((n + 1) * q).astype(np.int64), n)
    peak = logpmf_at(mode)
    flat = peak <= thresh  # observed count is effectively the mode

    # First index on [0, mode] with mass above threshold (mass rises with j).
    lo = np.zeros(q.shape, dtype=np.int64)
    hi = mode.copy()
    for _ in range(int(n).bit_length() + 1):
        mid = (lo + hi) // 2
        above = logpmf_at(mid) > thresh
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid + 1)
        if np.all(lo >= hi):
            break
    first_above = lo

    # Last index on [mode, n] with mass above threshold (mass falls with j).
    lo = mode.copy()
    hi = np.full(q.shape, n, dtype=np.int64)
    for _ in range(int(n).bit_length() + 1):
        mid = (lo + hi + 1) // 2
        above = logpmf_at(mid) > thresh
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid - 1)
        if np.all(lo >= hi):
            break
    last_above = lo

    p = np.where(flat, 1.0, _binom_tails(n, first_above, last_above, q))
    return np.clip(p, 0.0, 1.0)


def log_binom_coeffs(n: int) -> np.ndarray:
    """log C(n, j) for j = 0..n, from one gammaln evaluation per index.

    Three arrays of n + 1 values are alive at its peak.
    """
    log_fact = gammaln(np.arange(n + 1) + 1.0)  # log j!
    return log_fact[n] - log_fact - log_fact[::-1]


def _log_binom_coeffs(n: int) -> np.ndarray:
    """log C(n, j) for j = 0..n, from one gammaln evaluation per index.

    The table of log j! is the only scratch array: it is evaluated in place
    and freed when the table of coefficients is done.
    """
    from scipy.special import gammaln

    log_fact = np.arange(1.0, n + 2.0)  # j + 1
    gammaln(log_fact, out=log_fact)  # log j!
    coeffs = log_fact[n] - log_fact
    coeffs -= log_fact[::-1]
    return coeffs


# log j! comes from math.lgamma for j below this, from Stirling's series above.
_STIRLING_FROM = 256
_LOG_FACT_HEAD = np.array([math.lgamma(j + 1.0) for j in range(_STIRLING_FROM)])
_LOG_FACT_HEAD.flags.writeable = False
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_binom_table(n: int) -> np.ndarray:
    """log C(n, j) for j = 0..n, then ``_TAIL_TERMS`` entries of -inf.

    8 bytes per entry, with 4 more per entry while it is built. log j! is
    ``math.lgamma`` below 256 and Stirling's series up to its 1/(1260 j^5)
    term from there, evaluated in chunks of ``_KERNEL_CHUNK``; C(n, j) =
    C(n, n - j) fills the upper half from the lower. The -inf entries are
    the mass of every j in [-_TAIL_TERMS, -1] and [n + 1, n + _TAIL_TERMS],
    since a negative index counts from the end.
    """
    table = np.full(n + 1 + _TAIL_TERMS, -np.inf)  # log j! first
    head = min(n + 1, _STIRLING_FROM)
    table[:head] = _LOG_FACT_HEAD[:head]
    for start in range(head, n + 1, _KERNEL_CHUNK):
        j = np.arange(float(start), float(min(start + _KERNEL_CHUNK, n + 1)))
        inv = 1.0 / j
        inv2 = inv * inv
        series = inv * (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 / 1260.0))
        table[start : start + j.size] = (j + 0.5) * np.log(j) - j + _HALF_LOG_2PI + series
    half = n // 2 + 1  # j = 0..n/2, whose mirrors n - j cover the rest
    low = table[n] - table[:half]
    low -= table[n - half + 1 : n + 1][::-1]
    table[:half] = low
    table[n - half + 1 : n + 1] = low[::-1]
    return table


def binom_screen(n, k, qs: np.ndarray, alpha: float, log_fact: np.ndarray | None = None):
    """Settle ``binom_pvalues_sweep(n, k, q) < alpha`` in numpy wherever a float margin allows.

    n and k are scalars or one per q of the 1-d qs, cheapest with equal
    (n, k) adjacent; ``log_fact`` is built if not given. Returns
    ``(rejected, undecided)``, two boolean arrays shaped like qs; a q in
    neither is accepted, and only the undecided q need the exact kernel.
    q = 0 and q = 1 put all mass on one outcome, so p is 0 or 1. Each q in
    (0, 1) meets three steps; a step decides only beyond its margin.

    1. Reject bound. p sums at most n + 1 outcome masses, each at most
       pmf(k) * (1 + slack), so q is rejected when (n + 1) * pmf(k) *
       (1 + slack) < alpha / 2. The factor 2 is the margin.
    2. Accept certificate. If k <= nq, every j < k is less probable than k,
       so p >= P(X <= k) >= Phi(-sqrt(2n H(k/n, q))), H the Bernoulli
       relative entropy (Zubkov & Serov 2013, Theory Probab. Appl. 57(3));
       k >= nq is the mirror image. q is accepted when that bound is at least
       alpha * (1 + 1e-8 + 4 (n + 1) eps), with 2nH taken up by its float error.
    3. Tail sums, for the q still open, in groups of ``_SCREEN_GROUP``. The
       block of outcomes more probable than k is the exact kernel's: the
       same search (``_excluded_block``) finds it from the same table of
       log j!. Each tail is summed outward from the block,
       ``_TAIL_TERMS`` terms a step. q is accepted once the sum exceeds
       alpha * (1 + tol), and rejected once the sum plus a bound on each
       tail's rest stays below alpha * (1 - tol). A tail's rest is at most
       its next term / (1 - r), r the ratio of that term's successor to it,
       since the ratio shrinks outward. A q stays undecided when the mode or
       an edge of its block lies within ``err`` of the threshold, or when
       ``_TAIL_STEPS`` steps do not settle it.

    Error bound. Let L = log n! and M = max(|log q|, |log(1 - q)|). Every
    log-mass the search or the sums form, log C(n, j) + j log q +
    (n - j) log(1 - q) or the threshold, is a handful of operations on
    numbers of magnitude at most L + nM. With each of lgamma, log, log1p
    and exp within 4 ulp, it lies within 16 eps (L + nM + 1) of its exact
    value; the Stirling remainder, below 1 / (1680 j^7) < 1e-20 for
    j >= 256, adds nothing at that scale. So err = 64 eps (L + nM + 1)
    bounds the error of any such mass minus the threshold, twice over.
    Hence a block whose mode and edges clear the threshold by err is also
    the block of exact arithmetic, since the true pmf rises to the mode
    and falls after it; the kernel's two incomplete beta tails hold the
    outcomes summed here. Each summed term is within a relative err of its
    exact value. tol = 1e-8 + err covers that, the rounding of at
    most 2 * _TAIL_TERMS * _TAIL_STEPS additions and of the scaling by
    alpha (alpha >= 1e-300, so |log alpha| < 691), and the kernel's own
    error: its incomplete beta values agree with 50-digit sums within 1e-9,
    and its lower tail may carry (n + 1) eps more from rounding 1 - q, which
    err exceeds.
    """
    qs = np.asarray(qs, dtype=np.float64)
    if not np.all((qs >= 0.0) & (qs <= 1.0)):
        raise ValueError("q must lie in [0, 1]")
    n, k = np.broadcast_to(n, qs.shape), np.broadcast_to(k, qs.shape)
    # Steps 1 and 2 take their bounds once per run of equal (n, k).
    runs = np.flatnonzero((np.diff(n, prepend=-1) != 0) | (np.diff(k, prepend=-1) != 0))
    bounds = [_screen_bounds(a, b, alpha) for a, b in zip(n[runs].tolist(), k[runs].tolist())]
    lengths = np.diff(runs, append=qs.size)
    reject_bound, accept_floor, log_n_fact = np.reshape(bounds, (-1, 3)).T
    with np.errstate(divide="ignore", invalid="ignore"):  # q = 0 or 1: -inf or 0 * -inf = nan
        logq, log1mq = np.log(qs), np.log1p(-qs)
        log_qk = k * logq + (n - k) * log1mq  # rejected by step 1 if -inf, accepted if nan
    rejected = log_qk < np.repeat(reject_bound, lengths)
    if alpha < _LEAST_ALPHA:  # the kernel takes every q in (0, 1), where log_qk is finite
        return rejected & ~np.isfinite(log_qk), np.isfinite(log_qk)
    undecided = np.zeros(qs.shape, dtype=bool)
    open_ = np.flatnonzero(~rejected & (log_qk < np.repeat(accept_floor, lengths)))
    if open_.size:
        log_fact = _log_fact_table(int(n.max())) if log_fact is None else log_fact
        log_n_fact = np.repeat(log_n_fact, lengths)[open_]
        n, k, q, logq, log1mq = (v[open_] for v in (n, k, qs, logq, log1mq))
        err = 64 * _EPS * (log_n_fact + n * np.maximum(-logq, -log1mq) + 1.0)
        rejected[open_], undecided[open_] = _tail_screen(n, k, q, err, alpha, log_fact)
    return rejected, undecided
