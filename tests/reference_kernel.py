"""Parts of the exact binomial kernel that ``caltest.stattest`` replaced, kept verbatim.

``_interior_pvalues`` here finds the lower edge of the excluded block with a
left-leaning binary search and the upper edge with a right-leaning one, in a
table of log binomial coefficients from ``gammaln`` (``_log_binom_coeffs``).
The tests hold the kernel in ``caltest.stattest``, with its single mirrored
search in its own table, to it byte for byte, and ``_log_binom_coeffs`` to
the three-array expression ``log_binom_coeffs``. ``_log_binom_table`` is the
table of log C(n, j) that the screen and the kernel read before they formed
each coefficient from one table of log j!; the tests hold every coefficient
so formed to it byte for byte.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

from caltest.stattest import _KERNEL_CHUNK, _LOG_SLACK, _TAIL_TERMS, _binom_tails


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
