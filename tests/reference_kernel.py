"""Parts of the exact binomial kernel that ``caltest.stattest`` replaced, kept verbatim.

``_interior_pvalues`` here finds the lower edge of the excluded block with a
left-leaning binary search and the upper edge with a right-leaning one, in a
table of log binomial coefficients from ``gammaln`` (``_log_binom_coeffs``).
The tests hold the kernel in ``caltest.stattest``, with its single mirrored
search in its own table, to it byte for byte, and ``_log_binom_coeffs`` to
the three-array expression ``log_binom_coeffs``.
"""
from __future__ import annotations

import numpy as np
from scipy.special import gammaln

from caltest.stattest import _LOG_SLACK, _binom_tails


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
