"""Two-sided hypothesis tests of a bin's labels against a hypothesized probability.

The default test is the exact binomial test: the p-value is the total mass of
all outcomes no more probable than the observed count, with a small relative
slack so float-equal masses are treated as ties. All binomial mass arithmetic
happens in log space.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, gammaln, stdtr

__all__ = [
    "TestConfig",
    "binom_pvalues_sweep",
    "binom_undecided",
    "t_pvalues_sweep",
]

# Relative slack when comparing outcome masses against the observed mass.
MASS_SLACK = 1e-7
_LOG_SLACK = math.log1p(MASS_SLACK)

TEST_KINDS = ("binomial", "t")


@dataclass(frozen=True)
class TestConfig:
    """Choice of test and significance level; tests are always two-sided."""

    __test__ = False  # not a pytest class, despite the name

    kind: str = "binomial"
    alpha: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in TEST_KINDS:
            raise ValueError(f"unknown test kind {self.kind!r}; expected one of {TEST_KINDS}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")


def _log_binom_coeffs(n: int) -> np.ndarray:
    """log C(n, j) for j = 0..n, from one gammaln evaluation per index.

    The table of log j! is the only scratch array: it is evaluated in place
    and freed when the table of coefficients is done.
    """
    log_fact = np.arange(1.0, n + 2.0)  # j + 1
    gammaln(log_fact, out=log_fact)  # log j!
    coeffs = log_fact[n] - log_fact
    coeffs -= log_fact[::-1]
    return coeffs


def _validate_nk(n: int, k: int) -> None:
    if n != int(n) or n < 1:
        raise ValueError("n must be a positive integer")
    if k != int(k) or not (0 <= k <= n):
        raise ValueError("k must be an integer in [0, n]")


def _binom_tails(n: int, below: np.ndarray, above: np.ndarray, q) -> np.ndarray:
    """P(X < below) + P(X > above) for X ~ Binomial(n, q), 0 < q < 1.

    Each tail is one regularized incomplete beta value. The upper tail equals
    SciPy's ``binom.sf`` bit for bit. The lower tail takes 1 - q as its
    argument; it equals SciPy's ``binom.cdf`` bit for bit for q >= 1/2, where
    1 - q is exact, and within about n * eps relative below that.
    ``betaincc`` at q would skip the rounding, but it differs from
    ``binom.cdf`` in the last bits on most inputs, and ``binomtest``, the
    oracle this kernel is held to, sums ``binom.cdf``.
    """
    lower = np.where(below > 0, betainc(n - below + 1, below, 1.0 - q), 0.0)
    upper = np.where(above < n, betainc(above + 1, n - above, q), 0.0)
    return lower + upper


# Pairs per pass of the exact kernel, which holds about twenty arrays of that
# length: about 115 bytes a pair, so under 0.5 MiB a pass.
_KERNEL_CHUNK = 1 << 12


def _binom_pvalues(n: int, k: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Two-sided binomial p-values for counts k against probabilities q, elementwise.

    For each (k, q) the p-value sums the masses of all outcomes j with
    pmf(j) <= pmf(k) * (1 + slack). q = 0 and q = 1 put all mass on one
    outcome. The other pairs go through ``_interior_pvalues`` in chunks of
    ``_KERNEL_CHUNK``, so its memory does not grow with their number.
    """
    k, q = np.broadcast_arrays(np.asarray(k, dtype=np.int64), np.asarray(q, dtype=np.float64))
    out = np.where(q == 0.0, k == 0, k == n).astype(np.float64)
    interior = (q > 0.0) & (q < 1.0)
    if not np.any(interior):
        return out

    coeffs = _log_binom_coeffs(n)
    pairs = np.flatnonzero(interior)
    for start in range(0, pairs.size, _KERNEL_CHUNK):
        chunk = pairs[start : start + _KERNEL_CHUNK]
        out[chunk] = _interior_pvalues(n, coeffs, k[chunk], q[chunk])
    return out


def _interior_pvalues(n: int, coeffs: np.ndarray, k: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The p-values of pairs with 0 < q < 1, given ``coeffs = _log_binom_coeffs(n)``.

    The pmf is unimodal, so the excluded outcomes form a contiguous block
    around the mode. One binary search finds its lower edge on [0, mode],
    where the mass rises with j, and its upper edge on the mirrored pmf
    j -> n - j over [0, n - mode], so the cost per pair is logarithmic in n.
    The two tails outside it are each one regularized incomplete beta value.
    """
    logq = np.log(q)
    log1mq = np.log1p(-q)

    def logpmf_at(idx: np.ndarray) -> np.ndarray:
        return coeffs[idx] + idx * logq + (n - idx) * log1mq

    thresh = coeffs[k] + k * logq + (n - k) * log1mq + _LOG_SLACK
    mode = np.minimum(np.floor((n + 1) * q).astype(np.int64), n)
    flat = logpmf_at(mode) <= thresh  # observed count is effectively the mode
    first_above = _first_above(lambda j: logpmf_at(j) > thresh, mode, n)
    last_above = n - _first_above(lambda j: logpmf_at(n - j) > thresh, n - mode, n)
    p = np.where(flat, 1.0, _binom_tails(n, first_above, last_above, q))
    return np.clip(p, 0.0, 1.0)


def _first_above(above, hi: np.ndarray, n: int) -> np.ndarray:
    """Per pair, the first index j on [0, hi] with ``above(j)``, or hi when none is.

    ``above`` must be false and then true on [0, hi], with hi <= n; every
    pair's search ends within bit_length(n) halvings.
    """
    lo = np.zeros_like(hi)
    for _ in range(int(n).bit_length() + 1):
        mid = (lo + hi) // 2
        up = above(mid)
        hi = np.where(up, mid, hi)
        lo = np.where(up, lo, mid + 1)
        if np.all(lo >= hi):
            break
    return lo


def binom_pvalues_sweep(n: int, k: int, qs: np.ndarray) -> np.ndarray:
    """Two-sided binomial p-values for fixed (n, k) over an array of probabilities."""
    _validate_nk(n, k)
    qs = np.asarray(qs, dtype=np.float64)
    if not np.all((qs >= 0.0) & (qs <= 1.0)):
        raise ValueError("q must lie in [0, 1]")
    return _binom_pvalues(n, k, qs)


def binom_undecided(n: int, k: int, qs: np.ndarray, alpha: float) -> np.ndarray:
    """Whether each q needs the exact kernel to decide the binomial test at level alpha.

    The p-value sums at most n + 1 outcome masses, each no larger than
    pmf(k) * (1 + slack), so p <= (n + 1) * pmf(k) * (1 + slack). A q in
    (0, 1) whose bound lies below alpha / 2 is rejected on that bound alone,
    so ``binom_pvalues_sweep(n, k, q) < alpha`` for it; the factor 2 is a
    margin far above the float error of the bound and of the exact kernel.
    The rest (0, 1 and the q near k / n) are undecided.
    """
    _validate_nk(n, k)
    qs = np.asarray(qs, dtype=np.float64)
    interior = (qs > 0.0) & (qs < 1.0)
    q = qs[interior]
    log_coeff = gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)
    log_bound = log_coeff + k * np.log(q) + (n - k) * np.log1p(-q) + _LOG_SLACK + math.log(n + 1)
    undecided = ~interior
    undecided[interior] = log_bound >= math.log(alpha / 2)
    return undecided


def t_pvalues_sweep(labels: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Two-sided one-sample t-test p-values of H0: mean(labels) = q, for each q in qs.

    Uses the n-1 sample standard deviation and the Student-t distribution with
    n-1 degrees of freedom. A zero-variance sample gives p = 1 when q equals
    the common value and p = 0 otherwise, matching the limiting t statistic.
    """
    labels = np.asarray(labels, dtype=np.float64)
    qs = np.asarray(qs, dtype=np.float64)
    n = labels.size
    if n < 2:
        raise ValueError("t-test requires at least two observations")
    mean = labels.mean()
    sd = labels.std(ddof=1)
    if sd == 0.0:
        return np.where(qs == mean, 1.0, 0.0)
    t = (mean - qs) / (sd / math.sqrt(n))
    return 2.0 * stdtr(n - 1, -np.abs(t))
