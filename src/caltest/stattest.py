"""Two-sided hypothesis tests of a bin's labels against a hypothesized probability.

The default test is the exact binomial test: the p-value is the total mass of
all outcomes no more probable than the observed count, with a small relative
slack so float-equal masses are treated as ties. All binomial mass arithmetic
happens in log space.

Most tests are settled in numpy (``binom_screen``); the exact kernel
(``binom_pvalues_sweep``) takes the tests the screen leaves. Both form log
C(n, j) from one table of log j! (``_log_fact_table``), which serves every
n up to its size, and find the block of outcomes more probable than the
observed count with one search (``_excluded_block``). ``scipy.special`` is
imported only for the kernel's incomplete beta tails and by the t-test.

``rejection_test`` is the one decision the metrics ask for: over the bins
of one pass, which q of each chunk of predictions the test rejects.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable

import numpy as np

__all__ = [
    "TestConfig",
    "binom_pvalues_sweep",
    "binom_screen",
    "rejection_test",
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
    from scipy.special import betainc

    lower = np.where(below > 0, betainc(n - below + 1, below, 1.0 - q), 0.0)
    upper = np.where(above < n, betainc(above + 1, n - above, q), 0.0)
    return lower + upper


_LOG_FACT_HEAD = np.array([math.lgamma(j + 1.0) for j in range(256)])  # log j!, j < 256
_LOG_FACT_HEAD.flags.writeable = False
# Pairs per pass of the exact kernel, which holds about twenty arrays of that
# length: about 115 bytes a pair, so under 0.5 MiB a pass.
_KERNEL_CHUNK = 1 << 12


def _log_fact_table(n: int) -> np.ndarray:
    """log j! for j = 0..n, then ``_TAIL_TERMS`` entries of +inf: 8 bytes per entry.

    log j! is ``math.lgamma`` below 256 and Stirling's series up to its
    1/(1260 j^5) term from there, evaluated in chunks of ``_KERNEL_CHUNK``.
    """
    table = np.full(n + 1 + _TAIL_TERMS, np.inf)
    head = min(n + 1, _LOG_FACT_HEAD.size)
    table[:head] = _LOG_FACT_HEAD[:head]
    for start in range(head, n + 1, _KERNEL_CHUNK):
        j = np.arange(float(start), float(min(start + _KERNEL_CHUNK, n + 1)))
        inv = 1.0 / j
        inv2 = inv * inv
        series = inv * (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 / 1260.0))
        leading = (j + 0.5) * np.log(j) - j + 0.5 * math.log(2.0 * math.pi)
        table[start : start + j.size] = leading + series
    return table


def _binom_pvalues(n: int, k, q, log_fact: np.ndarray | None = None) -> np.ndarray:
    """Two-sided binomial p-values for counts k against probabilities q, elementwise.

    For each (k, q) the p-value sums the masses of all outcomes j with
    pmf(j) <= pmf(k) * (1 + slack). q = 0 and q = 1 put all mass on one
    outcome. The other pairs are taken ``_KERNEL_CHUNK`` at a time, so the
    memory does not grow with their number. The outcomes outside the block
    of ``_excluded_block`` form two tails, each one regularized incomplete
    beta value; a pair whose mode is no more probable than k, within the
    slack, has p = 1. ``log_fact`` is built if not given.
    """
    k, q = np.broadcast_arrays(np.asarray(k, dtype=np.int64), np.asarray(q, dtype=np.float64))
    out = np.where(q == 0.0, k == 0, k == n).astype(np.float64)
    interior = (q > 0.0) & (q < 1.0)
    if not np.any(interior):
        return out

    log_fact = _log_fact_table(n) if log_fact is None else log_fact
    pairs = np.flatnonzero(interior)
    for start in range(0, pairs.size, _KERNEL_CHUNK):
        chunk = pairs[start : start + _KERNEL_CHUNK]
        logpmf, thresh, mode, lo, hi = _excluded_block(n, log_fact, k[chunk], q[chunk])
        p = np.where(logpmf(mode) <= thresh, 1.0, _binom_tails(n, lo, hi, q[chunk]))
        out[chunk] = np.clip(p, 0.0, 1.0)
    return out


def _excluded_block(n, log_fact: np.ndarray, k, q: np.ndarray):
    """The outcomes more probable than k under Binomial(n, q), for each q in (0, 1).

    n and k are scalars or one per q, and ``log_fact`` a ``_log_fact_table``
    of at least the largest n. Returns ``(logpmf, thresh, mode, lo, hi)``:
    ``logpmf(j, at, shift)`` is the log mass of outcome j, less shift, under
    the (n, q) picked by at (all by default), with log C(n, j) = (log n! -
    log m!) - log (n - m)!, m = min(j, n - j), so a j within ``_TAIL_TERMS``
    outside [0, n] reads a +inf entry and has mass 0; thresh is the log mass
    of k plus the slack. The pmf is unimodal, so the outcomes above thresh
    form a block [lo, hi] around its mode. One binary search finds its lower
    edge on [0, mode], where the mass rises with j, and its upper edge on the
    mirrored pmf j -> n - j over [0, n - mode]; lo = hi = mode if it is empty.
    """
    n = np.broadcast_to(n, q.shape)
    logq, log1mq = np.log(q), np.log1p(-q)
    slope, base, log_n_fact = logq - log1mq, n * log1mq, log_fact[n]

    def logpmf(j, at=slice(None), shift=0.0):
        m = np.minimum(j, n[at] - j)
        log_coeff = (log_n_fact[at] - log_fact[m]) - log_fact[n[at] - m]
        return log_coeff + ((base[at] - shift) + j * slope[at])

    thresh = logpmf(k) + _LOG_SLACK
    mode = np.minimum(np.floor((n + 1) * q).astype(np.int64), n)
    lo = _first_above(lambda j: logpmf(j) > thresh, mode, n)
    hi = n - _first_above(lambda j: logpmf(n - j) > thresh, n - mode, n)
    return logpmf, thresh, mode, lo, hi


def _first_above(above, hi: np.ndarray, n) -> np.ndarray:
    """Per pair, the first index j on [0, hi] with ``above(j)``, or hi when none is.

    ``above`` must be false and then true on [0, hi], with hi <= n; every
    pair's search ends within bit_length(max n) halvings.
    """
    last = hi
    lo = np.zeros_like(hi)
    for _ in range(int(np.max(n)).bit_length() + 1):
        mid = (lo + hi) // 2
        up = above(mid)
        hi = np.where(up, mid, hi)
        lo = np.where(up, lo, mid + 1)
        if np.all(lo >= hi):
            break
    return np.minimum(lo, last)


def binom_pvalues_sweep(n: int, k: int, qs: np.ndarray, log_fact=None) -> np.ndarray:
    """Two-sided binomial p-values for fixed (n, k) over an array of probabilities."""
    _validate_nk(n, k)
    qs = np.asarray(qs, dtype=np.float64)
    if not np.all((qs >= 0.0) & (qs <= 1.0)):
        raise ValueError("q must lie in [0, 1]")
    return _binom_pvalues(n, k, qs, log_fact)


# Settling most tests in numpy (binom_screen). _EPS is float64's machine epsilon.
_EPS = float(np.finfo(np.float64).eps)
# Relative margin of every numpy decision over the exact kernel's own
# rounding: its tails are held to 50-digit sums within 1e-9 relative.
_KERNEL_MARGIN = 1e-8
# Below this alpha the kernel's p-values near alpha lose their precision to
# subnormal rounding, so the screen leaves every q in (0, 1) to the kernel.
_LEAST_ALPHA = 1e-300
# q per pass of the tail sums; terms per tail per step, which settle almost
# every q in one step; steps before a q is left to the exact kernel.
_SCREEN_GROUP = 1 << 10
_TAIL_TERMS = 16
_TAIL_STEPS = 128


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


def _screen_bounds(n: int, k: int, alpha: float) -> tuple[float, float, float]:
    """Steps 1 and 2 of ``binom_screen`` for one (n, k), and log n!.

    The steps bound x = log q^k (1 - q)^(n - k): q is rejected below the
    first bound and accepted from the second up. For the second, 2nH(k/n, q)
    = 2 (c - x), c = k log(k/n) + (n - k) log(1 - k/n), and its float error,
    below 32 eps (|c| + |x| + 1), is added before it is held to z^2, z the
    alpha * (1 + margin) quantile of the standard normal.
    """
    _validate_nk(n, k)
    log_n_fact = math.lgamma(n + 1.0)
    log_coeff = log_n_fact - math.lgamma(k + 1.0) - math.lgamma(n - k + 1.0)
    reject = math.log(alpha) - math.log(2.0) - log_coeff - _LOG_SLACK - math.log(n + 1)
    target = alpha * (1.0 + _KERNEL_MARGIN + 4 * (n + 1) * _EPS)
    if target >= 0.5:  # Phi(-sqrt(2nH)) <= 1/2: the certificate cannot accept
        return reject, math.inf, log_n_fact
    z = NormalDist().inv_cdf(target)
    c = (k * math.log(k / n) if k else 0.0) + ((n - k) * math.log1p(-k / n) if k < n else 0.0)
    kappa = 32 * _EPS
    return reject, (2.0 * c + kappa * (abs(c) + 1.0) - z * z) / (2.0 + kappa), log_n_fact


def _tail_screen(n, k, q, err, alpha, log_fact):
    """Step 3 of ``binom_screen``, each q in (0, 1) with its n, k and err: (rejected, undecided)."""
    rejected, undecided = np.zeros((2, q.size), dtype=bool)
    log_alpha = math.log(alpha)  # terms are summed in units of alpha
    # Column 0 is the lower tail, which steps down; column 1 the upper.
    ways = np.array([-1, 1])
    steps = ways[:, None] * np.arange(_TAIL_TERMS)
    for start in range(0, q.size, _SCREEN_GROUP):
        part = slice(start, start + _SCREEN_GROUP)
        qg, ng, eg = q[part], n[part], err[part]
        logpmf, thresh, mode, lo, hi = _excluded_block(ng, log_fact, k[part], qg)
        peak = logpmf(mode) - thresh
        inside = np.minimum(logpmf(lo), logpmf(hi)) - thresh
        outside = np.maximum(logpmf(lo - 1), logpmf(hi + 1)) - thresh  # -inf past 0 and n
        sure = (peak > eg) & (inside > eg) & (outside < -eg)
        undecided[part] = ~sure & (peak >= -eg)  # a flat q, p = 1, is accepted
        # The q being summed: the next index of each tail, the sum so far, and
        # the margin that settles it.
        at = np.flatnonzero(sure)
        nxt = np.stack([lo[at] - 1, hi[at] + 1], axis=1)
        total = np.zeros(at.size)
        tol = _KERNEL_MARGIN + eg[at]
        # pmf(j -/+ 1) / pmf(j) = m / (n + 1 - m) times these, m = j or n - j;
        # rounded up past their error.
        odds = qg[at] / (1.0 - qg[at])
        odds = np.stack([1.0 / odds, odds], axis=1) * (1.0 + eg[at, None])
        for _ in range(_TAIL_STEPS):
            if not at.size:
                break
            j = (nxt[:, :, None] + steps).reshape(at.size, -1)
            total += np.exp(logpmf(j, at[:, None], log_alpha)).sum(axis=1)
            n_at = ng[at, None]
            nxt += ways * _TAIL_TERMS
            np.clip(nxt, -1, n_at + 1, out=nxt)
            m = n_at * (ways > 0) - nxt * ways
            ratio = m / (n_at + 1.0 - m) * odds
            rest = np.exp(logpmf(nxt, at[:, None], log_alpha))
            np.divide(rest, 1.0 - ratio, out=rest, where=ratio < 1.0)
            rest[~(ratio < 1.0)] = np.inf
            accept = total > 1.0 + tol
            reject = total + rest.sum(axis=1) < 1.0 - tol
            rejected[start + at[reject]] = True
            keep = ~(accept | reject)
            at, nxt, total, tol, odds = at[keep], nxt[keep], total[keep], tol[keep], odds[keep]
        undecided[start + at] = True
    return rejected, undecided


def rejection_test(cfg: TestConfig, counts, label_sums, labels_in) -> Callable:
    """For the bins of one pass, the function that says whether cfg's test rejects each q.

    Bin b holds ``counts[b]`` labels, ``label_sums[b]`` of them 1, which
    ``labels_in(b)`` returns; the function takes the number of q of each bin
    and the q, bin after bin. The binomial test screens each q with its
    bin's (n, k) and sends the rest to the exact kernel, both in one table of
    log j! built here. The t-test takes each bin's mean and n-1 standard
    deviation here; one record or zero variance rejects every q but the mean.
    """
    counts, label_sums, alpha = np.asarray(counts), np.asarray(label_sums), cfg.alpha
    if cfg.kind == "binomial":
        log_fact = _log_fact_table(int(counts.max()))

        def binomial(per_bin: np.ndarray, qs: np.ndarray) -> np.ndarray:
            bins = np.repeat(np.arange(counts.size), per_bin)
            rejected, undecided = binom_screen(counts[bins], label_sums[bins], qs, alpha, log_fact)
            for b in sorted(set(bins[undecided].tolist())):
                at = undecided & (bins == b)
                p = binom_pvalues_sweep(int(counts[b]), int(label_sums[b]), qs[at], log_fact)
                rejected[at] = p < alpha
            return rejected

        return binomial
    means, scales = np.zeros(counts.size), np.zeros(counts.size)
    for b in np.flatnonzero(counts).tolist():
        labels = np.asarray(labels_in(b), dtype=np.float64)
        means[b] = labels.mean()
        scales[b] = labels.std(ddof=1) / math.sqrt(labels.size) if labels.size > 1 else 0.0

    def t_test(per_bin: np.ndarray, qs: np.ndarray) -> np.ndarray:
        from scipy.special import stdtr

        mean, scale, df = (np.repeat(v, per_bin) for v in (means, scales, counts - 1))
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero scale takes qs != mean
            p = 2.0 * stdtr(df, -np.abs((mean - qs) / scale))
        return np.where(scale > 0.0, p < alpha, qs != mean)

    return t_test
