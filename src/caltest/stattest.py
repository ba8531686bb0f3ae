"""Two-sided hypothesis tests of a bin's labels against a hypothesized probability.

The default test is the exact binomial test: the p-value is the total mass of
all outcomes no more probable than the observed count, with a small relative
slack so float-equal masses are treated as ties. All binomial mass arithmetic
happens in log space.

Most tests are settled in numpy: per bin, from the bounds of two cheap
certificates located on the sorted predictions by one bisection, and for
the band of q between them by a geometric bound on both tails from three
masses, then by tail sums (``_tail_screen``). The exact kernel
(``binom_pvalues_sweep``) takes the tests those leave. Both form log C(n, j)
from one table of log j! (``_log_fact_table``), which serves every n up to
its size, and find the block of outcomes more probable than the observed
count with one search (``_excluded_block``). ``scipy.special`` is imported
only for the kernel's incomplete beta tails and by the t-test.

``rejection_test`` is the one decision the metrics ask for: over the bins
of one pass, which records the test rejects by its bounds alone, which
records are left, and the function that decides those.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "TestConfig",
    "binom_pvalues_sweep",
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


# Settling most tests in numpy (rejection_test). _EPS is float64's machine epsilon.
_EPS = float(np.finfo(np.float64).eps)
# Relative margin of every numpy decision over the exact kernel's own
# rounding: its tails are held to 50-digit sums within 1e-9 relative.
_KERNEL_MARGIN = 1e-8
# Below this alpha the kernel's p-values near alpha lose their precision to
# subnormal rounding, so every q in (0, 1) is left to the kernel.
_LEAST_ALPHA = 1e-300
# q per pass of the tail sums; terms per tail per step, which settle almost
# every q in one step; steps before a q is left to the exact kernel.
_SCREEN_GROUP = 1 << 10
_TAIL_TERMS = 16
_TAIL_STEPS = 128
# Where the geometric certificate probes the far side: this fraction of the
# way from the mode to k's mirror image.
_FAR_PROBE = 3 / 5


def _screen_bounds(n: int, k: int, alpha: float) -> tuple[float, float, float]:
    """The reject bound R and accept bound A of the binomial test for one (n, k), and log n!.

    The bounds hold x = log q^k (1 - q)^(n - k): q is rejected below R and
    accepted from A up. For A, 2nH(k/n, q) = 2 (c - x), c = k log(k/n) +
    (n - k) log(1 - k/n), and its float error, below 32 eps (|c| + |x| + 1),
    is added before it is held to z^2, z the alpha * (1 + margin) quantile
    of the standard normal.
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


def _geometric_rejects(n, k, q, err, log_alpha, log_fact) -> np.ndarray:
    """Which q the two-tail geometric certificate rejects, each q in (0, 1) with its n, k and err.

    Let s = sign(mode - k), the mode as ``_excluded_block`` takes it, and
    thresh = logpmf(k) + slack. Three masses are probed: k, k + s and f =
    mode + s floor(3/5 |k - mode|), clipped to [0, n]. When logpmf(k + s)
    and logpmf(f) both clear thresh by err, the kernel's block runs from
    k + s to past f, so its p-value is at most

        pmf(k) / (1 - r) + pmf(k) (1 + slack) / (1 - rho),

    r the outward ratio at k (pmf(k - s) / pmf(k)) and rho the one at f + s,
    and q is rejected when that bound, each term scaled up by e^err and
    each ratio by 1 + err, is below alpha * (1 - tol), tol = 1e-8 + err.
    k = mode, or a ratio of 1 or more, rejects nothing. ``_tail_screen``
    gives the proof.
    """
    logq, log1mq = np.log(q), np.log1p(-q)
    slope, base, log_n_fact = logq - log1mq, n * log1mq, log_fact[n]

    def logpmf(j):  # _excluded_block's expression
        m = np.minimum(j, n - j)
        return ((log_n_fact - log_fact[m]) - log_fact[n - m]) + (base + j * slope)

    mode = np.minimum(np.floor((n + 1) * q).astype(np.int64), n)
    s = np.sign(mode - k)
    far = np.clip(mode + s * (np.abs(mode - k) * _FAR_PROBE).astype(np.int64), 0, n)
    at_k, near, at_far = logpmf(np.stack([k, k + s, far]))
    thresh = at_k + _LOG_SLACK
    # pmf(j + w) / pmf(j) = m / (n + 1 - m) * (q / (1 - q))^w, m = n - j for
    # w = 1 and j for w = -1; rounded up past its error. Past 0 or n, m < 0.
    m = np.stack([np.where(s > 0, k, n - k), np.where(s > 0, n - far - 1, far - 1)])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # q near 0 or 1
        odds = np.where(s > 0, q / (1.0 - q), (1.0 - q) / q)
        ratio = m / (n + 1.0 - m) * np.stack([1.0 / odds, odds]) * (1.0 + err)
        bound = np.exp(np.stack([at_k, thresh]) + (err - log_alpha)) / (1.0 - ratio)
    bound[1, m[1] < 0] = 0.0  # f is 0 or n: the far tail is empty
    clear = (near - thresh > err) & (at_far - thresh > err) & np.all(ratio < 1.0, axis=0)
    return clear & (bound.sum(axis=0) < 1.0 - (_KERNEL_MARGIN + err))


def _tail_screen(n, k, q, err, alpha, log_fact):
    """Step 3 of the binomial test, each q in (0, 1) with its n, k and err: (rejected, undecided).

    First, in groups of ``_SCREEN_GROUP`` q, the geometric certificate
    (``_geometric_rejects``) rejects q from three masses, without the block
    search. The q it leaves, gathered from all groups, are summed. The
    block of outcomes more probable than k is the exact kernel's: the
    same search (``_excluded_block``) finds it from the same table of log
    j!. Each tail is summed outward from the block, ``_TAIL_TERMS`` terms a
    step, in groups of ``_SCREEN_GROUP`` q. q is accepted once the sum
    exceeds alpha * (1 + tol), and rejected once the sum plus a bound on
    each tail's rest stays below alpha * (1 - tol). A tail's rest is at
    most its next term / (1 - r), r the ratio of that term's successor to
    it, since the ratio shrinks outward. A q stays undecided when the mode
    or an edge of its block lies within ``err`` of the threshold, or when
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

    The certificate's bound. Take k below the mode (above it is the mirror
    image), f its far probe, and say mass(k + 1) and mass(f) clear thresh
    by err, so their exact log-masses clear the exact threshold by err / 2.
    The kernel's lower search reads only j below its mode and the upper
    one only j above it, and the rounded mode is within one of the true
    one; so its lower search reads a rising pmf and its upper one a falling
    pmf. The log-pmf is concave, so mass(k - 1) lies below mass(k) by more
    than err / 2 + slack, and every j < k is read below thresh; k itself
    is never above it. Every j read from k + 1 to f is above. So the
    kernel's block starts at k + 1, and its lower tail is P(X <= k) <=
    pmf(k) / (1 - r), r = pmf(k - 1) / pmf(k) being the largest ratio below
    k. Its block ends at some hi >= f, with hi = n or mass(hi + 1) read at
    or below thresh, so pmf(hi + 1) <= pmf(k) (1 + slack) e^err; the upper
    tail is at most that over 1 - rho(hi + 1) <= 1 - rho(f + 1), rho(j) =
    pmf(j + 1) / pmf(j). Rounding the ratios up by 1 + err and each term
    up by e^err, and holding the sum below alpha * (1 - tol), covers the
    rest as it does for the sums. Nor does the kernel give p = 1, which
    needs the rounded mode read at or below thresh: at or below the true
    mode its mass is at least mass(k + 1), and above it at least mass(f).
    """
    rejected, undecided = np.zeros((2, q.size), dtype=bool)
    log_alpha = math.log(alpha)  # terms are summed in units of alpha
    for start in range(0, q.size, _SCREEN_GROUP):
        part = slice(start, start + _SCREEN_GROUP)
        rejected[part] = _geometric_rejects(n[part], k[part], q[part], err[part], log_alpha, log_fact)
    # Column 0 is the lower tail, which steps down; column 1 the upper.
    ways = np.array([-1, 1])
    steps = ways[:, None] * np.arange(_TAIL_TERMS)
    left = np.flatnonzero(~rejected)  # the q the certificate leaves, summed in full groups
    for start in range(0, left.size, _SCREEN_GROUP):
        part = left[start : start + _SCREEN_GROUP]
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
            rejected[part[at[reject]]] = True
            keep = ~(accept | reject)
            at, nxt, total, tol, odds = at[keep], nxt[keep], total[keep], tol[keep], odds[keep]
        undecided[part[at]] = True
    return rejected, undecided


class Rejections(NamedTuple):
    """What ``rejection_test`` settles for the bins of one pass, and how it decides the rest.

    Bin b rejects the records at positions ``cuts[b]:below[b]`` and
    ``above[b]:cuts[b + 1]`` of the sorted view by the test's bounds alone.
    The records left lie in the slices ``starts[i]:ends[i]`` of bin
    ``owners[i]``: ascending, disjoint, non-empty and cut between runs of
    equal values. ``rejects(bins, qs)`` says whether the test rejects each
    q of those slices, each against its own bin. Every other record is
    accepted.
    """

    below: np.ndarray
    above: np.ndarray
    owners: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    rejects: Callable[[np.ndarray, np.ndarray], np.ndarray]


def _crossings(preds, lo, hi, k, rest, bound) -> np.ndarray:
    """Per search, a position j in [lo, hi] of the ascending preds at which
    x = k log q + rest log(1 - q) crosses bound from below.

    x is below bound at j - 1 unless j = lo, and not below it at j unless
    j = hi. One binary search over all the ranges finds every j; it needs no
    order of x on a range, since it reads only the positions it tests. An
    empty range reads the position before it and returns lo.
    """
    below, last = lo - 1, hi - 1  # the last position tested below bound; the range's last
    for step in (1 << np.arange(int((hi - lo).max(initial=0)).bit_length()))[::-1]:
        at = np.minimum(below + step, last)  # a test past the range tests its last
        q = preds[at]
        x = k * np.log(q) + rest * np.log1p(-q)
        below = np.where(x < bound, at, below)
    return below + 1


def _binomial_test(preds, cuts, label_sums, alpha) -> Rejections:
    """``rejection_test`` for the exact binomial test at alpha.

    In a bin of n records, k of them 1, q = 0 and q = 1 put all mass on one
    outcome, so p is 0 or 1: q = 0 is rejected unless k = 0, and q = 1
    unless k = n. Each q in (0, 1) meets three steps, and a step decides
    only beyond its margin:

    1. Reject bound. p sums at most n + 1 outcome masses, each at most
       pmf(k) * (1 + slack), so q is rejected when (n + 1) * pmf(k) *
       (1 + slack) < alpha / 2. The factor 2 is the margin.
    2. Accept certificate. If k <= nq, every j < k is less probable than k,
       so p >= P(X <= k) >= Phi(-sqrt(2n H(k/n, q))), H the Bernoulli
       relative entropy (Zubkov & Serov 2013, Theory Probab. Appl. 57(3));
       k >= nq is the mirror image. q is accepted when that bound is at least
       alpha * (1 + 1e-8 + 4 (n + 1) eps), with 2nH taken up by its float error.
    3. For the q still open, the band (``_tail_screen``): first a
       geometric certificate rejects q whose block of outcomes more
       probable than k starts next to k and reaches well past the mode,
       bounding each tail by its edge mass over one minus its outward
       ratio; tail sums then take the q it leaves. What they leave goes to
       the exact kernel, one call per bin and chunk.

    Steps 1 and 2 compare float x = k log q + (n - k) log1p(-q) with the
    bounds R and A of ``_screen_bounds``: q is rejected when x < R, and
    accepted when x >= max(R, A). They are decided per bin, not per q.
    Exact x rises up to q = k/n and falls after it, and float x lies within
    e = 64 eps (log n! + n M + 1) of it, M = max(|log q|, |log(1 - q)|) at
    the bin's first and last q in (0, 1), since M is largest at an end; x is
    two logs, two products and a sum on terms of magnitude at most nM,
    within 6 eps nM. Windows: one bisection per side of k/n and bound finds
    where float x crosses R - 2e and max(R, A) + 2e, each moved out by a
    further 2 eps of its own magnitude for its rounding.
    Every q outward of the first crossing has exact x below R - e, so float
    x below R, and every q inward of the second has float x at least
    max(R, A): each is decided as comparing its own float x decides it.
    The q between the crossings, which hold the band, and the q equal to
    the float k/n are compared one by one, with the same expression. With
    alpha below ``_LEAST_ALPHA`` every q in (0, 1) goes to the exact kernel.

    The table of log j! is built at the first q that needs it, sized to the
    largest bin with q left, and serves the tail sums and the kernel.
    """
    counts = np.diff(cuts)
    filled = np.flatnonzero(counts)
    lo, hi, n, k = cuts[filled], cuts[filled + 1], counts[filled], label_sums[filled]
    bounds = np.zeros((3, counts.size))
    bounds[:, filled] = np.reshape(
        [_screen_bounds(a, b, alpha) for a, b in zip(n.tolist(), k.tolist())], (-1, 3)
    ).T
    reject, accept, log_n_fact = bounds
    # Each bin's q = 0 end before z0, and its q = 1 start at z1.
    z0 = np.minimum(np.maximum(preds.searchsorted(0.0, side="right"), lo), hi)
    z1 = np.minimum(np.maximum(preds.searchsorted(1.0, side="left"), lo), hi)
    if alpha < _LEAST_ALPHA:
        left, right, slices = z0, z1, [(z0, z1)]
    else:
        # The sides of the peak k/n, one range each: q < k/n in [z0, a), where
        # x rises, and q > k/n in [b, z1), where it falls.
        a, b = (np.minimum(np.maximum(preds.searchsorted(k / n, s), z0), z1) for s in ("left", "right"))
        # Each side's crossings of R - 2e and of max(R, A) + 2e; on the falling
        # side -x crosses their negatives from below.
        with np.errstate(divide="ignore", invalid="ignore"):  # an empty range may read q = 0 or 1
            q = preds.take([z0, z1 - 1], mode="clip")
            worst = np.maximum(-np.log(q), -np.log1p(-q)).max(axis=0)
            twice_e = 128 * _EPS * (log_n_fact[filled] + 1.0 + n * worst)
            r, t = reject[filled], np.maximum(reject, accept)[filled]
            r, t = r - (twice_e + 2.0 * _EPS * np.abs(r)), t + (twice_e + 2.0 * _EPS * np.abs(t))
            left, open_left, open_right, right = _crossings(
                preds,
                np.concatenate([z0, z0, b, b]),
                np.concatenate([a, a, z1, z1]),
                np.concatenate([k, k, -k, -k]),
                np.concatenate([n - k, n - k, k - n, k - n]),
                np.concatenate([r, t, -t, -r]),
            ).reshape(4, -1)
        # Outward of R's crossings the q are rejected; inward of max(R, A)'s, accepted.
        slices = [
            (left, np.maximum(left, open_left)),
            (a, b),
            (np.minimum(open_right, right), right),
        ]
    below, above = cuts[:-1].copy(), cuts[1:].copy()
    below[filled] = np.where(k > 0, left, lo)
    above[filled] = np.where(k < n, right, hi)
    starts, ends = np.empty((2, len(slices) * n.size), dtype=np.int64)
    for i, (start, end) in enumerate(slices):
        starts[i :: len(slices)], ends[i :: len(slices)] = start, end
    kept = np.flatnonzero(ends > starts)
    owners, starts, ends = filled[kept // len(slices)], starts[kept], ends[kept]
    table = []  # the pass's one table of log j!, once a q needs it

    def log_fact() -> np.ndarray:
        if not table:
            table.append(_log_fact_table(int(counts[owners].max())))
        return table[0]

    def binomial(bins: np.ndarray, qs: np.ndarray) -> np.ndarray:
        rejected = np.zeros(qs.size, dtype=bool)
        undecided = np.full(qs.size, alpha < _LEAST_ALPHA)
        if alpha >= _LEAST_ALPHA:
            n, k = counts[bins], label_sums[bins]
            log_qk = k * np.log(qs) + (n - k) * np.log1p(-qs)
            rejected = log_qk < reject[bins]
            open_ = np.flatnonzero(~rejected & (log_qk < accept[bins]))
            del n, k, log_qk  # the band's own arrays follow, while the tail sums run
            if open_.size:
                at, q = bins[open_], qs[open_]
                n, k, logq, log1mq = counts[at], label_sums[at], np.log(q), np.log1p(-q)
                err = 64 * _EPS * (log_n_fact[at] + n * np.maximum(-logq, -log1mq) + 1.0)
                del at, logq, log1mq
                rejected[open_], undecided[open_] = _tail_screen(n, k, q, err, alpha, log_fact())
        for b in sorted(set(bins[undecided].tolist())):
            at = undecided & (bins == b)
            p = binom_pvalues_sweep(int(counts[b]), int(label_sums[b]), qs[at], log_fact())
            rejected[at] = p < alpha
        return rejected

    return Rejections(below, above, owners, starts, ends, binomial)


def rejection_test(cfg: TestConfig, preds: np.ndarray, cuts, label_sums, labels_in) -> Rejections:
    """For the bins of one pass over the ascending preds, which records cfg's test rejects.

    Bin b holds the records ``preds[cuts[b]:cuts[b + 1]]``, ``label_sums[b]``
    of whose labels are 1, which ``labels_in(b)`` returns; each record is
    tested as a hypothesized probability for its bin's labels. The binomial
    test settles most records per bin from its bounds and leaves the rest
    in slices (``_binomial_test``). The t-test leaves every record of a bin
    in one slice, and takes each bin's mean and n-1 standard deviation here;
    one record or zero variance rejects every q but the mean.
    """
    cuts, label_sums, alpha = np.asarray(cuts), np.asarray(label_sums), cfg.alpha
    if cfg.kind == "binomial":
        return _binomial_test(preds, cuts, label_sums, alpha)
    counts = np.diff(cuts)
    filled = np.flatnonzero(counts)
    means, scales = np.zeros(counts.size), np.zeros(counts.size)
    for b in filled.tolist():
        labels = np.asarray(labels_in(b), dtype=np.float64)
        means[b] = labels.mean()
        scales[b] = labels.std(ddof=1) / math.sqrt(labels.size) if labels.size > 1 else 0.0

    def t_test(bins: np.ndarray, qs: np.ndarray) -> np.ndarray:
        from scipy.special import stdtr

        mean, scale, df = means[bins], scales[bins], counts[bins] - 1
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero scale takes qs != mean
            p = 2.0 * stdtr(df, -np.abs((mean - qs) / scale))
        return np.where(scale > 0.0, p < alpha, qs != mean)

    return Rejections(cuts[:-1], cuts[1:], filled, cuts[:-1][filled], cuts[1:][filled], t_test)
