import math
from statistics import NormalDist
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from reference_kernel import _log_binom_coeffs, _log_binom_table, binom_screen
from reference_tests import (
    bin_rejections,
    binom_pvalue,
    binom_pvalues_for_counts,
    binom_rejections,
    pass_rejections,
    reject,
    t_pvalue,
    t_pvalues_sweep,
)
from scipy import stats
from scipy.integrate import quad
from scipy.optimize import brentq

from caltest import stattest
from caltest.experiments import scenario_dataset
from caltest.metrics import tce_variants
from caltest.stattest import (
    MASS_SLACK,
    _binom_tails,
    TestConfig,
    binom_pvalues_sweep,
)


def enumeration_pvalues(n, q):
    """Independent oracle: sum every outcome mass no more probable than k's."""
    pmf = stats.binom.pmf(np.arange(n + 1), n, q)
    thresh = pmf * (1.0 + MASS_SLACK)
    keep = pmf[None, :] <= thresh[:, None]
    return np.minimum(np.where(keep, pmf[None, :], 0.0).sum(axis=1), 1.0)


def student_t_sf_quad(t, df):
    """Independent Student-t tail via quadrature of the density formula."""
    c = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi) * math.gamma(df / 2))
    value, _ = quad(lambda u: c * (1 + u * u / df) ** (-(df + 1) / 2), t, np.inf)
    return value


def test_binom_examples():
    # observed count is the exact mode, so every outcome is included
    assert binom_pvalue(10, 5, 0.5) == 1.0
    # two symmetric point tails
    assert binom_pvalue(20, 0, 0.5) == pytest.approx(2 * 0.5**20, rel=1e-12)
    # impossible outcome under the null
    assert binom_pvalue(3, 2, 0.0) == 0.0
    # k = 5 is the mode of (50, 0.1); enumeration agrees and nothing is rejected
    oracle = enumeration_pvalues(50, 0.1)[5]
    assert binom_pvalue(50, 5, 0.1) == pytest.approx(oracle, abs=1e-12)
    assert binom_pvalue(50, 5, 0.1) >= 0.05


def test_binom_degenerate_q():
    assert binom_pvalue(7, 0, 0.0) == 1.0
    assert binom_pvalue(7, 7, 1.0) == 1.0
    assert binom_pvalue(7, 6, 1.0) == 0.0


def test_binom_matches_enumeration_oracle_subset():
    rng = np.random.default_rng(5)
    grid = (0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0)
    for n in [1, 2, 3, 7, 19, 50, 101, 256]:
        for q in grid:
            got = binom_pvalues_for_counts(n, q)
            want = enumeration_pvalues(n, q)
            assert np.max(np.abs(got - want)) < 1e-12
    for _ in range(50):
        n = int(rng.integers(1, 400))
        q = float(rng.random())
        assert np.max(np.abs(binom_pvalues_for_counts(n, q) - enumeration_pvalues(n, q))) < 1e-12


def test_binom_sweep_matches_scalar():
    rng = np.random.default_rng(9)
    for _ in range(60):
        n = int(rng.integers(1, 500))
        k = int(rng.integers(0, n + 1))
        qs = np.concatenate([rng.random(20), [0.0, 1.0]])
        got = binom_pvalues_sweep(n, k, qs)
        want = np.array([binom_pvalue(n, k, q) for q in qs])
        assert np.array_equal(got, want)


def test_binom_symmetry_at_half():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 300))
        k = int(rng.integers(0, n + 1))
        a = binom_pvalue(n, k, 0.5)
        b = binom_pvalue(n, n - k, 0.5)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-300)


def test_binom_range_and_mode():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(1, 200))
        q = float(rng.random())
        p = binom_pvalues_for_counts(n, q)
        assert np.all((p >= 0.0) & (p <= 1.0))
        mode = min(int(math.floor((n + 1) * q)), n)
        assert p[mode] == 1.0


def test_binom_validation():
    with pytest.raises(ValueError):
        binom_pvalue(0, 0, 0.5)
    with pytest.raises(ValueError):
        binom_pvalue(10, 11, 0.5)
    with pytest.raises(ValueError):
        binom_pvalue(10, -1, 0.5)
    with pytest.raises(ValueError):
        binom_pvalue(10, 5, 1.5)


def test_binom_large_n_stability():
    # log-space masses keep the tails finite and sane at n = 1e5
    p = binom_pvalue(100_000, 50_000, 0.5)
    assert p == 1.0
    p = binom_pvalue(100_000, 49_000, 0.5)
    assert 0.0 < p < 1e-9


def test_reject_examples():
    cfg = TestConfig()
    assert not reject(np.array([0, 1]), 0.5, cfg).rejected
    out = reject(np.ones(3, dtype=int), 0.0, cfg)
    assert out.rejected and out.p_value == 0.0
    labels = np.concatenate([np.zeros(100, dtype=int), np.ones(10, dtype=int)])
    assert reject(labels, 0.5, cfg).rejected


def test_reject_monotone_in_alpha():
    rng = np.random.default_rng(31)
    alphas = [0.001, 0.005, 0.01, 0.05, 0.1, 0.5]
    for _ in range(100):
        n = int(rng.integers(1, 80))
        labels = rng.integers(0, 2, n)
        q = float(rng.random())
        flags = [reject(labels, q, TestConfig(alpha=a)).rejected for a in alphas]
        # once rejected, rejected at every larger alpha
        assert flags == sorted(flags)


def test_reject_validation():
    with pytest.raises(ValueError):
        reject(np.array([]), 0.5, TestConfig())
    with pytest.raises(ValueError):
        TestConfig(alpha=0.0)
    with pytest.raises(ValueError):
        TestConfig(kind="wilcoxon")


def test_t_examples():
    assert t_pvalue(np.array([0, 1]), 0.5) == 1.0
    assert t_pvalue(np.array([1, 1, 1, 1]), 1.0) == 1.0
    assert t_pvalue(np.array([1, 1, 1, 1]), 0.5) == 0.0
    assert not reject(np.array([1, 1, 1, 1]), 1.0, TestConfig(kind="t")).rejected


def test_t_matches_quadrature_oracle():
    labels = np.array([0, 0, 0, 0, 1, 1, 1, 1, 1, 1])
    mean, sd, n = labels.mean(), labels.std(ddof=1), labels.size
    tstat = (mean - 0.2) / (sd / math.sqrt(n))
    want = 2 * student_t_sf_quad(abs(tstat), n - 1)
    assert t_pvalue(labels, 0.2) == pytest.approx(want, abs=1e-9)


def test_t_sweep_matches_scalar():
    rng = np.random.default_rng(41)
    labels = rng.integers(0, 2, 25)
    qs = rng.random(30)
    got = t_pvalues_sweep(labels, qs)
    want = np.array([t_pvalue(labels, q) for q in qs])
    assert np.array_equal(got, want)


def test_t_validation():
    with pytest.raises(ValueError):
        t_pvalue(np.array([1]), 0.5)
    with pytest.raises(ValueError, match="at least two"):
        t_pvalues_sweep(np.array([1]), np.array([0.5]))


def test_binom_sweep_matches_binomtest_up_to_a_million():
    rng = np.random.default_rng(17)
    sizes = [1, 2, 10**6 - 1, 10**6] + [int(10.0 ** rng.uniform(0, 6)) for _ in range(40)]
    for n in sizes:
        k = int(rng.choice([0, n, rng.integers(0, n + 1)]))
        spread = math.sqrt(max(k * (n - k), 1) / n**3)
        qs = np.clip(np.r_[0.0, 1.0, k / n, k / n + spread * rng.normal(0, 3, 6), rng.random(2)], 0, 1)
        want = [stats.binomtest(k, n, float(q)).pvalue for q in qs]
        np.testing.assert_allclose(binom_pvalues_sweep(n, k, qs), want, rtol=1e-12, atol=0)


def _screen_edges(n, k, alpha):
    """Probabilities at which (n + 1) * pmf(k; q) * (1 + slack) equals alpha / 2."""

    def margin(q):
        return stats.binom.logpmf(k, n, q) + math.log1p(MASS_SLACK) + math.log(n + 1) - math.log(alpha / 2)

    ends = [np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)]
    return [brentq(margin, end, k / n, xtol=1e-300, rtol=1e-15) for end in ends if margin(end) < 0]


@st.composite
def screen_cases(draw):
    n = draw(st.floats(0.0, 6.0).map(lambda e: max(1, round(10.0**e))))
    k = draw(st.sampled_from([0, 1, n - 1, n]) | st.integers(0, n))
    alpha = draw(st.sampled_from([0.001, 0.05, 0.2, 0.5]))
    fractions = draw(st.lists(st.floats(0.0, 1.5), max_size=12))
    return n, k, alpha, fractions


def mpmath_binomtest_pvalue(k, n, q):
    """binomtest's two-sided p-value summed in 50-digit arithmetic.

    The rule is binomtest's: add the mass of every outcome x with
    pmf(x) <= pmf(k) * (1 + 1e-7). The pmf rises to its mode and falls after
    it, so the outcomes above that bound form one run lo..hi around the mode,
    found by bisection; the two tails outside it are regularized incomplete
    beta functions.
    """
    with mpmath.workdps(50):
        q = mpmath.mpf(q)

        def pmf(x):
            return mpmath.binomial(n, x) * q**x * (1 - q) ** (n - x)

        def first(lo, hi, holds):  # first x in [lo, hi) where holds(x), which is monotone
            while lo < hi:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if holds(mid) else (mid + 1, hi)
            return lo

        bound = pmf(k) * (1 + mpmath.mpf(1e-7))
        mode = min(n, int(mpmath.floor((n + 1) * q)))
        if pmf(mode) <= bound:
            return 1.0
        lo = first(0, mode, lambda x: pmf(x) > bound)
        hi = first(mode, n + 1, lambda x: pmf(x) <= bound) - 1
        below = 1 - mpmath.betainc(lo, n - lo + 1, 0, q, regularized=True) if lo > 0 else 0
        above = mpmath.betainc(hi + 1, n - hi, 0, q, regularized=True) if hi < n else 0
        return float(min(1, below + above))


def binomtest_pvalue(k, n, q):
    try:
        return stats.binomtest(k, n, q).pvalue
    except OverflowError:  # scipy's ibeta_derivative overflows for q of order 1e-307
        return mpmath_binomtest_pvalue(k, n, q)


@pytest.mark.parametrize(
    "k, n, q",
    [(0, 10, 0.3), (3, 10, 0.3), (9, 10, 0.3), (5, 100, 0.01), (500, 1000, 0.45),
     (1000, 1000, 0.999), (1, 1, 0.5), (1, 10**6, 1e-7), (40, 10**6, 3e-5), (1, 1000, 2e-300)],
)
def test_mpmath_oracle_matches_binomtest(k, n, q):
    assert mpmath_binomtest_pvalue(k, n, q) == pytest.approx(stats.binomtest(k, n, q).pvalue, rel=1e-9)


@settings(max_examples=150, deadline=None)
@given(screen_cases())
@example((1000, 0, 0.001, [0.0, 7.882992971590177e-305]))  # binomtest overflows at q ~ 9e-307
def test_binom_rejections_match_exact_kernel(case):
    n, k, alpha, fractions = case
    near_one = [1 - 1e-3, 1 - 1e-6, 1 - 1e-9, 1.0, 1 + 1e-9, 1 + 1e-6, 1 + 1e-3]
    center = k / n
    qs = [0.0, 1.0, center] + [
        center + (edge - center) * f for edge in _screen_edges(n, k, alpha) for f in fractions + near_one
    ]
    qs = np.clip(qs, 0.0, 1.0)
    got = binom_rejections(n, k, qs, alpha)
    assert np.array_equal(got, binom_pvalues_sweep(n, k, qs) < alpha)
    for q, rejected in list(zip(qs, got))[::4]:
        assert rejected == (binomtest_pvalue(k, n, float(q)) < alpha)


def scipy_stats_tails(n, below, above, q):
    """Reference for the kernel's tails: P(X < below) + P(X > above) from scipy.stats.binom."""
    lower = np.where(below > 0, stats.binom.cdf(below - 1, n, q), 0.0)
    return lower + stats.binom.sf(above, n, q)


@st.composite
def tail_cases(draw):
    n = draw(st.floats(0.0, 6.0).map(lambda e: max(1, round(10.0**e))))
    k = draw(st.sampled_from([0, 1, n - 1, n]) | st.integers(0, n))
    uniform = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=6))
    spread = math.sqrt(max(k * (n - k), 1) / n**3)
    near = [k / n + spread * z for z in draw(st.lists(st.floats(-4.0, 4.0), max_size=10))]
    qs = np.array(uniform + near, dtype=np.float64)
    return n, k, qs[(qs > 0.0) & (qs < 1.0)]


@settings(max_examples=200, deadline=None)
@given(tail_cases())
def test_kernel_tails_match_scipy_stats(case):
    n, k, qs = case
    at_k = np.full(qs.shape, k)
    # Upper tail alone (below = 0): bit-identical to binom.sf.
    upper = _binom_tails(n, np.zeros_like(at_k), at_k, qs)
    assert np.array_equal(upper, stats.binom.sf(k, n, qs))
    # Lower tail alone (above = n). For q >= 1/2, 1 - q is exact and so is the
    # tail. Below that, the tail's sensitivity to its argument grows like n, and
    # the two codes differ by at most 0.89 (n + 1) eps over 180k probes.
    lower = _binom_tails(n, at_k, np.full(qs.shape, n), qs)
    cdf = stats.binom.cdf(k - 1, n, qs)
    assert np.array_equal(lower[qs >= 0.5], cdf[qs >= 0.5])
    rtol = (2 * (n + 1) + 64) * np.finfo(np.float64).eps
    np.testing.assert_allclose(lower, cdf, rtol=rtol, atol=0)
    if 0 < k < n:
        labels = np.zeros(n)
        labels[:k] = 1.0
        t = (labels.mean() - qs) / (labels.std(ddof=1) / math.sqrt(n))
        assert np.array_equal(t_pvalues_sweep(labels, qs), 2.0 * stats.t.sf(np.abs(t), n - 1))
    for alpha in (0.001, 0.05, 0.2, 0.5):
        got = binom_rejections(n, k, qs, alpha)
        with mock.patch.object(stattest, "_binom_tails", scipy_stats_tails):
            want = binom_rejections(n, k, qs, alpha)
        assert np.array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(tail_cases(), st.integers(1, 5))
def test_chunked_kernel_matches_one_pass(case, chunk):
    n, k, qs = case
    qs = np.concatenate([[0.0], qs, [1.0]])  # pairs outside the kernel, around the chunks
    counts_q = qs[1] if n <= 300 else 0.0  # every count k at once, for small n

    def pvalues():
        return binom_pvalues_sweep(n, k, qs).tobytes(), binom_pvalues_for_counts(n, counts_q).tobytes()

    want = pvalues()
    with mock.patch.object(stattest, "_KERNEL_CHUNK", chunk):
        got = pvalues()
    assert got == want


def test_binom_entry_points_reject_nan_probability():
    for call in (
        lambda: binom_pvalue(5, 2, math.nan),
        lambda: binom_pvalues_sweep(5, 2, np.array([math.nan, 0.5])),
        lambda: binom_pvalues_for_counts(5, math.nan),
    ):
        with pytest.raises(ValueError, match="q must lie"):
            call()


def test_first_above_returns_hi_when_no_index_qualifies():
    # The second pair's range [0, 2] holds no j >= 3.
    assert stattest._first_above(lambda j: j >= 3, np.array([5, 2]), 48).tolist() == [3, 2]


def formed_log_binom(log_fact, n):
    """log C(n, j) for j = -_TAIL_TERMS..n + _TAIL_TERMS, as the screen and the kernel form it.

    At q = 1/2 the log mass of j is log C(n, j) + n log(1/2) + j * 0, so
    less its base n log(1/2) it is the coefficient alone, bit for bit.
    """
    j = np.arange(-stattest._TAIL_TERMS, n + stattest._TAIL_TERMS + 1)
    logpmf, *_ = stattest._excluded_block(n, log_fact, 0, np.array([0.5]))
    return logpmf(j, np.zeros(j.size, dtype=np.intp), n * np.log1p(-0.5))


def test_log_binom_from_the_log_factorial_table_equals_the_log_binom_table():
    shared = stattest._log_fact_table(10**6)  # one table serves every smaller n too
    for n in [*range(1, 3001), 10**5, 10**6]:
        # Negative j read the table's -inf entries from its end, as the screen did.
        want = _log_binom_table(n)[np.arange(-stattest._TAIL_TERMS, n + stattest._TAIL_TERMS + 1)]
        assert formed_log_binom(stattest._log_fact_table(n), n).tobytes() == want.tobytes(), n
        assert formed_log_binom(shared, n).tobytes() == want.tobytes(), n


def test_log_binom_table_is_within_its_error_bound():
    eps = np.finfo(np.float64).eps
    tail = stattest._TAIL_TERMS
    for n in [1, 2, 254, 255, 256, 257, 1000, 12_345, 10**6]:
        log_fact = stattest._log_fact_table(n)
        assert log_fact.size == n + 1 + tail
        assert np.all(log_fact[n + 1 :] == np.inf)
        coeffs = formed_log_binom(log_fact, n)
        assert np.all(coeffs[:tail] == -np.inf) and np.all(coeffs[-tail:] == -np.inf)
        # Each code is within 16 eps (log n! + 1) of the exact value.
        gap = np.max(np.abs(coeffs[tail:-tail] - _log_binom_coeffs(n)))
        assert gap <= 32 * eps * (math.lgamma(n + 1.0) + 1.0), n


def _certificate_edges(n, k, alpha):
    """The q on each side of k/n at which 2n H(k/n, q) equals z^2, z the alpha-quantile of the normal."""
    if alpha >= 0.5:
        return []
    z2 = NormalDist().inv_cdf(alpha) ** 2
    x = k / n

    def excess(q):
        h = (x * (math.log(x) - math.log(q)) if k else 0.0) + (
            (1 - x) * (math.log1p(-x) - math.log1p(-q)) if k < n else 0.0
        )
        return 2 * n * h - z2

    ends = [e for e in (np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)) if (e < x) == (e < 0.5)]
    return [brentq(excess, end, x, xtol=1e-300, rtol=1e-15) for end in ends if excess(end) > 0]


@st.composite
def screen_edge_cases(draw):
    n = draw(st.floats(0.0, 6.0).map(lambda e: max(1, round(10.0**e))))
    k = draw(st.sampled_from([0, 1, n - 1, n]) | st.integers(0, n))
    alpha = draw(st.sampled_from([0.001, 0.05, 0.2, 0.5]))
    zs = draw(st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=10))
    nudges = draw(st.lists(st.floats(-1e-6, 1e-6), max_size=6))
    at_p_value = draw(st.none() | st.integers(0, 20))
    return n, k, alpha, zs, nudges, at_p_value


def screen_edge_probabilities(case):
    """(n, k, alpha, qs) for a drawn screen edge case.

    The q sit around k/n, at the accept certificate's edges, and, when
    at_p_value is set, alpha is the exact p-value of one of them, with q
    nudged around it.
    """
    n, k, alpha, zs, nudges, at_p_value = case
    x = k / n
    spread = math.sqrt(max(k * (n - k), 1) / n**3)
    qs = np.clip([x + spread * z for z in zs], 0.0, 1.0)
    if at_p_value is not None:
        p = binom_pvalues_sweep(n, k, qs)
        inner = np.flatnonzero((p > 0.0) & (p < 1.0))
        if inner.size:
            pick = inner[at_p_value % inner.size]
            alpha = float(p[pick])
            qs = np.append(qs, [qs[pick] * (1.0 + d) for d in nudges])
    edges = _certificate_edges(n, k, alpha)
    qs = np.clip(np.concatenate([[0.0, 1.0, x], qs, [e * (1.0 + d) for e in edges for d in [0.0, *nudges]]]), 0.0, 1.0)
    return n, k, alpha, qs


@settings(max_examples=200, deadline=None)
@given(screen_edge_cases())
@example((10**6, 400_000, 0.05, [-2.0, 1.96, 2.5], [1e-9, -1e-9], 1))
@example((10**6, 3, 0.05, [0.5, 4.0], [1e-7], None))
@example((999_999, 999_999, 0.001, [-3.0], [], 0))
@example((1, 0, 0.5, [0.0], [], None))  # q = 0 and 1 and no interior q
def test_binom_screen_settles_only_what_the_exact_kernel_decides(case):
    """Every q the screen settles is settled as ``binom_pvalues_sweep(n, k, q) < alpha``.

    The q sit around k/n, at the accept certificate's edges, and, with alpha
    set to the exact p-value of one of them, at the edge of the tail sums,
    where the screen must leave q undecided rather than guess.
    """
    n, k, alpha, qs = screen_edge_probabilities(case)
    rejected, undecided = binom_screen(n, k, qs, alpha)
    event("some q undecided" if undecided.any() else "every q settled")
    settled = ~undecided
    assert np.array_equal(rejected[settled], (binom_pvalues_sweep(n, k, qs) < alpha)[settled])


def test_binom_screen_rejects_nan_probability():
    with pytest.raises(ValueError, match="q must lie"):
        binom_screen(5, 2, np.array([math.nan, 0.5]), 0.05)


def test_binom_screen_checks_the_n_and_k_of_each_q():
    qs = np.array([0.2, 0.5, 0.7])
    with pytest.raises(ValueError, match="n must be"):
        binom_screen(np.array([5, 5, 0]), np.array([2, 2, 0]), qs, 0.05)
    with pytest.raises(ValueError, match="k must be"):
        binom_screen(np.array([5, 4, 4]), np.array([2, 5, 5]), qs, 0.05)


def test_binom_screen_leaves_a_subnormal_alpha_to_the_kernel():
    # The exact p-value of q here is 1.76e-320, a subnormal with a few bits left.
    n, k, qs = 2012, 0, np.array([0.0, 0.30664352463535827, 1.0])
    alpha = float(binom_pvalues_sweep(n, k, qs)[1])
    assert 0.0 < alpha < stattest._LEAST_ALPHA
    rejected, undecided = binom_screen(n, k, qs, alpha)
    assert undecided.tolist() == [False, True, False]
    assert rejected.tolist() == [False, False, True]


def geometric_rejects(n, k, qs, alpha):
    """``_geometric_rejects`` for one (n, k) over qs in (0, 1), with the err the binomial test gives each q."""
    logq, log1mq = np.log(qs), np.log1p(-qs)
    err = 64 * stattest._EPS * (math.lgamma(n + 1.0) + n * np.maximum(-logq, -log1mq) + 1.0)
    n_k = np.full((2, qs.size), [[n], [k]])
    return stattest._geometric_rejects(*n_k, qs, err, math.log(alpha), stattest._log_fact_table(n))


@st.composite
def certificate_cases(draw):
    """(n, k, alpha, qs): k at or next to the mode of a drawn q, at an end, or anywhere; qs
    are that q and q spread around k/n."""
    n = draw(st.floats(0.0, 6.0).map(lambda e: max(1, round(10.0**e))))
    q = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    mode = min(math.floor((n + 1) * q), n)
    k = draw(st.sampled_from([0, 1, mode - 1, mode, mode + 1, n - 1, n]) | st.integers(0, n))
    k = min(max(k, 0), n)
    alpha = draw(st.sampled_from([0.001, 0.05, 0.2, 0.5]))
    spread = math.sqrt(max(k * (n - k), 1) / n**3)
    zs = np.array(draw(st.lists(st.floats(-8.0, 8.0), max_size=16)))
    qs = np.append(k / n + spread * zs, q)
    return n, k, alpha, qs[(qs > 0.0) & (qs < 1.0)]


@settings(max_examples=500, deadline=None)
@given(certificate_cases())
@example((10**6, 400_001, 0.05, np.array([0.4, 0.3979, 0.4021])))  # certified on both sides of k
def test_geometric_certificate_rejects_only_what_the_exact_kernel_rejects(case):
    n, k, alpha, qs = case
    rejected = geometric_rejects(n, k, qs, alpha)
    event("some q certified" if rejected.any() else "no q certified")
    assert not np.any(rejected & ~(binom_pvalues_sweep(n, k, qs) < alpha))


def test_geometric_certificate_clips_its_far_probe_at_0_and_n():
    # Mode n and 0, k 100 away: the far probe would sit 60 past the end, and
    # the far tail is empty.
    for n, k, q in [(1000, 900, 0.9999), (1000, 100, 1e-4)]:
        assert geometric_rejects(n, k, np.array([q]), 0.05).tolist() == [True]
        assert binom_pvalues_sweep(n, k, [q]) < 0.05


def test_geometric_certificate_settles_most_of_the_band():
    """On the benchmark's scenario at 50k records, the certificate leaves under a quarter of
    the band's q to the block search and the tail sums, and each certified q of a seeded
    sample is rejected by ``scipy.stats.binomtest`` too."""
    band, searched, certified = [], [], []
    real_screen, real_block = stattest._tail_screen, stattest._excluded_block
    real_certificate = stattest._geometric_rejects

    def screen(n, k, q, *args):
        band.append(q.size)
        return real_screen(n, k, q, *args)

    def block(n, log_fact, k, q):
        searched.append(q.size)
        return real_block(n, log_fact, k, q)

    def certificate(n, k, q, *args):
        rejected = real_certificate(n, k, q, *args)
        certified.extend(zip(n[rejected].tolist(), k[rejected].tolist(), q[rejected].tolist()))
        return rejected

    ds = scenario_dataset(0.5, 0.4, 14000, 50_000, 0)
    sweep = mock.Mock(wraps=stattest.binom_pvalues_sweep)
    with mock.patch.multiple(
        stattest, _tail_screen=screen, _excluded_block=block, _geometric_rejects=certificate,
        binom_pvalues_sweep=sweep,
    ):
        tce_variants(ds, TestConfig())
    assert not sweep.called  # so every block search ran in the tail sums
    assert sum(band) > 5000 and 4 * sum(searched) < sum(band)
    assert len(certified) + sum(searched) == sum(band)
    for i in np.random.default_rng(0).choice(len(certified), 200, replace=False):
        n, k, q = certified[i]
        assert stats.binomtest(k, n, q).pvalue < 0.05, (n, k, q)


def shuffled_labels(n, k, seed):
    """n int8 labels, k of them 1, in an order drawn from seed."""
    labels = (np.arange(n) < k).astype(np.int8)
    np.random.default_rng(seed).shuffle(labels)
    return labels


def rotated_passes(bins):
    """Passes over bins given as (labels, qs) pairs that test every q of each pair in a bin of
    that pair's labels: a list of (preds, cuts, label sums, pair of each bin).

    A pass's bins hold ascending, disjoint ranges of q, so the distinct q of all pairs are
    cut into one range per pair, each about as many q. Pass r gives range j to pair
    (j + r) % len(bins), so over the passes each pair meets every range once, beside the
    other pairs' bins. A pair's q in its range fill as many bins of its labels as they
    need, each padded to its labels' size with copies of its first q; a pair with no q
    there has an empty bin.
    """
    values = np.unique(np.concatenate([qs for _, qs in bins]))
    edges = values[np.arange(1, len(bins)) * values.size // len(bins)]
    ranges = [np.split(np.unique(qs), np.searchsorted(np.unique(qs), edges)) for _, qs in bins]
    passes = []
    for r in range(len(bins)):
        preds, cuts, sums, pairs = [], [0], [], []
        for j in range(len(bins)):
            pair = (j + r) % len(bins)
            labels, group = bins[pair][0], ranges[pair][j]
            for start in range(0, max(group.size, 1), labels.size):
                chunk = group[start : start + labels.size]
                if chunk.size:
                    padding = np.full(labels.size - chunk.size, chunk[0])
                    preds.append(np.sort(np.concatenate([chunk, padding])))
                cuts.append(cuts[-1] + (labels.size if chunk.size else 0))
                sums.append(int(labels.sum()) if chunk.size else 0)
                pairs.append(pair)
        passes.append((np.concatenate(preds), np.array(cuts), np.array(sums), pairs))
    return passes


def rotated_rejections(cfg, bins, want):
    """For each pass of ``rotated_passes(bins)``, ``pass_rejections`` and the concatenated
    ``want(pair, q)`` of each bin's q; every q of every pair is tested in a bin of its own."""
    tested = [[] for _ in bins]
    for preds, cuts, sums, pairs in rotated_passes(bins):
        labels_in = lambda b: bins[pairs[b]][0]
        got = pass_rejections(cfg, preds, cuts, sums, labels_in)
        expected = []
        for pair, a, b in zip(pairs, cuts[:-1], cuts[1:]):
            values, inverse = np.unique(preds[a:b], return_inverse=True)
            tested[pair].append(values)
            expected.append(want(pair, values)[inverse])
        yield got, np.concatenate(expected)
    for (_, qs), seen in zip(bins, tested):
        assert np.array_equal(np.unique(np.concatenate(seen)), np.unique(qs))


@settings(max_examples=200, deadline=None)
@given(screen_edge_cases(), st.integers(0, 2**32 - 1))
@example((10**6, 400_000, 0.05, [-2.0, 1.96, 2.5], [1e-9, -1e-9], 1), 0)
@example((1, 0, 0.5, [0.0], [], None), 0)
def test_rejection_test_matches_the_binomial_kernel(case, seed):
    n, k, alpha, qs = screen_edge_probabilities(case)
    labels = shuffled_labels(n, k, seed)
    got = bin_rejections(TestConfig("binomial", alpha), labels, qs)
    assert np.array_equal(got, binom_pvalues_sweep(n, k, qs) < alpha)


@settings(max_examples=100, deadline=None)
@given(st.lists(screen_edge_cases(), min_size=1, max_size=4))
@example([(10**6, 400_000, 0.05, [-2.0, 1.96, 2.5], [1e-9, -1e-9], 1)] * 2)  # two equal bins
@example([(1000, 400, 0.05, [-2.5, 2.5], [], 0), (10**6, 400_000, 0.05, [-2.5, 2.5], [], 0)])
def test_rejection_test_decides_each_q_against_its_own_bin(cases):
    """Passes over several bins, whose q share the tail sums, decide each q as its bin alone.

    Every q of each case is tested in a bin of its case (``rotated_passes``).
    alpha is the first bin's, at the exact p-value of one of its q when drawn so.
    """
    bins = [screen_edge_probabilities(case) for case in cases]
    alpha = bins[0][2]
    labelled = [(shuffled_labels(n, k, 0), qs) for n, k, _, qs in bins]
    want = lambda pair, qs: binom_pvalues_sweep(*bins[pair][:2], qs) < alpha
    for got, expected in rotated_rejections(TestConfig("binomial", alpha), labelled, want):
        assert np.array_equal(got, expected)


def test_rejection_test_sends_what_the_screen_leaves_to_the_kernel():
    # The exact p-value of q here is 1.76e-320, a subnormal the screen leaves
    # to the kernel; a q rejects at the next alpha up and not at its p-value.
    n, k, qs = 2012, 0, np.array([0.0, 0.30664352463535827, 1.0])
    alpha = float(binom_pvalues_sweep(n, k, qs)[1])
    preds = np.concatenate([np.zeros(n - 2), qs[1:]])  # q = 0 for all records but two
    for level, want in [(alpha, [False, True]), (np.nextafter(alpha, 1.0), [True, True])]:
        sweep = mock.Mock(wraps=stattest.binom_pvalues_sweep)
        with mock.patch.object(stattest, "binom_pvalues_sweep", sweep):
            got = pass_rejections(TestConfig("binomial", level), preds, [0, n], [k])
        assert not got[: n - 2].any() and got[n - 2 :].tolist() == want
        (args, _), = sweep.call_args_list
        assert args[:2] == (n, k) and args[2].tolist() == [qs[1]]


@st.composite
def t_cases(draw):
    n = draw(st.floats(0.0, 4.0).map(lambda e: max(1, round(10.0**e))))
    k = draw(st.sampled_from([0, n]) | st.integers(0, n))
    labels = shuffled_labels(n, k, draw(st.integers(0, 2**32 - 1)))
    spread = math.sqrt(max(k * (n - k), 1) / n**3)
    zs = draw(st.lists(st.floats(-8.0, 8.0), max_size=10))
    uniform = draw(st.lists(st.floats(0.0, 1.0), max_size=4))
    qs = np.clip(np.r_[0.0, 1.0, k / n, [k / n + spread * z for z in zs], uniform], 0.0, 1.0)
    alpha = draw(st.sampled_from([0.001, 0.05, 0.2, 0.5]))
    if n > 1 and draw(st.booleans()):  # alpha at the exact p-value of one q
        p = t_pvalues_sweep(labels, qs)
        inner = p[(p > 0.0) & (p < 1.0)]
        if inner.size:
            alpha = float(draw(st.sampled_from(list(inner))))
    return labels, qs, alpha


@settings(max_examples=200, deadline=None)
@given(t_cases())
@example((np.zeros(7, dtype=np.int8), np.array([0.0, 0.5, 1.0]), 0.05))
@example((np.ones(7, dtype=np.int8), np.array([0.0, 0.5, 1.0]), 0.05))
@example((np.zeros(1, dtype=np.int8), np.array([0.0, 0.5, 1.0]), 0.05))
@example((np.ones(1, dtype=np.int8), np.array([0.0, 0.5, 1.0]), 0.05))
def test_rejection_test_matches_the_t_test(case):
    labels, qs, alpha = case
    got = bin_rejections(TestConfig("t", alpha), labels, qs)
    if labels.size == 1:  # one record rejects every q but its own label
        want = qs != labels[0]
    else:
        want = t_pvalues_sweep(labels, qs) < alpha
    assert np.array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(st.lists(t_cases(), min_size=1, max_size=4))
def test_rejection_test_tests_each_q_against_its_own_bin_labels(cases):
    alpha = cases[0][2]
    bins = [(y, qs) for y, qs, _ in cases]

    def want(pair, qs):
        y = bins[pair][0]
        return qs != y[0] if y.size == 1 else t_pvalues_sweep(y, qs) < alpha

    for got, expected in rotated_rejections(TestConfig("t", alpha), bins, want):
        assert np.array_equal(got, expected)
