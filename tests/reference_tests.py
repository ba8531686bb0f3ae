"""Per-prediction test entry points, kept as oracles for the sweep kernels.

``reject`` tests one prediction against its bin's labels, the way the paper
defines TCE; the tests hold ``caltest.metrics.tce`` to a loop over it. The
scalar p-value functions and ``binom_pvalues_for_counts`` (one q, every k)
call the same kernel as ``binom_pvalues_sweep``, so the tests check that
kernel against independent enumerations through them. ``t_pvalues_sweep``
is the t-test's p-value over many q, the oracle of
``caltest.stattest.rejection_test`` under the t-test. ``binom_rejections``
decides q through ``rejection_test`` for one bin, screen first, so the tests
can hold the screen to the exact kernel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from caltest.stattest import (
    TestConfig,
    _binom_pvalues,
    _validate_nk,
    binom_pvalues_sweep,
    rejection_test,
)


@dataclass(frozen=True)
class TestOutcome:
    __test__ = False

    p_value: float
    rejected: bool


def binom_pvalues_for_counts(n: int, q: float) -> np.ndarray:
    """Exact two-sided binomial p-values for every count k = 0..n at once."""
    _validate_nk(n, 0)
    if not (0.0 <= q <= 1.0):
        raise ValueError("q must lie in [0, 1]")
    return _binom_pvalues(n, np.arange(n + 1), q)


def binom_rejections(n: int, k: int, qs: np.ndarray, alpha: float) -> np.ndarray:
    """Whether the exact two-sided binomial test rejects each q at level alpha.

    Equal to ``binom_pvalues_sweep(n, k, qs) < alpha``. The q that
    ``binom_screen`` decides keep its decision; only the others go to the
    exact kernel, as ``rejection_test`` decides them for one bin of n labels,
    k of them 1.
    """
    labels = np.zeros(n, dtype=np.int8)
    labels[:k] = 1
    qs = np.asarray(qs, dtype=np.float64)
    return rejection_test(TestConfig("binomial", alpha), [n], [k], lambda b: labels)([qs.size], qs)


def binom_pvalue(n: int, k: int, q: float) -> float:
    """Exact two-sided binomial p-value of H0: P(Y=1) = q given k successes in n trials."""
    return float(binom_pvalues_sweep(n, k, np.array([q]))[0])


def t_pvalues_sweep(labels: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Two-sided one-sample t-test p-values of H0: mean(labels) = q, for each q in qs.

    Uses the n-1 sample standard deviation and the Student-t distribution with
    n-1 degrees of freedom. A zero-variance sample gives p = 1 when q equals
    the common value and p = 0 otherwise, matching the limiting t statistic.
    """
    from scipy.special import stdtr

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


def t_pvalue(labels: np.ndarray, q: float) -> float:
    """Two-sided one-sample t-test p-value of H0: mean(labels) = q.

    Uses the n-1 sample standard deviation and the Student-t distribution with
    n-1 degrees of freedom. A zero-variance sample gives p = 1 when q equals
    the common value and p = 0 otherwise, matching the limiting t statistic.
    """
    labels = np.asarray(labels, dtype=np.float64)
    if labels.size < 2:
        raise ValueError("t-test requires at least two observations")
    return float(t_pvalues_sweep(labels, np.array([q]))[0])


def reject(labels: np.ndarray, q: float, cfg: TestConfig) -> TestOutcome:
    """Test whether the labels are consistent with probability q at level cfg.alpha."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("cannot test an empty label set")
    if cfg.kind == "binomial":
        p = binom_pvalue(int(labels.size), int(labels.sum()), q)
    else:
        p = t_pvalue(labels, q)
    return TestOutcome(p_value=p, rejected=p < cfg.alpha)
