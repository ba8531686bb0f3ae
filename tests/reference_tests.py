"""Per-prediction test entry points, kept as oracles for the sweep kernels.

``reject`` tests one prediction against its bin's labels, the way the paper
defines TCE; the tests hold ``caltest.metrics.tce`` to a loop over it. The
scalar p-value functions and ``binom_pvalues_for_counts`` (one q, every k)
call the same kernel as ``binom_pvalues_sweep``, so the tests check that
kernel against independent enumerations through them. ``t_pvalues_sweep``
is the t-test's p-value over many q, the oracle of
``caltest.stattest.rejection_test`` under the t-test. ``pass_rejections``
reads the decision of every record of one ``rejection_test`` pass, and
``bin_rejections`` and ``binom_rejections`` decide any q through such
passes for one bin, so the tests can hold them to the exact kernel.
``screened_tce`` is the per-bin TCE that ``tce`` computed when every q of a
bin met the per-q screen (``reference_kernel.binom_screen``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from caltest.core import partition
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


def pass_rejections(cfg: TestConfig, preds, cuts, label_sums, labels_in=None) -> np.ndarray:
    """Whether one ``rejection_test`` pass over the ascending preds rejects each record.

    The records a bin settles by its bounds take that decision, and the
    records of the slices left take one call of ``rejects``, which asks for
    each slice's distinct values against the slice's bin, as a chunk of
    ``tce``'s walk does; the rest are accepted. The slices are checked as
    the pass promises them: ascending, disjoint, non-empty, and inside their
    bin between its settled records.
    """
    preds, cuts = np.asarray(preds, dtype=np.float64), np.asarray(cuts)
    test = rejection_test(cfg, preds, cuts, np.asarray(label_sums), labels_in)
    out = np.zeros(preds.size, dtype=bool)
    for b in range(cuts.size - 1):
        assert cuts[b] <= test.below[b] <= test.above[b] <= cuts[b + 1]
        out[cuts[b] : test.below[b]] = True
        out[test.above[b] : cuts[b + 1]] = True
    assert np.all(test.starts < test.ends) and np.all(test.ends[:-1] <= test.starts[1:])
    slices = list(zip(test.owners.tolist(), test.starts.tolist(), test.ends.tolist()))
    distinct = [np.unique(preds[start:end], return_inverse=True) for _, start, end in slices]
    sizes = [values.size for values, _ in distinct]
    decided = test.rejects(np.repeat(test.owners, sizes), np.concatenate([[], *(v for v, _ in distinct)]))
    at = 0
    for (owner, start, end), (values, inverse) in zip(slices, distinct):
        assert test.below[owner] <= start and end <= test.above[owner]
        out[start:end] = decided[at : at + values.size][inverse]
        at += values.size
    return out


def bin_rejections(cfg: TestConfig, labels: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Whether ``rejection_test`` rejects each q of qs in a bin of these labels.

    A bin's q are its records, so the distinct q go in groups of at most
    labels.size, each a one-bin pass filled up to labels.size records with
    copies of its first q.
    """
    labels, qs = np.asarray(labels), np.asarray(qs, dtype=np.float64)
    n = labels.size
    values = np.unique(qs)
    rejected = np.zeros(values.size, dtype=bool)
    for start in range(0, values.size, n):
        group = values[start : start + n]
        preds = np.sort(np.concatenate([group, np.full(n - group.size, group[0])]))
        decided = pass_rejections(cfg, preds, [0, n], [labels.sum()], lambda b: labels)
        rejected[start : start + n] = decided[np.searchsorted(preds, group)]
    return rejected[np.searchsorted(values, qs)]


def binom_rejections(n: int, k: int, qs: np.ndarray, alpha: float) -> np.ndarray:
    """Whether the exact two-sided binomial test rejects each q at level alpha.

    Equal to ``binom_pvalues_sweep(n, k, qs) < alpha``: ``rejection_test``
    decides each q in a bin of n labels, k of them 1 (``bin_rejections``).
    """
    labels = np.zeros(n, dtype=np.int8)
    labels[:k] = 1
    return bin_rejections(TestConfig("binomial", alpha), labels, qs)


def screened_tce(dataset, bins, cfg: TestConfig) -> np.ndarray:
    """Per-bin TCE losses with every distinct q of a bin tested on its own.

    Under the binomial test each bin's q meet ``reference_kernel.binom_screen``
    with the bin's (n, k), and the q it leaves go to the exact kernel; under
    the t-test each q meets ``t_pvalues_sweep``, and one record or zero
    variance rejects every q but the mean.
    """
    from reference_kernel import binom_screen

    binned = partition(dataset, bins)
    losses = np.full(len(bins), np.nan)
    for b in np.flatnonzero(binned.counts).tolist():
        n, k = int(binned.counts[b]), int(binned.label_sums[b])
        values, sizes = np.unique(binned.predictions_in(b), return_counts=True)
        if cfg.kind == "binomial":
            rejected, undecided = binom_screen(n, k, values, cfg.alpha)
            if undecided.any():
                rejected[undecided] = binom_pvalues_sweep(n, k, values[undecided]) < cfg.alpha
        else:
            labels = binned.labels_in(b).astype(np.float64)
            if n == 1 or labels.std() == 0.0:
                rejected = values != labels.mean()
            else:
                rejected = t_pvalues_sweep(labels, values) < cfg.alpha
        losses[b] = 100.0 * (int(sizes[rejected].sum()) / n)
    return losses


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
