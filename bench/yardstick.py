"""The benchmark's yardstick: a fixed task that does not use caltest.

The timed loop runs this script in a fresh process before and after every
CLI call and reports the call's wall and CPU time as multiples of this
task's. On a shared host the speed of a core changes by half or more within
minutes, as other tenants come and go, and not by the same factor for every
kind of work; a call and the task run back to back see the same host, so
the ratio keeps what the call costs and drops most of what the host did. The
task therefore does each kind of work a caltest call does, in roughly the
same proportions: interpreter start and importing numpy and scipy, writing
and parsing CSV text (ingest), numpy sorting and searching (sorted views and
partitions), a pure-Python pool-adjacent-violators loop (pava), Newton steps
of a logistic fit on arrays of 14k (synthdata) and regularized incomplete
beta functions (the binomial kernel). It takes about two seconds.

Changing this file rescales every ratio: compare runs only when both used
the same version of it.
"""
import numpy as np
import scipy.special
import scipy.stats  # noqa: F401  (imported for its cost, as caltest imports it)

ROWS = 100_000

rng = np.random.default_rng(0)

# ingest: format and parse CSV text
values = rng.random(ROWS)
text = "\n".join(f"{v!r},{i & 1}" for i, v in enumerate(values.tolist()))
parsed = np.array([float(line.split(",")[0]) for line in text.splitlines()])
assert np.array_equal(parsed, values)

# sorted views and partitions
for _ in range(4):
    ordered = np.sort(rng.random(5 * ROWS))
    np.cumsum(ordered)
    np.searchsorted(ordered, values)

# pava: pool adjacent violators over noisy increasing targets, in Python
targets = (np.linspace(0.0, 1.0, ROWS // 2) + 0.3 * rng.random(ROWS // 2)).tolist()
for _ in range(2):
    means: list[float] = []
    weights: list[int] = []
    for t in targets:
        means.append(t)
        weights.append(1)
        while len(means) > 1 and means[-2] > means[-1]:
            w = weights[-2] + weights[-1]
            means[-2] = (means[-2] * weights[-2] + means[-1] * weights[-1]) / w
            weights[-2] = w
            means.pop()
            weights.pop()

# synthdata: Newton steps of a logistic fit
x = rng.standard_normal(14_000)
y = (rng.random(14_000) < 0.5).astype(np.float64)
for _ in range(400):
    eta = 0.1 + 0.5 * x
    p = 1.0 / (1.0 + np.exp(-eta))
    float(np.sum(y * eta - np.logaddexp(0.0, eta)))
    w = p * (1.0 - p)
    (w * x).sum(), (w * x * x).sum()

# binomial kernel: regularized incomplete beta over many (n, k, q)
n = np.arange(1, 20_001)
for _ in range(25):
    scipy.special.betainc(n // 2 + 1, n - n // 2, rng.random(n.size))
