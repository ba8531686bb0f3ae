"""The damped Newton loop that ``caltest.synthdata.fit_logistic`` replaced, kept verbatim.

It runs on to ``max_iter`` after a step stops changing the coefficients. The
tests hold ``fit_logistic``, which returns at that fixed point, to it bit for
bit.
"""
from __future__ import annotations

import math

import numpy as np

from caltest.synthdata import _sigmoid


def fit_logistic(
    x: np.ndarray,
    y: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> tuple[float, float]:
    """Maximum-likelihood fit of p = sigmoid(b0 + b1 x) by damped Newton steps.

    Iterates until the gradient norm drops below tol or max_iter is hit; each
    Newton step is halved while it fails to improve the log-likelihood.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)

    def loglik(b0, b1):
        eta = b0 + b1 * x
        return float(np.sum(y * eta - np.logaddexp(0.0, eta)))

    b0, b1 = 0.0, 0.0
    current = loglik(b0, b1)
    for _ in range(max_iter):
        eta = b0 + b1 * x
        p = _sigmoid(eta)
        resid = y - p
        grad = np.array([resid.sum(), (resid * x).sum()])
        if math.hypot(grad[0], grad[1]) < tol:
            break
        w = p * (1.0 - p)
        h00 = w.sum()
        h01 = (w * x).sum()
        h11 = (w * x * x).sum()
        det = h00 * h11 - h01 * h01
        if det <= 0.0:
            break
        step0 = (h11 * grad[0] - h01 * grad[1]) / det
        step1 = (h00 * grad[1] - h01 * grad[0]) / det
        scale = 1.0
        for _ in range(30):
            cand = loglik(b0 + scale * step0, b1 + scale * step1)
            if cand >= current:
                break
            scale *= 0.5
        b0 += scale * step0
        b1 += scale * step1
        current = loglik(b0, b1)
    return float(b0), float(b1)
