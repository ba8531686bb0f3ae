"""Synthetic binary classification data from a two-Gaussian generative model.

Labels are Bernoulli with a configurable prevalence and the scalar feature is
Gaussian with a fixed class-dependent mean, so the exact posterior P(y=1 | x)
is available in closed form (it is logistic in x). That makes it possible to
construct test sets where a fitted model is well-calibrated or miscalibrated
by design, simply by shifting the prevalence between training and test data.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GdaConfig",
    "sample",
    "true_posterior",
    "perturb_logit_normal",
    "fit_logistic",
    "predict_logistic",
]

_CLAMP = 1e-12
# The fixed generative model: class means and the standard deviation of x.
_MEAN_NEG, _MEAN_POS, _SCALE = -1.0, 1.0, 2.0
_FIT_TOL, _FIT_MAX_ITER = 1e-10, 100


@dataclass(frozen=True)
class GdaConfig:
    """Generative model: y ~ Bernoulli(prevalence), x | y ~ Normal(mean_y, 2).

    The rest of the model is fixed: the class means are -1 and +1, and the
    scale 2 is a standard deviation. Only the prevalence and the seed vary.
    """

    prevalence: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= self.prevalence <= 1.0):
            raise ValueError("prevalence must lie in [0, 1]")


def _rng(seed: int) -> np.random.Generator:
    # Philox is counter-based, so streams are reproducible across platforms.
    return np.random.Generator(np.random.Philox(key=seed))


def sample(cfg: GdaConfig, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw n (x, y) pairs; identical output for identical (cfg, n)."""
    if n < 1:
        raise ValueError("need at least one sample")
    rng = _rng(cfg.seed)
    y = (rng.random(n) < cfg.prevalence).astype(np.int64)
    x = np.where(y == 1, _MEAN_POS, _MEAN_NEG) + _SCALE * rng.standard_normal(n)
    return x, y


def true_posterior(cfg: GdaConfig, x) -> np.ndarray:
    """Exact P(y=1 | x) of the generative model.

    The log-odds are linear in x:
        log(prev / (1 - prev)) + (m1 - m0) * x / s^2 + (m0^2 - m1^2) / (2 s^2).
    With the fixed means and scale this reduces to log-odds + x / 2.
    """
    x = np.asarray(x, dtype=np.float64)
    if cfg.prevalence == 0.0:
        return np.zeros_like(x)
    if cfg.prevalence == 1.0:
        return np.ones_like(x)
    s2 = _SCALE**2
    intercept = math.log(cfg.prevalence / (1.0 - cfg.prevalence)) + (
        _MEAN_NEG**2 - _MEAN_POS**2
    ) / (2.0 * s2)
    slope = (_MEAN_POS - _MEAN_NEG) / s2
    return _sigmoid(intercept + slope * x)


def perturb_logit_normal(preds, sigma: float, seed: int = 0) -> np.ndarray:
    """Noise each prediction on the logit scale with a Normal(0, sigma) draw.

    Inputs are clamped away from 0 and 1 before the logit; sigma = 0 returns
    the clamped input unchanged.
    """
    preds = np.asarray(preds, dtype=np.float64)
    if not sigma >= 0.0:  # NaN too
        raise ValueError(f"sigma must be a number >= 0, got {sigma}")
    clamped = np.clip(preds, _CLAMP, 1.0 - _CLAMP)
    if sigma == 0.0:
        return clamped
    z = np.log(clamped) - np.log1p(-clamped)
    z = z + sigma * _rng(seed).standard_normal(preds.shape)
    return _sigmoid(z)


def _sigmoid(z) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    t = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


def fit_logistic(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Maximum-likelihood fit of p = sigmoid(b0 + b1 x) by damped Newton steps.

    Iterates until the gradient norm drops below _FIT_TOL or _FIT_MAX_ITER
    steps are taken; each Newton step is halved while it fails to improve the
    log-likelihood. A step that leaves the bits of (b0, b1) unchanged ends the
    loop: every later iteration would repeat it.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)

    def loglik(b0, b1):
        eta = b0 + b1 * x
        return float(np.sum(y * eta - np.logaddexp(0.0, eta)))

    b0, b1 = 0.0, 0.0
    current = loglik(b0, b1)
    for _ in range(_FIT_MAX_ITER):
        eta = b0 + b1 * x
        p = _sigmoid(eta)
        resid = y - p
        grad = np.array([resid.sum(), (resid * x).sum()])
        if math.hypot(grad[0], grad[1]) < _FIT_TOL:
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
        else:  # no halving improved: the step taken is half the last one tried
            cand = loglik(b0 + scale * step0, b1 + scale * step1)
        state = struct.pack("2d", b0, b1)
        b0 += scale * step0
        b1 += scale * step1
        if struct.pack("2d", b0, b1) == state:
            break
        current = cand  # the log-likelihood at the new (b0, b1), bit for bit
    return float(b0), float(b1)


def predict_logistic(x, b0: float, b1: float) -> np.ndarray:
    """Predicted probabilities sigmoid(b0 + b1 x)."""
    return _sigmoid(b0 + b1 * np.asarray(x, dtype=np.float64))
