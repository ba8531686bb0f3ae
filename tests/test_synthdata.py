import math

import numpy as np
import pytest

from caltest.core import Dataset
from caltest.metrics import ece, tce_variants
from caltest.synthdata import (
    GdaConfig,
    fit_logistic,
    perturb_logit_normal,
    predict_logistic,
    sample,
    true_posterior,
)


def test_sample_prevalence_within_binomial_bounds():
    for prev in (0.5, 0.01):
        _, y = sample(GdaConfig(prevalence=prev, seed=1), 100_000)
        sigma = math.sqrt(prev * (1 - prev) / 100_000)
        assert abs(y.mean() - prev) < 3 * sigma


def test_sample_is_deterministic():
    a = sample(GdaConfig(prevalence=0.3, seed=5), 1000)
    b = sample(GdaConfig(prevalence=0.3, seed=5), 1000)
    c = sample(GdaConfig(prevalence=0.3, seed=6), 1000)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[0], c[0])


def test_sample_zero_prevalence_supported():
    x, y = sample(GdaConfig(prevalence=0.0, seed=2), 500)
    assert y.sum() == 0 and x.shape == (500,)
    with pytest.raises(ValueError, match="at least one sample"):
        sample(GdaConfig(prevalence=0.5), 0)


def test_true_posterior_values():
    cfg = GdaConfig(prevalence=0.5)
    assert true_posterior(cfg, 0.0) == pytest.approx(0.5)
    assert true_posterior(cfg, 50.0) > 0.999
    assert true_posterior(cfg, 2.0) == pytest.approx(1 / (1 + math.exp(-1)), abs=1e-12)
    # prior enters through the intercept
    skew = GdaConfig(prevalence=0.2)
    assert true_posterior(skew, 0.0) == pytest.approx(0.2, abs=1e-12)
    # a prior of 0 or 1 decides the posterior whatever x is
    assert true_posterior(GdaConfig(prevalence=0.0), [-3.0, 3.0]).tolist() == [0.0, 0.0]
    assert true_posterior(GdaConfig(prevalence=1.0), [-3.0, 3.0]).tolist() == [1.0, 1.0]


def test_true_posterior_matches_conditional_monte_carlo():
    x, y = sample(GdaConfig(prevalence=0.5, seed=123), 10_000_000)
    window = (x > 1.99) & (x < 2.01)
    freq = y[window].mean()
    assert abs(freq - true_posterior(GdaConfig(prevalence=0.5), 2.0)) < 0.01


def test_perturb_zero_noise_is_identity_after_clamp():
    preds = np.array([0.0, 0.2, 0.9, 1.0])
    out = perturb_logit_normal(preds, 0.0)
    assert out[1] == 0.2 and out[2] == 0.9
    assert 0.0 < out[0] < 1e-11 and 1 - 1e-11 < out[3] < 1.0


def test_perturb_symmetric_about_half_on_logit_scale():
    out = perturb_logit_normal(np.full(100_000, 0.5), 1.0, seed=3)
    logits = np.log(out) - np.log1p(-out)
    assert abs(logits.mean()) < 3 / math.sqrt(100_000)


def test_perturb_median_tracks_location():
    out = perturb_logit_normal(np.full(100_000, 0.9), 0.1, seed=4)
    assert np.all((out > 0) & (out < 1))
    assert abs(np.median(out) - 0.9) < 0.005


def test_perturb_validation():
    with pytest.raises(ValueError):
        perturb_logit_normal(np.array([0.5]), -0.1)
    with pytest.raises(ValueError, match="sigma must be a number >= 0, got nan"):
        perturb_logit_normal(np.array([0.5]), math.nan)


def test_fit_logistic_recovers_parameters():
    rng = np.random.default_rng(11)
    x = rng.normal(0, 2, 50_000)
    truth = (-0.7, 1.3)
    y = (rng.random(50_000) < predict_logistic(x, *truth)).astype(int)
    b0, b1 = fit_logistic(x, y)
    assert b0 == pytest.approx(truth[0], abs=0.1)
    assert b1 == pytest.approx(truth[1], abs=0.1)
    # gradient is tiny at the optimum
    p = predict_logistic(x, b0, b1)
    assert abs(np.sum(y - p)) < 1e-6
    assert abs(np.sum((y - p) * x)) < 1e-6
    # one value of x leaves the Hessian singular: the fit stops where it starts
    assert fit_logistic(np.full(4, 2.0), np.array([0, 1, 1, 1])) == (0.0, 0.0)


def test_oracle_predictions_are_well_calibrated():
    # scoring fresh draws with the exact posterior keeps both metrics low
    tces, eces = [], []
    for seed in range(20):
        cfg = GdaConfig(prevalence=0.5, seed=1000 + seed)
        x, y = sample(cfg, 6000)
        ds = Dataset(true_posterior(cfg, x), y)
        tces.append(tce_variants(ds)["TCE(P)"].value)
        eces.append(ece(ds).value)
    assert np.mean(tces) < 25.0
    assert np.mean(eces) < 0.03


def test_gda_config_validation():
    with pytest.raises(ValueError):
        GdaConfig(prevalence=1.5)
