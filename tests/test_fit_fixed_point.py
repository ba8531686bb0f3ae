"""fit_logistic returns at the first step that leaves its coefficients' bits unchanged."""
import struct
from unittest import mock

import numpy as np
import pytest
from reference_logistic import fit_logistic as loop_fit_logistic

from caltest.experiments import DEFAULT_TRAIN_SIZE
from caltest.synthdata import GdaConfig, fit_logistic, sample


def fit_and_count(fit, x, y):
    """The fit's coefficients and its number of log-likelihood evaluations."""
    calls = 0
    logaddexp = np.logaddexp

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return logaddexp(*args, **kwargs)

    with mock.patch.object(np, "logaddexp", counted):
        coefficients = fit(x, y)
    return coefficients, calls


# Training draws of `scenario_dataset` whose Newton steps round to no change
# long before max_iter: prevalence 0.5 at seed 18, and 0.01 at seed 4.
@pytest.mark.parametrize("prevalence, seed", [(0.5, 18), (0.01, 4)])
def test_fit_stops_at_its_fixed_point(prevalence, seed):
    x, y = sample(GdaConfig(prevalence=prevalence, seed=2 * seed), DEFAULT_TRAIN_SIZE)
    got, calls = fit_and_count(fit_logistic, x, y)
    want, loop_calls = fit_and_count(loop_fit_logistic, x, y)
    assert struct.pack("2d", *got) == struct.pack("2d", *want)
    assert calls < loop_calls


def test_fit_matches_the_loop_when_no_halving_improves():
    # A penalty on the linear predictor that the Newton step does not see:
    # nearly every step lowers this log-likelihood, so the line searches run
    # out of halvings and take their smallest step.
    logaddexp = np.logaddexp

    def penalized(zero, eta):
        return logaddexp(zero, eta) + 100.0 * eta * eta

    x, y = sample(GdaConfig(prevalence=0.3, seed=0), 500)
    with mock.patch.object(np, "logaddexp", penalized):
        got = fit_logistic(x, y)
        want = loop_fit_logistic(x, y)
    assert struct.pack("2d", *got) == struct.pack("2d", *want)
    assert got != (0.0, 0.0)
