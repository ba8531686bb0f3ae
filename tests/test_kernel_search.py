"""The exact binomial kernel's one table and mirrored search against the gammaln table and two loops they replaced."""
import numpy as np
from hypothesis import example, given, settings
from reference_kernel import _interior_pvalues as two_loop_pvalues
from reference_kernel import _log_binom_coeffs, log_binom_coeffs
from test_stattest import tail_cases

from caltest import stattest


@settings(max_examples=300, deadline=None)
@given(tail_cases())
@example((1, 0, np.array([0.25, 0.5, 0.75])))
@example((1, 1, np.array([1e-300, 0.5, 1 - 2**-53])))
@example((7, 3, np.array([0.5, 3.5 / 8, 3 / 7])))
def test_single_search_matches_two_loops(case):
    n, k, qs = case
    if not qs.size:
        qs = np.array([0.5])
    # Each q against the drawn k, against k at q's own mode (a flat pair, p = 1),
    # and q = (k + 1/2) / (n + 1), whose mode is k.
    modes = np.minimum(np.floor((n + 1) * qs).astype(np.int64), n)
    ks = np.concatenate([np.full(qs.shape, k), modes, [k]])
    q = np.concatenate([qs, qs, [(k + 0.5) / (n + 1)]])
    want = two_loop_pvalues(n, _log_binom_coeffs(n), ks, q)
    assert stattest._binom_pvalues(n, ks, q).tobytes() == want.tobytes()


def test_log_binom_coeffs_match_the_three_array_expression():
    for n in [*range(1, 3001), 10**5, 10**6]:
        assert _log_binom_coeffs(n).tobytes() == log_binom_coeffs(n).tobytes(), n
