from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
import reference_kernel
import reference_tests
from reference_bins import assign
from reference_tests import reject, screened_tce

from caltest import metrics, stattest
from caltest.binning import BinStrategy, build_bins, equispaced_bins, quantile_bins
from caltest.core import BinSet, Dataset
from caltest.metrics import ace, ece, gce, mce, tce, tce_classwise, tce_variants
from caltest.stattest import TestConfig


@pytest.fixture
def four_point():
    return Dataset(np.array([0.2, 0.3, 0.7, 0.9]), np.array([0, 1, 1, 1]))


def test_ece_hand_example(four_point):
    report = ece(four_point, 2)
    expected = 0.5 * abs(0.5 - 0.25) + 0.5 * abs(1.0 - (0.7 + 0.9) / 2)
    assert report.value == expected
    assert abs(report.value - 0.225) < 1e-15


def test_ece_zero_when_bins_match():
    ds = Dataset(np.array([0.25, 0.25, 0.75, 0.75]), np.array([0, 1, 1, 1]))
    # per-bin gaps |0.5 - 0.25| and |1.0 - 0.75|, both weighted one half
    assert ece(ds, 2).value == pytest.approx(0.25)
    flat = Dataset(np.array([0.5, 0.5]), np.array([0, 1]))
    assert ece(flat, 1).value == 0.0


def test_ece_skips_empty_bins(four_point):
    report = ece(four_point, 10)
    populated = [pb for pb in report.per_bin if pb.count > 0]
    assert len(populated) == 4
    assert all(np.isnan(pb.loss) for pb in report.per_bin if pb.count == 0)


def test_gce_reduces_to_ece(four_point):
    def absolute_gap(labels, preds):
        return abs(labels.mean() - preds.mean())

    for num_bins in (1, 2, 5, 10):
        report = gce(four_point, equispaced_bins(num_bins), absolute_gap)
        assert report.value == ece(four_point, num_bins).value


def test_gce_constant_losses(four_point):
    bins = equispaced_bins(10)
    assert gce(four_point, bins, lambda y, p: 1.0).value == pytest.approx(1.0)
    assert gce(four_point, bins, lambda y, p: 0.37, norm="sup").value == 0.37
    with pytest.raises(ValueError):
        gce(four_point, bins, lambda y, p: 1.0, norm="l7")
    with pytest.raises(ValueError, match="all bins are empty"):
        metrics._aggregate(np.zeros(2), np.zeros(2, dtype=np.int64), "weighted_l1")


def test_ace_examples(four_point):
    tied = Dataset(np.full(6, 0.3), np.array([0, 0, 1, 0, 0, 1]))
    assert ace(tied, 10).value == pytest.approx(abs(2 / 6 - 0.3))
    assert ace(four_point, 1).value == ece(four_point, 1).value


def test_mce_examples(four_point):
    assert mce(four_point, 1).value == ece(four_point, 1).value
    # per-bin gaps 0.25 and 0.2, sup picks 0.25
    assert mce(four_point, 2).value == pytest.approx(0.25)
    assert mce(four_point, 2, "quantile").name == "MCE(Q)"
    with pytest.raises(ValueError):
        mce(four_point, 2, "dyadic")


def test_tce_never_rejects_tiny_agreeing_bin():
    ds = Dataset(np.array([0.5, 0.5]), np.array([0, 1]))
    report = tce(ds, BinSet.from_edges([0.0, 1.0]), TestConfig())
    assert report.value == 0.0


def test_tce_rejects_hopeless_bin():
    preds = np.full(100, 0.999)
    labels = np.array([0, 1] * 50)
    report = tce(Dataset(preds, labels), BinSet.from_edges([0.0, 1.0]), TestConfig())
    assert report.value == 100.0
    assert report.per_bin[-1].loss == 100.0


def test_tce_weighted_l1_counts_rejections():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(5, 300))
        ds = Dataset(rng.random(n), rng.integers(0, 2, n))
        bins = equispaced_bins(int(rng.integers(1, 8)))
        cfg = TestConfig(alpha=0.2)
        report = tce(ds, bins, cfg)
        # under the weighted 1-norm the value is 100 * rejected / N
        rejected = 0
        idx = assign(bins, ds.predictions)
        for b in range(len(bins)):
            members = idx == b
            if not members.any():
                continue
            labels_b = ds.labels[members]
            rejected += sum(
                reject(labels_b, q, cfg).rejected for q in ds.predictions[members]
            )
        assert report.value == pytest.approx(100.0 * rejected / n, abs=1e-9)


def test_tce_value_in_range_and_permutation_invariant():
    rng = np.random.default_rng(29)
    for _ in range(10):
        n = int(rng.integers(10, 200))
        ds = Dataset(rng.random(n), rng.integers(0, 2, n))
        bins = quantile_bins(ds, 5)
        value = tce(ds, bins).value
        assert 0.0 <= value <= 100.0
        perm = rng.permutation(n)
        shuffled = Dataset(ds.predictions[perm], ds.labels[perm])
        assert tce(shuffled, bins).value == pytest.approx(value, abs=1e-12)


def test_tce_monotone_in_alpha():
    rng = np.random.default_rng(37)
    alphas = [0.001, 0.01, 0.05, 0.1, 0.5]
    for _ in range(20):
        n = int(rng.integers(10, 200))
        ds = Dataset(rng.random(n), rng.integers(0, 2, n))
        bins = equispaced_bins(int(rng.integers(1, 10)))
        values = [tce(ds, bins, TestConfig(alpha=a)).value for a in alphas]
        assert all(v1 <= v2 + 1e-12 for v1, v2 in zip(values, values[1:]))


def test_tce_constant_predictions_matching_labels():
    ds = Dataset(np.full(40, 0.5), np.array([0, 1] * 20))
    assert ece(ds, 10).value == 0.0
    assert tce(ds, equispaced_bins(10)).value == 0.0


def test_tce_with_t_test_runs():
    rng = np.random.default_rng(43)
    ds = Dataset(rng.random(100), rng.integers(0, 2, 100))
    value = tce(ds, quantile_bins(ds, 4), TestConfig(kind="t")).value
    assert 0.0 <= value <= 100.0


def test_tce_t_handles_single_record_bins():
    ds = Dataset(np.array([0.05, 0.6, 0.61]), np.array([0, 1, 0]))
    bins = BinSet.from_edges([0.0, 0.5, 1.0])
    value = tce(ds, bins, TestConfig(kind="t")).value
    # the singleton bin rejects via the zero-variance rule (q != label);
    # the two-record bin has a t statistic near zero and accepts
    assert value == pytest.approx(100.0 / 3.0)


def test_tce_variants_reductions():
    rng = np.random.default_rng(47)
    ds = Dataset(rng.random(300), rng.integers(0, 2, 300))
    reports = tce_variants(ds, n_min=0, n_max=300)
    assert reports["TCE(P)"].value == reports["TCE(V)"].value

    tied = Dataset(np.full(50, 0.42), (rng.random(50) < 0.4).astype(int))
    reports = tce_variants(tied)
    values = {name: r.value for name, r in reports.items()}
    assert len(set(values.values())) == 1  # every strategy collapses to one bin


def test_tce_variants_names_and_config():
    rng = np.random.default_rng(53)
    ds = Dataset(rng.random(200), rng.integers(0, 2, 200))
    reports = tce_variants(ds)
    assert set(reports) == {"TCE(P)", "TCE(Q)", "TCE(V)"}
    assert reports["TCE(P)"].config["bins"] == "pava_bc"
    assert reports["TCE(Q)"].config["bins"] == "quantile"


def test_classwise_two_class_matches_binary_average():
    rng = np.random.default_rng(59)
    p1 = rng.random(150)
    probs = np.column_stack([p1, 1 - p1])
    labels = (rng.random(150) < 0.5).astype(int)
    strategy = BinStrategy("quantile", num_bins=5)
    got = tce_classwise(probs, 1 - labels, strategy=strategy)
    a = tce(Dataset(probs[:, 0], 1 - labels), quantile_bins(Dataset(probs[:, 0], 1 - labels), 5)).value
    b = tce(Dataset(probs[:, 1], labels), quantile_bins(Dataset(probs[:, 1], labels), 5)).value
    assert got == pytest.approx((a + b) / 2)


def test_classwise_perfectly_predicted_one_hot_is_zero():
    # the fitted-bin strategies separate the 0- and 1-predictions, so each
    # bin tests q = 1 against all-ones labels (p = 1) or q = 0 against zeros
    labels = np.array([0, 1, 2, 0, 1, 2] * 10)
    probs = np.zeros((60, 3))
    probs[np.arange(60), labels] = 1.0
    assert tce_classwise(probs, labels) == 0.0
    assert tce_classwise(probs, labels, strategy=BinStrategy("pava")) == 0.0


def test_classwise_three_class_matches_recomputation():
    rng = np.random.default_rng(61)
    raw = rng.random((90, 3))
    probs = raw / raw.sum(axis=1, keepdims=True)
    labels = rng.integers(0, 3, 90)
    strategy = BinStrategy("quantile", num_bins=4)
    got = tce_classwise(probs, labels, strategy=strategy)
    per_class = []
    for c in range(3):
        ds = Dataset(probs[:, c], (labels == c).astype(int))
        per_class.append(tce(ds, quantile_bins(ds, 4)).value)
    assert got == pytest.approx(np.mean(per_class))


def test_classwise_validation():
    probs = np.array([[0.7, 0.2], [0.5, 0.5]])
    with pytest.raises(ValueError):
        tce_classwise(probs, np.array([0, 1]))  # rows do not sum to 1
    good = np.array([[0.7, 0.3], [0.5, 0.5]])
    with pytest.raises(ValueError):
        tce_classwise(good, np.array([0, 2]))  # label outside [0, K)
    with pytest.raises(ValueError, match=r"\(N, K\) matrix"):
        tce_classwise(np.ones((2, 1)), np.array([0, 0]))  # one class
    with pytest.raises(ValueError, match="probabilities must lie"):
        tce_classwise(np.array([[1.5, -0.5], [0.5, 0.5]]), np.array([0, 1]))


@st.composite
def small_datasets(draw):
    n = draw(st.integers(2, 200))
    levels = draw(st.sampled_from([2, 5, 20, 0]))  # 0: continuous predictions
    if levels:
        values = draw(st.lists(st.integers(0, levels - 1), min_size=n, max_size=n))
        preds = (np.array(values) + 0.5) / levels
    else:
        preds = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    shift = draw(st.floats(-0.5, 0.5))
    bits = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=n, max_size=n))
    labels = (np.array(bits) < np.clip(preds + shift, 0.0, 1.0)).astype(int)
    return Dataset(preds, labels)


@settings(max_examples=100, deadline=None)
@given(ds=small_datasets(), kind=st.sampled_from(["binomial", "t"]))
def test_tce_variants_in_range_and_monotone_in_alpha(ds, kind):
    alphas = [0.001, 0.01, 0.05, 0.2, 0.5]
    runs = [tce_variants(ds, TestConfig(kind=kind, alpha=a)) for a in alphas]
    for label in runs[0]:
        values = [run[label].value for run in runs]
        assert all(0.0 <= v <= 100.0 for v in values), label
        assert all(lo <= hi for lo, hi in zip(values, values[1:])), label


def test_tce_rejecting_every_record_is_exactly_100():
    # per-bin weights 112/125 and 13/125 summed to 100.00000000000001
    ds = Dataset(np.array([0.25] * 112 + [0.75] * 13), np.ones(125, dtype=int))
    bins = quantile_bins(ds, 10)
    assert tce(ds, bins, TestConfig(alpha=0.05)).value == 100.0


@st.composite
def tie_runs(draw):
    """Predictions from a few values, 0, -0.0 and 1 among them, so runs of ties
    straddle chunk ends and chunks straddle bin cuts."""
    pool = draw(st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, -0.0, 1.0]),
                         min_size=1, max_size=6))
    preds = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))
    labels = draw(st.lists(st.integers(0, 1), min_size=len(preds), max_size=len(preds)))
    return Dataset(np.array(preds), np.array(labels))


def tce_and_decisions(ds, cfg):
    """The three TCE values; per variant, the records each bin settles by its bounds and
    each tested (bin, q, rejected) in order; and whether a decision call held the runs of
    more than one bin."""
    decided, straddled = [], []
    make = metrics.rejection_test

    def spy(cfg, preds, cuts, label_sums, labels_in):
        test = make(cfg, preds, cuts, label_sums, labels_in)
        calls = []
        decided.append((test.below.tobytes() + test.above.tobytes(), calls))

        def rejects(bins, qs):
            rejected = test.rejects(bins, qs)
            calls.append((bins.tobytes(), qs.tobytes(), rejected.tobytes()))
            straddled.append(np.any(bins[1:] != bins[:-1]))
            return rejected

        return test._replace(rejects=rejects)

    with mock.patch.object(metrics, "rejection_test", spy):
        values = {name: report.value for name, report in tce_variants(ds, cfg).items()}
    decisions = [(settled, *(b"".join(part) for part in zip(*calls))) for settled, calls in decided]
    return values, decisions, any(straddled)


@settings(max_examples=200, deadline=None)
@given(ds=tie_runs(), chunk=st.integers(1, 5), kind=st.sampled_from(["binomial", "t"]),
       alpha=st.sampled_from([0.05, 0.5]))
@example(ds=Dataset(np.repeat([0.1, 0.45, 0.6, 0.9], 4), np.tile([0, 1, 1, 0], 4)), chunk=5,
         kind="binomial", alpha=0.5)
def test_chunked_run_walk_matches_one_chunk(ds, chunk, kind, alpha):
    cfg = TestConfig(kind, alpha)
    values, decided, _ = tce_and_decisions(ds, cfg)
    with mock.patch.object(metrics, "_RUN_CHUNK", chunk):
        got_values, got_decided, straddled = tce_and_decisions(ds, cfg)
    event("a chunk straddled a bin cut" if straddled else "no chunk straddled a bin cut")
    assert (got_values, got_decided) == (values, decided)


def handed_on(ds, bins, cfg):
    """tce's per-bin losses as bytes, with the (n, k, q, err) it hands to the tail sums and the
    (n, k, q) it hands to the exact kernel, each sorted; then the same from ``screened_tce``."""
    out = []
    for screen, kernel, score in [
        (stattest, stattest, lambda: [pb.loss for pb in tce(ds, bins, cfg).per_bin]),
        (reference_kernel, reference_tests, lambda: screened_tce(ds, bins, cfg)),
    ]:
        tails, kernels = [], []
        tail_screen, sweep = screen._tail_screen, kernel.binom_pvalues_sweep

        def tail_spy(n, k, q, err, alpha, log_fact):
            tails.extend(zip(n.tolist(), k.tolist(), q.tolist(), err.tolist()))
            return tail_screen(n, k, q, err, alpha, log_fact)

        def kernel_spy(n, k, qs, log_fact=None):
            kernels.extend((n, k, q) for q in qs.tolist())
            return sweep(n, k, qs, log_fact)

        with mock.patch.object(screen, "_tail_screen", tail_spy), \
                mock.patch.object(kernel, "binom_pvalues_sweep", kernel_spy):
            losses = np.array(score())
        out.append((losses.tobytes(), sorted(tails), sorted(kernels)))
    return out


@st.composite
def scored_datasets(draw):
    """Predictions from few values or many, 0 and 1 among them; labels from a rate, constant,
    or cut at a value, so that bins hold no 1s or only 1s; bins of one record or many."""
    n = draw(st.integers(1, 400))
    values = draw(st.sampled_from([3, 20, 1000]))
    pool = np.concatenate([[0.0, 1.0], np.sort(draw(st.lists(
        st.floats(0.0, 1.0), min_size=values, max_size=values)))])
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    preds = rng.choice(pool, n) if draw(st.booleans()) else rng.random(n) ** draw(st.sampled_from([1, 8]))
    rule = draw(st.sampled_from(["rate", "zeros", "ones", "cut"]))
    labels = {
        "rate": rng.random(n) < np.clip(preds + rng.normal(0.0, 0.1, n), 0.0, 1.0),
        "zeros": np.zeros(n), "ones": np.ones(n), "cut": preds > 0.5,
    }[rule]
    ds = Dataset(preds, labels)
    strategy = draw(st.sampled_from(["pava", "pava_bc", "quantile", "per_record", "equispaced"]))
    if strategy == "per_record":  # one bin per record wherever records differ
        bins = quantile_bins(ds, n)
    elif strategy == "equispaced":  # empty bins too
        bins = equispaced_bins(draw(st.integers(1, 30)))
    else:
        bins = build_bins(ds, BinStrategy(strategy, num_bins=draw(st.integers(1, 15))))
    return ds, bins


@settings(max_examples=150, deadline=None)
@given(case=scored_datasets(), kind=st.sampled_from(["binomial", "t"]),
       alpha=st.sampled_from([1e-301, 0.05, 0.5]))
def test_tce_decides_as_the_per_q_screen(case, kind, alpha):
    """Per-bin losses, and the q that reach the tail sums and the exact kernel, are the per-q screen's."""
    ds, bins = case
    got, want = handed_on(ds, bins, TestConfig(kind, alpha))
    event("tail sums ran" if got[1] else "no tail sums")
    assert got == want


def one_ulp_crossings(n, k, alpha):
    """Adjacent q on each side of k/n between which float k log q + (n - k) log(1 - q)
    crosses the reject bound and the accept bound of a bin of n records, k of them 1."""
    reject, accept, _ = stattest._screen_bounds(n, k, alpha)

    def below(bits, bound):
        q = np.array([bits]).view(np.float64)
        return bool((k * np.log(q) + (n - k) * np.log1p(-q))[0] < bound)

    pairs = []
    for bound in (reject, accept):
        for end in (np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)):
            lo, hi = sorted(np.array([end, k / n]).view(np.int64).tolist())
            rising = end < k / n
            while hi - lo > 1:  # below the bound at the end, not at the peak
                mid = (lo + hi) // 2
                if below(mid, bound) == rising:
                    lo = mid
                else:
                    hi = mid
            pairs.extend(np.array([lo, hi]).view(np.float64).tolist())
    return pairs


def test_tce_decides_q_one_ulp_apart_as_the_per_q_screen():
    n, k, alpha = 400, 120, 0.05
    pairs = one_ulp_crossings(n, k, alpha)
    assert len(pairs) == 8 and all(b == np.nextafter(a, 1.0) for a, b in zip(pairs[::2], pairs[1::2]))
    rng = np.random.default_rng(0)
    preds = np.concatenate([pairs, rng.random(n - len(pairs)) * 0.6])
    labels = np.zeros(n)
    labels[rng.permutation(n)[:k]] = 1
    ds = Dataset(preds, labels)
    got, want = handed_on(ds, BinSet.from_edges([0.0, 1.0]), TestConfig("binomial", alpha))
    assert got == want


def test_one_table_per_tce_call():
    """Every block search of a tce call reads one table, though several bins reach the tail sums."""
    rng = np.random.default_rng(3)
    preds = rng.random(20_000)
    ds = Dataset(preds, rng.random(preds.size) < preds)  # calibrated, so q near k/n reach the tail sums
    for bins in (quantile_bins(ds, 10), build_bins(ds, BinStrategy("pava"))):
        searches = mock.Mock(wraps=stattest._excluded_block)  # keeps each table alive, so ids differ
        with mock.patch.object(stattest, "_excluded_block", searches):
            tce(ds, bins)
        tables = {id(args[1]) for args, _ in searches.call_args_list}
        searched = {
            pair for (n, _, k, q), _ in searches.call_args_list
            for pair in zip(np.broadcast_to(n, q.shape).tolist(), np.broadcast_to(k, q.shape).tolist())
        }
        assert len(searched) >= 2  # (n, k) of several bins
        assert len(tables) == 1
