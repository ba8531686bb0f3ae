"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the reproduction tables. The statistical reproduction of the
prevalence-shift experiment is computed once in a module fixture and shared
by its three row checks.
"""
import time

import numpy as np
import pytest
from reference_tests import binom_pvalue, binom_pvalues_for_counts
from scipy import stats

from caltest.binning import (
    bins_from_fit,
    brute_force_optimal,
    equispaced_bins,
    pava,
    pava_bc,
    quantile_bins,
    total_error,
    within_bin_error_avg,
)
from caltest.core import BinSet, Dataset, partition
from caltest.diagram import build_diagram, render_svg
from caltest.metrics import ece, tce, tce_variants
from caltest.stattest import (
    MASS_SLACK,
    TestConfig,
    binom_pvalues_sweep,
)
from caltest.synthdata import GdaConfig, sample, true_posterior
from caltest.experiments import DEFAULT_TEST_SIZE, DEFAULT_TRAIN_SIZE, scenario_dataset, simulate


def report(cid: str, ok: bool, detail: str) -> str:
    line = f"[acceptance] criterion {cid}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def test_criterion_1_pava_matches_brute_force():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(220):
        n = int(rng.integers(1, 13))
        labels = rng.integers(0, 2, n)
        preds = (np.arange(n) + 0.5) / n
        bins = bins_from_fit(pava(labels), preds)
        achieved = total_error(Dataset(preds, labels), bins)
        _, best = brute_force_optimal(labels)
        worst = max(worst, abs(achieved - best))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 10.0
    report("1", ok, f"220 sequences, worst gap {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-12
    assert elapsed < 10.0


def test_criterion_2_binomial_enumeration_oracle():
    grid = (0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0)
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 501):
        j = np.arange(n + 1)
        for q in grid:
            pmf = stats.binom.pmf(j, n, q)
            thresh = pmf * (1.0 + MASS_SLACK)
            oracle = np.minimum(
                np.where(pmf[None, :] <= thresh[:, None], pmf[None, :], 0.0).sum(axis=1), 1.0
            )
            got = binom_pvalues_for_counts(n, q)
            worst = max(worst, float(np.max(np.abs(got - oracle))))
    # the scalar entry point is the same code path; spot-check it regardless
    rng = np.random.default_rng(102)
    for _ in range(100):
        n = int(rng.integers(1, 501))
        k = int(rng.integers(0, n + 1))
        q = float(rng.choice(grid))
        assert binom_pvalue(n, k, q) == binom_pvalues_for_counts(n, q)[k]
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 60.0
    report("2", ok, f"all n<=500 x 9 probabilities, worst diff {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-12
    assert elapsed < 60.0


@pytest.fixture(scope="module")
def table2():
    start = time.perf_counter()
    results = simulate([(0.5, 0.5), (0.5, 0.4), (0.01, 0.02)], n_seeds=20)
    elapsed = time.perf_counter() - start
    print("\n[acceptance] prevalence-shift reproduction (20 seeds):")
    for entry in results:
        s = entry["summary"]
        print(
            f"  {entry['train_prevalence']:g} vs {entry['test_prevalence']:g}: "
            + " ".join(f"{k}={s[k]['mean']:.4f}" for k in ("TCE", "TCE(Q)", "TCE(V)", "ECE", "ACE"))
        )
    return {(e["train_prevalence"], e["test_prevalence"]): e["summary"] for e in results}, elapsed


def test_criterion_3a_matched_prevalence_is_calibrated(table2):
    summary, _ = table2
    s = summary[(0.5, 0.5)]
    ok = s["TCE"]["mean"] < 25.0 and s["ECE"]["mean"] < 0.03
    report("3a", ok, f"(50%,50%): TCE(P)={s['TCE']['mean']:.2f} (<25), ECE={s['ECE']['mean']:.4f} (<0.03)")
    assert s["TCE"]["mean"] < 25.0
    assert s["ECE"]["mean"] < 0.03


def test_criterion_3b_shifted_prevalence_detected(table2):
    summary, _ = table2
    s = summary[(0.5, 0.4)]
    ok = s["TCE"]["mean"] > 80.0 and 0.07 <= s["ECE"]["mean"] <= 0.12
    report("3b", ok, f"(50%,40%): TCE(P)={s['TCE']['mean']:.2f} (>80), ECE={s['ECE']['mean']:.4f} (in [0.07,0.12])")
    assert s["TCE"]["mean"] > 80.0
    assert 0.07 <= s["ECE"]["mean"] <= 0.12


def test_criterion_3c_imbalanced_shift_scale_consistency(table2):
    # Claim (ii) of the abstract: TCE keeps a scale that class imbalance does
    # not shrink. Read on criterion 3a's "calibrated" thresholds (TCE(P) < 25,
    # ECE < 0.03), a calibrated 1% model reads calibrated on both scales, and
    # the shifted (1%, 2%) model, whose predictions are about half the true
    # rate, reads calibrated on ECE's scale but not on TCE's. The earlier
    # bound TCE(P) > 70 had no source; CHANGES.md, decisions ledger, entry
    # "Criterion 3c", records why it was replaced and what the setting reaches.
    summary, _ = table2
    s = summary[(0.01, 0.02)]
    (control,) = simulate([(0.01, 0.01)], n_seeds=20)
    c = control["summary"]
    ok = c["TCE"]["mean"] < 25.0 and s["ECE"]["mean"] < 0.03 and s["TCE"]["mean"] > 25.0
    report(
        "3c",
        ok,
        f"control (1%,1%): TCE(P)={c['TCE']['mean']:.2f} (<25); "
        f"shifted (1%,2%): ECE={s['ECE']['mean']:.4f} (<0.03), TCE(P)={s['TCE']['mean']:.2f} (>25)",
    )
    assert s["ECE"]["mean"] < 0.03
    assert c["TCE"]["mean"] < 25.0
    assert s["TCE"]["mean"] > 25.0

    # The readings above rest on the exact test at q near 0.005: every seed-0
    # TCE(P) decision must equal scipy.stats.binomtest, which caltest does not use.
    alpha = TestConfig().alpha
    ds = scenario_dataset(0.01, 0.02, DEFAULT_TRAIN_SIZE, DEFAULT_TEST_SIZE, seed=0)
    rep = tce_variants(ds)["TCE(P)"]
    binned = partition(ds, BinSet(tuple(pb.bin for pb in rep.per_bin)))
    decisions = mismatches = 0
    for b, pb in enumerate(rep.per_bin):
        labels, preds = binned.labels_in(b), binned.predictions_in(b)
        if labels.size == 0:
            continue
        n, k = int(labels.size), int(labels.sum())
        oracle = np.array([stats.binomtest(k, n, q).pvalue < alpha for q in preds.tolist()])
        decisions += oracle.size
        mismatches += int(np.sum((binom_pvalues_sweep(n, k, preds) < alpha) != oracle))
        assert pb.loss == 100.0 * float(np.mean(oracle))
    print(f"  seed 0 (1%,2%): {decisions} TCE(P) decisions, {mismatches} differ from binomtest")
    assert decisions == ds.n
    assert mismatches == 0


def test_criterion_3_runtime(table2):
    _, elapsed = table2
    ok = elapsed < 300.0
    report("3-runtime", ok, f"three scenarios x 20 seeds in {elapsed:.1f}s (<300s)")
    assert elapsed < 300.0


def test_criterion_4_false_positive_control():
    # Predictions constant per bin, so the per-bin null hypotheses are exactly
    # true once labels are drawn at the bin's empirical probability.
    bins = equispaced_bins(10)
    centers = np.arange(10) / 10 + 0.05
    base_preds = np.repeat(centers, 200)
    rng = np.random.default_rng(2718)
    base_labels = (rng.random(2000) < base_preds).astype(int)
    p_hat = partition(Dataset(base_preds, base_labels), bins).empirical_prob
    # clamp just inside each bin so the per-bin prediction equals the
    # resampling probability (the empirical mean can land on a boundary)
    edges = bins.edges
    p_hat = np.clip(p_hat, edges[:-1], edges[1:] - 1e-9)
    preds = np.repeat(p_hat, 200)

    cfg = TestConfig(alpha=0.05)
    rates = []
    for seed in range(100):
        seed_rng = np.random.default_rng(10_000 + seed)
        labels = (seed_rng.random(2000) < preds).astype(int)
        rep = tce(Dataset(preds, labels), bins, cfg)
        assert [pb.count for pb in rep.per_bin] == [200] * 10
        rates.extend(pb.loss / 100.0 for pb in rep.per_bin)
    mean_rate = float(np.mean(rates))
    ok = mean_rate <= 0.05 + 0.03
    report("4", ok, f"mean per-bin rejection rate {mean_rate:.4f} (<= 0.08) over 100 seeds")
    assert mean_rate <= 0.08


def test_criterion_5_block_constraint_guarantees():
    rng = np.random.default_rng(104)
    checked = 0
    for _ in range(500):
        n = int(rng.integers(40, 5001))
        prevalence = float(rng.uniform(0.01, 0.5))
        labels = (rng.random(n) < prevalence).astype(int)
        n_min = int(n * 0.05)
        n_max = int(n * 0.2)
        fit = pava_bc(labels, n_min, n_max)
        assert np.all(fit.block_lengths <= n_max)
        assert fit.block_lengths[-1] >= min(n_min, n)
        assert int(fit.block_lengths.sum()) == n
        checked += 1
    # vacuous constraints reproduce the unconstrained fit exactly
    for _ in range(100):
        n = int(rng.integers(40, 2000))
        labels = (rng.random(n) < rng.uniform(0.01, 0.5)).astype(int)
        assert np.array_equal(pava_bc(labels, 0, n).fitted, pava(labels).fitted)
    report("5", True, f"{checked} datasets: sizes within bounds, vacuous case identical")


def test_criterion_6_alpha_monotonicity():
    rng = np.random.default_rng(106)
    alphas = [0.001, 0.005, 0.01, 0.05, 0.1, 0.5]
    for _ in range(100):
        n = int(rng.integers(20, 400))
        ds = Dataset(rng.random(n), rng.integers(0, 2, n))
        kind = rng.choice(["equispaced", "quantile", "pava"])
        if kind == "equispaced":
            bins = equispaced_bins(int(rng.integers(1, 12)))
        elif kind == "quantile":
            bins = quantile_bins(ds, int(rng.integers(1, 12)))
        else:
            labels, preds = ds.sorted_labels, ds.sorted_predictions
            bins = bins_from_fit(pava(labels), preds)
        values = [tce(ds, bins, TestConfig(alpha=a)).value for a in alphas]
        assert all(lo <= hi + 1e-12 for lo, hi in zip(values, values[1:]))
    report("6", True, "TCE non-decreasing in alpha for 100 (dataset, bins) pairs")


def test_criterion_7_hand_computed_fixtures():
    ds = Dataset(np.array([0.2, 0.3, 0.7, 0.9]), np.array([0, 1, 1, 1]))
    value = ece(ds, 2).value
    expected = 0.5 * abs(0.5 - 0.25) + 0.5 * abs(1.0 - (0.7 + 0.9) / 2)
    binned = partition(ds, equispaced_bins(2))
    ok = (
        value == expected
        and abs(value - 0.225) < 1e-15
        and binned.counts.tolist() == [2, 2]
        and binned.empirical_prob.tolist() == [0.5, 1.0]
        and binned.mean_prediction[0] == 0.25
        and binned.mean_prediction[1] == (0.7 + 0.9) / 2
    )
    report("7", ok, f"ECE fixture value {value!r} matches the hand expression bit-for-bit")
    assert value == expected
    assert abs(value - 0.225) < 1e-15
    assert binned.counts.tolist() == [2, 2]
    assert binned.empirical_prob.tolist() == [0.5, 1.0]
    assert binned.mean_prediction[0] == 0.25
    assert binned.mean_prediction[1] == (0.7 + 0.9) / 2


def test_criterion_8_report_format_fixtures():
    # Reference tables tied to externally trained models are out of reach by
    # design; their shapes are pinned instead.
    rng = np.random.default_rng(108)
    preds = np.sort(rng.beta(1.2, 4.0, 600))
    labels = (rng.random(600) < preds).astype(int)
    ds = Dataset(preds, labels)

    # binning comparison table shape: rows = strategy, cols = both objectives
    rows = {}
    labels_s, preds_s = ds.sorted_labels, ds.sorted_predictions
    strategies = {
        "pooled": bins_from_fit(pava(labels_s), preds_s),
        "pooled+constraints": bins_from_fit(pava_bc(labels_s, 30, 120), preds_s),
        "quantile": quantile_bins(ds, 10),
    }
    for name, bins in strategies.items():
        rows[name] = (total_error(ds, bins), within_bin_error_avg(ds, bins))
    assert all(np.isfinite(v) for pair in rows.values() for v in pair)
    assert rows["pooled"][0] <= rows["pooled+constraints"][0] + 1e-9  # optimality of the pooled fit

    # metric comparison table shape: the seven columns of the battery
    from caltest.experiments import METRIC_COLUMNS, metric_battery

    battery = metric_battery(ds)
    assert tuple(battery) == METRIC_COLUMNS
    assert all(np.isfinite(v) for v in battery.values())
    report("8", True, "comparison tables carry the pinned shapes (values need external models)")


def test_criterion_9_tce_on_50k_under_a_minute():
    cfg = GdaConfig(prevalence=0.3, seed=909)
    x, y = sample(cfg, 50_000)
    ds = Dataset(true_posterior(cfg, x), y)
    start = time.perf_counter()
    value = tce_variants(ds)["TCE(P)"].value
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0 and 0.0 <= value <= 100.0
    report("9", ok, f"TCE(P) on 50000 points in {elapsed:.2f}s (<60s), value {value:.2f}")
    assert elapsed < 60.0


def test_criterion_10_diagram_determinism(tmp_path):
    import pathlib

    rng = np.random.default_rng(2024)
    preds = np.sort(rng.random(400))
    labels = (rng.random(400) < preds).astype(int)
    ds = Dataset(preds, labels)
    bins = quantile_bins(ds, 6)
    cfg = TestConfig()
    spec = build_diagram(ds, bins, cfg, "test_based")
    golden = pathlib.Path(__file__).parent / "data" / "golden_diagram.svg"
    svg_twice = (render_svg(spec), render_svg(spec))
    stable = svg_twice[0] == svg_twice[1] == golden.read_text(encoding="utf-8")
    rep = tce(ds, bins, cfg)
    shared = all(
        entry.rejection_pct == pb.loss for entry, pb in zip(spec.bins, rep.per_bin)
    )
    ok = stable and shared
    report("10", ok, "golden byte-stable; per-bin rejection equals the metric report exactly")
    assert stable
    assert shared
