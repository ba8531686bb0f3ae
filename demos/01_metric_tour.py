"""Tour of the calibration error metrics on a small synthetic model.

Samples a two-Gaussian classification problem, scores a held-out set with the
exact posterior, and walks through the metric battery, one per-bin report, and
a custom per-bin loss scored through the generic scheme every metric follows.
"""
import numpy as np

from caltest import (
    Dataset,
    GdaConfig,
    TestConfig,
    ece,
    gce,
    metric_battery,
    sample,
    tce,
    tce_variants,
    true_posterior,
)
from caltest.binning import quantile_bins

cfg = GdaConfig(prevalence=0.4, seed=11)
x, y = sample(cfg, 4000)
predictions = true_posterior(cfg, x)
dataset = Dataset(predictions, y)

print(f"dataset: n={dataset.n}, prevalence={dataset.prevalence:.3f}")
print()

print("The whole battery (the model is the exact posterior, so everything is small):")
for name, value in metric_battery(dataset).items():
    print(f"  {name:8s} {value:.4f}")
print()

print("Now corrupt the model: square every prediction (systematic under-estimate).")
corrupted = Dataset(predictions**2, y)
for name, value in metric_battery(corrupted).items():
    print(f"  {name:8s} {value:.4f}")
print()

print("Per-bin view of the test-based score on the corrupted model:")
bins = quantile_bins(corrupted, 8)
report = tce(corrupted, bins, TestConfig(alpha=0.05))
print(f"  {'bin':24s} {'n':>5s} {'label mean':>11s} {'pred mean':>10s} {'rejected %':>11s}")
for pb in report.per_bin:
    print(
        f"  {str(pb.bin):24s} {pb.count:5d} {pb.empirical_prob:11.4f} "
        f"{pb.mean_prediction:10.4f} {pb.loss:11.1f}"
    )
print(f"  overall: {report.value:.2f} (percentage of predictions rejected)")
print()

print("The three bin constructions for the test-based metric:")
for name, rep in tce_variants(corrupted).items():
    print(f"  {name:8s} {rep.value:7.2f}   ({len(rep.per_bin)} bins)")
print()


def squared_gap(labels, preds):  # int8 labels, float64 predictions
    return (labels.mean() - preds.mean()) ** 2


print("A custom per-bin loss through gce, on the same bins: the squared gap")
for name, data in (("posterior", dataset), ("squared", corrupted)):
    print(f"  {name:9s} {gce(data, bins, squared_gap).value:.5f}")
