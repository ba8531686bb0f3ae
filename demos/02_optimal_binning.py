"""How the bin constructions trade off estimation error against bin size.

The pooled (isotonic) fit minimizes the size-weighted within-bin variance over
all monotone contiguous partitions; adding block-size constraints sacrifices a
little of that optimum for better-sized bins, and quantile bins sit at the
other end. The brute-force enumerator certifies the optimum at toy scale.
"""
import numpy as np

from caltest import (
    Dataset,
    brute_force_optimal,
    bins_from_fit,
    monotonicity_report,
    pava,
    pava_bc,
    quantile_bins,
    total_error,
    within_bin_error_avg,
)

rng = np.random.default_rng(7)

print("== Toy certificate ==")
labels = rng.integers(0, 2, 12)
preds = (np.arange(12) + 0.5) / 12
ds = Dataset(preds, labels)
fit = pava(labels)
bins = bins_from_fit(fit, preds)
blocks, best = brute_force_optimal(labels)
print(f"labels: {labels.tolist()}")
print(f"pooled fit blocks: {fit.blocks}")
print(f"enumerated optimum {best:.6f} vs pooled-fit bins {total_error(ds, bins):.6f}")
print()

print("== Desk-scale comparison ==")
n = 3000
preds = np.sort(rng.beta(1.3, 3.5, n))
labels = (rng.random(n) < preds).astype(int)
ds = Dataset(preds, labels)
labels_s, preds_s = ds.sorted_labels, ds.sorted_predictions

strategies = {
    "pooled (unconstrained)": bins_from_fit(pava(labels_s), preds_s),
    "pooled + block sizes": bins_from_fit(pava_bc(labels_s, n // 20, n // 5), preds_s),
    "quantile (B=10)": quantile_bins(ds, 10),
}
print(f"{'strategy':26s} {'bins':>5s} {'total error':>12s} {'within-bin avg':>15s}")
for name, b in strategies.items():
    print(
        f"{name:26s} {len(b):5d} {total_error(ds, b):12.4f} {within_bin_error_avg(ds, b):15.4f}"
    )
print()
print("The unconstrained fit always attains the smallest total error, at the")
print("price of unevenly sized bins; the constrained fit keeps every bin")
print("between N/20 and N/5 records for a small increase in total error.")
print()

print("== Mild monotonicity violations under constraints ==")
skewed = (rng.random(4000) < 0.04).astype(int)
fit = pava_bc(skewed, 200, 800)
violations = monotonicity_report(fit)
print(f"block means: {np.round(fit.block_means, 4).tolist()}")
print(f"violating adjacent pairs: {violations if violations else 'none'}")
