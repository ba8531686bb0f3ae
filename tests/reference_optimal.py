"""The exact optimum of the size-constrained fit, by dynamic programming.

``constrained_optimal`` minimizes the binned label error (``total_error`` of
the blocks) over contiguous partitions of a sorted label sequence whose block
sizes lie in [n_min, n_max] and whose block means do not decrease. Block
means are compared by integer cross-multiplication. It takes
O(N * (n_max - n_min + 1)^2) steps, and it is the oracle that shows how close
``pava_bc`` comes to that optimum.

Run as a script (``PYTHONPATH=src:tests python tests/reference_optimal.py``)
it prints the table of the decisions-ledger entry "How optimal is
``pava_bc``".
"""
from __future__ import annotations

import itertools

from caltest.binning import _as_binary


def block_error(sums, lengths) -> float:
    """``total_error`` of blocks with these label sums and lengths."""
    return sum(k - k * k / w for k, w in zip(sums, lengths)) / sum(lengths)


def constrained_optimal(labels_sorted, n_min: int, n_max: int):
    """One optimal partition as ((start, length), ...) and its error, or None
    when no partition meets the constraints."""
    y = _as_binary(labels_sorted)
    n = y.size
    s = [0, *itertools.accumulate(y.tolist())]
    lo, hi = max(n_min, 1), min(n_max, n)
    # best[j][i]: (least error sum, start of the block before or None) over
    # the partitions of [0, j) whose last block is [i, j)
    best: list[dict[int, tuple[float, int | None]]] = [{} for _ in range(n + 1)]
    for j in range(lo, n + 1):
        for i in range(max(0, j - hi), j - lo + 1):
            k, w = s[j] - s[i], j - i
            prev = (0.0, None) if i == 0 else min(
                ((err, h) for h, (err, _) in best[i].items()
                 if (s[i] - s[h]) * w <= k * (i - h)),  # mean of [h, i) <= mean of [i, j)
                default=None,
            )
            if prev is not None:
                best[j][i] = (prev[0] + k - k * k / w, prev[1])
    if not best[n]:
        return None
    i = min(best[n], key=lambda start: best[n][start][0])
    err, blocks, j = best[n][i][0], [], n
    while i is not None:
        blocks.append((i, j - i))
        i, j = best[j][i][1], i
    return tuple(reversed(blocks)), err / n


def _ledger_rows(seeds=range(40), n_train=2000):
    """Per N and scenario: the seeds where ``pava_bc``'s blocks meet every
    constraint, where some partition does, and where ``pava_bc`` reaches the
    optimum; and ``pava_bc``'s error above the optimum, relative to it, over
    the solvable seeds and over the seeds where it meets every constraint."""
    import numpy as np

    from caltest.binning import BinStrategy, monotonicity_report, pava_bc
    from caltest.experiments import scenario_dataset

    for n in (60, 120, 200):
        n_min, n_max = BinStrategy().resolve_sizes(n)
        for pair in ((0.5, 0.4), (0.01, 0.02)):
            meets, gaps, feasible_gaps = 0, [], []
            for seed in seeds:
                y = scenario_dataset(*pair, n_train, n, seed).sorted_labels
                fit = pava_bc(y, n_min, n_max)
                err = block_error(fit.block_label_sums.tolist(), fit.block_lengths.tolist())
                feasible = fit.block_lengths.min() >= n_min and not monotonicity_report(fit)
                meets += bool(feasible)
                best = constrained_optimal(y, n_min, n_max)
                if best is not None:
                    opt = best[1]
                    gaps.append((err - opt) / opt if opt > 0 else 0.0 if err == 0 else np.inf)
                    if feasible:
                        feasible_gaps.append(gaps[-1])
            gaps = np.array(gaps)
            yield (n, pair, len(seeds), meets, gaps.size, int(np.sum(np.abs(gaps) <= 1e-12)),
                   gaps.mean(), gaps.min(), gaps.max(), np.mean(feasible_gaps), np.min(feasible_gaps))


if __name__ == "__main__":
    print("N    scenario  seeds  meets  solvable  optimal  gap mean  gap min  gap max"
          "  meets: gap mean  gap min")
    for n, pair, *counts, mean, low, high, fmean, flow in _ledger_rows():
        cells = [f"{c:>{w}}" for c, w in zip(counts, (5, 7, 10, 9))]
        cells += [f"{g:>+{w}.2%}" for g, w in zip((mean, low, high, fmean, flow), (10, 9, 9, 17, 9))]
        print(f"{n:<5}" + f"{pair[0]:g}/{pair[1]:g}".ljust(9) + "".join(cells))
