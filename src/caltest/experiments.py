"""Synthetic experiment harness: prevalence-shift scenarios and sensitivity sweeps.

A scenario trains a logistic model on data simulated at one prevalence and
scores test data simulated at another. Matching prevalences give a
well-calibrated model; shifting the test prevalence miscalibrates it by a
known amount. Each scenario is replicated over seeds and summarized as
mean/stddev per metric.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .binning import BinStrategy
from .core import Dataset
from .metrics import ace, ece, mce, tce_variants
from .stattest import TestConfig

__all__ = [
    "BatteryConfig",
    "METRIC_COLUMNS",
    "SWEEP_PARAMETERS",
    "metric_battery",
    "run_scenario",
    "simulate",
    "run_sweep",
]

METRIC_COLUMNS = ("TCE", "TCE(Q)", "TCE(V)", "ECE", "ACE", "MCE", "MCE(Q)")

DEFAULT_TRAIN_SIZE = 14000
DEFAULT_TEST_SIZE = 6000
DEFAULT_SIMULATE_SEEDS = 20
DEFAULT_SWEEP_SEEDS = 5
# Calibrated, miscalibrated, and rare-positive train/test prevalence pairs.
DEFAULT_SIMULATE_PAIRS = ((0.5, 0.5), (0.5, 0.4), (0.01, 0.02))
DEFAULT_SWEEP_PAIRS = DEFAULT_SIMULATE_PAIRS[:2]

SWEEP_PARAMETERS = (
    "n_min",
    "n_max",
    "binsize_range",
    "noise",
    "alpha",
    "test_kind",
    "data_size",
    "prevalence",
)


@dataclass(frozen=True)
class BatteryConfig:
    """Settings shared by every metric in the standard comparison battery."""

    test: TestConfig = field(default_factory=TestConfig)
    num_bins: int = BinStrategy.num_bins
    nmin_frac: float = BinStrategy.nmin_frac
    nmax_frac: float = BinStrategy.nmax_frac
    n_min: int | None = None
    n_max: int | None = None
    norm: str = "weighted_l1"


def metric_battery(dataset: Dataset, cfg: BatteryConfig = BatteryConfig()) -> dict[str, float]:
    """All seven comparison metrics for one dataset, keyed by column name."""
    variants = tce_variants(
        dataset,
        cfg.test,
        num_bins=cfg.num_bins,
        nmin_frac=cfg.nmin_frac,
        nmax_frac=cfg.nmax_frac,
        n_min=cfg.n_min,
        n_max=cfg.n_max,
        norm=cfg.norm,
    )
    return {
        "TCE": variants["TCE(P)"].value,
        "TCE(Q)": variants["TCE(Q)"].value,
        "TCE(V)": variants["TCE(V)"].value,
        "ECE": ece(dataset, cfg.num_bins).value,
        "ACE": ace(dataset, cfg.num_bins).value,
        "MCE": mce(dataset, cfg.num_bins, "equispaced").value,
        "MCE(Q)": mce(dataset, cfg.num_bins, "quantile").value,
    }


def scenario_dataset(
    train_prevalence: float,
    test_prevalence: float,
    n_train: int,
    n_test: int,
    seed: int,
    noise_sigma: float = 0.0,
) -> Dataset:
    """Fit the logistic model on one simulated draw and score a fresh test draw."""
    from .synthdata import GdaConfig, fit_logistic, perturb_logit_normal, predict_logistic, sample

    train_x, train_y = sample(GdaConfig(prevalence=train_prevalence, seed=2 * seed), n_train)
    test_x, test_y = sample(GdaConfig(prevalence=test_prevalence, seed=2 * seed + 1), n_test)
    b0, b1 = fit_logistic(train_x, train_y)
    preds = predict_logistic(test_x, b0, b1)
    if noise_sigma != 0.0:  # perturb_logit_normal refuses a negative or NaN sigma
        preds = perturb_logit_normal(preds, noise_sigma, seed=3 * seed + 1)
    return Dataset(preds, test_y)


def run_scenario(
    train_prevalence: float,
    test_prevalence: float,
    n_train: int = DEFAULT_TRAIN_SIZE,
    n_test: int = DEFAULT_TEST_SIZE,
    seed: int = 0,
    cfg: BatteryConfig = BatteryConfig(),
) -> dict[str, float]:
    """One seed of one train/test prevalence pair; returns the metric battery."""
    dataset = scenario_dataset(train_prevalence, test_prevalence, n_train, n_test, seed)
    return metric_battery(dataset, cfg)


def _aggregate_seeds(rows: list[dict[str, float]]) -> dict[str, dict[str, float]]:
    out = {}
    for column in METRIC_COLUMNS:
        values = np.array([r[column] for r in rows])
        out[column] = {"mean": float(values.mean()), "std": float(values.std(ddof=0))}
    return out


def _check_seeds(n_seeds: int) -> None:
    # No seeds would summarize nothing: every mean and std would be NaN.
    if n_seeds < 1:
        raise ValueError(f"need at least one seed, got n_seeds={n_seeds}")


def simulate(
    pairs: list[tuple[float, float]],
    n_seeds: int = DEFAULT_SIMULATE_SEEDS,
    n_train: int = DEFAULT_TRAIN_SIZE,
    n_test: int = DEFAULT_TEST_SIZE,
    base_seed: int = 0,
    cfg: BatteryConfig = BatteryConfig(),
) -> list[dict]:
    """Replicate each prevalence pair over seeds and summarize the battery.

    Returns one entry per pair with per-seed values and mean/std summaries.
    """
    _check_seeds(n_seeds)
    results = []
    for train_prev, test_prev in pairs:
        rows = [
            run_scenario(train_prev, test_prev, n_train, n_test, base_seed + s, cfg)
            for s in range(n_seeds)
        ]
        results.append(
            {
                "train_prevalence": train_prev,
                "test_prevalence": test_prev,
                "n_train": n_train,
                "n_test": n_test,
                "n_seeds": n_seeds,
                "summary": _aggregate_seeds(rows),
                "per_seed": rows,
            }
        )
    return results


def _whole(parameter: str, value) -> int:
    """A count from the grid; a fraction is refused, not cut off."""
    if not float(value).is_integer():  # NaN and infinity are not whole either
        raise ValueError(f"{parameter} {value!r} is not a whole number")
    return int(value)


def _sweep_point(parameter: str, value, pair, n_test: int, base: BatteryConfig):
    """The data recipe (the ``scenario_dataset`` arguments a point can change)
    and the battery settings of one sweep point. The point sets only the
    setting its parameter names, so an ``n_min`` or ``n_max`` that crosses the
    other bound fails when the bins are built."""
    (train_prev, test_prev), noise, size, cfg = pair, 0.0, n_test, base
    if parameter == "noise":
        noise = float(value)
        if not noise >= 0.0:  # NaN too
            raise ValueError(f"noise scale must be a number >= 0, got {noise}")
    elif parameter == "data_size":
        size = _whole(parameter, value)
        if size < 1:
            raise ValueError("data size must be positive")
    elif parameter == "prevalence":
        train_prev, test_prev = float(value[0]), float(value[1])
    elif parameter == "n_min":
        cfg = replace(base, n_min=_whole(parameter, value))
    elif parameter == "n_max":
        cfg = replace(base, n_max=_whole(parameter, value))
    elif parameter == "binsize_range":
        n_min, n_max = (_whole(parameter, v) for v in value)
        cfg = replace(base, n_min=n_min, n_max=n_max)
    elif parameter == "alpha":
        cfg = replace(base, test=TestConfig(base.test.kind, float(value)))
    else:  # test_kind
        cfg = replace(base, test=TestConfig(str(value), base.test.alpha))
    return {"train_prevalence": train_prev, "test_prevalence": test_prev,
            "n_test": size, "noise_sigma": noise}, cfg


def run_sweep(
    parameter: str,
    grid: list,
    scenarios: list[tuple[float, float]] | None = None,
    n_seeds: int = DEFAULT_SWEEP_SEEDS,
    n_train: int = DEFAULT_TRAIN_SIZE,
    n_test: int = DEFAULT_TEST_SIZE,
    base_seed: int = 0,
    cfg: BatteryConfig = BatteryConfig(),
) -> list[dict]:
    """Sensitivity sweep of one parameter over a grid, per scenario.

    Invalid grid points produce an error entry and the sweep continues.
    Scenarios default to ``DEFAULT_SWEEP_PAIRS``. A prevalence sweep takes
    its train/test pairs from the grid, so it refuses ``scenarios``.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ValueError(f"unknown sweep parameter {parameter!r}; expected one of {SWEEP_PARAMETERS}")
    _check_seeds(n_seeds)
    if parameter == "prevalence":
        if scenarios is not None:
            raise ValueError("a prevalence sweep takes no scenarios: its grid holds the pairs")
        scenarios = [(None, None)]  # one block covers the grid
    elif scenarios is None:
        scenarios = DEFAULT_SWEEP_PAIRS

    results = []
    for pair in scenarios:
        block = {"train_prevalence": pair[0], "test_prevalence": pair[1], "points": []}
        built, datasets = None, {}  # each seed's dataset, kept while the recipe holds
        for value in grid:
            point: dict = {"value": value}
            try:
                recipe, point_cfg = _sweep_point(parameter, value, pair, n_test, cfg)
                if recipe != built:
                    built, datasets = recipe, {}
                rows = []
                for seed in range(base_seed, base_seed + n_seeds):
                    if seed not in datasets:
                        datasets[seed] = scenario_dataset(n_train=n_train, seed=seed, **recipe)
                    rows.append(metric_battery(datasets[seed], point_cfg))
                point["summary"] = _aggregate_seeds(rows)
            except (ValueError, TypeError) as exc:
                point["error"] = str(exc)
            block["points"].append(point)
        results.append(block)
    return results
