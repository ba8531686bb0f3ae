"""Calibration error measurement for probabilistic binary classifiers.

The toolkit bins model predictions, estimates the empirical probability of
the positive class per bin, and scores the deviation between predictions and
those estimates. Besides the classic absolute-gap metrics it provides a
test-based metric whose value is the percentage of predictions a statistical
test rejects, which stays comparable across class prevalences.
"""
from .binning import (
    BinStrategy,
    IsotonicFit,
    bins_from_fit,
    brute_force_optimal,
    build_bins,
    equispaced_bins,
    monotonicity_report,
    pava,
    pava_bc,
    quantile_bins,
    total_error,
    within_bin_error_avg,
)
from .core import Bin, BinnedData, BinSet, Dataset, partition
from .diagram import DiagramSpec, build_diagram, render_svg
from .experiments import BatteryConfig, metric_battery, run_scenario, run_sweep, simulate
from .metrics import MetricReport, ace, ece, gce, mce, tce, tce_classwise, tce_variants
from .stattest import TestConfig
from .synthdata import (
    GdaConfig,
    fit_logistic,
    perturb_logit_normal,
    predict_logistic,
    sample,
    true_posterior,
)

__version__ = "0.1.0"

__all__ = [
    "Bin",
    "BinnedData",
    "BinSet",
    "BinStrategy",
    "BatteryConfig",
    "Dataset",
    "DiagramSpec",
    "GdaConfig",
    "IsotonicFit",
    "MetricReport",
    "TestConfig",
    "ace",
    "bins_from_fit",
    "brute_force_optimal",
    "build_bins",
    "build_diagram",
    "ece",
    "equispaced_bins",
    "fit_logistic",
    "gce",
    "mce",
    "metric_battery",
    "monotonicity_report",
    "partition",
    "pava",
    "pava_bc",
    "perturb_logit_normal",
    "predict_logistic",
    "quantile_bins",
    "render_svg",
    "run_scenario",
    "run_sweep",
    "sample",
    "simulate",
    "tce",
    "tce_classwise",
    "tce_variants",
    "total_error",
    "true_posterior",
    "within_bin_error_avg",
]
