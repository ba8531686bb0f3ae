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
from .metrics import MetricReport, ace, ece, gce, mce, tce, tce_classwise, tce_variants
from .stattest import TestConfig

# Names whose modules load on first use, so that importing caltest, or
# caltest.diagram, loads no experiment or synthetic-data code, and scoring
# loads no diagram code.
_LAZY = {
    **dict.fromkeys(["DiagramSpec", "build_diagram", "render_svg"], "diagram"),
    **dict.fromkeys(
        ["BatteryConfig", "metric_battery", "run_scenario", "run_sweep", "simulate"], "experiments"
    ),
    **dict.fromkeys(
        ["GdaConfig", "fit_logistic", "perturb_logit_normal", "predict_logistic", "sample",
         "true_posterior"],
        "synthdata",
    ),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_LAZY[name]}", __name__), name)


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
