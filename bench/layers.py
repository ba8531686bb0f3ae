"""Outside-in tracing of caltest's layers, and the binomtest oracle.

The tracer replaces selected public functions of the caltest modules with
timing wrappers for the length of one in-process pass, then restores them.
Every call becomes a span with a parent, so per-layer totals, self times and
per-variant attribution come from the real call graph. Nothing inside
caltest is edited; a function a later version removes is reported as
untraced and its metrics read 0.
"""
from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# (module, function, span name, keep call arguments and result)
LAYERS = (
    ("cli", "ingest", "cli.ingest", False),
    ("core", "sorted_view", "core.sorted_view", False),
    ("core", "partition", "core.partition", False),
    ("binning", "quantile_bins", "binning.quantile_bins", False),
    ("binning", "pava", "binning.pava", False),
    ("binning", "pava_bc", "binning.pava_bc", True),
    ("binning", "bins_from_fit", "binning.bins_from_fit", False),
    ("stattest", "binom_pvalues_sweep", "stattest.binom_kernel", True),
    ("metrics", "tce", "metrics.tce", True),
    ("metrics", "ece", "metrics.gap", False),
    ("metrics", "ace", "metrics.gap", False),
    ("metrics", "mce", "metrics.gap", False),
    ("experiments", "metric_battery", "experiments.metric_battery", False),
    ("experiments", "run_scenario", "experiments.run_scenario", False),
    ("experiments", "scenario_dataset", "experiments.scenario_dataset", False),
    ("synthdata", "sample", "synthdata.sample", False),
    ("synthdata", "fit_logistic", "synthdata.fit_logistic", False),
    ("diagram", "build_diagram", "diagram.build_diagram", False),
    ("diagram", "render_svg", "diagram.render_svg", True),
)

# Summed span time per unit of work, reported as the median over units.
TIME_METRICS = {
    "cli.ingest_s": "cli.ingest",
    "core.sorted_view_s": "core.sorted_view",
    "core.partition_s": "core.partition",
    "binning.quantile_bins_s": "binning.quantile_bins",
    "binning.pava_s": "binning.pava",
    "binning.pava_bc_s": "binning.pava_bc",
    "binning.bins_from_fit_s": "binning.bins_from_fit",
    "metrics.gap_s": "metrics.gap",
    "experiments.metric_battery_s": "experiments.metric_battery",
    "experiments.scenario_dataset_s": "experiments.scenario_dataset",
    "synthdata.sample_s": "synthdata.sample",
    "synthdata.fit_logistic_s": "synthdata.fit_logistic",
    "diagram.build_diagram_s": "diagram.build_diagram",
    "diagram.render_svg_s": "diagram.render_svg",
}
CALL_COUNTS = {
    "core.sorted_view_calls": "core.sorted_view",
    "core.partition_calls": "core.partition",
    "binning.quantile_bins_calls": "binning.quantile_bins",
}
VARIANTS = ("P", "Q", "V")
# `tce` names its report after the variant; the unsuffixed name is TCE(P),
# as in the battery's columns and the default diagram bins.
_VARIANT_OF_NAME = {"TCE": "P", "TCE(P)": "P", "TCE(Q)": "Q", "TCE(V)": "V"}


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    call: tuple[dict, object] | None = None  # (bound arguments, result) if the layer keeps them


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    untraced: list[str] = field(default_factory=list)
    _open: list[int] = field(default_factory=list)

    def _wrap(self, fn, name: str, keep: bool):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, self._open[-1] if self._open else None, 0.0)
            self.spans.append(span)
            self._open.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if keep:
                span.call = (signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every LAYERS function under each name a caltest module binds it to."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "caltest"]
        patched = []
        try:
            for module, function, name, keep in LAYERS:
                fn = getattr(sys.modules.get(f"caltest.{module}"), function, None)
                if fn is None:
                    self.untraced.append(f"caltest.{module}.{function}")
                    continue
                wrapper = self._wrap(fn, name, keep)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(patched):
                setattr(mod, attr, fn)

    def variant(self, index: int) -> str | None:
        """The TCE variant of the nearest enclosing `metrics.tce` span."""
        i: int | None = index
        while i is not None:
            span = self.spans[i]
            if span.name == "metrics.tce":
                return _VARIANT_OF_NAME.get(span.call[0].get("name", "TCE"))
            i = span.parent
        return None

    def kernel_calls(self) -> dict[str, list[tuple[int, int, np.ndarray, np.ndarray]]]:
        """(n, k, tested predictions, p-values) of every kernel call, per variant."""
        out: dict[str, list] = {v: [] for v in VARIANTS}
        for i, span in enumerate(self.spans):
            if span.name == "stattest.binom_kernel":
                arguments, p = span.call
                out.setdefault(self.variant(i), []).append(
                    (int(arguments["n"]), int(arguments["k"]), np.asarray(arguments["qs"]), p)
                )
        return out

    def _units(self, unit_span: str | None) -> list[int | None]:
        """Unit index for each span: the enclosing `unit_span`, or one unit for all."""
        unit: list[int | None] = []
        for span in self.spans:
            if unit_span is None:
                unit.append(0)
            elif span.name == unit_span:
                unit.append(len(unit))
            else:
                unit.append(unit[span.parent] if span.parent is not None else None)
        return unit

    def layer_metrics(self, unit_span: str | None, alpha: float) -> dict[str, float]:
        """Per-layer times (median over units of per-unit sums) and exact counts."""
        unit = self._units(unit_span)
        units = sorted({u for u in unit if u is not None})
        sums: dict[tuple[str, int], float] = {}

        def add(key: str, u: int | None, seconds: float) -> None:
            if u is not None:
                sums[key, u] = sums.get((key, u), 0.0) + seconds

        child_time = [0.0] * len(self.spans)
        for i, span in enumerate(self.spans):
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        for i, span in enumerate(self.spans):
            duration = span.end - span.start
            add(span.name, unit[i], duration)
            if span.name == "experiments.metric_battery":
                add("experiments.metric_battery.self", unit[i], duration - child_time[i])
            if span.name in ("metrics.tce", "stattest.binom_kernel"):
                add(f"{span.name}.{self.variant(i)}", unit[i], duration)

        def median_over_units(key: str) -> float:
            return statistics.median(sums.get((key, u), 0.0) for u in units) if units else 0.0

        out = {metric: median_over_units(name) for metric, name in TIME_METRICS.items()}
        out["experiments.metric_battery_self_s"] = median_over_units(
            "experiments.metric_battery.self"
        )
        for v in VARIANTS:
            out[f"metrics.tce_s.{v}"] = median_over_units(f"metrics.tce.{v}")
            out[f"stattest.binom_kernel_s.{v}"] = median_over_units(f"stattest.binom_kernel.{v}")
        for metric, name in CALL_COUNTS.items():
            out[metric] = sum(1 for s in self.spans if s.name == name)
        out.update(self._shape_counts(alpha))
        return out

    def _shape_counts(self, alpha: float) -> dict[str, int]:
        from caltest.binning import monotonicity_report

        out: dict[str, int] = {}
        sizes: dict[str, list[int]] = {v: [] for v in VARIANTS}
        for i, span in enumerate(self.spans):
            if span.name == "metrics.tce":
                sizes.setdefault(self.variant(i), []).extend(pb.count for pb in span.call[1].per_bin)
        for v in VARIANTS:
            out[f"binning.bins.{v}"] = len(sizes[v])
        out["binning.bin_size_min.P"] = min(sizes["P"], default=0)
        out["binning.bin_size_max.P"] = max(sizes["P"], default=0)
        out["binning.pava_bc_violations"] = sum(
            len(monotonicity_report(s.call[1])) for s in self.spans if s.name == "binning.pava_bc"
        )
        calls = self.kernel_calls()
        for v in VARIANTS:
            out[f"stattest.distinct_q.{v}"] = sum(qs.size for _, _, qs, _ in calls[v])
            out[f"stattest.rejected.{v}"] = sum(
                int(np.count_nonzero(p < alpha)) for _, _, _, p in calls[v]
            )
        out["stattest.max_bin_n"] = max((n for c in calls.values() for n, *_ in c), default=0)
        out["diagram.svg_bytes"] = sum(
            len(s.call[1].encode("utf-8")) for s in self.spans if s.name == "diagram.render_svg"
        )
        return out


ORACLE_PAIRS = 200


def oracle_check(tracer: Tracer, alpha: float, seed: int) -> dict:
    """Compare a seeded sample of the kernel's rejection decisions with
    ``scipy.stats.binomtest``, an implementation caltest does not use."""
    from scipy.stats import binomtest

    checked = 0
    disagreements = []
    for vi, (variant, calls) in enumerate(tracer.kernel_calls().items()):
        if not calls:
            continue
        ends = np.cumsum([qs.size for _, _, qs, _ in calls])
        rng = np.random.default_rng([seed, vi])
        picks = rng.choice(int(ends[-1]), size=min(ORACLE_PAIRS, int(ends[-1])), replace=False)
        for flat in np.sort(picks).tolist():
            c = int(np.searchsorted(ends, flat, side="right"))
            n, k, qs, p = calls[c]
            j = flat - (int(ends[c - 1]) if c else 0)
            q = float(qs[j])
            expected = binomtest(k, n, q).pvalue < alpha
            checked += 1
            if bool(p[j] < alpha) != expected:
                disagreements.append(
                    {"variant": variant, "n": n, "k": k, "q": q, "p": float(p[j]),
                     "binomtest_rejects": bool(expected)}
                )
    return {"pairs": checked, "disagreements": disagreements}
