"""The benchmark's workloads: the two of BENCHMARK.json and simulate-default.

Each workload knows how to write its input files from a seed, which CLI call
to make on them, how to compute the same result in-process through the
library's public functions (the reference every CLI call is checked
against), and how to read a call's output back into the same shape.

The CLI flags are left at their defaults; the reference passes the same
defaults explicitly, so a change of default shows as an output mismatch.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Module-qualified calls, so that the tracer's wrappers are the ones called.
from caltest import binning, cli, diagram, experiments
from caltest.core import Dataset
from caltest.stattest import TestConfig

# The scored scenario: a model fitted at 50% prevalence applied to data at
# 40%, so the battery sees real miscalibration rather than a flat zero.
TRAIN_PREVALENCE, TEST_PREVALENCE, N_TRAIN = 0.5, 0.4, 14000
# `caltest simulate` defaults: three prevalence pairs, 20 seeds each.
SIMULATE_PAIRS = [(0.5, 0.5), (0.5, 0.4), (0.01, 0.02)]
SIMULATE_SEEDS = 20
ALPHA = TestConfig().alpha


@dataclass(frozen=True)
class Inputs:
    files: tuple[Path, ...]
    dataset: Dataset | None  # the generated records, for the reference pass


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def normalized(tree):
    """A JSON-shaped copy with NaN as None, the way the CLI writes it."""
    if isinstance(tree, float) and math.isnan(tree):
        return None
    if isinstance(tree, dict):
        return {str(k): normalized(v) for k, v in tree.items()}
    if isinstance(tree, (list, tuple)):
        return [normalized(v) for v in tree]
    if isinstance(tree, (np.integer, np.floating)):
        return normalized(tree.item())
    return tree


def _write_csv(path: Path, dataset: Dataset) -> None:
    # repr() round-trips every float exactly, so the CLI ingests the very
    # records the reference pass scores.
    lines = ["prediction,label"]
    lines.extend(
        f"{p!r},{y}" for p, y in zip(dataset.predictions.tolist(), dataset.labels.tolist())
    )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _scenario(rows: int, seed: int) -> Dataset:
    return experiments.scenario_dataset(TRAIN_PREVALENCE, TEST_PREVALENCE, N_TRAIN, rows, seed)


class Compute:
    name = "compute-500k"
    rows = 500_000
    unit_span = None  # one CLI call is one unit of work

    def make_inputs(self, work: Path, rows: int, seed: int) -> Inputs:
        dataset = _scenario(rows, seed)
        path = work / "scores.csv"
        _write_csv(path, dataset)
        return Inputs((path,), dataset)

    def argv(self, inputs: Inputs, out: Path) -> list[str]:
        return ["compute", str(inputs.files[0]), "--out", str(out)]

    def run_in_process(self, inputs: Inputs) -> dict:
        cli.ingest(inputs.files[0])  # timed only; the reference scores the generated records
        dataset = inputs.dataset
        values = experiments.metric_battery(dataset, experiments.BatteryConfig())
        return normalized({"n": dataset.n, "prevalence": dataset.prevalence, "metrics": values})

    def read_output(self, inputs: Inputs, out: Path) -> dict:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        (result,) = report["results"]
        return {k: result[k] for k in ("n", "prevalence", "metrics")}


class DiagramTies:
    name = "diagram-ties-500k"
    rows = 500_000
    unit_span = None

    def make_inputs(self, work: Path, rows: int, seed: int) -> Inputs:
        scored = _scenario(rows, seed)
        dataset = Dataset(np.round(scored.predictions, 2), scored.labels)
        path = work / "scores.csv"
        _write_csv(path, dataset)
        return Inputs((path,), dataset)

    def argv(self, inputs: Inputs, out: Path) -> list[str]:
        return ["diagram", str(inputs.files[0]), "--kind", "test-based", "--out", str(out)]

    def run_in_process(self, inputs: Inputs) -> dict:
        cli.ingest(inputs.files[0])
        dataset = inputs.dataset
        bins = binning.build_bins(dataset, binning.BinStrategy())
        spec = diagram.build_diagram(dataset, bins, TestConfig(), "test_based")
        svg = diagram.render_svg(spec, 640, 480)
        return {"svg_sha256": sha256_bytes(svg.encode("utf-8")), "spec": json.loads(spec.to_json())}

    def read_output(self, inputs: Inputs, out: Path) -> dict:
        stem = out / f"{inputs.files[0].stem}_test-based"
        svg = stem.with_suffix(".svg").read_bytes()
        spec = json.loads(stem.with_suffix(".json").read_text(encoding="utf-8"))
        return {"svg_sha256": sha256_bytes(svg), "spec": spec}


class SimulateDefault:
    name = "simulate-default"
    rows = 6000
    unit_span = "experiments.run_scenario"

    def make_inputs(self, work: Path, rows: int, seed: int) -> Inputs:
        path = work / "simulate.cfg"
        path.write_text(f"seed = {seed}\nn_test = {rows}\n", encoding="utf-8")
        return Inputs((path,), None)

    def argv(self, inputs: Inputs, out: Path) -> list[str]:
        return ["simulate", "--config", str(inputs.files[0]), "--out", str(out)]

    def _settings(self, inputs: Inputs) -> dict[str, int]:
        text = inputs.files[0].read_text(encoding="utf-8")
        return {k.strip(): int(v) for k, v in (line.split("=") for line in text.splitlines())}

    def run_in_process(self, inputs: Inputs) -> dict:
        settings = self._settings(inputs)
        results = experiments.simulate(
            SIMULATE_PAIRS,
            n_seeds=SIMULATE_SEEDS,
            n_train=N_TRAIN,
            n_test=settings["n_test"],
            base_seed=settings["seed"],
            cfg=experiments.BatteryConfig(),
        )
        return normalized({"results": results})

    def read_output(self, inputs: Inputs, out: Path) -> dict:
        report = json.loads((out / "simulate.json").read_text(encoding="utf-8"))
        return {"results": report["results"]}


WORKLOADS = {w.name: w for w in (Compute(), SimulateDefault(), DiagramTies())}

# Float fields that carry bin geometry and are compared exactly.
EXACT_FLOAT_KEYS = frozenset({"lower", "upper", "histogram_edges"})
FLOAT_TOLERANCE = 1e-9


def mismatches(expected, actual, path: str = "", exact: bool = False) -> list[str]:
    """Differences between two JSON trees: integers, strings and bin edges
    exactly, other floats within FLOAT_TOLERANCE, None only against None."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            return [f"{path or '/'}: keys differ"]
        out = []
        for key in expected:
            out += mismatches(
                expected[key], actual[key], f"{path}/{key}", exact or key in EXACT_FLOAT_KEYS
            )
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return [f"{path}: length differs"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += mismatches(e, a, f"{path}/{i}", exact)
        return out
    if isinstance(expected, float) and not exact:
        if isinstance(actual, (int, float)) and not isinstance(actual, bool):
            if abs(expected - actual) <= FLOAT_TOLERANCE:
                return []
        return [f"{path}: expected {expected!r}, got {actual!r}"]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{path}: expected {expected!r}, got {actual!r}"]
    return []
