import numpy as np
import pytest

from caltest import experiments
from caltest.experiments import (
    METRIC_COLUMNS,
    SWEEP_PARAMETERS,
    BatteryConfig,
    metric_battery,
    run_scenario,
    run_sweep,
    scenario_dataset,
    simulate,
)
from caltest.synthdata import perturb_logit_normal
from caltest.core import Dataset
from caltest.stattest import TestConfig


def test_run_scenario_is_deterministic():
    a = run_scenario(0.5, 0.4, n_train=1500, n_test=500, seed=3)
    b = run_scenario(0.5, 0.4, n_train=1500, n_test=500, seed=3)
    c = run_scenario(0.5, 0.4, n_train=1500, n_test=500, seed=4)
    assert a == b
    assert a != c
    assert tuple(a) == METRIC_COLUMNS


def test_simulate_aggregates_mean_and_std():
    results = simulate([(0.5, 0.5)], n_seeds=3, n_train=1200, n_test=400)
    entry = results[0]
    values = [row["ECE"] for row in entry["per_seed"]]
    assert entry["summary"]["ECE"]["mean"] == pytest.approx(np.mean(values))
    assert entry["summary"]["ECE"]["std"] == pytest.approx(np.std(values))


def test_sweep_unknown_parameter_rejected():
    with pytest.raises(ValueError):
        run_sweep("bogus", [1])


def test_sweep_min_blocksize_degrades_calibrated_scores():
    # a minimum block of half the data forces two giant bins and the
    # calibrated model starts failing the per-record tests wholesale
    rows = run_sweep(
        "n_min",
        [300, 3000],
        scenarios=[(0.5, 0.5)],
        n_seeds=3,
        cfg=BatteryConfig(nmax_frac=0.5),
    )
    points = rows[0]["points"]
    small = points[0]["summary"]["TCE"]["mean"]
    large = points[1]["summary"]["TCE"]["mean"]
    assert large > small + 30.0


def test_sweep_noise_increases_calibrated_scores():
    rows = run_sweep(
        "noise",
        [0.0, 0.5],
        scenarios=[(0.5, 0.5)],
        n_seeds=3,
    )
    points = rows[0]["points"]
    clean = points[0]["summary"]["TCE"]["mean"]
    noisy = points[1]["summary"]["TCE"]["mean"]
    assert noisy > clean + 20.0


def test_sweep_prevalence_pairs_form_single_block():
    rows = run_sweep(
        "prevalence",
        [(0.5, 0.5), (0.5, 0.4)],
        n_seeds=1,
        n_train=1200,
        n_test=400,
    )
    assert len(rows) == 1
    assert rows[0]["train_prevalence"] is None
    assert len(rows[0]["points"]) == 2


def test_prevalence_sweep_refuses_scenarios_before_any_work(monkeypatch):
    monkeypatch.setattr(experiments, "scenario_dataset", lambda *args: pytest.fail("built data"))
    with pytest.raises(ValueError, match="grid holds the pairs"):
        run_sweep("prevalence", [(0.5, 0.5)], scenarios=[(0.3, 0.3)])


# One valid grid value, then invalid ones, per sweep parameter, on 400 test
# rows, where the default sizes are (20, 80).
SWEEP_POINTS = {  # a count that is not a whole number is refused, not cut off
    "n_min": (20, -1, 100, 20.5, float("inf")),  # 100 crosses the default n_max
    "n_max": (100, 500, 10, 100.5),  # 500 is more than the 400 records; 10 crosses n_min
    "binsize_range": ((20, 100), (100, 20), (20.5, 100)),  # an inverted range is not repaired
    "noise": (0.1, -0.1),
    "alpha": (0.05, 1.5),
    "test_kind": ("t", "bogus"),
    "data_size": (300, 0, 300.9),
    "prevalence": ((0.5, 0.4), (1.5, 0.5)),
}
# The sizes that a point crossing the other bound scores, named in its error.
CROSSED_SIZES = {("n_min", 100): (100, 80), ("n_max", 10): (20, 10),
                 ("binsize_range", (100, 20)): (100, 20)}


@pytest.mark.parametrize("parameter", SWEEP_PARAMETERS)
def test_sweep_point_is_a_summary_or_an_error(parameter):
    scenarios = None if parameter == "prevalence" else [(0.5, 0.4)]
    rows = run_sweep(parameter, list(SWEEP_POINTS[parameter]), scenarios=scenarios,
                     n_seeds=1, n_train=1000, n_test=400)
    valid, *invalid = rows[0]["points"]
    assert set(valid) == {"value", "summary"}
    assert tuple(valid["summary"]) == METRIC_COLUMNS
    for point in invalid:
        assert set(point) == {"value", "error"} and point["error"]
        crossed = CROSSED_SIZES.get((parameter, point["value"]))
        if crossed is not None:
            assert point["error"].endswith(f"got {crossed}")


def test_a_nan_noise_point_is_an_error():
    (block,) = run_sweep("noise", [float("nan")], scenarios=[(0.5, 0.4)], n_seeds=1,
                         n_train=600, n_test=300)
    (point,) = block["points"]
    assert set(point) == {"value", "error"}
    assert "noise scale" in point["error"]


def test_scenario_dataset_refuses_a_negative_or_nan_noise():
    for sigma in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="sigma must be a number >= 0"):
            scenario_dataset(0.5, 0.4, n_train=600, n_test=300, seed=2, noise_sigma=sigma)


def test_scenario_dataset_noise_is_the_logit_normal_perturbation():
    clean = scenario_dataset(0.5, 0.4, n_train=600, n_test=300, seed=2)
    noisy = scenario_dataset(0.5, 0.4, n_train=600, n_test=300, seed=2, noise_sigma=0.3)
    assert np.array_equal(noisy.labels, clean.labels)
    want = perturb_logit_normal(clean.predictions, 0.3, seed=3 * 2 + 1)
    assert noisy.predictions.tobytes() == want.tobytes()


def test_sweep_test_kind_runs_both_tests():
    rows = run_sweep(
        "test_kind",
        ["binomial", "t"],
        scenarios=[(0.5, 0.4)],
        n_seeds=1,
        n_train=1200,
        n_test=400,
    )
    for point in rows[0]["points"]:
        assert "summary" in point


def test_battery_respects_explicit_block_sizes():
    rng = np.random.default_rng(33)
    ds = Dataset(rng.random(400), rng.integers(0, 2, 400))
    loose = metric_battery(ds, BatteryConfig(test=TestConfig(alpha=0.01)))
    tight = metric_battery(ds, BatteryConfig(test=TestConfig(alpha=0.5)))
    assert loose["TCE"] <= tight["TCE"] + 1e-12


def test_battery_sweep_builds_each_dataset_once_per_scenario(monkeypatch):
    built = []
    real = experiments.scenario_dataset

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "scenario_dataset", counting)
    grid = [0.01, 0.05, 0.2]
    scenarios = [(0.5, 0.5), (0.5, 0.4)]
    rows = run_sweep("alpha", grid, scenarios=scenarios, n_seeds=2, n_train=1200, n_test=400)
    assert len(built) == 2 * len(scenarios)
    for block, (train_prev, test_prev) in zip(rows, scenarios):
        for point, alpha in zip(block["points"], grid):
            cfg = BatteryConfig(test=TestConfig(alpha=alpha))
            per_seed = [run_scenario(train_prev, test_prev, 1200, 400, s, cfg) for s in range(2)]
            assert point["summary"] == experiments._aggregate_seeds(per_seed)
    # a dataset that cannot be built is an error entry of every point, not a crash
    rows = run_sweep("alpha", grid, scenarios=[(1.5, 0.5)], n_seeds=2, n_train=1200, n_test=400)
    assert [set(point) for point in rows[0]["points"]] == [{"value", "error"}] * len(grid)
    # a parameter that changes the data builds one dataset per point and seed
    built.clear()
    run_sweep("noise", [0.0, 0.1, 0.2], scenarios=[(0.5, 0.4)], n_seeds=2, n_train=1200, n_test=400)
    assert len(built) == 3 * 2
