"""The CLI reads its defaults from the library, and finds --config as its parser does."""
import inspect
import json

import pytest
from test_cli import FOUR_POINT_CSV

from caltest import cli
from caltest.binning import BinStrategy
from caltest.experiments import (
    DEFAULT_SIMULATE_PAIRS,
    DEFAULT_TEST_SIZE,
    DEFAULT_TRAIN_SIZE,
    BatteryConfig,
    run_sweep,
    simulate,
)
from caltest.stattest import TestConfig


def parse(*argv):
    return cli.build_parser().parse_args(list(argv))


def seeds_default(function):
    return inspect.signature(function).parameters["n_seeds"].default


def test_parser_defaults_equal_the_library_defaults():
    args = parse("compute", "four.csv")
    assert cli._battery_config(args) == BatteryConfig()
    assert TestConfig(args.test, args.alpha) == TestConfig()
    diagram = parse("diagram", "four.csv")
    strategy = BinStrategy(
        diagram.bins.replace("-", "_"), diagram.B, diagram.nmin_frac, diagram.nmax_frac)
    assert strategy == BinStrategy()
    sim = parse("simulate")
    assert cli._parse_pairs(sim.pairs) == list(DEFAULT_SIMULATE_PAIRS)
    assert (sim.n_train, sim.n_test, sim.n_seeds) == (
        DEFAULT_TRAIN_SIZE, DEFAULT_TEST_SIZE, seeds_default(simulate))
    sweep = parse("sweep", "--parameter", "alpha", "--grid", "0.05")
    assert (sweep.n_train, sweep.n_test, sweep.n_seeds) == (
        DEFAULT_TRAIN_SIZE, DEFAULT_TEST_SIZE, seeds_default(run_sweep))


@pytest.mark.parametrize("flag", [["--conf", "{cfg}"], ["--conf={cfg}"], ["--config={cfg}"]])
def test_config_abbreviations_apply_the_file(tmp_path, flag):
    data = tmp_path / "four.csv"
    data.write_text(FOUR_POINT_CSV, encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 0.2\nB = 5\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = ["compute", str(data), *(token.format(cfg=cfg) for token in flag), "--out", str(out)]
    assert cli.main(argv) == 0
    config = json.loads((out / "report.json").read_text(encoding="utf-8"))["config"]
    assert (config["alpha"], config["B"]) == (0.2, 5)


def test_config_without_a_path_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute", str(tmp_path / "four.csv"), "--config"])
    assert exc.value.code == 2
    assert "argument --config: expected one argument" in capsys.readouterr().err
