"""Arguments that leave nothing to draw or to summarize fail before any work."""
import re
from unittest import mock

import numpy as np
import pytest
from test_cli import FOUR_POINT_CSV

from caltest import experiments
from caltest.binning import quantile_bins
from caltest.cli import main
from caltest.core import Dataset
from caltest.diagram import build_diagram, render_svg
from caltest.stattest import TestConfig


def spec_of(n):
    rng = np.random.default_rng(3)
    ds = Dataset(rng.random(n), rng.integers(0, 2, n))
    return build_diagram(ds, quantile_bins(ds, 10), TestConfig(), "test_based")


def negative_sizes(svg):
    return re.findall(r'(?:width|height|r)="-', svg)


@pytest.mark.parametrize("width, height", [(94, 480), (640, 94), (50, 50), (0, 480)])
def test_render_svg_refuses_sizes_without_plot_area(width, height):
    with pytest.raises(ValueError, match="must exceed 94 px"):
        render_svg(spec_of(200), width, height)


def test_render_svg_smallest_size_has_no_negative_sizes():
    assert not negative_sizes(render_svg(spec_of(200), 95, 95))


def test_diagram_command_refuses_sizes_without_plot_area(tmp_path, capsys):
    data = tmp_path / "four.csv"
    data.write_text(FOUR_POINT_CSV, encoding="utf-8")
    out = tmp_path / "out"
    argv = ["diagram", str(data), "--width", "50", "--height", "50", "--out", str(out)]
    assert main(argv) == 1
    assert "error: width and height must exceed 94 px" in capsys.readouterr().err
    assert not list(out.glob("*"))


@pytest.fixture
def no_datasets():
    with mock.patch.object(experiments, "scenario_dataset", side_effect=AssertionError("work")):
        yield


@pytest.mark.parametrize("n_seeds", [0, -1])
def test_simulate_and_sweep_need_a_seed(no_datasets, n_seeds):
    with pytest.raises(ValueError, match="at least one seed"):
        experiments.simulate([(0.5, 0.5)], n_seeds=n_seeds)
    with pytest.raises(ValueError, match="at least one seed"):
        experiments.run_sweep("alpha", [0.05], n_seeds=n_seeds)


@pytest.mark.parametrize("command", [
    ["simulate"],
    ["sweep", "--parameter", "alpha", "--grid", "0.05"],
])
def test_commands_exit_1_without_a_seed(no_datasets, tmp_path, capsys, command):
    assert main([*command, "--n-seeds", "0", "--out", str(tmp_path / "out")]) == 1
    assert "error: need at least one seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
