"""Importing caltest loads no scipy module that a default call does not need.

scipy.stats and scipy.optimize cost ~1 s per CLI call, and scipy.special
≈0.2 s and ≈25 MiB. A default binomial call settles its tests in numpy, so
only a q the screen leaves to the exact kernel, or ``--test t``, loads
scipy.special. A default call does not load numpy.ma either (≈15 ms and
≈1.2 MiB). Nor do caltest's own modules load where a call has no use
for them: scoring loads no diagram code, diagram code no experiment or
synthetic-data code, and the CLI no synthetic-data code until a command
simulates data.
"""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from caltest import cli
from caltest.core import Dataset
from caltest.experiments import scenario_dataset

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter. A meta-path finder sees each guarded module's
# first import and records the non-importlib modules on the stack at that
# moment, innermost first, so a failure names the module that pulled it in.
WATCH = """
import importlib, json, sys, traceback

GUARDED = ("scipy.stats", "scipy.optimize", "scipy.special")
pulled = {}

class Watch:
    def find_spec(self, name, path=None, target=None):
        if name in GUARDED and name not in pulled:
            stack = []
            for frame, _ in traceback.walk_stack(sys._getframe(1)):
                module = frame.f_globals.get("__name__", "")
                if "importlib" not in module and module not in stack:
                    stack.append(module)
            pulled[name] = stack
        return None

sys.meta_path.insert(0, Watch())
importlib.import_module(sys.argv[1])
print(json.dumps(pulled))
"""


@pytest.mark.parametrize("module", ["caltest.cli", "caltest"])
def test_import_leaves_out_scipy_stats_and_optimize(module):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", WATCH, module], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    pulled = json.loads(done.stdout.splitlines()[-1])
    assert pulled == {}, "; ".join(
        f"import {module} loads {name} via {' <- '.join(stack)}" for name, stack in pulled.items()
    )


SCORING = ["caltest", "caltest.binning", "caltest.core", "caltest.metrics", "caltest.stattest"]
CLI = sorted([*SCORING, "caltest.cli", "caltest.experiments"])
MODULES = {
    "caltest": SCORING,
    "caltest.diagram": sorted([*SCORING, "caltest.diagram"]),
    "caltest.cli": CLI,
}


@pytest.mark.parametrize("module", list(MODULES))
def test_import_loads_only_the_caltest_modules_it_needs(module):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = f"import json, sys, {module}; print(json.dumps(sorted(m for m in sys.modules if m.startswith('caltest'))))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == MODULES[module]


def test_names_loaded_on_first_use_are_their_modules_names():
    import caltest

    for name, module in caltest._LAZY.items():
        assert name in caltest.__all__
        assert getattr(caltest, name) is getattr(importlib.import_module(f"caltest.{module}"), name)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        caltest.no_such_name


# Runs one CLI call in a fresh interpreter, then reports its exit code,
# whether it loaded scipy.special and numpy.ma, and the caltest modules it loaded.
CALL = """
import json, sys
from caltest.cli import main
code = main(sys.argv[1:])
print(json.dumps({"exit": code, "special": "scipy.special" in sys.modules, "ma": "numpy.ma" in sys.modules,
                  "caltest": sorted(m for m in sys.modules if m.startswith("caltest"))}))
"""


@pytest.fixture(scope="module")
def benchmark_inputs(tmp_path_factory):
    """The benchmark's 500k-record scenario at seed 0, and its copy rounded to 2 decimals."""
    ds = scenario_dataset(0.5, 0.4, 14000, 500_000, 0)
    root = tmp_path_factory.mktemp("inputs")
    paths = {"distinct": root / "scores.csv", "rounded": root / "rounded.csv"}
    cli.write_dataset_csv(ds, paths["distinct"])
    cli.write_dataset_csv(Dataset(np.round(ds.predictions, 2), ds.labels), paths["rounded"])
    return paths


def fresh_call(args, out):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", CALL, *args, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("data", ["distinct", "rounded"])
@pytest.mark.parametrize("command", [["compute"], ["diagram", "--kind", "test-based"]], ids=["compute", "diagram"])
def test_a_default_call_imports_no_scipy_special(benchmark_inputs, data, command, tmp_path):
    args = [command[0], str(benchmark_inputs[data]), *command[1:]]
    # Nor numpy.ma, which np.unique's first call imports; only diagram loads caltest.diagram.
    modules = sorted([*CLI, "caltest.diagram"]) if command[0] == "diagram" else CLI
    assert fresh_call(args, tmp_path / "out") == {"exit": 0, "special": False, "ma": False, "caltest": modules}


@pytest.mark.parametrize("data", ["distinct", "rounded"])
def test_the_t_test_imports_scipy_special(benchmark_inputs, data, tmp_path):
    args = ["compute", str(benchmark_inputs[data]), "--test", "t"]
    assert fresh_call(args, tmp_path / "out").items() >= {"exit": 0, "special": True}.items()
