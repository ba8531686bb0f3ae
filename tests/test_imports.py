"""Importing caltest loads scipy.special only; scipy.stats and scipy.optimize cost ~1 s per CLI call."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter. A meta-path finder sees each guarded module's
# first import and records the non-importlib modules on the stack at that
# moment, innermost first, so a failure names the module that pulled it in.
WATCH = """
import importlib, json, sys, traceback

GUARDED = ("scipy.stats", "scipy.optimize")
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
