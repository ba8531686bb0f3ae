import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "untested_lines.py"
spec = importlib.util.spec_from_file_location("untested_lines", TOOL)
untested_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(untested_lines)

TOY = '''\
"""A toy module."""
import functools


@functools.lru_cache(maxsize=None)
def used(x):
    """A docstring compiles to no statement."""
    if x > 0:
        return x + 1
    return -x


def unused(x):
    total = (
        x + 1
    )
    return total


if __name__ == "__main__":
    for value in (1, 4):
        print(used(value))
'''


def test_untested_lines_of_a_toy_module(tmp_path):
    path = (tmp_path / "toy.py").resolve()
    path.write_text(TOY, encoding="utf-8")
    tracer = untested_lines.LineTracer(path.parent)
    tracer.start()
    try:
        toy_spec = importlib.util.spec_from_file_location("toy", path)
        toy = importlib.util.module_from_spec(toy_spec)
        toy_spec.loader.exec_module(toy)
        assert toy.used(4) == 5
    finally:
        tracer.stop()
    statements, missed = untested_lines.untested(path, tracer.executed[str(path)])
    # The module docstring, the import, two defs, two ifs, three returns and
    # the assignment; the function's docstring compiles to nothing, and the
    # body of the __main__ guard runs only when the module is a program.
    assert statements == 10
    assert missed == [10, 14, 17]
