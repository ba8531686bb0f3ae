"""List the statements of ``src/caltest`` that a pytest run never executed.

A stdlib stand-in for a coverage tool: it traces line events with
``sys.settrace``, only in frames whose code lives under the package, and at
the end of the run prints, per module, the statements none of those events
reached. Run it with

    PYTHONPATH=src:tools python -m pytest -p untested_lines

Tracing starts when pytest configures its plugins, before the test modules
import the package, so import-time statements count. Code that runs in
another thread or in a child interpreter (the fresh-interpreter tests) is not
traced. The run takes roughly twice as long as an untraced one.
"""
from __future__ import annotations

import ast
import sys
import types
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "caltest"


class LineTracer:
    """Records the line events of frames whose code file lies under ``root``."""

    def __init__(self, root: Path) -> None:
        self.root = str(root.resolve())
        self.executed: dict[str, set[int]] = defaultdict(set)
        self._previous = None

    def _call(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(self.root):
            return self._line
        return None

    def _line(self, frame, event, arg):
        if event == "line":
            self.executed[frame.f_code.co_filename].add(frame.f_lineno)
        return self._line

    def start(self) -> None:
        self._previous = sys.gettrace()
        sys.settrace(self._call)

    def stop(self) -> None:
        sys.settrace(self._previous)


def statement_lines(source: str, filename: str = "<module>") -> dict[int, range]:
    """The statements that compile to code, as first line -> the lines that
    start them: a simple statement's own lines, a compound statement's
    header up to its body. The body of an ``if __name__ == "__main__":``
    block runs only in a child interpreter, which the tracer cannot see, so
    its statements are left out."""
    code_lines: set[int] = set()
    codes = [compile(source, filename, "exec")]
    while codes:
        code = codes.pop()
        code_lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    tree = ast.parse(source, filename)
    main_test = ast.dump(ast.parse('__name__ == "__main__"', mode="eval").body)
    guarded = {id(inner) for node in ast.walk(tree)
               if isinstance(node, ast.If) and ast.dump(node.test) == main_test
               for stmt in node.body for inner in ast.walk(stmt)}
    statements = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in guarded:
            continue
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", []))])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        span = range(first, last + 1)
        if code_lines.intersection(span):
            statements[node.lineno] = span
    return statements


def untested(path: Path, executed: set[int]) -> tuple[int, list[int]]:
    """The number of statements in a module and the first lines of those
    that no executed line reached."""
    statements = statement_lines(path.read_text(encoding="utf-8"), str(path))
    missed = [line for line, span in statements.items() if not executed.intersection(span)]
    return len(statements), sorted(missed)


class UntestedLines:
    """The pytest plugin: traces the whole session and reports at its end."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.tracer = LineTracer(root)

    def pytest_terminal_summary(self, terminalreporter) -> None:
        self.tracer.stop()
        terminalreporter.section("statements never executed")
        for path in sorted(self.root.rglob("*.py")):
            total, missed = untested(path, self.tracer.executed[str(path.resolve())])
            lines = ", ".join(map(str, missed)) or "-"
            terminalreporter.write_line(f"{path.name}: {len(missed)} of {total}: {lines}")


def pytest_configure(config) -> None:
    plugin = UntestedLines(PACKAGE)
    config.pluginmanager.register(plugin, "untested-lines-report")
    plugin.tracer.start()
