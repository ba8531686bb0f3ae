"""Every public name of caltest has a caller outside the tests.

A name in ``caltest.__all__`` or in a module's ``__all__`` must be used
somewhere in ``src/``, ``demos/``, ``bench/`` or ``tools/``: as a name, an
attribute or a string (the benchmark's tracer looks functions up by name).
Its own definition, its imports and its ``__all__`` entries do not count,
and neither does a use inside its own definition.
"""
import ast
import importlib
import pkgutil
from pathlib import Path

import caltest

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "demos", "bench", "tools")
# Public names kept without a caller, with the reason.
ALLOWED = {
    "tce_classwise": "the paper's one-vs-rest extension to multiclass scores",
}


def public_names() -> set[str]:
    names = set(caltest.__all__)
    for module in pkgutil.iter_modules(caltest.__path__):
        names.update(getattr(importlib.import_module(f"caltest.{module.name}"), "__all__", ()))
    return names


def used_names(tree: ast.AST) -> set[str]:
    """Names, attributes and strings used in a module, outside imports and
    ``__all__``; a use inside a definition of the same name is skipped."""
    used = set()

    def visit(node, enclosing: frozenset):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        if name is not None and name not in enclosing:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return used


def test_every_public_name_has_a_caller():
    used = set()
    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path.name.startswith("test_"):
                continue
            used |= used_names(ast.parse(path.read_text(encoding="utf-8")))
    uncalled = sorted(public_names() - used - set(ALLOWED))
    assert uncalled == []


def test_allowed_names_are_public():
    assert set(ALLOWED) <= public_names()


def test_a_use_inside_its_own_definition_does_not_count():
    tree = ast.parse(
        "from m import f\n"
        "__all__ = ['f', 'g']\n"
        "def g(n):\n"
        "    return g(n - 1)\n"
        "h = 'k'\n"
    )
    assert used_names(tree) & {"f", "g"} == set()
    assert {"n", "k"} <= used_names(tree)
