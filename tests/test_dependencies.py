"""Installing the package with its ``test`` extra installs what the tests and tools import.

Modules of the standard library and of the repository itself need no install.
"""
import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [path for folder in ("tests", "tools") for path in sorted((ROOT / folder).rglob("*.py"))]


def imported_modules(path: Path) -> set[str]:
    """The top-level names of the absolute imports in one file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def requirement_name(requirement: str) -> str:
    return re.split(r"[\s<>=!~;\[]", requirement, maxsplit=1)[0].lower().replace("-", "_")


def test_the_test_extra_installs_every_imported_module():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    installed = {requirement_name(r) for r in project["dependencies"]}
    installed |= {requirement_name(r) for r in project["optional-dependencies"]["test"]}
    local = {path.stem for path in SOURCES} | {path.name for path in (ROOT / "src").iterdir()}
    imported = set().union(*map(imported_modules, SOURCES))
    assert imported - set(sys.stdlib_module_names) - local - installed == set()
