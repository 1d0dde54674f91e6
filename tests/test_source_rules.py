"""Rules the package source keeps, read from its syntax trees: runtime
invariants raise real exceptions rather than ``assert`` (which ``python -O``
strips), and the runtime imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "meanstab").glob("*.py"))


def imported_modules(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, top-level module) of every absolute import; a relative import
    stays inside the package."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


def test_sources_found():
    assert {"series.py", "resultant.py", "cli.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statement(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_the_package_and_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    foreign = [
        (line, module)
        for line, module in imported_modules(tree)
        if module != "meanstab" and module not in sys.stdlib_module_names
    ]
    assert foreign == [], f"{path.name}: imports outside the standard library {foreign}"


def test_the_rules_catch_what_they_forbid():
    tree = ast.parse("import numpy.linalg\nfrom mpmath import mp\nfrom . import series\nassert x\n")
    assert imported_modules(tree) == [(1, "numpy"), (2, "mpmath")]
    assert any(isinstance(node, ast.Assert) for node in ast.walk(tree))
