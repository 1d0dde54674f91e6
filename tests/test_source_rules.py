"""Rules the package source keeps, read from its syntax trees: runtime
invariants raise real exceptions rather than ``assert`` (which ``python -O``
strips), the runtime imports nothing outside the standard library, and
every private module-level function is used by the package itself."""

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


def private_functions(tree: ast.Module) -> list[str]:
    """Names of the module-level functions whose name starts with "_"."""
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("_")
    ]


def referenced_names(tree: ast.AST) -> set[str]:
    """Every name the tree reads: a bare name, an attribute, or an imported name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


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


def test_every_private_function_is_used_by_the_package():
    # A helper that only tests call belongs in tests/, and one that nothing
    # calls is dead.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in SOURCES}
    used = set().union(*(referenced_names(tree) for tree in trees.values()))
    unused = [(name, fn) for name, tree in trees.items()
              for fn in private_functions(tree) if fn not in used]
    assert unused == [], f"private functions nothing in src/meanstab uses: {unused}"


def test_the_rules_catch_what_they_forbid():
    tree = ast.parse("import numpy.linalg\nfrom mpmath import mp\nfrom . import series\nassert x\n")
    assert imported_modules(tree) == [(1, "numpy"), (2, "mpmath")]
    assert any(isinstance(node, ast.Assert) for node in ast.walk(tree))
    tree = ast.parse(
        "from .a import _imported\n"
        "def _called(): pass\n"
        "def _read(): pass\n"
        "def _dead(): pass\n"
        "def public(): _called(); m._read\n"
        "class C:\n"
        "    def _method(self): pass\n"
    )
    assert private_functions(tree) == ["_called", "_read", "_dead"]
    used = referenced_names(tree)
    assert {"_imported", "_called", "_read"} <= used and "_dead" not in used
