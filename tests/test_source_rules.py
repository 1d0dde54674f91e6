"""Rules the package source keeps, read from its syntax trees: runtime
invariants raise real exceptions rather than ``assert`` (which ``python -O``
strips), the runtime imports nothing outside the standard library and none
of the modules that are slow to import, the package's modules import each
other without a cycle, every private module-level function is used by the
package itself, and every public function or method by the package, the
acceptance gate or the benchmark.  A use is a read of the name outside the function's own body.
The parameter search reads none of the names its schedule does not depend
on, and reads the t^4 pivot's roots with no root isolation; one function
of the package extracts square factors, _exact_sqrt, so a square root is
read once and a surd only spelled; one function of the solver reads
float, _boundary_evidence, so the search holds every parameter exactly;
root isolation and recognition read rational roots alone and build no
surd at any degree; the command
line writes its reports with no indented json.dumps.  Every top-level
definition of ``tests/oracles.py`` is read by the tests outside its own
body, and the oracles read no production root isolation or square root.  The code-line counter of ``code_lines.py`` counts code alone."""

import ast
import copy
import sys
from collections import Counter
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import code_lines

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "meanstab").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
#: Where the package is used from besides itself: the acceptance gate and
#: the benchmark.
CONSUMERS = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
#: Standard modules the command line starts without: dataclasses generates
#: and execs the methods of every class it decorates and imports inspect,
#: and typing takes a few milliseconds of its own.
SLOW_TO_IMPORT = {"dataclasses", "typing", "inspect"}
#: Names solver.optimal_parameters does not read: the band route, the
#: stability probe's first reach, and a mean's parity, as the closed
#: columns and one expansion per root read every mean alike.
NOT_READ_BY_THE_SEARCH = {"coefficient_polynomials", "_band", "_FIRST_REACH", "is_even"}
#: Names solver.optimal_parameters does not read either: the t^4 pivot's
#: roots are read from w = -c_4/r, with no polynomial and no root isolation.
NOT_READ_BY_THE_PIVOT = {"isolate_real_roots", "UniPoly"}
#: Names polynomials._recognize_roots and polynomials.isolate_real_roots do
#: not read: at every degree isolation recognizes rational roots alone, and
#: every irrational root is an interval, with no surd built or paired and no
#: discriminant tested for a square.
NOT_READ_BY_RECOGNITION = {"_quadratic_roots", "QuadraticField", "_exact_sqrt", "combinations"}
#: Names tests/oracles.py does not read: its roots come from the divisor
#: search, closed forms and Sturm counts, with no production isolation,
#: and its square factors from trial division by every d up to 10**4.
NOT_READ_BY_THE_ROOT_ORACLE = {"_recognize_roots", "_isolate_intervals", "_refine", "isolate_real_roots",
                               "_exact_sqrt", "_extract_square"}
#: The one reader of _extract_square in the package: a square root is read
#: once, by _exact_sqrt, and QuadraticField's spelling and
#: optimal_parameters read its value with no extraction of their own.
EXTRACTS_SQUARES = ["polynomials.py:_exact_sqrt"]
#: The one reader of float in the solver: the probes are exact pairs, the
#: locus samples and a candidate's own p and q, and the float lab takes
#: them as floats at one site.
READS_FLOAT = ["solver.py:_boundary_evidence"]


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


def slow_imports(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, module) of every import of a module in SLOW_TO_IMPORT."""
    return [(line, module) for line, module in imported_modules(tree) if module in SLOW_TO_IMPORT]


def package_imports(tree: ast.AST) -> set[str]:
    """The modules of the package that a tree imports, a function-level
    import included."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


def import_cycle(graph: dict[str, set[str]]) -> list[str]:
    """A cycle of the import graph as the modules along it, or []."""
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        return exc.args[1]
    return []


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def private_functions(tree: ast.Module) -> list[ast.FunctionDef]:
    """The module-level functions whose name starts with "_"."""
    return [node for node in tree.body if isinstance(node, FUNCTIONS) and node.name.startswith("_")]


def public_functions(tree: ast.Module) -> list[ast.FunctionDef]:
    """The module-level functions and the methods of module-level classes
    whose name does not start with "_"."""
    found = []
    for node in tree.body:
        found += node.body if isinstance(node, ast.ClassDef) else [node]
    return [node for node in found if isinstance(node, FUNCTIONS) and not node.name.startswith("_")]


def read_names(tree: ast.AST) -> Counter:
    """How often the tree reads each name: a bare name, an attribute, or an
    imported name."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.split(".")[-1]] += 1
    return names


def unused_functions(trees: dict[str, ast.Module], candidates, outside=frozenset()) -> list:
    """(module, name) of every function that ``candidates`` picks from a
    module's tree and that nothing reads: no module of the package outside
    the function's own body (so recursion does not count), and no name in
    ``outside``.  The re-exports of ``__init__.py`` do not count either."""
    reads = sum((read_names(tree) for module, tree in trees.items() if module != "__init__.py"),
                Counter())
    return [
        (module, fn.name)
        for module, tree in trees.items()
        for fn in candidates(tree)
        if fn.name not in outside and reads[fn.name] == read_names(fn)[fn.name]
    ]


def unread_definitions(module: ast.Module, trees: list[ast.Module]) -> list[str]:
    """The names that the module's top-level functions, classes and
    assignments define and that no tree reads outside the definition's own
    body (a tree may be the module itself)."""
    defined = []
    for node in module.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            defined.append((node.name, node))
        elif isinstance(node, ast.Assign):
            defined += [(target.id, node) for target in node.targets if isinstance(target, ast.Name)]
    reads = sum((read_names(tree) for tree in trees), Counter())
    return [name for name, node in defined if reads[name] == read_names(node)[name]]


def readers(trees: dict[str, ast.Module], name: str) -> list[str]:
    """"file:function" for each module-level function, and "file:Class.method"
    for each method of a module-level class, that reads the name, and "file"
    where the module reads it outside them (an import included); sorted."""
    found = []
    for file, tree in trees.items():
        scopes = [(node.name, node) for node in tree.body if isinstance(node, FUNCTIONS)]
        scopes += [(f"{node.name}.{fn.name}", fn) for node in tree.body if isinstance(node, ast.ClassDef)
                   for fn in node.body if isinstance(fn, FUNCTIONS)]
        inside = [qualname for qualname, node in scopes if read_names(node)[name]]
        outside = read_names(tree)[name] - sum(read_names(node)[name] for _, node in scopes)
        found += [f"{file}:{qualname}" for qualname in inside] + ([file] if outside else [])
    return sorted(found)


def without_annotations(tree: ast.AST) -> ast.AST:
    """A copy of the tree with every annotation dropped: the package defers
    its annotations, so an annotation reads nothing at run time."""
    tree = copy.deepcopy(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            node.annotation = None
        elif isinstance(node, FUNCTIONS):
            node.returns = None
    return tree


def forbidden_reads(tree: ast.Module, function: str, names: set[str]) -> list[str]:
    """The names among ``names`` that the module-level function reads, sorted."""
    body = {node.name: node for node in tree.body if isinstance(node, FUNCTIONS)}[function]
    return sorted(set(read_names(body)) & names)


def indented_dumps(tree: ast.AST) -> list[int]:
    """The lines of every call of json.dumps, or of a bare dumps, that
    passes indent: indent makes the standard encoder run in pure Python."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "dumps"
        and any(keyword.arg == "indent" for keyword in node.keywords)
    ]


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_no_module_that_is_slow_to_import(path):
    found = slow_imports(parse(path))
    assert found == [], f"{path.name}: imports {found}; value classes derive from values.Value"


def test_the_package_imports_form_no_cycle():
    # Each module sits above the ones it imports: the catalog below the
    # resultant, the resultant below the solver and the command line.
    graph = {path.stem: package_imports(parse(path)) for path in SOURCES}
    assert "resultant" not in graph["catalog"]
    assert import_cycle(graph) == []


def test_every_private_function_is_used_by_the_package():
    # A helper that only tests call belongs in tests/, and one that nothing
    # calls is dead.
    unused = unused_functions({path.name: parse(path) for path in SOURCES}, private_functions)
    assert unused == [], f"private functions nothing in src/meanstab uses: {unused}"


def test_every_public_function_is_used_by_the_package_the_gate_or_the_benchmark():
    # tests/test_acceptance.py is the frozen contract and perfbench/ drives
    # the package from outside; a function only other tests call belongs in
    # tests/, and one that nothing calls is dead.
    outside = set().union(*(read_names(parse(path)) for path in CONSUMERS))
    unused = unused_functions({path.name: parse(path) for path in SOURCES}, public_functions, outside)
    assert unused == [], f"public functions and methods nothing outside tests uses: {unused}"


def test_every_oracle_is_read_by_the_tests():
    # A route retired from the tests does not linger as a dead oracle.
    unread = unread_definitions(parse(ROOT / "tests" / "oracles.py"), [parse(path) for path in TESTS])
    assert unread == [], f"definitions of tests/oracles.py that no test reads: {unread}"


def test_the_search_reads_no_band_first_reach_or_parity():
    # A patch of one of these names cannot change a verdict, so no test
    # needs one.
    tree = parse(ROOT / "src" / "meanstab" / "solver.py")
    assert forbidden_reads(tree, "optimal_parameters", NOT_READ_BY_THE_SEARCH) == []


def test_the_search_isolates_no_root():
    tree = parse(ROOT / "src" / "meanstab" / "solver.py")
    assert forbidden_reads(tree, "optimal_parameters", NOT_READ_BY_THE_PIVOT) == []


def test_recognition_pairs_no_surds():
    tree = parse(ROOT / "src" / "meanstab" / "polynomials.py")
    assert forbidden_reads(tree, "_recognize_roots", NOT_READ_BY_RECOGNITION) == []
    assert forbidden_reads(tree, "isolate_real_roots", NOT_READ_BY_RECOGNITION) == []
    assert [path.name for path in SOURCES if "combinations" in read_names(parse(path))] == []


def test_one_function_extracts_square_factors():
    trees = {path.name: parse(path) for path in SOURCES}
    assert readers(trees, "_extract_square") == EXTRACTS_SQUARES


def test_one_function_of_the_solver_reads_float():
    tree = without_annotations(parse(ROOT / "src" / "meanstab" / "solver.py"))
    assert readers({"solver.py": tree}, "float") == READS_FLOAT


def test_the_root_oracle_reads_no_production_isolation():
    tree = parse(ROOT / "tests" / "oracles.py")
    assert sorted(set(read_names(tree)) & NOT_READ_BY_THE_ROOT_ORACLE) == []


def test_the_command_line_writes_no_indented_json_dumps():
    assert indented_dumps(parse(ROOT / "src" / "meanstab" / "cli.py")) == []


def test_the_rules_catch_what_they_forbid():
    tree = ast.parse("import numpy.linalg\nfrom mpmath import mp\nfrom . import series\nassert x\n")
    assert imported_modules(tree) == [(1, "numpy"), (2, "mpmath")]
    slow = ast.parse("import inspect\nfrom dataclasses import dataclass\n"
                     "from collections.abc import Sequence\nimport typing as t\n")
    assert slow_imports(slow) == [(1, "inspect"), (2, "dataclasses"), (4, "typing")]
    assert slow_imports(tree) == []
    late = ast.parse("from .a import b\ndef f():\n    from .c import d\n")
    assert package_imports(tree) == {"series"} and package_imports(late) == {"a", "c"}
    assert import_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) == []
    cycle = import_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}})
    assert len(cycle) == 4 and set(cycle) == {"a", "b", "c"}
    assert any(isinstance(node, ast.Assert) for node in ast.walk(tree))
    module = ast.parse(
        "from .a import _imported\n"
        "def _called(): pass\n"
        "def _read(): pass\n"
        "def _dead(): pass\n"
        "def _recursive(n): return _recursive(n - 1)\n"
        "def _shared(): pass\n"
        "def public(): _called(); m._read; _imported()\n"
        "def only_tested(): pass\n"
        "def in_the_gate(): return in_the_gate()\n"
        "def reexported(): pass\n"
        "class C:\n"
        "    def _method(self): pass\n"
        "    def method(self): return self.method()\n"
        "    def gated_method(self): pass\n"
    )
    assert [fn.name for fn in private_functions(module)] == [
        "_called", "_read", "_dead", "_recursive", "_shared"]
    assert [fn.name for fn in public_functions(module)] == [
        "public", "only_tested", "in_the_gate", "reexported", "method", "gated_method"]
    trees = {"m.py": module, "n.py": ast.parse("from .m import _shared"),
             "__init__.py": ast.parse("from .m import reexported")}
    assert unused_functions(trees, private_functions) == [("m.py", "_dead"), ("m.py", "_recursive")]
    # Another test's call is not a use; the gate's is.
    gate = ast.parse("from meanstab.m import C, in_the_gate\nC().gated_method()\n")
    assert unused_functions(trees, public_functions, set(read_names(gate))) == [
        ("m.py", "public"), ("m.py", "only_tested"), ("m.py", "reexported"), ("m.py", "method")]
    search = ast.parse("def optimal_parameters(mean):\n    return mean.is_even or _band(_FIRST_REACH)\n"
                       "def other():\n    return coefficient_polynomials\n")
    assert forbidden_reads(search, "optimal_parameters", NOT_READ_BY_THE_SEARCH) == [
        "_FIRST_REACH", "_band", "is_even"]
    oracles = ast.parse("BOUND = 3\nUNREAD = 4\ndef kept(): return BOUND\n"
                        "def dead(n): return dead(n - 1)\nclass Gone: pass\n")
    tests = [oracles, ast.parse("from oracles import kept\n")]
    assert unread_definitions(oracles, tests) == ["UNREAD", "dead", "Gone"]
    dumps = ast.parse("json.dumps(r)\njson.dumps(r, indent=2)\nprint(dumps(r, indent=None))\n"
                      "other.dumps(r, sort_keys=True)\n")
    assert indented_dumps(dumps) == [2, 3]
    # Mutated copies of the sources: the pivot isolated as a polynomial
    # again, recognition pairing surds again, isolation solving a quadratic
    # in closed form again, a surd and the pivot extracting square factors
    # of their own again, the report written by the indented json.dumps
    # again ...
    solver = (ROOT / "src" / "meanstab" / "solver.py").read_text(encoding="utf-8")
    isolated = solver.replace("    w = Fraction(-c4, dd * rd)\n", "    w = Fraction(-c4, dd * rd)\n"
                              "    isolate_real_roots(UniPoly((c4, 0, r)))\n")
    assert isolated != solver
    assert forbidden_reads(ast.parse(isolated), "optimal_parameters", NOT_READ_BY_THE_PIVOT) == [
        "UniPoly", "isolate_real_roots"]
    polynomials = (ROOT / "src" / "meanstab" / "polynomials.py").read_text(encoding="utf-8")
    paired = polynomials.replace(
        "    return [root or IntervalRoot(",
        "    for i, j in combinations(range(len(fine)), 2):\n"
        "        roots[i], roots[j] = _quadratic_roots(-ONE, ZERO, ONE)\n"
        "    return [root or IntervalRoot(")
    assert paired != polynomials
    assert forbidden_reads(ast.parse(paired), "_recognize_roots", NOT_READ_BY_RECOGNITION) == [
        "_quadratic_roots", "combinations"]
    closed = polynomials.replace(
        "    return _recognize_roots(squarefree_part(f))\n",
        "    g = squarefree_part(f)\n"
        "    c0, c1 = g.coeffs[:2]\n"
        "    if g.degree == 2 and c1 * c1 > 4 * c0 and type(_exact_sqrt(c1 * c1 - 4 * c0)) is QuadraticField:\n"
        "        return [QuadraticField(-c1 / 2, b, c1 * c1 / 4 - c0) for b in (-1, 1)]\n"
        "    return _recognize_roots(g)\n")
    assert closed != polynomials
    assert forbidden_reads(ast.parse(closed), "isolate_real_roots", NOT_READ_BY_RECOGNITION) == [
        "QuadraticField", "_exact_sqrt"]
    spelled = polynomials.replace("        return 1 / abs(self.b)\n",
                                  "        f, core = _extract_square(self.s.numerator)\n"
                                  "        return 1 / abs(self.b) / f\n")
    pivoted = solver.replace("    _exact_sqrt,\n", "    _exact_sqrt,\n    _extract_square,\n").replace(
        "    s = _exact_sqrt(w)\n", "    s = _exact_sqrt(w)\n    _extract_square(w.numerator * w.denominator)\n")
    assert spelled != polynomials and pivoted.count("_extract_square") == 2
    trees = {"polynomials.py": ast.parse(spelled), "solver.py": ast.parse(pivoted)}
    assert readers(trees, "_extract_square") == [
        "polynomials.py:QuadraticField.div", "polynomials.py:_exact_sqrt", "solver.py",
        "solver.py:optimal_parameters"]
    # ... a candidate's probe converted to floats in the search again (an
    # annotation reads nothing) ...
    floated = solver.replace("verdict(top.sign, [(top.p, top.q)],",
                             "verdict(top.sign, [(float(top.p), float(top.q))],")
    assert floated != solver
    assert readers({"solver.py": without_annotations(ast.parse(floated))}, "float") == [
        "solver.py:_boundary_evidence", "solver.py:optimal_parameters"]
    annotated = ast.parse("def f(x: float) -> float:\n    y: float = x\n    return y\n")
    assert readers({"m.py": without_annotations(annotated)}, "float") == []
    assert readers({"m.py": annotated}, "float") == ["m.py:f"]
    cli = (ROOT / "src" / "meanstab" / "cli.py").read_text(encoding="utf-8")
    indented = cli.replace("_indented_json(report) if", "json.dumps(report, indent=2) if")
    assert indented != cli and len(indented_dumps(ast.parse(indented))) == 1
    # ... the root oracle taking its intervals from production again ...
    oracle_source = (ROOT / "tests" / "oracles.py").read_text(encoding="utf-8")
    borrowed = oracle_source.replace("roots.extend(_isolate_by_sturm(g))", "roots.extend(_recognize_roots(g))")
    assert borrowed != oracle_source
    assert sorted(set(read_names(ast.parse(borrowed))) & NOT_READ_BY_THE_ROOT_ORACLE) == [
        "_recognize_roots"]
    # ... or its square test from production again ...
    squared = oracle_source.replace(
        "            f, core = extract_square_every_divisor(disc.numerator * disc.denominator)\n",
        "            f, core = _extract_square(disc.numerator * disc.denominator)\n"
        "            core = 1 if type(_exact_sqrt(disc)) is Fraction else core\n")
    assert squared != oracle_source
    assert sorted(set(read_names(ast.parse(squared))) & NOT_READ_BY_THE_ROOT_ORACLE) == [
        "_exact_sqrt", "_extract_square"]
    # ... and an oracle that no test reads any more.
    retired = oracle_source + "\n\ndef retired_route(order):\n    return retired_route(order - 1)\n"
    trees = [ast.parse(retired)] + [parse(path) for path in TESTS if path.name != "oracles.py"]
    assert unread_definitions(ast.parse(retired), trees) == ["retired_route"]


def test_the_code_line_counter_counts_code_alone(tmp_path, capsys):
    # Docstrings, comments and blank lines do not count; every line of a
    # statement written over several lines does, and so does every line of
    # a string that is not a docstring.
    source = (
        '"""A module\n'
        'docstring."""\n'
        "\n"
        "import math  # a comment\n"
        "# a comment line\n"
        "def f(x):\n"
        '    """A function docstring."""\n'
        "    return (x +\n"
        "            math.pi)\n"
        "\n"
        "S = '''a string\n"
        "over two lines'''\n"
    )
    assert code_lines.code_lines(source) == 6
    (tmp_path / "m.py").write_text(source, encoding="utf-8")
    (tmp_path / "n.txt").write_text(source, encoding="utf-8")
    code_lines.main([str(tmp_path), str(tmp_path / "m.py")])
    assert capsys.readouterr().out.split() == ["6", str(tmp_path / "m.py")] * 2 + ["12", "total"]
