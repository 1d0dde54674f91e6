"""Count code lines: the physical lines that hold a token of code, so that
docstrings, comments and blank lines do not count.  A statement or an
expression written over several lines counts each of its lines, and so does
a string literal that is not a docstring.  A docstring is a string that
stands alone as the first statement of a module, a class or a function.

Run as ``python tests/code_lines.py PATH...``: one line per module, its
count and its path, for each file given and each ``*.py`` under each
directory given, then the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

#: Tokens that are layout or comment, never code.
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every docstring in the tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of a module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def modules(paths: list[str]) -> list[Path]:
    """The files given and the ``*.py`` files under the directories given."""
    found = []
    for path in map(Path, paths):
        found += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return found


def main(paths: list[str]) -> None:
    total = 0
    for path in modules(paths):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:] or ["src"])
