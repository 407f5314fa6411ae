"""Code lines per Python file: not blank, not comment-only, not docstring.

A line counts unless it is blank, holds only a comment, or lies inside a
module, class or function docstring. Prints one "count path" line per file,
then "total" with their sum.

Run from anywhere:

    python3 tools/code_lines.py [PATH ...]

Each PATH is a .py file or a directory searched for them recursively
(default: src/spectrawl beside this tool).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: the nodes whose first statement can be a docstring
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the module's, and every class's and function's, docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]  # get_docstring found the docstring here
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many lines of source hold code outside docstrings."""
    skip = docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                        tokenize.ENDMARKER):
            continue
        # a token may span lines (a triple-quoted string): each of them holds code
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - skip)


def python_files(paths: list[Path]) -> list[Path]:
    files = []
    for path in paths:
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return files


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or [ROOT / "src" / "spectrawl"]
    total = 0
    for path in python_files(paths):
        count = code_lines(path.read_text())
        print(count, path)
        total += count
    print(total, "total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
