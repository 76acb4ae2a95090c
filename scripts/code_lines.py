#!/usr/bin/env python3
"""Count code, docstring and comment lines of a Python package.

A docstring line is a line spanned by the string that opens a module, class
or function body (found with ``ast``).  A comment line holds a comment and
no code.  A code line holds any other token (found with ``tokenize``; a
string spanning several lines counts all of them) and is not a docstring
line.  Blank lines count as nothing.  Prints one row per file and the
total; the default package is this checkout's ``src/beliefmc``.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "beliefmc"

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER,
}


def count_lines(text: str) -> tuple[int, int, int]:
    """``(code, docstring, comment)`` line counts of one source file."""
    docs: set[int] = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docs.update(range(first.lineno, first.end_lineno + 1))
    code: set[int] = set()
    comments: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docs
    return len(code), len(docs), len(comments - code - docs)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("package", nargs="?", type=Path, default=PACKAGE, help="package directory")
    args = ap.parse_args()
    print(f"{'file':<16} {'code':>6} {'doc':>6} {'comment':>8}")
    total = [0, 0, 0]
    for path in sorted(args.package.glob("*.py")):
        counts = count_lines(path.read_text(encoding="utf-8"))
        total = [t + c for t, c in zip(total, counts)]
        print(f"{path.name:<16} {counts[0]:>6} {counts[1]:>6} {counts[2]:>8}")
    print(f"{'total':<16} {total[0]:>6} {total[1]:>6} {total[2]:>8}")


if __name__ == "__main__":
    main()
