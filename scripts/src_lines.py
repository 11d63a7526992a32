#!/usr/bin/env python3
"""Line counts of the src/shintani modules, with and without docstrings.

A docstring line is a line of a module, class or function docstring (the
string literal that opens its body), found with `ast`; every other line,
blank and comment lines included, counts as code.  Prints one row per
module, then the totals.

Usage (from the repository root): python3 scripts/src_lines.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "shintani"
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(text: str) -> int:
    """The number of lines that module, class and function docstrings span."""
    lines = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def counts(src: Path = SRC) -> dict[str, tuple[int, int]]:
    """{module file name: (lines, lines without docstrings)}, by name."""
    out = {}
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        total = len(text.splitlines())
        out[path.name] = (total, total - docstring_lines(text))
    return out


def main() -> int:
    rows = counts()
    width = max(map(len, rows))
    print(f"{'module':<{width}}  {'lines':>6}  {'no docstrings':>13}")
    for name, (total, code) in rows.items():
        print(f"{name:<{width}}  {total:>6}  {code:>13}")
    total, code = (sum(col) for col in zip(*rows.values()))
    print(f"{'total':<{width}}  {total:>6}  {code:>13}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
