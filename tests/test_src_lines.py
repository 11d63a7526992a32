"""scripts/src_lines.py: module line counts with and without docstrings."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "scripts" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)


def test_total_is_the_sum_of_the_files_line_counts():
    files = sorted((ROOT / "src" / "shintani").glob("*.py"))
    rows = src_lines.counts()
    assert sorted(rows) == [path.name for path in files]
    # the count of `wc -l`: newline characters
    assert sum(total for total, _ in rows.values()) == sum(
        path.read_bytes().count(b"\n") for path in files
    )
    assert all(0 < code <= total for total, code in rows.values())


def test_docstring_lines():
    text = '''"""Module
docstring."""
import math


class A:
    """One line."""

    def f(self):
        """Two
        lines."""
        x = "not a docstring"
        return x
'''
    assert src_lines.docstring_lines(text) == 5
