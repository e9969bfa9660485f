"""``scripts/loc.py``: code lines without blank, comment-only or docstring lines."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "loc.py"
_spec = importlib.util.spec_from_file_location("loc", SCRIPT)
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

SOURCE = '''\
"""Module docstring,
two lines long."""

import os  # a trailing comment keeps its line


# a comment-only line
class Thing:
    """Class docstring."""

    label = """a multi-line
    string that is not a docstring"""

    def run(self, x):
        """Function docstring."""
        "a second string statement is code"
        return (x +
                1)
'''


def test_counts_code_lines_only():
    # import, class, label (2 lines), def, the second string, return (2 lines)
    assert loc.count_source(SOURCE) == 8


def test_empty_and_docstring_only_modules_count_nothing():
    assert loc.count_source("") == 0
    assert loc.count_source('"""Just a docstring."""\n\n# and a comment\n') == 0


def test_counts_every_file_under_a_directory(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "b.py").write_text("y = 2\nz = 3\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    counts = loc.count_path(tmp_path)
    assert sorted(counts.values()) == [1, 2]
