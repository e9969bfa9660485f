#!/usr/bin/env python
"""Count Python code lines: no blank, comment-only or docstring lines.

This is the size ROADMAP's growth rule is written in.  A line counts when
a token other than a comment or layout sits on it; a docstring (the first
statement of a module, class or function, when it is a string) counts as
nothing, and a line a multi-line string spans counts as code.

Usage::

    python scripts/loc.py src/repro src/repro/transport   # one total per path
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_source(source: str) -> int:
    """Code lines in one module's *source*."""
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source)))


def count_path(path: Path) -> dict[Path, int]:
    """Code lines of every ``.py`` file at or under *path*."""
    files = [path] if path.is_file() else sorted(path.rglob("*.py"))
    return {f: count_source(f.read_text(encoding="utf-8")) for f in files}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", type=Path)
    args = parser.parse_args(argv)
    for path in args.paths:
        print(f"{sum(count_path(path).values()):7d}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
