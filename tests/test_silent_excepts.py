"""Ratchet: no new silent broad ``except`` in ``src/``.

A broad handler (bare ``except``, ``except Exception``, ``except
BaseException``) whose body is only ``pass``/``continue`` swallows every
failure without a trace.  Each site that does so today is named below by
file and enclosing function, with how many such handlers it holds.  A new
site fails this test: narrow the handler, re-raise typed, or count what it
survives with ``MetricsRegistry.count_error``.  A site that goes away
must leave the list too, so the list only ever shrinks.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
BROAD = ("Exception", "BaseException")
#: cheap text filter: only files that could hold a broad handler are parsed
MAYBE_BROAD = re.compile(r"except\s*(:|\(?\s*(Exception|BaseException)\b)")

#: (path under src/repro, enclosing function) -> silent broad handlers there
KNOWN_SILENT = {
    ("bindings/resilient.py", "ResilientStub._drop_inner"): 1,
}


def is_silent_broad(handler: ast.ExceptHandler) -> bool:
    broad = handler.type is None or (
        isinstance(handler.type, ast.Name) and handler.type.id in BROAD
    )
    return broad and all(isinstance(stmt, (ast.Pass, ast.Continue)) for stmt in handler.body)


def silent_sites(node: ast.AST, scope: tuple[str, ...] = ()):
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + (child.name,)
        elif isinstance(child, ast.ExceptHandler) and is_silent_broad(child):
            yield ".".join(scope) or "<module>"
        yield from silent_sites(child, inner)


def found() -> Counter:
    sites = Counter()
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        if not MAYBE_BROAD.search(text):
            continue
        for where in silent_sites(ast.parse(text)):
            sites[(path.relative_to(SRC).as_posix(), where)] += 1
    return sites


def test_no_silent_broad_except_outside_the_named_sites():
    assert dict(found()) == KNOWN_SILENT


def test_the_detector_recognises_each_shape():
    tree = ast.parse(
        "def f():\n"
        "    try: pass\n"
        "    except: pass\n"
        "    try: pass\n"
        "    except BaseException: continue\n"
        "    try: pass\n"
        "    except Exception as exc: pass\n"
        "    try: pass\n"
        "    except ValueError: pass\n"
        "    try: pass\n"
        "    except Exception: log()\n"
    )
    assert list(silent_sites(tree)) == ["f", "f", "f"]
