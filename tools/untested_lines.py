#!/usr/bin/env python3
"""List the statements of the library that the tests never run.

Runs pytest in-process from the repository root (on ``tests/``, or on what
its arguments name; every argument goes on to pytest) under a line tracer,
``sys.settrace`` and ``threading.settrace``, that records only the files
under ``src/tenseproof/``.  Then prints ``file:line: text`` for each
statement that never ran, and their count.  Exits with pytest's code when
pytest failed, else 1 if any statement never ran, else 0, so it can serve
as a gate.

Statements are read with ``ast``.  Docstrings, ``def`` and ``class`` lines
and what compiles to no code (``global``, ``nonlocal``, an annotation
without a value in a function) do not count.  Tests that run the library
in a fresh interpreter (``tests/test_imports.py`` and the ``subprocess``
runs of ``tests/test_cli.py`` and ``tests/test_normalize.py``) are not
traced, so a statement only they run is listed too.  Nothing is written
inside the repository: the pytest cache is off, no bytecode is written,
and Hypothesis keeps its files in a temporary directory.  Under the
tracer the Tier-1 suite takes about 3 minutes on a shared 2-vCPU VM:

    python3 tools/untested_lines.py
    python3 tools/untested_lines.py tests/test_kernel.py -q
"""

from __future__ import annotations

import ast
import os
import pathlib
import sys
import tempfile
import threading

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tenseproof"
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (*_FUNCTIONS, ast.ClassDef)


def statement_lines(source: str) -> list:
    """The first line of each statement of ``source`` that counts, in
    order: every statement but a docstring, a ``def`` or ``class`` (its
    body counts), ``global``, ``nonlocal`` and an annotation without a
    value in a function."""
    tree = ast.parse(source)
    docstrings = {id(t.body[0]) for t in ast.walk(tree)
                  if isinstance(t, (ast.Module, *_DEFS)) and t.body
                  and isinstance(t.body[0], ast.Expr)
                  and isinstance(t.body[0].value, ast.Constant)
                  and isinstance(t.body[0].value.value, str)}
    lines = set()
    stack = [(tree, False)]
    while stack:
        t, in_function = stack.pop()
        if isinstance(t, ast.stmt) and not (
                isinstance(t, (*_DEFS, ast.Global, ast.Nonlocal))
                or id(t) in docstrings
                or in_function and isinstance(t, ast.AnnAssign)
                and t.value is None):
            lines.add(t.lineno)
        # a class body stores its annotations, even inside a function
        in_function = isinstance(t, _FUNCTIONS) or (
            in_function and not isinstance(t, ast.ClassDef))
        stack += [(c, in_function) for c in ast.iter_child_nodes(t)]
    return sorted(lines)


def _tracer(hits: dict):
    """A global trace function that records, in ``hits`` (file -> set of
    lines), each line run in a file under ``SRC``."""
    prefix = str(SRC) + os.sep

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        lines = hits.setdefault(name, set())

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line
        return line
    return call


def exit_code(pytest_code: int, missed: int) -> int:
    """A pytest failure code first, then 1 for any statement that never
    ran."""
    return int(pytest_code) or int(missed > 0)


def main(argv=None) -> int:
    import pytest
    args = sys.argv[1:] if argv is None else argv
    sys.dont_write_bytecode = True
    os.chdir(ROOT)
    hits: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = tmp
        tracer = _tracer(hits)
        threading.settrace(tracer)
        sys.settrace(tracer)
        try:
            code = pytest.main(["-p", "no:cacheprovider", *args])
        finally:
            sys.settrace(None)
            threading.settrace(None)
    missed = 0
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text()
        text, ran = source.splitlines(), hits.get(str(path), set())
        for k in statement_lines(source):
            if k not in ran:
                print(f"{path.relative_to(ROOT)}:{k}: {text[k - 1].strip()}")
                missed += 1
    print(f"{missed} statements never ran")
    return exit_code(code, missed)


if __name__ == "__main__":
    raise SystemExit(main())
