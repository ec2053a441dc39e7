#!/usr/bin/env python3
"""List the statements of ``src/cancorr`` that no test executes.

Runs pytest in-process under a ``sys.settrace`` line tracer (also set for new
threads) and prints ``file:line`` for every statement of the package that
never ran, then their count.  Docstrings are not statements here.  The tracer
does not follow subprocesses, so a line that only a subprocess test reaches is
listed.  The package is first imported under the tracer, so its module-level
lines count.  Without arguments it runs the whole suite from the repository
root, as tier-1 does, which takes a few times the suite's usual wall time.

Usage:
    python scripts/unexecuted_lines.py [pytest arguments]
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cancorr"


def statements(path: Path) -> dict[int, range]:
    """Each statement of a source file by its first line, mapped to the lines
    whose execution counts for it: all of a simple statement, the header of a
    compound one with its decorators.  Docstrings are left out."""
    tree = ast.parse(path.read_text(), str(path))
    docstrings, found = set(), {}
    for node in ast.walk(tree):  # parents before children
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docstrings.add(id(node.body[0]))
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        start = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
        inner = [child.lineno for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt)]
        end = min(inner, default=node.end_lineno + 1)
        found[node.lineno] = range(start, max(end, node.lineno + 1))
    return found


def unexecuted(run, root: Path = PACKAGE) -> list[str]:
    """Call ``run()`` under the line tracer and return ``file:line``, relative
    to the repository, for each statement under ``root`` that did not run."""
    root = root.resolve()
    names: dict[str, str | None] = {}  # code file -> its name here, None outside root
    ran: set[tuple[str, int]] = set()

    def name_of(filename: str) -> str | None:
        if filename not in names:
            path = Path(filename).resolve()
            names[filename] = (path.relative_to(ROOT).as_posix()
                               if path.is_relative_to(root) else None)
        return names[filename]

    def trace_lines(frame, event, arg):
        if event == "line":
            ran.add((name_of(frame.f_code.co_filename), frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if name_of(frame.f_code.co_filename) else None

    previous, previous_thread = sys.gettrace(), threading.gettrace()
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        run()
    finally:
        sys.settrace(previous)
        threading.settrace(previous_thread)
    missed = []
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(ROOT).as_posix()
        missed += [f"{name}:{first}" for first, lines in sorted(statements(path).items())
                   if not any((name, line) in ran for line in lines)]
    return missed


def main() -> int:
    import pytest

    # as under ``python -m pytest`` in the repository: the tests import ``tests.conftest``
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT))
    status = []
    args = sys.argv[1:] or ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            "tests"]
    missed = unexecuted(lambda: status.append(pytest.main(args)))
    print("\n".join(missed))
    print(f"{len(missed)} statements not executed", file=sys.stderr)
    return int(status[0])


if __name__ == "__main__":
    sys.exit(main())
