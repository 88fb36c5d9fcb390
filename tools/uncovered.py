"""List the statements of ``src/nsconic`` that no tier-1 test executes.

Run from anywhere:

    python3 tools/uncovered.py [pytest args...]

It runs the test suite (``tests/``, or the pytest arguments given) in this
process under ``sys.settrace`` and then prints one ``file:line: source``
row for each statement that no test reached, with a count per file at the
end. No coverage package is needed; only the standard library and pytest.

A statement is a line where an ``ast`` statement begins and the compiler
emitted code (so function docstrings and ``global`` declarations do not
count). It counts as executed when the tracer saw a line event on it.
Tests that run the program in a subprocess (the CLI and benchmark tests
that start ``python``) are not traced, so what only they reach is listed
as uncovered. The suite runs several times slower under the tracer.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nsconic"


def _code_lines(code) -> set[int]:
    """Lines that carry bytecode in code and every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _is_docstring(node) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statements(path: Path) -> set[int]:
    """First lines of the statements in path that compile to code."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, str(path))
    starts = {
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.stmt) and not _is_docstring(node)
    }
    return starts & _code_lines(compile(source, str(path), "exec"))


def run_traced(args) -> tuple[int, dict[str, set[int]]]:
    """Run pytest in-process; returns its exit code and the lines seen per file."""
    seen: dict[str, set[int]] = defaultdict(set)
    prefix = str(PACKAGE) + "/"

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        # only frames of the package get line events; everything else runs untraced
        if frame.f_code.co_filename.startswith(prefix):
            return local(frame, event, arg)
        return None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT), *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), seen


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    code, seen = run_traced(args or [str(ROOT / "tests")])
    total = 0
    counts = []
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(statements(path) - seen.get(str(path), set()))
        source = path.read_text(encoding="utf-8").splitlines()
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
        counts.append(f"{path.name} {len(missed)}")
        total += len(missed)
    print(f"uncovered statements: {total} ({', '.join(counts)})")
    return code


if __name__ == "__main__":
    sys.exit(main())
