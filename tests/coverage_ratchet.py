"""Statement coverage ratchet: every function-body statement in src/ is reached.

Runs the tier-1 suite in this process under a ``sys.settrace`` tracer and
fails when a statement inside a ``src/qcontext`` function is never
reached and is not on ``coverage_allowlist.json``, or when an allowlisted
statement is reached (delete its entry: the list may only shrink).
Entries are ``[module, function, statement]``, the statement's source
text (a compound statement's header) with whitespace collapsed, so they
survive edits that only move lines.  Subprocess runs are not traced, and
hypothesis draws from a fixed seed, so that a statement only a draw
reaches cannot come and go between runs; ``test_boundaries.py`` reaches
such statements on purpose.
Not collected by pytest; run ``PYTHONPATH=src python tests/coverage_ratchet.py``.
Arguments, if any, replace the test path given to pytest.
"""

import ast
import json
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "qcontext"
ALLOWLIST = TESTS / "coverage_allowlist.json"


def _runs(node):
    """A statement that runs: not a docstring, ``global`` or ``nonlocal``."""
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
        return False
    return isinstance(node, ast.stmt) and not isinstance(node, (ast.Global, ast.Nonlocal))


def statements(path):
    """``(function, text, lines)`` for each statement inside a function."""
    source = path.read_text()
    lines = source.splitlines()
    found = []

    def visit(node, prefix, in_function):
        for child in ast.iter_child_nodes(node):
            if in_function and _runs(child):
                body = getattr(child, "body", None)
                # a compound statement counts by its header
                last = max(child.lineno, body[0].lineno - 1) if body else child.end_lineno
                text = " ".join(" ".join(lines[child.lineno - 1 : last]).split())
                found.append((prefix.rstrip("."), text, range(child.lineno, last + 1)))
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", in_function)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{prefix}{child.name}.", True)
            else:
                visit(child, prefix, in_function)

    visit(ast.parse(source), "", False)
    return found


def run_traced(args):
    """Pytest's exit code and the lines reached in each ``src/qcontext`` file."""
    hits = {str(path): set() for path in SRC.glob("*.py")}

    def trace(frame, event, arg):
        lines = hits.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        return local(frame, event, arg)

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(
            ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *(args or [str(TESTS)])]
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, hits


def unreached(hits):
    return Counter(
        (path.name, function, text)
        for path in sorted(SRC.glob("*.py"))
        for function, text, span in statements(path)
        if hits[str(path)].isdisjoint(span)
    )


def main(args):
    code, hits = run_traced(args)
    missed = unreached(hits)
    allowed = Counter(tuple(entry) for entry in json.loads(ALLOWLIST.read_text()))
    for label, entries in (("unreached, not allowlisted", missed - allowed),
                           ("allowlisted but reached, delete it", allowed - missed)):
        for module, function, text in sorted(entries.elements()):
            print(f"{label}: {module} {function}: {text}")
    print(f"{sum(missed.values())} function-body statements unreached, "
          f"{sum(allowed.values())} allowlisted")
    return code or int(missed != allowed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
