"""List the statements of src/tamekit that the test suites never run.

Usage, from the root of a checkout:

    python tests/tools/line_trace.py [extra pytest arguments]

Runs ``pytest.main`` over ``tests`` and ``bench`` in this process with a
line tracer installed (``sys.settrace`` and ``threading.settrace``; no
third-party coverage tool is needed), then prints, per module of
``src/tamekit``, the first line of each statement that never ran.
Docstrings are not statements here.  The last line is pytest's exit
status as ``pytest.main`` returned it, and the script exits with it.

Subprocesses are not traced: the CLI tests and the ``python -O`` runs
contribute nothing.  Criterion 1's test is deselected, as in
raise_mutants.py: tracing slows every call, so its 60 s wall-clock gate
fails under the tracer, which says nothing about the code.  So a clean
tree exits 0.  The name has no ``test_`` prefix, so pytest does not
collect this file, and it is not part of the tier-1 run.
"""

import ast
import sys
import threading
from pathlib import Path

from raise_mutants import CRITERION_1

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "tamekit"


def _is_docstring(node):
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statement_spans(source):
    """{first line: lines whose execution counts for that statement}.

    A simple statement counts when any of its lines runs; a compound one
    (if, for, def, ...) when a line of its header runs, decorators
    included.  Docstrings and the declarations global and nonlocal,
    which compile to no code, are left out.
    """
    spans = {}

    def visit(body):
        for node in body:
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                continue
            children = [
                getattr(node, field)
                for field in ("body", "orelse", "finalbody", "handlers")
                if getattr(node, field, None)
            ]
            first = min(
                [node.lineno]
                + [d.lineno for d in getattr(node, "decorator_list", ())]
            )
            if children:
                header_end = children[0][0].lineno - 1
                if isinstance(node, ast.Try):
                    # "try:" itself may compile to no instruction
                    header_end = node.body[0].end_lineno
                spans[first] = range(first, max(header_end, node.lineno) + 1)
                for child in children:
                    if isinstance(child[0], ast.ExceptHandler):
                        for handler in child:
                            spans[handler.lineno] = range(
                                handler.lineno, handler.body[0].lineno
                            )
                            visit(handler.body)
                    else:
                        visit(child)
            else:
                spans[first] = range(first, node.end_lineno + 1)

    tree = ast.parse(source)
    visit(tree.body)
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (
            isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and body
            and _is_docstring(body[0])
        ):
            spans.pop(body[0].lineno, None)
    return spans


def main(argv):
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    hits = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename in hits:
            hits[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(
            ["-q", "-p", "no:cacheprovider", "--deselect", CRITERION_1, *argv, "tests", "bench"]
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)

    for name, path in files.items():
        ran = hits[name]
        spans = statement_spans(path.read_text())
        missed = [line for line, span in sorted(spans.items()) if not ran.intersection(span)]
        rel = path.relative_to(ROOT)
        print(f"{rel}: {', '.join(map(str, missed)) if missed else '-'}")
    print(f"pytest exit status: {status!r}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
