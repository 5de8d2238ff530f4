"""Count the lines of each module of src/tamekit, then of tests/*.py.

Usage, from the root of a checkout:

    python tests/tools/src_lines.py

Prints two tables, one for ``src/tamekit`` and one for the top-level
modules of ``tests`` (not ``tests/tools``), each with one row per module
and a total: physical lines, and code lines,
which leave out blank lines, comment-only lines and the lines of
docstrings (the first string statement of a module, class or function).
A line that holds code and a comment counts as code.  Standard library
only.  The name has no ``test_`` prefix, so pytest does not collect
this file, and it is not part of the tier-1 run.
"""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "tamekit"
TESTS = ROOT / "tests"

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_spans(tree):
    """(start, end) positions of every docstring, as (line, column) pairs."""
    spans = []
    for node in ast.walk(tree):
        owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(node, owners) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0].value
            spans.append(((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset)))
    return spans


def count(source):
    """(physical lines, code lines) of one module's source text."""
    docs = docstring_spans(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        if tok.type == tokenize.STRING and any(a <= tok.start and tok.end <= b for a, b in docs):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def print_table(directory):
    rows = [(p.name, *count(p.read_text())) for p in sorted(directory.glob("*.py"))]
    width = max(len(name) for name, _, _ in rows + [("total", 0, 0)])
    print(f"{'module':<{width}}  {'physical':>8}  {'code':>6}")
    for name, physical, code in rows:
        print(f"{name:<{width}}  {physical:>8}  {code:>6}")
    total_physical = sum(r[1] for r in rows)
    total_code = sum(r[2] for r in rows)
    print(f"{'total':<{width}}  {total_physical:>8}  {total_code:>6}")


def main():
    print_table(PACKAGE)
    print()
    print_table(TESTS)


if __name__ == "__main__":
    main()
