"""Replace each raise of src/tamekit by pass, one at a time, and run the tests.

Usage, from the root of a checkout:

    python tests/tools/raise_mutants.py

Covers every ``raise`` statement of the modules of ``src/tamekit``.  A
mutant is its module with one raise statement replaced by ``pass``;
every other line keeps its number.  It runs in a private copy of
``src``, ``tests``, ``bench`` and ``pyproject.toml`` in a temporary
directory, never in the checkout, under ``pytest -x`` over the test
modules that MODULE_TESTS lists for its module, with
``PYTHONDONTWRITEBYTECODE`` set so no stale bytecode is read.  A mutant that passes its list runs again over the whole tier-1
suite, ``tests`` and ``bench``.  Criterion 1's test is always
deselected: its 60 s wall-clock gate says nothing about a mutant on a
host shared with other workers.  Each pytest run gets an address-space
limit of 2 GiB and a timeout of 15 minutes, so a mutant that loops or
grows without bound is killed by the limit, not by the host.

Writes one line per site, in source order, to
``tests/tools/raise_mutants.txt``:

    space.py:278 ThirdCoordinateNotScalar killed by tests/test_space.py::test_...
    maps.py:397 ArityMismatch survived

The test named is the first one pytest reports failed; "(whole suite)"
marks a kill that the module's own list missed.  Runs one
worker per CPU, and exits 1 when a mutant survives.  Standard library
and pytest only.  The name has no ``test_`` prefix, so pytest does not
collect this file, and it is not part of the tier-1 run.
"""

import ast
import os
import queue
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "tamekit"
CRITERION_1 = "tests/test_acceptance.py::test_criterion_1_plane_round_trip"
WHOLE_SUITE = ("tests", "bench")
MEMORY_LIMIT = 2 * 2**30
TIMEOUT_S = 900
WORKERS = os.cpu_count() or 1

# the test modules that exercise each module's checks most directly
MODULE_TESTS = {
    "grading.py": [
        "test_grading.py", "test_typed_raises.py", "test_check_order.py", "test_space.py",
    ],
    "jung.py": ["test_jung.py", "test_typed_raises.py", "test_invariants.py"],
    "maps.py": [
        "test_maps.py", "test_internal_maps.py", "test_typed_raises.py", "test_cli.py",
        "test_invariants.py",
    ],
    "cli.py": ["test_cli.py", "test_golden_cli.py"],
    "named.py": ["test_named.py", "test_cli.py"],
    "newton.py": ["test_newton.py", "test_jung.py"],
    "parsing.py": [
        "test_parsing.py", "test_typed_raises.py", "test_cli.py", "test_golden_cli.py",
    ],
    "poly.py": ["test_poly.py", "test_typed_raises.py", "test_poly_oracle.py"],
    "space.py": [
        "test_space.py", "test_check_order.py", "test_invariants.py", "test_cli.py",
        "test_golden.py",
    ],
}

# a test id may hold spaces; pytest ends it with " - " and the reason, if any
_REPORTED = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", re.MULTILINE)


def raise_sites(source):
    """(line, col, end line, end col, exception name) of every raise; the
    columns are UTF-8 byte offsets, as ast gives them."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = "re-raise" if exc is None else ast.unparse(exc)
            sites.append(
                (node.lineno, node.col_offset, node.end_lineno, node.end_col_offset, name)
            )
    return sorted(sites)


def mutant(source, site):
    """source with the raise at site replaced by pass; lines it spanned
    beyond its first are left blank."""
    line, col, end_line, end_col, _ = site
    rows = source.encode().splitlines(keepends=True)
    rows[line - 1] = rows[line - 1][:col] + b"pass" + rows[end_line - 1][end_col:]
    for k in range(line, end_line):
        rows[k] = b"\n"
    return b"".join(rows).decode()


# pytest under the address-space limit, where the platform has one
_LIMITED_PYTEST = f"""
import sys
try:
    import resource
except ImportError:
    resource = None
if resource is not None:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    soft = {MEMORY_LIMIT} if hard == resource.RLIM_INFINITY else min({MEMORY_LIMIT}, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
import pytest
sys.exit(pytest.main(sys.argv[1:]))
"""


def run_pytest(copy, targets):
    """None when the tests pass, else what killed the mutant."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [
        sys.executable, "-c", _LIMITED_PYTEST, "-x", "-q", "-rfE", "-p", "no:cacheprovider",
        "--deselect", CRITERION_1, *targets,
    ]
    try:
        out = subprocess.run(
            cmd, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return f"the {TIMEOUT_S} s timeout"
    if out.returncode == 0:
        return None
    found = _REPORTED.search(out.stdout)
    return found.group(1) if found else f"pytest exit {out.returncode}"


def make_copy(dest):
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in ("src", "tests", "bench"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")
    return dest


def judge(copies, module, source, site):
    """Run one mutant in a free copy; returns its table line."""
    copy = copies.get()
    target = copy / "src" / "tamekit" / module
    try:
        target.write_text(mutant(source, site))
        killer = run_pytest(copy, [f"tests/{t}" for t in MODULE_TESTS[module]])
        note = ""
        if killer is None:
            killer = run_pytest(copy, WHOLE_SUITE)
            note = " (whole suite)"
    finally:
        target.write_text(source)
        copies.put(copy)
    status = "survived" if killer is None else f"killed by {killer}{note}"
    return f"{module}:{site[0]} {site[4]} {status}"


def main():
    jobs = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        sites = raise_sites(source)
        if sites and path.name not in MODULE_TESTS:
            sys.exit(f"{path.name} has raise statements but no test list in MODULE_TESTS")
        jobs += [(path.name, source, site) for site in sites]
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="raise-mutants-") as tmp:
        copies = queue.Queue()
        for k in range(WORKERS):
            copies.put(make_copy(Path(tmp) / f"w{k}"))
        with ThreadPoolExecutor(WORKERS) as pool:
            lines = list(pool.map(lambda job: judge(copies, *job), jobs))
    survived = sum(line.endswith(" survived") for line in lines)
    header = [
        "# python tests/tools/raise_mutants.py: each raise of src/tamekit",
        "# replaced by pass, criterion 1 deselected",
        f"# {len(lines)} sites, {len(lines) - survived} killed, {survived} survived,"
        f" {WORKERS} workers, {time.monotonic() - start:.0f} s",
    ]
    Path(__file__).with_suffix(".txt").write_text("\n".join(header + lines) + "\n")
    print("\n".join(header + [line for line in lines if line.endswith(" survived")]))
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
