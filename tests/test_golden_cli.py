"""Golden transcript of the ``tamekit`` command line.

``render_cli_golden`` runs a fixed list of invocations through
``tamekit.cli.main`` in-process, each once as text and once with
``--json``, and writes for each the command, its exit code, and every
stdout and stderr line.  Files the invocations read or write live in a
temporary directory, whose path is shown as ``<tmp>``.  The list covers
every command, the exit codes 0 to 5 and 64, the document-grading
fallbacks (exact, a modulus refused, a plane modulus honoured) and the
messages of each refusal.  ``tests/golden/cli.txt`` is the expected
output; a change to it is a change of behaviour.  Regenerate it only on
purpose, with

    PYTHONPATH=src python tests/test_golden_cli.py > tests/golden/cli.txt
"""

import contextlib
import io
import json
import shlex
import sys
import tempfile
from pathlib import Path

from tamekit.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli.txt"
TMP = "<tmp>"

# wild_witness((7, 2, -3)).map, rendered
WITNESS = (
    "(-x^4*z^7 - 4*x^3*y^2*z^6 - 6*x^2*y^4*z^5 - 4*x*y^6*z^4 - y^8*z^3"
    " - 2*x^2*y*z^3 - 4*x*y^3*z^2 - 2*y^5*z + x,"
    " x^2*z^4 + 2*x*y^2*z^3 + y^4*z^2 + y, z)"
)

# graded for (7, 2, -3) and certified by the degree test, but its Jacobian
# determinant is not constant
NON_AUTOMORPHISM = "(x + x*y^3*z^2, y + y^4*z^2, z)"


def _doc(names, coords, weights=None, modulus=None):
    data = {"vars": list(names), "coords": list(coords)}
    if weights is not None:
        data["grading"] = {"weights": list(weights)}
        if modulus is not None:
            data["grading"]["modulus"] = modulus
    return json.dumps(data)


EXACT_DOC = _doc("xyz", ["y^2*z + x", "y", "z"], (1, 1, -1))
MODULUS_DOC = _doc("xyz", ["y^2*z + x", "y", "z"], (1, 1, -1), 2)
PLANE_DOC = _doc("xy", ["x + y^5", "y"], (7, 2))
RESIDUE_DOC = _doc("xy", ["x + y^2", "y"], (7, 2), 3)
UNGRADED_DOC = _doc("uv", ["u + v^3", "v"])

# each runs as given and again with --json; "<tmp>" is the temporary directory
INVOCATIONS = [
    ["verify", "(x + y^2, y)", "(x - y^2, y)"],
    ["verify", "(x + y^2, y)", "(x + y^2, y)"],
    ["verify", "(x + y^2, y)"],
    ["verify", "(x + y^2, x + y^2)"],
    ["verify", "(x + y^2*z, y, z)", "--grading", "1,1,-1"],
    ["verify", WITNESS, "--grading", "7,2,-3"],
    ["verify", "(2*x, y, z^2)", "--grading", "1,1,0"],
    ["verify", NON_AUTOMORPHISM, "--grading", "7,2,-3"],
    ["verify", "(x^2, y, z)"],
    ["verify", WITNESS],
    ["verify", EXACT_DOC],
    ["verify", MODULUS_DOC],
    ["verify", "(x + y^2, y)", "(x*y, y, z)"],
    ["verify", "@<tmp>/map.txt"],
    ["verify", "@<tmp>/latin1.txt"],
    ["verify", "@<tmp>/missing.txt"],
    ["verify", "(x + y^2"],
    ["compose", "(x + y^2, y)", "(x, y + x)"],
    ["compose", "(x, y, z)", "(y, x, z)"],
    ["compose", "(x, y)", "(x, y, z)"],
    ["invert", "(x + y^2, y)"],
    ["invert", "(x + y^2, x + y^2)"],
    ["invert", "(x + (y + x*z)^4*z, y + x*z, z)", "--grading", "5,2,-3"],
    ["invert", WITNESS, "--grading", "7,2,-3"],
    ["invert", NON_AUTOMORPHISM, "--grading", "7,2,-3"],
    ["invert", EXACT_DOC],
    ["invert", MODULUS_DOC],
    ["decompose", "(x + (y + x^2)^2, y + x^2)"],
    ["decompose", "(x + y^2 + (y + x + y^2)^2, y + x + y^2)"],
    ["decompose", "(x, y)"],
    ["decompose", "(x, y, z)", "--grading", "1,1,-1"],
    ["decompose", "(x + y^2*z, y, 5*z)", "--grading", "1,1,-1"],
    ["decompose", WITNESS, "--grading", "7,2,-3"],
    ["decompose", NON_AUTOMORPHISM, "--grading", "7,2,-3"],
    ["decompose", "(x + z, y, z)", "--grading", "1,1,-2"],
    ["decompose", "(3*x + y^2, 2*y)", "--grading", "2,1"],
    ["decompose", "(x + y^2, y)", "--grading", "7,2,-3"],
    ["decompose", "(3*x + y^2, 2*y)", "--grading", "7,2,3"],
    ["decompose", "(3*x + y^2, 2*y)", "--grading", "1"],
    ["decompose", "(x + y^2, y)", "--grading", "7,x"],
    ["decompose", EXACT_DOC],
    ["decompose", RESIDUE_DOC],
    ["decompose", MODULUS_DOC],
    ["decompose", UNGRADED_DOC],
    ["decompose", "(x + (y + x^2)^2, y + x^2)", "--trace-svg", "<tmp>/trace.svg"],
    ["decompose", "(x, y, z)", "--trace-svg", "<tmp>/trace.svg"],
    ["classify", "7", "2", "-3"],
    ["classify", "5", "2", "-3"],
    ["classify", "1", "1", "0"],
    ["classify", "0", "0", "0"],
    ["classify", "3", "0", "-2"],
    ["witness", "7", "2", "-3", "--check"],
    ["witness", "7", "2", "-3"],
    ["witness", "0", "0", "0", "--check"],
    ["witness", "5", "2", "-3"],
    ["lift", "(u + v^5, v)", "--grading", "7,2,-3"],
    ["lift", "(u + v^2, v)", "--grading", "7,2,-3"],
    ["lift", "(u + v^5, v)"],
    ["lift", PLANE_DOC],
    ["lift", PLANE_DOC, "--grading", "7,2,-3"],
    ["lift", RESIDUE_DOC],
    ["lift", UNGRADED_DOC],
    ["restrict", "(x + y^5*z, y, z)"],
    ["restrict", "(x, y, 2*z)"],
    ["certify-wild", WITNESS, "--grading", "7,2,-3"],
    ["certify-wild", "(x + y^5*z, y, z)", "--grading", "7,2,-3"],
    ["certify-wild", "(x + y^2*z, y, z)"],
    ["certify-wild", MODULUS_DOC],
    ["polygon", "y^2 + x*y + x^3"],
    ["polygon", "y^2 + x^3", "--svg", "<tmp>/polygon.svg"],
    ["polygon", "x + y + z"],
    ["example"],
    ["example", "nagata"],
    ["example", "witness(0,0,0)"],
    ["example", "witness(7,2,3)"],
    ["example", "nope"],
]


def _lines(tag, text):
    rows = [f"{tag}: {line}" for line in text.split("\n")]
    if rows[-1] == f"{tag}: ":
        rows.pop()
    else:
        rows.append(f"{tag} ends without a newline")
    return rows


def _run(argv, tmp):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.replace(TMP, tmp) for arg in argv])
    rows = [f"$ tamekit {shlex.join(argv)}", f"exit {code}"]
    rows += _lines("out", out.getvalue().replace(tmp, TMP))
    rows += _lines("err", err.getvalue().replace(tmp, TMP))
    return rows


def render_cli_golden():
    with tempfile.TemporaryDirectory(prefix="tamekit-cli-") as tmp:
        Path(tmp, "map.txt").write_text("(x + y^2, y)\n")
        Path(tmp, "latin1.txt").write_bytes(b"(x + y\xff, y)")
        rows = []
        for argv in INVOCATIONS:
            rows += _run(argv, tmp) + _run(argv + ["--json"], tmp)
    return "".join(row + "\n" for row in rows)


def test_cli_matches_golden():
    assert render_cli_golden() == GOLDEN.read_text()


if __name__ == "__main__":
    sys.stdout.write(render_cli_golden())
