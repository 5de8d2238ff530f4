"""Golden witnesses for every wild grading of criterion 4.

``render_witness_golden`` builds ``wild_witness`` for each of the 1527
wild triples (a, b, -c) of criterion 3's a, b, c <= 40 sweep
(``corpora.wild_triples``), in sweep order, and writes one line per
triple: the threshold exponents, a SHA-256 of the rendered witness map
and inverse, one of the rendered plane map and plane inverse, and the
certificate fields.
``tests/golden/witness.txt`` is the expected output; a change to it is
a change of behaviour.  Regenerate it only on purpose, with

    PYTHONPATH=src python tests/test_golden_witness.py > tests/golden/witness.txt

An integer argument N renders only every N-th triple.  The test itself
renders the witnesses of the session fixture ``wild_witnesses``
(``conftest.py``), which criterion 4 verifies, so they are built once.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import tamekit
from tamekit import wild_witness

from corpora import wild_triples

GOLDEN = Path(__file__).parent / "golden" / "witness.txt"
SUBPROCESS_STEP = 10


def _digest(first, second):
    text = first.render() + "\n" + second.render()
    return hashlib.sha256(text.encode()).hexdigest()


def witness_line(wit):
    cert = wit.certificate
    return (
        f"{wit.weights} q={wit.q_hat} l={wit.l_hat} p={wit.shear_exponent} "
        f"map={_digest(wit.map, wit.inverse)} "
        f"plane={_digest(wit.plane_map, wit.plane_inverse)} "
        f"{cert.verdict} t={cert.threshold} scale={cert.scale} "
        f"at={cert.violating_exponents}@{cert.violating_degree}"
    )


def render_witness_golden(step=1):
    return "".join(
        witness_line(wild_witness((a, b, -c))) + "\n" for a, b, c in wild_triples()[::step]
    )


def _golden_lines():
    return GOLDEN.read_text().splitlines(keepends=True)


def test_witnesses_match_golden(wild_witnesses):
    lines = _golden_lines()
    assert len(lines) == 1527
    assert "".join(witness_line(wit) + "\n" for _, wit in wild_witnesses) == "".join(lines)


def test_witnesses_match_golden_under_optimize_flag():
    # python -O strips asserts; the witnesses must not depend on them
    src = str(Path(tamekit.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-O", __file__, str(SUBPROCESS_STEP)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    assert out.stdout == "".join(_golden_lines()[::SUBPROCESS_STEP])


if __name__ == "__main__":
    sys.stdout.write(render_witness_golden(int(sys.argv[1]) if len(sys.argv) > 1 else 1))
