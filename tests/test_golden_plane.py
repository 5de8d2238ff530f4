"""Golden factor chains for the plane round trips of criterion 1.

``tests/golden/plane.txt`` holds one line per map of criterion 1's
seeded tame chains: the map's index, then the factors in order of the
chain ``decompose_plane`` returns (they have degree at most 4, so the
lines stay short even for the largest maps).  The chains and the line
format are defined once, in ``corpora.py``; criterion 1 compares each
chain with the file inside its own loop, so the maps are decomposed
once, and this module checks the same answers under ``python -O``.  A
change to the file is a change of behaviour.  Regenerate it only on
purpose, with

    PYTHONPATH=src python tests/test_golden_plane.py > tests/golden/plane.txt

An integer argument N renders only every N-th map.
"""

import os
import subprocess
import sys
from pathlib import Path

import tamekit
from tamekit import decompose_plane

from corpora import chain_line, criterion_1_maps, plane_golden_lines

SUBPROCESS_STEP = 10


def render_plane_golden(step=1):
    return "".join(
        chain_line(i, decompose_plane(m)) for i, m in criterion_1_maps(step)
    )


def test_chains_match_golden_under_optimize_flag():
    # python -O strips asserts; the chains must not depend on them
    src = str(Path(tamekit.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-O", __file__, str(SUBPROCESS_STEP)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    assert out.stdout == "".join(plane_golden_lines()[::SUBPROCESS_STEP])


if __name__ == "__main__":
    sys.stdout.write(render_plane_golden(int(sys.argv[1]) if len(sys.argv) > 1 else 1))
