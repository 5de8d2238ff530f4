"""Golden factor chains for the plane round trips of criterion 1.

``criterion_1_maps`` replays the seeded tame chains of acceptance
criterion 1, and ``chain_line`` renders the factor chain
``decompose_plane`` returns for one of them: the map's index, then its
factors in order (they have degree at most 4, so the lines stay short
even for the largest maps).  ``tests/golden/plane.txt`` holds one line
per map; criterion 1 compares each chain with it inside its own loop,
so the maps are decomposed once.  A change to the file is a change of
behaviour.  Regenerate it only on purpose, with

    PYTHONPATH=src python tests/test_golden_plane.py > tests/golden/plane.txt

An integer argument N renders only every N-th map.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import tamekit
from tamekit import Polynomial, PolynomialMap, compose_chain, decompose_plane
from tamekit.maps import map_from_matrix

GOLDEN = Path(__file__).parent / "golden" / "plane.txt"
SEED = 20260818
COUNT = 500
SUBPROCESS_STEP = 10

u, v = Polynomial.variables(2)

NONZERO = [-3, -2, -1, 1, 2, 3]


def plane_factor(rng):
    kind = rng.randrange(6)
    if kind in (0, 1):
        d = rng.randrange(2, 5)
        c = Fraction(rng.choice(NONZERO), rng.randrange(1, 4))
        return PolynomialMap((u + c * v**d, v))
    if kind in (2, 3):
        d = rng.randrange(2, 5)
        c = Fraction(rng.choice(NONZERO), rng.randrange(1, 4))
        return PolynomialMap((u, v + c * u**d))
    if kind == 4:
        while True:
            a, b, c, d = (rng.randrange(-3, 4) for _ in range(4))
            if a * d - b * c != 0:
                return map_from_matrix([[a, b], [c, d]])
    return PolynomialMap((u + rng.randrange(-3, 4), v + rng.randrange(-3, 4)))


def criterion_1_maps(step=1):
    """(index, map) for every step-th of criterion 1's seeded tame
    chains; the factors of the others are drawn but not composed."""
    rng = random.Random(SEED)
    for i in range(COUNT):
        factors = [plane_factor(rng) for _ in range(rng.randrange(1, 7))]
        if i % step == 0:
            yield i, compose_chain(factors)


def chain_line(index, chain):
    return f"{index} " + " ; ".join(f.render() for f in chain.factors) + "\n"


def render_plane_golden(step=1):
    return "".join(
        chain_line(i, decompose_plane(m)) for i, m in criterion_1_maps(step)
    )


def golden_lines():
    return GOLDEN.read_text().splitlines(keepends=True)


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
    assert out.stdout == "".join(golden_lines()[::SUBPROCESS_STEP])


if __name__ == "__main__":
    sys.stdout.write(render_plane_golden(int(sys.argv[1]) if len(sys.argv) > 1 else 1))
