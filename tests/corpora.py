"""The seeded corpora that the acceptance suite and the goldens share.

Each generator is written once, here, so ``test_acceptance.py`` and the
golden tests (``test_golden*.py``) always run the same maps:

- criterion 1: ``criterion_1_maps``, 500 seeded plane tame chains, and
  ``chain_line``, the line ``tests/golden/plane.txt`` holds for each;
- criteria 3 and 4: ``mixed_sweep``, the 14207 weight triples with
  a, b, c <= 40, ``directly_wild`` and its 1527 ``wild_triples``;
- criterion 6: ``lifting_maps`` for the weights (7, 2, -3);
- criteria 7-9: ``PIPELINES``, the weights, seed and factor maker of
  each corpus, and ``pipeline``.

Every draw is made in a fixed order, so an edit here changes the maps
of both the acceptance suite and the goldens.  The name has no
``test_`` prefix, so pytest does not collect this module.
"""

import random
from fractions import Fraction
from functools import cache
from math import gcd
from pathlib import Path

from tamekit import Polynomial, PolynomialMap, compose_chain
from tamekit.maps import map_from_matrix

u, v = Polynomial.variables(2)
x, y, z = Polynomial.variables(3)

NONZERO = [-3, -2, -1, 1, 2, 3]


def random_chain(rng, factor, most):
    """The composition of 1 to ``most`` factors drawn by ``factor(rng)``."""
    return compose_chain([factor(rng) for _ in range(rng.randrange(1, most + 1))])


def scaling(rng):
    return PolynomialMap(
        (rng.choice(NONZERO) * x, rng.choice(NONZERO) * y, rng.choice(NONZERO) * z)
    )


# ----------------------------------------------------------------------
# criterion 1: plane tame chains

PLANE_GOLDEN = Path(__file__).parent / "golden" / "plane.txt"


def _plane_factor(rng):
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
    """(index, map) for every step-th of criterion 1's 500 tame chains
    (seed 20260818); the factors of the others are drawn but not composed."""
    rng = random.Random(20260818)
    for i in range(500):
        factors = [_plane_factor(rng) for _ in range(rng.randrange(1, 7))]
        if i % step == 0:
            yield i, compose_chain(factors)


def chain_line(index, chain):
    return f"{index} " + " ; ".join(f.render() for f in chain.factors) + "\n"


def plane_golden_lines():
    return PLANE_GOLDEN.read_text().splitlines(keepends=True)


# ----------------------------------------------------------------------
# criteria 3 and 4: the mixed-weight sweep


@cache
def mixed_sweep():
    """All (a, b, c) with 1 <= b <= a <= 40, 1 <= c <= 40 and the three
    gcd conditions gcd(a,b,c) = gcd(a,c) = gcd(b,c) = 1, in sweep order."""
    return tuple(
        (a, b, c)
        for a in range(1, 41)
        for b in range(1, a + 1)
        for c in range(1, 41)
        if gcd(gcd(a, b), c) == 1 and gcd(a, c) == 1 and gcd(b, c) == 1
    )


def directly_wild(a, b, c):
    # search a = q*b + p*c with q >= 2 and p >= 1, no residue shortcuts
    for q in range(2, (a - c) // b + 1):
        rest = a - q * b
        if rest >= c and rest % c == 0:
            return True
    return False


@cache
def wild_triples():
    return tuple(t for t in mixed_sweep() if directly_wild(*t))


# ----------------------------------------------------------------------
# criterion 6: lifting and restriction at (7, 2, -3)


def _liftable_plane_factor(rng):
    kind = rng.randrange(4)
    c = rng.choice(NONZERO)
    if kind == 0:
        return PolynomialMap((u + c * v**5, v))
    if kind == 1:
        return PolynomialMap((u + c * v**8, v))
    if kind == 2:
        return PolynomialMap((u, v + c * u**2))
    return PolynomialMap((rng.choice(NONZERO) * u, rng.choice(NONZERO) * v))


def _graded_zfixed_factor(rng):
    kind = rng.randrange(4)
    c = rng.choice(NONZERO)
    if kind == 0:
        return PolynomialMap((x + c * y**5 * z, y, z))
    if kind == 1:
        return PolynomialMap((x + c * y**8 * z**3, y, z))
    if kind == 2:
        return PolynomialMap((x, y + c * x**2 * z**4, z))
    return PolynomialMap((rng.choice(NONZERO) * x, rng.choice(NONZERO) * y, z))


def lifting_maps():
    """Criterion 6's corpus from one generator seeded 723: 200 plane
    maps liftable for (7, 2, -3), then 200 graded maps that fix z."""
    rng = random.Random(723)
    plane = [random_chain(rng, _liftable_plane_factor, 4) for _ in range(200)]
    space = [random_chain(rng, _graded_zfixed_factor, 4) for _ in range(200)]
    return plane, space


# ----------------------------------------------------------------------
# criteria 7-9: graded pipelines


def _euclid_factor(rng):
    def zpoly():
        while True:
            p = Polynomial.zero(3)
            for k in range(5):
                c = rng.randrange(-3, 4)
                if c:
                    p = p + c * z**k
            if not p.is_zero():
                return p

    kind = rng.randrange(3)
    if kind == 0:
        return PolynomialMap((x + zpoly() * y, y, z))
    if kind == 1:
        return PolynomialMap((x, y + zpoly() * x, z))
    return PolynomialMap((rng.choice(NONZERO) * x, rng.choice(NONZERO) * y, z))


def _factor_1_1_1(rng):
    kind = rng.randrange(5)
    c = rng.choice(NONZERO)
    if kind == 0:
        return PolynomialMap((x + c * y**2 * z, y, z))
    if kind == 1:
        return PolynomialMap((x + c * y**3 * z**2, y, z))
    if kind == 2:
        return PolynomialMap((x, y + c * x**2 * z, z))
    if kind == 3:
        return PolynomialMap((y, x, z))
    return scaling(rng)


def _factor_5_2_3(rng):
    kind = rng.randrange(4)
    c = rng.choice(NONZERO)
    if kind == 0:
        return PolynomialMap((x + c * y**4 * z, y, z))
    if kind == 1:
        return PolynomialMap((x + c * y**7 * z**3, y, z))
    if kind == 2:
        return PolynomialMap((x, y + c * x * z, z))
    return scaling(rng)


def _factor_1_1_2(rng):
    kind = rng.randrange(3)
    if kind == 0:
        while True:
            a, b, c, d = (rng.randrange(-3, 4) for _ in range(4))
            if a * d - b * c != 0:
                break
        return PolynomialMap((a * x + b * y, c * x + d * y, rng.choice(NONZERO) * z))
    if kind == 1:
        q = Polynomial.zero(3)
        for mon in (x**2, x * y, y**2):
            q = q + rng.randrange(-3, 4) * mon
        return PolynomialMap((x, y, z + q))
    return PolynomialMap((x, y, rng.choice(NONZERO) * z))


def _factor_1_2_3(rng):
    kind = rng.randrange(4)
    c = rng.choice(NONZERO)
    if kind == 0:
        return scaling(rng)
    if kind == 1:
        return PolynomialMap((x, y + c * x**2, z))
    if kind == 2:
        return PolynomialMap((x, y, z + c * x * y))
    return PolynomialMap((x, y, z + c * x**3))


# tag: (weights, seed, factor maker); criterion 7 is the zero-weight
# Euclid corpus, criterion 8 the two q_hat <= 1 ones, criterion 9 the
# two all-positive ones
PIPELINES = {
    "euclid": ((1, 1, 0), 110, _euclid_factor),
    "qhat111": ((1, 1, -1), 811, _factor_1_1_1),
    "qhat523": ((5, 2, -3), 852, _factor_5_2_3),
    "pos112": ((1, 1, 2), 912, _factor_1_1_2),
    "pos123": ((1, 2, 3), 923, _factor_1_2_3),
}


def pipeline_maps(seed, factor, count=100):
    rng = random.Random(seed)
    return [random_chain(rng, factor, 5) for _ in range(count)]


def pipeline(tag):
    """(weights, 100 maps) of one corpus of ``PIPELINES``."""
    weights, seed, factor = PIPELINES[tag]
    return weights, pipeline_maps(seed, factor)
