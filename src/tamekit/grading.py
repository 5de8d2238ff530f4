"""Weight gradings on polynomial rings.

A Grading assigns an integer weight to each variable; its one question
is is_graded_map, whether each coordinate of a map is homogeneous of
its variable's weight.  A ResidueGrading is a Grading whose weights are
read modulo a fixed modulus: setting z = 1 turns the Z-grading
(a, b, -c) into the plane grading "weight modulo c".  It overrides only
that check, so the plane descent runs against either.

normalize_weights puts a triple of weights into the canonical shape the
three-variable routines expect (gcd one, at most one negative weight and
it sits last, the rest weakly decreasing) while recording enough to
transport maps back and forth between the original and normalized
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul

from .errors import ArityMismatch, GcdPrecondition, WrongShape
from .maps import PolynomialMap


def _check_weights(weights):
    weights = tuple(weights)
    if not weights:
        raise ArityMismatch("a grading needs at least one weight")
    for w in weights:
        if not isinstance(w, int) or isinstance(w, bool):
            raise ArityMismatch(f"weights must be ints, got {w!r}")
    return weights


class Grading:
    """Z-grading: each variable carries an integer weight.

    A subclass may read the weights modulo ``modulus``; the exact grading
    has none, and equality and hashing compare the pair.
    """

    __slots__ = ("weights",)
    modulus = None

    def __init__(self, weights):
        self.weights = _check_weights(weights)

    @property
    def arity(self):
        return len(self.weights)

    def is_graded_map(self, m):
        """Each coordinate is homogeneous of its variable's weight.

        Zero coordinates pass vacuously (they are homogeneous of every
        degree); a nonzero constant coordinate needs weight zero.
        """
        self._check_arity(m)
        # one pass: each term's weight is computed once
        w = self.weights
        for want, c in zip(w, m.coords):
            for e in c._num:
                if sum(map(mul, w, e)) != want:
                    return False
        return True

    def _check_arity(self, m):
        if m.arity != self.arity:
            raise ArityMismatch(
                f"map arity {m.arity} does not match grading arity {self.arity}"
            )

    def __eq__(self, other):
        if not isinstance(other, Grading):
            return NotImplemented
        return (self.weights, self.modulus) == (other.weights, other.modulus)

    def __hash__(self):
        return hash((self.weights, self.modulus))

    def __repr__(self):
        return f"Grading{self.weights}"


class ResidueGrading(Grading):
    """A Grading whose weights, and so degrees, are read modulo a fixed
    positive modulus."""

    __slots__ = ("modulus",)

    def __init__(self, weights, modulus):
        if not isinstance(modulus, int) or isinstance(modulus, bool) or modulus < 1:
            raise ArityMismatch(f"modulus must be a positive int, got {modulus!r}")
        self.modulus = modulus
        self.weights = tuple(w % modulus for w in _check_weights(weights))

    def is_graded_map(self, m):
        self._check_arity(m)
        # one pass; the stored weights are already reduced mod the modulus
        w, mod = self.weights, self.modulus
        for want, c in zip(w, m.coords):
            for e in c._num:
                if sum(map(mul, w, e)) % mod != want:
                    return False
        return True

    def __repr__(self):
        return f"ResidueGrading({self.weights}, mod {self.modulus})"


# ---------------------------------------------------------------------------
# canonical shape for weight triples

def _permuted(m, perm):
    # r m r^-1 where r's coordinate i is variable perm[i]: coordinate i is
    # m.coords[perm[i]] with its exponent tuple read in the order perm
    if m.arity != 3:
        raise ArityMismatch(f"need a three-variable map, got arity {m.arity}")
    if perm == (0, 1, 2):
        # maps are immutable by convention, so the identity conjugate is m
        return m
    p0, p1, p2 = perm
    move = lambda e: (e[p0], e[p1], e[p2])
    return PolynomialMap(m.coords[p].map_exponents(3, move) for p in perm)


@dataclass(frozen=True, slots=True)
class NormalizedGrading:
    """Result of normalize_weights: the canonical weights plus the
    bookkeeping (permutation, sign flip, common divisor) needed to
    transport maps between the original and normalized variables.

    ``weights[i] == sign * original[permutation[i]] // divisor`` where
    sign is -1 when ``flipped`` else 1.
    """

    original: tuple
    weights: tuple
    permutation: tuple
    flipped: bool
    divisor: int

    def to_normalized(self, m):
        """Conjugate a map on the original variables into normalized ones."""
        return _permuted(m, self.permutation)

    def to_original(self, m):
        return _permuted(m, tuple(self.permutation.index(i) for i in range(3)))


def normalize_weights(weights):
    """Canonicalize a weight triple.

    Divide by the gcd, negate if negatives outnumber positives, then
    permute by one sort: the negative weight, of which at most one is
    left, goes last, the others in decreasing order, and equal weights
    keep their order.
    """
    original = _check_weights(weights)
    if len(original) != 3:
        raise ArityMismatch("normalize_weights expects exactly three weights")
    divisor = gcd(*original) or 1
    scaled = [w // divisor for w in original]
    positives = sum(1 for w in scaled if w > 0)
    negatives = sum(1 for w in scaled if w < 0)
    flipped = positives < negatives
    if flipped:
        scaled = [-w for w in scaled]
    perm = tuple(sorted(range(3), key=lambda i: (scaled[i] < 0, -scaled[i], i)))
    norm = tuple(scaled[p] for p in perm)
    return NormalizedGrading(original, norm, perm, flipped, divisor)


# ---------------------------------------------------------------------------
# threshold exponents for mixed-sign triples (a, b, -c), all entries positive

def q_hat(a, b, c):
    """Largest q with b*q < a and b*q ≡ a (mod c); may be non-positive.

    Needs c >= 1, and gcd(b, c) == 1 so the congruence has solutions in
    every residue class.
    """
    if c < 1:
        raise WrongShape(f"q_hat needs a positive modulus c, got {c}")
    if gcd(b, c) != 1:
        raise GcdPrecondition(f"gcd({b}, {c}) must be 1")
    q0 = (a * pow(b, -1, c)) % c
    cap = (a - 1) // b
    return q0 + c * ((cap - q0) // c)


def l_hat(a, b, c):
    """Smallest l >= 1 with a*l ≡ b (mod c).

    Needs c >= 1 and gcd(a, c) == 1.  Always 1 <= l_hat <= c, with
    equality to c exactly when the residue solution is 0 (so in
    particular at c = 1).
    """
    if c < 1:
        raise WrongShape(f"l_hat needs a positive modulus c, got {c}")
    if gcd(a, c) != 1:
        raise GcdPrecondition(f"gcd({a}, {c}) must be 1")
    l0 = (b * pow(a, -1, c)) % c
    return l0 if l0 else c


def plane_residue_grading(a, b, c):
    """The residue grading the plane restriction of a graded space map
    lives in when the space weights are (a, b, -c)."""
    return ResidueGrading((a, b), c)
