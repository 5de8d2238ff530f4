"""Decomposition of plane automorphisms into affine and elementary factors.

The engine runs a Newton-polygon descent on the first coordinate: as
long as the polygon has positive area, the top edge of an automorphism
coordinate is a scaled binomial power and composing with the matching
shear strictly shrinks the area.  When the area reaches zero the first
coordinate is linear in a single variable and the map splits into an
affine factor and at most one elementary factor (plus a swap when the
surviving variable is y).

Maps that fail any of the shape facts automorphisms must satisfy raise
NotAnAutomorphism, so running to completion doubles as a membership
test.  The origin-preserving and graded variants check their input and
run the same descent; their extra factor properties then hold
automatically, for the reasons given in their docstrings.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    ArityMismatch,
    NotAnAutomorphism,
    NotGradedPlane,
    OriginNotPreserved,
)
from .maps import (
    FactorChain,
    PolynomialMap,
    compose,
    constant_jacobian,
    identity_map,
    plane_swap,
)
from .newton import Obstruction, analyze_top_edge, newton_area
from .poly import Polynomial, _coerce

_X, _Y = Polynomial.variables(2)


def _check_plane(m):
    if m.arity != 2:
        raise ArityMismatch(f"plane decomposition needs arity 2, got {m.arity}")


def _shear_for_edge(edge):
    """The shear killing the top edge, its inverse, and a note."""
    lam = edge.coefficient
    if edge.p == 1:
        recip = _coerce(Fraction(1) / Fraction(lam))
        psi = PolynomialMap((_X + recip * _Y**edge.q, _Y))
        psi_inv = PolynomialMap((_X - recip * _Y**edge.q, _Y))
        return psi, psi_inv, ""
    # q == 1: shear the second coordinate instead; recorded as a single
    # elementary factor rather than swap-conjugating the first-variable one
    psi = PolynomialMap((_X, _Y + lam * _X**edge.p))
    psi_inv = PolynomialMap((_X, _Y - lam * _X**edge.p))
    return psi, psi_inv, "mirrored"


def _axis_linear(f):
    """(axis, scale, shift) when f = scale * variable + shift, else None."""
    for axis, unit in enumerate(((1, 0), (0, 1))):
        if unit in f._num and f._num.keys() <= {unit, (0, 0)}:
            return axis, f.coeff(unit), f.constant_term()
    return None


def _base_factors(current):
    """Split a map whose first coordinate is axis-linear."""
    f, g = current.coords
    shape = _axis_linear(f)
    if shape is None:
        raise NotAnAutomorphism(
            f"first coordinate {f} degenerated without becoming linear"
        )
    axis, scale, shift = shape
    swapped = False
    if axis == 1:
        # precompose with the swap of x and y: only exponents move
        swap = lambda e: (e[1], e[0])
        current = PolynomialMap(tuple(c.map_exponents(2, swap) for c in current.coords))
        f, g = current.coords
        swapped = True
    gy = g.partial(1)
    if gy.is_zero() or not gy.is_constant():
        raise NotAnAutomorphism(
            f"second coordinate {g} is not linear in y over K[x]"
        )
    mu = gy.constant_value()
    w = g - mu * _Y  # free of y, since its y-derivative is zero
    aff = PolynomialMap((scale * _X + shift, mu * _Y))
    elem = PolynomialMap((_X, _Y + w * _coerce(Fraction(1) / Fraction(mu))))
    ident = identity_map(2)
    factors = [fac for fac in (aff, elem) if fac != ident]
    if swapped:
        factors.append(plane_swap())
    return factors, [""] * len(factors)


def _descend(m, trace):
    """The factors of m and one note each, found by polygon descent."""
    if constant_jacobian(m) is None:
        raise NotAnAutomorphism(
            f"{m} does not have a nonzero constant Jacobian determinant"
        )
    current = m
    suffix = []
    suffix_notes = []
    prev_area = None
    while True:
        f = current.coords[0]
        if f.is_zero() or current.coords[1].is_zero():
            raise NotAnAutomorphism("a coordinate vanished")
        area = newton_area(f)
        if trace is not None:
            trace(current, area)
        if prev_area is not None and area >= prev_area:
            raise NotAnAutomorphism("Newton polygon area failed to shrink")
        prev_area = area
        if area == 0:
            break
        edge = analyze_top_edge(f)
        if isinstance(edge, Obstruction):
            raise NotAnAutomorphism(f"first coordinate rules the map out: {edge.reason}")
        # a polygon of positive area is no axis segment: edge is a BinomialEdge
        psi, psi_inv, note = _shear_for_edge(edge)
        current = compose(current, psi)
        suffix.insert(0, psi_inv)
        suffix_notes.insert(0, note)
    base, base_notes = _base_factors(current)
    return base + suffix, base_notes + suffix_notes


def decompose_plane(m, trace=None):
    """Factor a plane automorphism into affine and elementary maps.

    The returned FactorChain recomposes to m exactly (checked at
    construction; a failure is an InvariantViolation).  ``trace``, if
    given, is called with the current map and its polygon area once per
    descent step.
    """
    _check_plane(m)
    factors, notes = _descend(m, trace)
    return FactorChain._derived(m, factors, notes)


def decompose_plane_origin(m, trace=None):
    """decompose_plane for origin-preserving maps; every factor is too.

    The shears have no constant term, so every map the descent reaches
    still fixes the origin; the base shift is then f(0) = 0 and the
    elementary base addend g - mu*y has g(0) = 0 as its constant.
    """
    _check_plane(m)
    if not m.is_origin_preserving():
        raise OriginNotPreserved(f"{m} moves the origin")
    return decompose_plane(m, trace)


def decompose_plane_graded(m, grading, trace=None):
    """decompose_plane for maps graded under ``grading``; so is every factor.

    Works for exact and residue gradings alike.  Each shear is graded:
    the binomial top edge scale*(y^q - c*x^p)^k puts both y^(qk) and
    x^p*y^(q(k-1)) in the support of f, a homogeneous coordinate, so
    x^p and y^q have the same weight.  Every map the descent reaches is
    therefore graded, and its base factors are too: the affine and
    elementary ones keep homogeneous parts of its coordinates, and the
    swap occurs only when f = scale*y + shift gives x and y one weight.
    """
    _check_plane(m)
    if grading.arity != 2:
        raise ArityMismatch("plane decomposition needs a two-variable grading")
    if not grading.is_graded_map(m):
        raise NotGradedPlane(f"{m} is not graded for {grading!r}")
    return decompose_plane(m, trace)


def is_plane_automorphism(m):
    try:
        decompose_plane(m)
    except NotAnAutomorphism:
        return False
    return True


def invert_plane(m):
    """The exact inverse of a plane automorphism, via its factor chain."""
    return decompose_plane(m).inverse()
