"""Decomposition of plane automorphisms into affine and elementary factors.

The engine runs a Newton-polygon descent on the first coordinate f.
Each step reads the shape of f once with analyze_top_edge: while the
polygon is a right triangle, the top edge of an automorphism coordinate
is a scaled binomial power and composing with the matching shear
strictly shrinks the polygon's area.  When f lies on one axis with
degree 1 it is linear in a single variable, and the map splits into an
affine factor and at most one elementary factor (plus a swap when the
surviving variable is y).

Running to completion is a membership test.  If the descent finishes,
m is the exact composite of its factors, each an automorphism, which
FactorChain checks; so m is an automorphism.  An automorphism always
finishes, because every shape fact the descent checks holds for one
(Jung-van der Kulk).  And the descent terminates, because the area is
a non-negative half-integer that falls at every step (see _descend).
So a map that fails a shape fact raises NotAnAutomorphism.
decompose_plane puts the constant-Jacobian precheck in front, which
rejects most non-automorphisms before any shear is applied.  The
descent itself, _descend, does not repeat it, so callers in space.py
that have already tested a Jacobian do not pay for a second one.  The
graded variant checks its input and runs the same descent; its
factors are then graded, for the reasons given in its docstring.  A
map that fixes the origin gets factors that fix it too (see _descend).
"""

from __future__ import annotations

from .errors import (
    ArityMismatch,
    InvariantViolation,
    NotAnAutomorphism,
    NotGradedPlane,
)
from .maps import (
    FactorChain,
    PolynomialMap,
    _require_constant_jacobian,
    compose,  # not called here; the benchmark's smoke test reads jung.compose
    plane_swap,
)
from .newton import AxisSegment, Obstruction, analyze_top_edge, newton_area
from .poly import Polynomial, _div

_X, _Y = Polynomial.variables(2)


def _check_plane(m):
    if m.arity != 2:
        raise ArityMismatch(f"plane decomposition needs arity 2, got {m.arity}")


def _shear_for_edge(edge):
    """The shear psi killing the top edge, as the (s, q, rn, rd) that
    Polynomial._sheared applies (x_s -> x_s + (rn/rd)*x_o^q, o = 1 - s),
    its inverse as a map, and a note."""
    if edge.p == 1:
        r = _div(1, edge.coefficient)
        psi_inv = PolynomialMap((_X - r * _Y**edge.q, _Y))
        return (0, edge.q, r.numerator, r.denominator), psi_inv, ""
    # q == 1: shear the second coordinate instead; recorded as a single
    # elementary factor rather than swap-conjugating the first-variable one
    r = edge.coefficient
    psi_inv = PolynomialMap((_X, _Y - r * _X**edge.p))
    return (1, edge.p, r.numerator, r.denominator), psi_inv, "mirrored"


def _base_factors(current, axis):
    """Split a map whose first coordinate is scale * (x or y) + shift;
    FactorChain._derived drops a factor that is the identity."""
    if axis == 1:
        # precompose with the swap of x and y: only exponents move
        swap = lambda e: (e[1], e[0])
        current = PolynomialMap(c.map_exponents(2, swap) for c in current.coords)
    f, g = current.coords
    mu, w = g.split_variable(1)
    if mu == 0 or w.involves(1):
        raise NotAnAutomorphism(
            f"second coordinate {g} is not linear in y over K[x]"
        )
    aff = PolynomialMap((f, mu * _Y))
    elem = PolynomialMap((_X, _Y + w * _div(1, mu)))
    factors = [aff, elem, plane_swap()] if axis == 1 else [aff, elem]
    return factors, [""] * len(factors)


def _descend(m, trace):
    """The factors of m and one note each, found by polygon descent.

    Each step is decided by analyze_top_edge alone.  A BinomialEdge
    scale*(y^q - c*x^p)^k spans the triangle (0, 0), (P, 0), (0, Q) with
    P = p*k and Q = q*k, so twice its area is P*Q.  The shear for the
    edge is homogeneous for the weights that make the edge a level line,
    so it keeps every term below the edge below it and turns the edge's
    terms into one endpoint monomial: scale*(-c*x)^k or scale*y^k.  The
    new polygon then lies in the closed triangle, meets its edge in one
    endpoint only and so misses the other vertex: its area, a
    non-negative half-integer, is strictly smaller.  A failed shrink
    test is therefore a bug (InvariantViolation), never a verdict.
    The shears have no constant term, so when m fixes the origin, every
    map the descent reaches does too; the base shift is then f(0) = 0
    and the elementary base addend g - mu*y has g(0) = 0 as its
    constant, so every factor fixes the origin.
    Each step precomposes the current map with the shear, one
    Polynomial._sheared call per coordinate; only the shear's inverse,
    a factor, is built as a map.

    The descent needs no Jacobian test to be sound: reaching the
    triangular base with mu != 0 and w free of y proves membership by
    itself, and FactorChain's check of the result guards only against
    faults of this code.  The caller runs the precheck when it wants a
    cheap rejection and has not already made the Jacobian a nonzero
    constant.  ``trace``, if given, gets the
    current map and its newton_area once per step, before the step is
    read.
    """
    current = m
    suffix = []
    suffix_notes = []
    prev_twice_area = None
    while True:
        f = current.coords[0]
        if f.is_zero() or current.coords[1].is_zero():
            raise NotAnAutomorphism("a coordinate vanished")
        if trace is not None:
            trace(current, newton_area(f))
        edge = analyze_top_edge(f)
        if isinstance(edge, AxisSegment):
            if edge.degree == 1:
                break
            edge = Obstruction(f"degree {edge.degree} in one variable")
        if isinstance(edge, Obstruction):
            raise NotAnAutomorphism(f"first coordinate rules the map out: {edge.reason}")
        twice_area = edge.p * edge.q * edge.multiplicity**2
        if prev_twice_area is not None and twice_area >= prev_twice_area:
            raise InvariantViolation("Newton polygon area failed to shrink")
        prev_twice_area = twice_area
        shear, psi_inv, note = _shear_for_edge(edge)
        current = PolynomialMap(c._sheared(*shear) for c in current.coords)
        suffix.insert(0, psi_inv)
        suffix_notes.insert(0, note)
    base, base_notes = _base_factors(current, edge.axis)
    return base + suffix, base_notes + suffix_notes


def decompose_plane(m, trace=None):
    """Factor a plane automorphism into affine and elementary maps.

    The constant-Jacobian precheck runs first.  The returned
    FactorChain recomposes to m exactly (checked at construction; a
    failure is an InvariantViolation).  ``trace``, if
    given, is called with the current map and its polygon area once per
    descent step; only then is the area measured, and a hull is built
    only for a first coordinate whose support leaves its axis triangle.
    """
    _check_plane(m)
    _require_constant_jacobian(m)
    factors, notes = _descend(m, trace)
    return FactorChain._derived(m, factors, notes)


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
