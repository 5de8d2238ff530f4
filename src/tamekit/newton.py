"""Newton polygons of plane polynomials and top-edge analysis.

The polygon of f is the convex hull of its exponent support together
with the origin; newton_polygon builds it.  For a coordinate of a plane
automorphism the polygon is a (possibly degenerate) right triangle with
legs on the axes and a top edge whose terms form a scaled power of a
binomial.  _triangle reads in one pass over the support whether it
lies in that triangle.  analyze_top_edge then extracts the edge or
reports the obstruction that rules the polynomial out; it alone decides
each step of the plane descent.  newton_area, for traces and the CLI,
reads the triangle's area off its legs and builds the hull only for a
support that leaves the triangle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

from .errors import ArityMismatch, ZeroPolynomial
from .poly import _div, _scalar


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _plane_support(f):
    if f.arity != 2:
        raise ArityMismatch(
            f"Newton polygons are for plane polynomials, got arity {f.arity}"
        )
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial has no Newton polygon")
    return f._num


def newton_polygon(f):
    """Hull vertices, counterclockwise from the lexicographic minimum.

    Collinear points are dropped, so every returned point is a strict
    vertex.  The origin is always included in the point set.
    """
    pts = sorted(set(_plane_support(f)) | {(0, 0)})
    if len(pts) == 1:
        return (pts[0],)
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return tuple(lower[:-1] + upper[:-1])


def polygon_area(vertices):
    """Shoelace area, exact."""
    n = len(vertices)
    if n < 3:
        return Fraction(0)
    twice = 0
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        twice += x0 * y1 - x1 * y0
    return Fraction(abs(twice), 2)


def _triangle(num):
    """(P, Q, off, inside) for a nonzero plane support: P and Q the
    largest powers of x alone and of y alone, off the exponents on
    neither axis, and inside whether the support lies in the closed
    triangle (0, 0), (P, 0), (0, Q), which is then its Newton polygon.
    With P*Q > 0 that is Q*i + P*j <= P*Q for every exponent (i, j);
    otherwise the triangle lies on an axis and no exponent may be off."""
    big_p = big_q = 0
    off = []
    for e in num:
        i, j = e
        if i and j:
            off.append(e)
        elif i > big_p:  # past the first test, i > 0 means j == 0
            big_p = i
        elif j > big_q:
            big_q = j
    pq = big_p * big_q
    inside = all(big_q * i + big_p * j <= pq for i, j in off) if pq else not off
    return big_p, big_q, off, inside


def newton_area(f):
    """The polygon's exact area: P*Q/2 inside the axis triangle, else
    the hull's shoelace area."""
    big_p, big_q, _, inside = _triangle(_plane_support(f))
    if inside:
        return Fraction(big_p * big_q, 2)
    return polygon_area(newton_polygon(f))


# ---------------------------------------------------------------------------
# top-edge analysis

@dataclass(frozen=True, slots=True)
class AxisSegment:
    """Degenerate polygon: support lies on one axis.

    axis 0 means the support sits on the x-axis (f is a polynomial in x
    alone), axis 1 the y-axis.  degree is the far endpoint.
    """

    axis: int
    degree: int


@dataclass(frozen=True, slots=True)
class BinomialEdge:
    """Top edge from (p*multiplicity, 0) to (0, q*multiplicity) whose
    terms are scale * (y^q - coefficient * x^p)^multiplicity."""

    p: int
    q: int
    multiplicity: int
    scale: object
    coefficient: object


@dataclass(frozen=True, slots=True)
class Obstruction:
    """Why the polynomial cannot be a plane automorphism coordinate."""

    reason: str


def analyze_top_edge(f):
    """Classify the top edge of f's Newton polygon from its support.

    With P the largest power of x alone and Q that of y alone, the
    polygon is the right triangle (0, 0), (P, 0), (0, Q) exactly when
    P, Q > 0 and every exponent (i, j) has Q*i + P*j <= P*Q.  Its top
    edge gives a BinomialEdge when it is a scaled binomial power with an
    exponent 1.  A support on one axis gives an AxisSegment; everything
    else an Obstruction.
    """
    num = _plane_support(f)
    big_p, big_q, off, inside = _triangle(num)
    if not inside:
        i0, j0 = off[0]
        if not (big_p or big_q) and all(i * j0 == j * i0 for i, j in off):
            return Obstruction("support lies on a line off the axes")
        return Obstruction("polygon has a vertex off the axes")
    if not (big_p and big_q):
        if big_q:
            return AxisSegment(1, big_q)
        return AxisSegment(0, big_p) if big_p else Obstruction("constant polynomial")
    mult = gcd(big_p, big_q)
    p = big_p // mult
    q = big_q // mult
    # the edge q*i + p*j = q*big_p holds just the points (k*p, (mult - k)*q);
    # with numerators s at k = 0 and t at k = 1, scale*(y^q - c*x^p)^mult
    # has c = -t/(mult*s) and k-th numerator C(mult, k)*t^k/(mult^k*s^(k-1))
    s = num[(0, big_q)]
    t = num.get((p, q * (mult - 1)), 0)
    if not t:
        return Obstruction("edge coefficient vanishes")
    lhs, rhs = mult, t
    for k in range(2, mult + 1):
        lhs *= mult * s
        rhs *= t
        if num.get((k * p, (mult - k) * q), 0) * lhs != comb(mult, k) * rhs:
            return Obstruction("top edge is not a power of one binomial")
    if p > 1 and q > 1:
        return Obstruction("neither edge exponent is 1")
    return BinomialEdge(p, q, mult, _scalar(s, f._den), _div(-t, mult * s))
