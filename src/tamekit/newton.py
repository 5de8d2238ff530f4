"""Newton polygons of plane polynomials and top-edge analysis.

The polygon of f is the convex hull of its exponent support together
with the origin.  For a coordinate of a plane automorphism this hull is
a (possibly degenerate) right triangle with legs on the axes and a top
edge whose terms form a scaled power of a binomial; analyze_top_edge
extracts that structure or reports the obstruction that rules the
polynomial out.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd

from .errors import ArityMismatch, ZeroPolynomial
from .poly import _div, _scalar


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def newton_polygon(f):
    """Hull vertices, counterclockwise from the lexicographic minimum.

    Collinear points are dropped, so every returned point is a strict
    vertex.  The origin is always included in the point set.
    """
    if f.arity != 2:
        raise ArityMismatch(
            f"Newton polygons are for plane polynomials, got arity {f.arity}"
        )
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial has no Newton polygon")
    pts = sorted(set(f._num) | {(0, 0)})
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


def newton_area(f):
    return polygon_area(newton_polygon(f))


# ---------------------------------------------------------------------------
# top-edge analysis

class AxisSegment:
    """Degenerate polygon: support lies on one axis.

    axis 0 means the support sits on the x-axis (f is a polynomial in x
    alone), axis 1 the y-axis.  degree is the far endpoint.
    """

    __slots__ = ("axis", "degree")

    def __init__(self, axis, degree):
        self.axis = axis
        self.degree = degree

    def __repr__(self):
        return f"AxisSegment(axis={self.axis}, degree={self.degree})"


class BinomialEdge:
    """Top edge from (p*multiplicity, 0) to (0, q*multiplicity) whose
    terms are scale * (y^q - coefficient * x^p)^multiplicity."""

    __slots__ = ("p", "q", "multiplicity", "scale", "coefficient")

    def __init__(self, p, q, multiplicity, scale, coefficient):
        self.p = p
        self.q = q
        self.multiplicity = multiplicity
        self.scale = scale
        self.coefficient = coefficient

    def __repr__(self):
        return (
            f"BinomialEdge(p={self.p}, q={self.q}, "
            f"multiplicity={self.multiplicity}, scale={self.scale}, "
            f"coefficient={self.coefficient})"
        )


class Obstruction:
    """Why the polynomial cannot be a plane automorphism coordinate."""

    __slots__ = ("reason",)

    def __init__(self, reason):
        self.reason = reason

    def __repr__(self):
        return f"Obstruction({self.reason!r})"


def analyze_top_edge(f):
    """Classify the top edge of f's Newton polygon.

    Returns AxisSegment for degenerate polygons on an axis, BinomialEdge
    when the polygon is the right triangle of a plausible automorphism
    coordinate, and Obstruction otherwise.
    """
    hull = newton_polygon(f)
    if len(hull) == 1:
        return Obstruction("constant polynomial")
    if len(hull) == 2:
        far = hull[1] if hull[0] == (0, 0) else hull[0]
        if far[1] == 0:
            return AxisSegment(0, far[0])
        if far[0] == 0:
            return AxisSegment(1, far[1])
        return Obstruction("support lies on a line off the axes")
    if len(hull) != 3:
        return Obstruction("polygon has a vertex off the axes")
    corners = set(hull)
    if (0, 0) not in corners:
        return Obstruction("polygon has a vertex off the axes")
    corners.discard((0, 0))
    on_x = [v for v in corners if v[1] == 0]
    on_y = [v for v in corners if v[0] == 0]
    if len(on_x) != 1 or len(on_y) != 1:
        return Obstruction("polygon has a vertex off the axes")
    big_p = on_x[0][0]
    big_q = on_y[0][1]
    mult = gcd(big_p, big_q)
    p = big_p // mult
    q = big_q // mult
    # the edge q*i + p*j = q*big_p holds just the points (k*p, (mult - k)*q);
    # with numerators s at k = 0 and t at k = 1, scale*(y^q - c*x^p)^mult
    # has c = -t/(mult*s) and k-th numerator C(mult, k)*t^k/(mult^k*s^(k-1))
    num = f._num
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
