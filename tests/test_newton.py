"""Newton polygons: hulls, areas, top-edge analysis."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from tamekit.errors import ArityMismatch, ZeroPolynomial
from tamekit.grading import Grading
from tamekit.newton import (
    AxisSegment,
    BinomialEdge,
    Obstruction,
    analyze_top_edge,
    newton_area,
    newton_polygon,
    polygon_area,
)
from tamekit.poly import Polynomial

x, y = Polynomial.variables(2)


def test_hull_of_coordinate_polynomial():
    f = y**2 - x
    assert newton_polygon(f) == ((0, 0), (1, 0), (0, 2))
    assert newton_area(f) == 1


def test_hull_with_interior_vertex():
    f = x + y**3 + x * y
    assert newton_polygon(f) == ((0, 0), (1, 0), (1, 1), (0, 3))
    assert newton_area(f) == 2


def test_degenerate_hulls():
    assert newton_polygon(Polynomial.constant(2, 5)) == ((0, 0),)
    assert newton_polygon(x**3 + x) == ((0, 0), (3, 0))
    assert newton_area(x**3 + x) == 0
    assert polygon_area(((0, 0), (2, 0))) == 0
    with pytest.raises(ZeroPolynomial):
        newton_polygon(Polynomial.zero(2))
    with pytest.raises(ArityMismatch):
        newton_polygon(Polynomial.variable(3, 0))


def test_axis_segments():
    got = analyze_top_edge(2 * x + 1)
    assert isinstance(got, AxisSegment) and got.axis == 0 and got.degree == 1
    got = analyze_top_edge(y**5 - 3 * y)
    assert isinstance(got, AxisSegment) and got.axis == 1 and got.degree == 5
    assert isinstance(analyze_top_edge(Polynomial.constant(2, 7)), Obstruction)


def test_edge_of_simple_coordinate():
    got = analyze_top_edge(y**2 - x)
    assert isinstance(got, BinomialEdge)
    assert (got.p, got.q, got.multiplicity) == (1, 2, 1)
    assert got.scale == 1 and got.coefficient == 1


def test_edge_with_multiplicity():
    f = (y - x) ** 2 + x
    got = analyze_top_edge(f)
    assert isinstance(got, BinomialEdge)
    assert (got.p, got.q, got.multiplicity) == (1, 1, 2)
    assert got.coefficient == 1


def test_edge_scale_and_fraction_coefficient():
    f = 3 * (y**2 - Fraction(1, 2) * x) + y
    got = analyze_top_edge(f)
    assert isinstance(got, BinomialEdge)
    assert got.scale == 3
    assert got.coefficient == Fraction(1, 2)


def test_obstruction_vertex_off_axes():
    got = analyze_top_edge(x + y**3 + x * y)
    assert isinstance(got, Obstruction)
    assert "vertex" in got.reason


def test_obstruction_vanishing_edge_coefficient():
    got = analyze_top_edge(y**2 - x**2)
    assert isinstance(got, Obstruction)
    assert "coefficient" in got.reason


def test_obstruction_edge_not_binomial_power():
    # (y - x)(y - 2x) has the right triangle but is not one binomial squared
    f = y**2 - 3 * x * y + 2 * x**2
    got = analyze_top_edge(f)
    assert isinstance(got, Obstruction)


def test_obstruction_both_exponents_exceed_one():
    f = y**2 - x**3
    got = analyze_top_edge(f)
    assert isinstance(got, Obstruction)
    assert "exponent" in got.reason


def test_obstruction_line_off_axes():
    got = analyze_top_edge(x * y)
    assert isinstance(got, Obstruction)


@pytest.mark.parametrize(
    "f, reason",
    [
        (Polynomial.constant(2, 7), "constant polynomial"),
        (x * y + 3 * x**2 * y**2 - 1, "support lies on a line off the axes"),
        # one corner on an axis, the other off both
        (x**2 + x * y**2, "polygon has a vertex off the axes"),
        (y**3 + x**2 * y + 1, "polygon has a vertex off the axes"),
        (x * y**2 + x**2 * y, "polygon has a vertex off the axes"),
        # both axis corners, but a term beyond the line between them
        (x + y + x * y, "polygon has a vertex off the axes"),
        (x**2 + y**3 + x * y**2, "polygon has a vertex off the axes"),
        # a ray through the origin with no constant term
        (x * y**2 + 2 * x**2 * y**4, "support lies on a line off the axes"),
        # of two terms off the axes, one inside the triangle and one beyond
        (x**3 + y**3 + x * y + x**2 * y**2, "polygon has a vertex off the axes"),
    ],
)
def test_obstruction_reasons(f, reason):
    # newton_area decides these supports from the same triangle reading
    assert analyze_top_edge(f).reason == reason
    assert newton_area(f) == polygon_area(newton_polygon(f))


# ---------------------------------------------------------------------------
# the integer top-edge test against the polynomial construction it replaced


def _edge_is_binomial_power(f, p, q, mult):
    """The whole top component of f under the grading (q, p) compared with
    scale*(y^q - c*x^p)^mult, as the top-edge test was first written."""
    scale = f.coeff((0, q * mult))
    c = -Fraction(f.coeff((p, q * (mult - 1)))) / (mult * scale)
    return Grading((q, p)).top_component(f) == scale * (y**q - c * x**p) ** mult


def _agrees_with_oracle(f, p, q, mult):
    got = analyze_top_edge(f)
    if _edge_is_binomial_power(f, p, q, mult):
        assert isinstance(got, BinomialEdge)
        assert (got.p, got.q, got.multiplicity) == (p, q, mult)
        assert got.scale == f.coeff((0, q * mult))
        assert got.coefficient == -Fraction(f.coeff((p, q * (mult - 1)))) / (mult * got.scale)
    else:
        assert isinstance(got, Obstruction)
        assert got.reason == "top edge is not a power of one binomial"
    return got


@pytest.mark.parametrize(
    "f, p, q, mult",
    [
        # an extra term on the edge, at k = 1 and at k = 2
        ((y - x) ** 3 + 2 * x * y**2, 1, 1, 3),
        ((y**2 - 2 * x) ** 2 + 3 * x**2 + y, 1, 2, 2),
        # a missing middle term
        ((y - x) ** 3 - 3 * x**2 * y, 1, 1, 3),
        ((y - Fraction(1, 2) * x**3) ** 4 - Fraction(3, 8) * x**6 * y**2, 3, 1, 4),
        # a wrong middle coefficient at mult >= 3, with a rational scale
        (Fraction(2, 3) * (y**2 - Fraction(1, 2) * x) ** 4 + Fraction(1, 5) * x**3 * y**2, 1, 2, 4),
        (Fraction(-5, 7) * (y - 3 * x**2) ** 3 + x**4 * y, 2, 1, 3),
    ],
)
def test_broken_edges_match_the_polynomial_oracle(f, p, q, mult):
    assert not _edge_is_binomial_power(f, p, q, mult)
    _agrees_with_oracle(f, p, q, mult)


def test_rational_binomial_edge_matches_the_polynomial_oracle():
    f = Fraction(-5, 7) * (y**2 - Fraction(3, 4) * x) ** 3 + y + x - 1
    assert _edge_is_binomial_power(f, 1, 2, 3)
    got = _agrees_with_oracle(f, 1, 2, 3)
    assert got.scale == Fraction(-5, 7) and got.coefficient == Fraction(3, 4)


# ---------------------------------------------------------------------------
# property tests

exps = st.tuples(
    st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6)
)
polys = st.dictionaries(exps, st.integers(min_value=-5, max_value=5), min_size=1, max_size=6).map(
    lambda d: Polynomial(2, d)
)


def _inside_or_on(hull, pt):
    n = len(hull)
    if n == 1:
        return pt == hull[0]
    if n == 2:
        (x0, y0), (x1, y1) = hull
        cross = (x1 - x0) * (pt[1] - y0) - (y1 - y0) * (pt[0] - x0)
        if cross != 0:
            return False
        dot = (pt[0] - x0) * (x1 - x0) + (pt[1] - y0) * (y1 - y0)
        return 0 <= dot <= (x1 - x0) ** 2 + (y1 - y0) ** 2
    for i in range(n):
        x0, y0 = hull[i]
        x1, y1 = hull[(i + 1) % n]
        if (x1 - x0) * (pt[1] - y0) - (y1 - y0) * (pt[0] - x0) < 0:
            return False
    return True


@settings(max_examples=150, deadline=None)
@given(polys)
def test_hull_contains_support_and_origin(f):
    if f.is_zero():
        return
    hull = newton_polygon(f)
    for pt in list(f.terms) + [(0, 0)]:
        assert _inside_or_on(hull, pt)
    assert set(hull) <= set(f.terms) | {(0, 0)}


@settings(max_examples=150, deadline=None)
@given(polys)
def test_hull_is_strictly_convex(f):
    if f.is_zero():
        return
    hull = newton_polygon(f)
    n = len(hull)
    if n >= 3:
        for i in range(n):
            o, a, b = hull[i], hull[(i + 1) % n], hull[(i + 2) % n]
            cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
            assert cross > 0  # counterclockwise, no collinear triples


@st.composite
def perturbed_edges(draw):
    # scale*(y^q - c*x^p)^mult, sometimes with one edge coefficient moved
    # (maybe to zero), plus terms strictly below the edge
    p, q = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (1, 3), (3, 1)]))
    mult = draw(st.integers(1, 4))
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool)
    scale, c = draw(rationals), draw(rationals)
    f = scale * (y**q - c * x**p) ** mult
    k = draw(st.integers(0, mult))
    if k not in (0, mult) and draw(st.booleans()):
        f += draw(rationals) * x ** (k * p) * y ** ((mult - k) * q)
    if q * mult > 1 and draw(st.booleans()):
        f += draw(rationals) * y + draw(st.integers(-2, 2))
    return f, p, q, mult


@settings(max_examples=150, deadline=None)
@given(perturbed_edges())
def test_top_edge_matches_the_polynomial_oracle(case):
    f, p, q, mult = case
    if f.coeff((p, q * (mult - 1))) == 0:
        assert analyze_top_edge(f).reason == "edge coefficient vanishes"
    else:
        _agrees_with_oracle(f, p, q, mult)



# ---------------------------------------------------------------------------
# the top-edge reader against the hull-corner classification it replaced


def _hull_oracle(f):
    """Classify f by the corners of its Newton polygon, then test the top
    edge by the polynomial construction above."""
    hull = newton_polygon(f)
    if len(hull) == 1:
        return Obstruction("constant polynomial")
    if len(hull) == 2:
        far = hull[1]  # hull[0] is the origin, the lexicographic minimum
        if far[1] == 0:
            return AxisSegment(0, far[0])
        if far[0] == 0:
            return AxisSegment(1, far[1])
        return Obstruction("support lies on a line off the axes")
    on_x = [v for v in hull if v[0] and not v[1]]
    on_y = [v for v in hull if v[1] and not v[0]]
    if len(hull) != 3 or len(on_x) != 1 or len(on_y) != 1:
        return Obstruction("polygon has a vertex off the axes")
    big_p, big_q = on_x[0][0], on_y[0][1]
    mult = gcd(big_p, big_q)
    p, q = big_p // mult, big_q // mult
    t = f.coeff((p, q * (mult - 1)))
    if t == 0:
        return Obstruction("edge coefficient vanishes")
    if not _edge_is_binomial_power(f, p, q, mult):
        return Obstruction("top edge is not a power of one binomial")
    if p > 1 and q > 1:
        return Obstruction("neither edge exponent is 1")
    scale = f.coeff((0, big_q))
    return BinomialEdge(p, q, mult, scale, -Fraction(t) / (mult * scale))


def _record(result):
    return type(result), tuple(getattr(result, name) for name in type(result).__slots__)


# both axis corners present, the rest anywhere: triangles and near misses
cornered = st.tuples(st.integers(1, 6), st.integers(1, 6), polys).map(
    lambda t: t[2] + x ** t[0] + y ** t[1]
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(polys, cornered, perturbed_edges().map(lambda case: case[0])))
def test_top_edge_matches_the_hull_oracle(f):
    if not f.is_zero():
        assert _record(analyze_top_edge(f)) == _record(_hull_oracle(f))


# ---------------------------------------------------------------------------
# the area read off the axis triangle against the hull it skips


@seed(20261019)
@settings(max_examples=300, deadline=None)
@given(st.one_of(polys, cornered))
@example(x**3 + y**2 + x * y - 1)  # inside its axis triangle: area 3
@example(x**2 + y**2 + x**2 * y)  # a vertex off the triangle
@example(y**4 - 2 * y)  # on one axis: area 0
@example(Polynomial.constant(2, 5))  # a constant: area 0
def test_area_matches_the_hull(f):
    if not f.is_zero():
        assert newton_area(f) == polygon_area(newton_polygon(f))

