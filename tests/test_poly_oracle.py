"""The polynomial kernels checked against sympy.

sympy is only a test dependency: it serves as an independent exact
oracle for sums, differences, scalar and polynomial products, powers,
``substitute``, ``map_exponents``, ``partial``, ``jacobian_det``,
``split_variable`` and the coefficient readers, with the plane shears
that ``substitute`` expands by binomial rows and the polynomials of
degree at most 1 that it sums linearly checked on their own next to the
near misses that must take its general path.  Every result must also
be in normal form: integer numerators, none zero, over a positive
denominator that shares no factor with all of them.
"""

import tracemalloc
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from tamekit import poly
from tamekit.errors import ArityMismatch
from tamekit.maps import PolynomialMap, compose, jacobian_det
from tamekit.poly import Polynomial, _shear_of

sympy = pytest.importorskip("sympy")

SOURCE = sympy.symbols("a0:3")
TARGET = sympy.symbols("u0:3")

x, y = Polynomial.variables(2)
X, Y, Z = Polynomial.variables(3)


def to_sympy(value, names):
    if not isinstance(value, Polynomial):
        value = Fraction(value)
        return sympy.Rational(value.numerator, value.denominator)
    expr = sympy.Integer(0)
    for exps, c in value.terms.items():
        c = Fraction(c)
        term = sympy.Rational(c.numerator, c.denominator)
        for name, e in zip(names, exps):
            term *= name**e
        expr += term
    return expr


def from_sympy(expr, names):
    terms = {}
    for exps, c in sympy.Poly(sympy.expand(expr), *names).as_dict().items():
        if c:
            terms[exps] = Fraction(int(c.p), int(c.q))
    return terms


def assert_canonical(p):
    assert type(p._den) is int and p._den >= 1
    assert all(type(c) is int and c != 0 for c in p._num.values())
    assert gcd(p._den, *p._num.values()) == 1
    for c in p.terms.values():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


def assert_matches(p, expr, names):
    assert_canonical(p)
    assert p.terms == from_sympy(expr, names)


# several denominators, so the kernel must find a true common one
coeffs = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
)
scalars = st.one_of(
    st.just(0),
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-2, max_value=2, max_denominator=7),
)


def polys(arity, max_exp=3, max_terms=5):
    exps = st.tuples(*[st.integers(min_value=0, max_value=max_exp)] * arity)
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(
        lambda d: Polynomial(arity, d)
    )


arities = st.sampled_from([2, 3])


@st.composite
def factor_pairs(draw):
    arity = draw(arities)
    return draw(polys(arity)), draw(polys(arity))


@st.composite
def substitutions(draw):
    source, target = draw(arities), draw(arities)
    f = draw(polys(source))
    images = tuple(
        draw(st.one_of(scalars, polys(target, max_exp=2, max_terms=3)))
        for _ in range(source)
    )
    return f, images


@settings(max_examples=60, deadline=None)
@given(factor_pairs())
@example((x - y, x + y))  # the cross terms cancel
@example((Fraction(1, 2) * X + Fraction(1, 3) * Y, Fraction(2, 5) * X - Z))
def test_product_matches_sympy(pair):
    a, b = pair
    names = TARGET[: a.arity]
    assert_matches(a * b, to_sympy(a, names) * to_sympy(b, names), names)


def dense_plane(n, shift=0, side=16):
    # n plane terms (n <= side^2) on distinct exponents below side, with
    # fractional coefficients of both signs
    return Polynomial(2, {
        (k % side, (k // side + 3 * k + shift) % side): Fraction((-1) ** k * (k + shift + 1), k % 5 + 2)
        for k in range(n)
    })


def sympy_qq(c):
    c = Fraction(c)
    return sympy.QQ(c.numerator, c.denominator)


def sympy_poly(p):
    # a plane polynomial in sympy's sparse ring: its dense Poly would
    # expand y^1000000 into a million slots
    plane = sympy.polys.rings.ring(TARGET[:2], sympy.QQ)[0]
    return plane.from_dict({e: sympy_qq(c) for e, c in p.terms.items()})


def assert_sympy_terms(got, expected):
    assert_canonical(got)
    assert got.terms == {e: Fraction(int(c.numerator), int(c.denominator)) for e, c in expected.items()}


def rows_branch_runs(call):
    # call() and whether it went through _convolve's x-degree rows into
    # list columns
    with mock.patch.object(poly, "_rows", wraps=poly._rows) as rows:
        result = call()
    return result, rows.called


def takes_rows(a, b):
    # _convolve's test: enough term pairs, and a box of output x-degrees
    # times y-span no larger than the pairs
    (xs1, ys1), (xs2, ys2) = zip(*a.terms), zip(*b.terms)
    box = (max(xs1) + max(xs2) - min(xs1) - min(xs2) + 1) * (max(ys1) + max(ys2) - min(ys1) - min(ys2) + 1)
    pairs = len(a.terms) * len(b.terms)
    return pairs >= poly._ROWS_MIN_PAIRS and box <= pairs


# 25-40 nonzero terms a side below x^16 and y^16: every drawn product is
# past the threshold, and its box of up to 31 x 31 falls on either side
# of its 625-1600 term pairs
dense_planes = st.dictionaries(
    st.tuples(st.integers(0, 15), st.integers(0, 15)),
    coeffs.filter(bool),
    min_size=25,
    max_size=40,
).map(lambda d: Polynomial(2, d))
DENSE_P, DENSE_Q = dense_plane(32, side=8), dense_plane(27, 5, side=8)


@settings(max_examples=15, deadline=None)
@given(dense_planes, dense_planes)
@example(dense_plane(7), dense_plane(73, 5))  # 511 term pairs: the pair loop
@example(dense_plane(16, side=8), dense_plane(32, 5, side=8))  # 512 term pairs: the rows
@example(dense_plane(32), dense_plane(30, 5))  # 960 pairs in a 31 x 31 box: the pair loop
@example(DENSE_P + DENSE_Q, DENSE_P - DENSE_Q)  # the cross sums cancel
@example(x * y**3 * DENSE_P, y**5 * DENSE_Q)  # the list columns start at y^8
def test_dense_plane_product_matches_sympy(a, b):
    product, by_rows = rows_branch_runs(lambda: a * b)
    assert by_rows == takes_rows(a, b)
    assert_sympy_terms(product, sympy_poly(a) * sympy_poly(b))


def test_dense_plane_product_sides_of_the_threshold():
    # the examples above each take the branch they name
    assert not takes_rows(dense_plane(7), dense_plane(73, 5))
    assert takes_rows(dense_plane(16, side=8), dense_plane(32, 5, side=8))
    assert not takes_rows(dense_plane(32), dense_plane(30, 5))
    assert takes_rows(DENSE_P + DENSE_Q, DENSE_P - DENSE_Q)
    assert takes_rows(x * y**3 * DENSE_P, y**5 * DENSE_Q)


def test_dense_product_with_a_huge_exponent_takes_the_pair_loop():
    # 17 x 32 term pairs, but y^1000000 stretches the box to 15 x 1000008:
    # list columns would take about 120 MB, the pair loop its terms alone
    a = dense_plane(16, side=8) + Fraction(-2, 7) * y**1000000
    b = dense_plane(32, 5, side=8)
    assert len(a.terms) * len(b.terms) >= 512
    tracemalloc.start()
    try:
        product, by_rows = rows_branch_runs(lambda: a * b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not by_rows
    assert peak < 2_000_000
    assert_sympy_terms(product, sympy_poly(a) * sympy_poly(b))


def test_dense_rows_whose_sums_all_cancel_leave_zero():
    # x^2*y - x*y^2 at (p, p) is p^3 - p^3: substitute adds both groups'
    # rows products into one accumulator, where every sum cancels
    p = dense_plane(30, side=8)
    zero, by_rows = rows_branch_runs(lambda: (x**2 * y - x * y**2).substitute((p, p)))
    assert by_rows
    assert zero.is_zero()
    assert_canonical(zero)


def test_dense_substitute_shares_the_rows_accumulator():
    # each group's rows product lands in the one accumulator on top of
    # the terms the group before it left there
    f = Fraction(1, 2) * x**2 * y - 3 * x * y**2 + Fraction(2, 3) * x * y - y
    p, q = dense_plane(30, side=8), dense_plane(24, 3, side=8)
    got, by_rows = rows_branch_runs(lambda: f.substitute((p, q)))
    assert by_rows
    sp, sq = sympy_poly(p), sympy_poly(q)
    expected = sum(sympy_qq(c) * sp**i * sq**j for (i, j), c in f.terms.items())
    assert_sympy_terms(got, expected)


def test_dense_composed_automorphism_has_its_constant_jacobian():
    m = compose(
        compose(
            PolynomialMap((x + Fraction(2, 3) * y**4 - y**3, y)),
            PolynomialMap((x, y - Fraction(1, 2) * x**3 + 2 * x**2)),
        ),
        PolynomialMap((3 * x + y**2 + 1, Fraction(1, 5) * y)),
    )
    f, g = m.coords
    # both Jacobian products are past the threshold
    assert len(f.partial(0).terms) * len(g.partial(1).terms) >= poly._ROWS_MIN_PAIRS
    assert len(f.partial(1).terms) * len(g.partial(0).terms) >= poly._ROWS_MIN_PAIRS
    assert jacobian_det(m) == Fraction(3, 5)


@settings(max_examples=60, deadline=None)
@given(factor_pairs())
@example((Fraction(1, 2) * x + Fraction(1, 6) * y, Fraction(1, 2) * x - Fraction(1, 3) * y))
@example((Fraction(1, 4) * X + 1, Fraction(3, 4) * X - Fraction(1, 2)))  # a 1/2 x term
@example((x - Fraction(1, 3) * y, x - Fraction(1, 3) * y))  # the difference is zero
def test_sum_and_difference_match_sympy(pair):
    a, b = pair
    names = TARGET[: a.arity]
    sa, sb = to_sympy(a, names), to_sympy(b, names)
    assert_matches(a + b, sa + sb, names)
    assert_matches(a - b, sa - sb, names)
    assert_matches(-a, -sa, names)


@settings(max_examples=60, deadline=None)
@given(arities.flatmap(polys), scalars)
@example(Fraction(2, 3) * x + Fraction(4, 9) * y, Fraction(3, 2))  # 3/2 cancels the 2
@example(Fraction(1, 6) * X * Y - Fraction(5, 6) * Z, 6)  # the denominator goes
@example(2 * x + 4 * y, Fraction(1, 2))
def test_scalar_product_matches_sympy(a, k):
    names = TARGET[: a.arity]
    expected = to_sympy(a, names) * to_sympy(k, names)
    assert_matches(a * k, expected, names)
    assert_matches(k * a, expected, names)


@st.composite
def relabellings(draw):
    """A polynomial and an exponent map e -> sum_k e[k] * images[k] into
    the target arity; it is substitution of the monomial x^images[k]
    for the k-th variable, so terms may merge and cancel."""
    source, target = draw(arities), draw(arities)
    f = draw(polys(source))
    vector = st.tuples(*[st.integers(min_value=0, max_value=2)] * target)
    images = tuple(draw(vector) for _ in range(source))
    return f, target, images


def _relabel(images, target):
    return lambda e: tuple(
        sum(ek * img[t] for ek, img in zip(e, images)) for t in range(target)
    )


@settings(max_examples=80, deadline=None)
@given(relabellings())
@example((x - y, 2, ((1, 0), (1, 0))))  # x - x: cancels to zero
@example((Fraction(1, 2) * x + Fraction(1, 2) * y, 2, ((0, 1), (0, 1))))  # 1/2 y + 1/2 y = y
@example((Fraction(1, 6) * X + Fraction(1, 3) * Y - Z, 2, ((1, 1), (1, 1), (0, 0))))
def test_map_exponents_matches_sympy(case):
    f, target, images = case
    names = TARGET[:target]
    monomials = [sympy.Mul(*[n**e for n, e in zip(names, img)]) for img in images]
    expr = to_sympy(f, SOURCE[: f.arity]).xreplace(dict(zip(SOURCE, monomials)))
    got = f.map_exponents(target, _relabel(images, target))
    assert got.arity == target
    assert_matches(got, expr, names)


@settings(max_examples=60, deadline=None)
@given(factor_pairs())
@example((Fraction(1, 2) * x + Fraction(1, 2) * y + Fraction(1, 3), 2 * x - 2 * y))
def test_coefficients_match_sympy(pair):
    a, b = pair
    names = TARGET[: a.arity]
    zero = (0,) * a.arity
    for p, expr in ((a, to_sympy(a, names)), (a * b, to_sympy(a, names) * to_sympy(b, names))):
        expected = from_sympy(expr, names)
        for exps in set(expected) | {zero, (1,) * a.arity}:
            got = p.coeff(exps)
            assert got == expected.get(exps, 0)
            assert type(got) is int or got.denominator != 1
        assert p.constant_term() == expected.get(zero, 0)


@settings(max_examples=40, deadline=None)
@given(arities.flatmap(lambda n: polys(n, max_exp=2, max_terms=3)), st.integers(0, 4))
# several denominators: the power clears their lcm once and divides by its
# fifth power at the end
@example(Fraction(1, 2) * X**2 - Fraction(2, 3) * Y * Z + Fraction(5, 6) * Z + 1, 5)
@example(Fraction(3, 4) * x + Fraction(1, 6) * y**2, 3)
@example(Polynomial.zero(2), 0)  # 0 ** 0 is the constant 1
@example(Polynomial.zero(3), 2)
def test_power_matches_sympy(a, n):
    names = TARGET[: a.arity]
    assert_matches(a**n, to_sympy(a, names) ** n, names)


def short_polys(arity, max_exp=4):
    # one or two terms: the bases whose powers are written in closed form
    exps = st.tuples(*[st.integers(min_value=0, max_value=max_exp)] * arity)
    nonzero = coeffs.filter(lambda c: c != 0)
    return st.dictionaries(exps, nonzero, min_size=1, max_size=2).map(
        lambda d: Polynomial(arity, d)
    )


@settings(max_examples=60, deadline=None)
@given(arities.flatmap(short_polys), st.integers(0, 12))
@example(x + 3, 12)  # one term constant
@example(Fraction(-2, 3) * Y**2 * Z - Fraction(5, 4), 7)
@example(-x * y**3, 5)
@example(Fraction(3, 2) * X * Z**2, 0)
@example(x - y, 1)
def test_short_power_matches_sympy(a, n):
    names = TARGET[: a.arity]
    assert_matches(a**n, to_sympy(a, names) ** n, names)


@st.composite
def short_substitutions(draw):
    source, target = draw(arities), draw(arities)
    f = draw(polys(source, max_exp=6))
    images = tuple(draw(st.one_of(scalars, short_polys(target))) for _ in range(source))
    return f, images


def _check_substitute(f, images):
    polys_in = [img for img in images if isinstance(img, Polynomial)]
    target = polys_in[0].arity if polys_in else f.arity
    names = TARGET[:target]
    expr = to_sympy(f, SOURCE[: f.arity]).xreplace(
        {s: to_sympy(img, names) for s, img in zip(SOURCE, images)}
    )
    got = f.substitute(images)
    assert got.arity == target
    assert_matches(got, expr, names)


@settings(max_examples=80, deadline=None)
@given(short_substitutions())
# a zero image, as a polynomial and as the scalar 0
@example((X**3 * Y**2 + Fraction(1, 2) * Z**4 + X, (Polynomial.zero(2), x - Fraction(2, 3) * y**2, 5)))
@example((x**5 * y + Fraction(1, 3) * y**2, (0, Fraction(-1, 2) * X**2 * Z)))
# a shear image and a monomial image, as in the wild witnesses
@example((x**6 * y**2 - 4 * x * y**7, (x + y**3, -2 * y)))
@example((X**4 * Y * Z**2 - Y**3, (Fraction(1, 2) * x**2 - 3, y - Fraction(2, 5) * x, y**2)))
def test_substitute_short_images_matches_sympy(case):
    _check_substitute(*case)


@settings(max_examples=80, deadline=None)
@given(substitutions())
# images of another arity: three variables into two
@example((X**2 * Z - Fraction(1, 2) * Y * Z**3, (x + y, Fraction(2, 3) * y, Fraction(1, 4))))
# the two terms cancel, the result is the zero polynomial
@example((Fraction(1, 2) * x + Fraction(1, 3) * y, (Fraction(2, 3) * y, -y)))
# scalar images only: the result keeps the source arity
@example((X * Y * Z + 3, (0, Fraction(5, 2), -1)))
@example((Polynomial.zero(3), (Fraction(1, 2) * x, y, 1)))  # zero stays zero
def test_substitute_matches_sympy(case):
    _check_substitute(*case)


nonzero_scalars = scalars.filter(lambda r: r != 0)


@st.composite
def plane_shears(draw):
    # (x + r*y^q, y) or (x, y + r*x^q); q = 0 is a translation
    s, q, r = draw(st.integers(0, 1)), draw(st.integers(0, 4)), draw(nonzero_scalars)
    images = [x, y]
    images[s] = images[s] + r * images[1 - s] ** q
    return tuple(images)


@settings(max_examples=80, deadline=None)
@given(polys(2, max_exp=5), plane_shears())
@example(Polynomial.zero(2), (x + Fraction(2, 3) * y**2, y))
@example(Fraction(1, 2) * x**3 * y - Fraction(1, 3) * y**2 + 1, (x, y - Fraction(3, 4) * x**2))
@example(x**4 - Fraction(5, 6) * x * y, (x + Fraction(-7, 2), y))  # a translation
@example(x**2 * y - y**3, (x, y + 2))  # terms merge: y^3 reappears from x^2*y
@example(y**2 - 2 * x, (x + Fraction(1, 2) * y**2, y))  # the y^2 terms cancel
def test_substitute_plane_shear_matches_sympy(f, images):
    assert _shear_of(images) is not None
    _check_substitute(f, images)


@st.composite
def long_shears(draw):
    """A plane polynomial of degree up to 40 in the sheared variable x_s,
    and the shear x_s -> x_s + (rn/rd)*x_o^q with rd >= 1 and either sign."""
    s, q = draw(st.integers(0, 1)), draw(st.integers(0, 3))
    rn = draw(st.integers(-9, 9).filter(bool))
    r = Fraction(rn, draw(st.integers(1, 7)))
    degrees = st.tuples(st.integers(0, 40), st.integers(0, 4))
    terms = draw(st.dictionaries(degrees, coeffs, min_size=1, max_size=4))
    f = Polynomial(2, {(i, j)[:: 1 - 2 * s]: c for (i, j), c in terms.items()})
    images = [x, y]
    images[s] = images[s] + r * images[1 - s] ** q
    return f, tuple(images)


@settings(max_examples=30, deadline=None)
@given(long_shears())
@example((x**40 - 3 * y, (x + Fraction(-5, 3) * y**2, y)))  # rn < 0, rd > 1
@example((y**40 * x + Fraction(1, 2) * y**7, (x, y - Fraction(7, 4))))  # q = 0
@example((x**37 * y**2 - x**36, (x - Fraction(2, 9) * y**3, y)))
@example((Fraction(3, 8) * y**40 - x**3 * y**39, (x, y + Fraction(4, 3) * x)))
def test_long_plane_shear_matches_sympy(case):
    f, images = case
    assert _shear_of(images) is not None
    _check_substitute(f, images)


def test_plane_shears_need_no_binomial_call(monkeypatch):
    # the rows of a shear come from the binomial recurrence, not comb
    f = Fraction(1, 3) * x**12 * y**2 - 5 * x**7 + y**9 - 2
    shears = [
        (x - Fraction(3, 5) * y**2, y),
        (x, y + Fraction(-7, 2) * x**3),
        (x + 4, y),
        (x, y - Fraction(1, 6)),
    ]

    def refuse(*args):
        raise AssertionError("comb called")

    monkeypatch.setattr(poly, "comb", refuse)
    for images in shears:
        assert _shear_of(images) is not None
        _check_substitute(f, images)
        _check_substitute(f.map_exponents(2, lambda e: (e[1], e[0])), images)


@st.composite
def near_shears(draw):
    """A plane shear with one change that sends ``substitute`` down its
    general path."""
    s, q, r = draw(st.integers(0, 1)), draw(st.integers(0, 3)), draw(nonzero_scalars)
    xs = [x, y]
    kind = draw(st.sampled_from(["scale", "involves", "second", "arity"]))
    if kind == "arity":
        xs = [X, Y]
    sheared, fixed = xs[s] + r * xs[1 - s] ** q, xs[1 - s]
    if kind == "scale":  # x_s keeps a coefficient other than 1, or none
        sheared += draw(st.sampled_from([-2, -1, 1, Fraction(1, 3)])) * xs[s]
    elif kind == "involves":  # the addend holds the sheared variable
        a, b = draw(st.sampled_from([(2, 0), (1, 1), (2, 1), (1, 2)]))
        sheared += draw(nonzero_scalars) * xs[s] ** a * xs[1 - s] ** b
    elif kind == "second":  # the other image is scaled or translated
        k = draw(st.sampled_from([-1, 2, Fraction(1, 2)]))
        fixed = k * fixed if draw(st.booleans()) else fixed + draw(nonzero_scalars)
    images = [sheared, fixed] if s == 0 else [fixed, sheared]
    return tuple(images)


@settings(max_examples=80, deadline=None)
@given(polys(2, max_exp=5), near_shears())
@example(x**3 + y, (2 * x + y**2, y))  # scale 2 on the sheared variable
@example(x**2 * y, (x + x * y, y))  # the addend involves x
@example(x * y**2 - y, (x + y, 3 * y))  # the second image is scaled
@example(Fraction(1, 2) * x * y, (x, y + x + 1))  # a two-term addend
@example(x**2 - y**2, (x + y**2, y + 1))  # a translated second image
@example(x * y + 1, (X + Y**2, Y))  # arity-3 images of a plane polynomial
def test_substitute_near_shear_matches_sympy(f, images):
    assert _shear_of(images) is None
    _check_substitute(f, images)


@settings(max_examples=60, deadline=None)
@given(arities.flatmap(lambda n: st.tuples(polys(n), st.integers(0, n - 1))))
@example((X**3 * Y - Fraction(1, 3) * X * Z**2 + 7, 0))  # a 1/3 times 3 turns whole
@example((Fraction(1, 2) * x * y + y, 1))
@example((Fraction(5, 4) * Y, 0))  # free of the variable: the zero polynomial
# plane cases where c*e shares a factor with the denominator
@example((Fraction(1, 6) * x**3 + Fraction(1, 2) * x * y**2, 0))  # over 6, then 2
@example((Fraction(1, 4) * x * y**2 + Fraction(1, 2) * y**4, 1))  # over 4, then 2
@example((Fraction(1, 2) * y**2 + Fraction(1, 4) * x * y**4, 1))  # turns whole
@example((Fraction(2, 3) * x**3 * y - Fraction(1, 3) * y**5 + x, 0))  # e = 3: whole
# the unrolled three-variable cases, one per index
@example((Fraction(1, 6) * X**3 * Z + Fraction(1, 2) * Y**2 * Z - X, 1))  # turns whole
@example((X * Y**3 * Z**2 - Fraction(2, 3) * Y + Z, 1))
@example((Fraction(1, 4) * X * Z**2 + Fraction(1, 2) * Y * Z**4 - 3 * Z, 2))  # over 2
@example((X**2 * Y + Fraction(5, 7) * Y * Z**3 - Z, 2))
@example((Polynomial(1, {(3,): Fraction(1, 3), (1,): 2}), 0))  # one variable: the generic path
def test_partial_matches_sympy(case):
    f, index = case
    names = TARGET[: f.arity]
    assert_matches(f.partial(index), sympy.diff(to_sympy(f, names), names[index]), names)


@st.composite
def variable_splits(draw):
    # a random polynomial plus a drawn multiple (maybe 0) of x_index, so
    # the x_index term is present in most cases and cancels in some
    arity = draw(arities)
    index = draw(st.integers(0, arity - 1))
    p = draw(polys(arity)) + draw(scalars) * Polynomial.variables(arity)[index]
    return p, index


@settings(max_examples=80, deadline=None)
@given(variable_splits())
@example((Fraction(1, 2) * x + Fraction(1, 3) * y, 0))  # rest keeps a denominator
@example((Fraction(2, 3) * X + 2 * Y * Z - 1, 0))  # the denominator leaves with x
@example((x * y + x**2 + 3, 0))  # terms holding x are not the x term
@example((Fraction(-5, 4) * Z, 2))  # rest is zero
@example((Polynomial.zero(2), 1))
def test_split_variable_matches_sympy(case):
    p, index = case
    names = TARGET[: p.arity]
    scale, rest = p.split_variable(index)
    assert scale * Polynomial.variables(p.arity)[index] + rest == p
    unit = tuple(1 if k == index else 0 for k in range(p.arity))
    assert unit not in rest.terms
    assert_canonical(rest)
    assert type(scale) is int or scale.denominator != 1
    expected = sympy.Poly(to_sympy(p, names), *names).coeff_monomial(names[index])
    assert scale == Fraction(int(expected.p), int(expected.q))


@settings(max_examples=40, deadline=None)
@given(arities.flatmap(lambda n: st.lists(polys(n, max_exp=2, max_terms=3), min_size=n, max_size=n)))
@example([x + y**2, y])  # a shear: determinant 1
@example([X * Y, Fraction(1, 2) * Y * Z, X + Z])
@example([x + y, 2 * x + 2 * y])  # dependent rows: determinant 0
def test_jacobian_det_matches_sympy(coords):
    names = TARGET[: len(coords)]
    matrix = sympy.Matrix([to_sympy(c, names) for c in coords]).jacobian(names)
    assert_matches(jacobian_det(PolynomialMap(coords)), matrix.det(), names)


class Half(Fraction):
    """A Fraction subclass, as a caller's own number type might be."""


class Count(int):
    pass


def test_subclass_coefficients_are_stored_exactly():
    p = Polynomial(2, {(1, 0): Half(1, 2), (0, 1): Half(4, 2), (0, 0): Count(3)})
    assert type(p.terms[(1, 0)]) is Fraction
    assert type(p.terms[(0, 1)]) is int
    assert type(p.terms[(0, 0)]) is int
    assert p == Fraction(1, 2) * x + 2 * y + 3
    assert p * p == (Fraction(1, 2) * x + 2 * y + 3) ** 2
    assert p * Half(2, 3) == Fraction(1, 3) * x + Fraction(4, 3) * y + 2
    assert p.substitute((Half(1, 3) * y, Half(3, 5))) == Fraction(1, 6) * y + Fraction(21, 5)
    with pytest.raises(TypeError):
        Polynomial(2, {(1, 0): True})
    with pytest.raises(TypeError):
        x.substitute((False, y))


def _dict_shear_of(images):
    # the shear test as it was written with a dict built per call, the
    # oracle for the one that compares module constants
    if len(images) != 2:
        return None
    a, b = images
    if type(a) is Polynomial and type(b) is Polynomial and a.arity == b.arity == 2:
        for s, unit, other in ((0, (1, 0), (0, 1)), (1, (0, 1), (1, 0))):
            img, fixed = images[s], images[1 - s]
            num = img._num
            if (len(num) == 2 and num.get(unit) == img._den
                    and fixed._den == 1 and fixed._num == {other: 1}):
                ((e, rn),) = [(e, c) for e, c in num.items() if e != unit]
                if not e[s]:
                    return s, e[1 - s], rn, img._den
    return None


plane_images = st.one_of(
    polys(2, max_exp=2, max_terms=3),
    st.sampled_from([x, y, -x, 2 * y, x + 1, y - Fraction(1, 2), X, Y, 1, Fraction(1, 3)]),
    plane_shears().map(lambda images: images[0] if images[0] != x else images[1]),
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.tuples(plane_images, plane_images), plane_shears(), near_shears()))
@example((x, y))  # the identity
@example((x + 3, y))  # a translation of x
@example((x, y - Fraction(2, 3)))  # a translation of y
@example((y, x))  # the swap
@example((x + y, y + x))
@example((Fraction(1, 2) * x + y**2, y))  # x over a denominator
@example((x + Fraction(1, 2) * y**2, y))
def test_shear_of_matches_the_dict_oracle(images):
    assert _shear_of(images) == _dict_shear_of(images)
    assert _shear_of(images + (y,)) is None


@st.composite
def linear_polys(draw, arity):
    """c_0 + sum c_k*x_k with some coefficients zero: constant and zero
    polynomials included."""
    terms = {(0,) * arity: draw(st.one_of(st.just(0), coeffs))}
    for unit in poly._units(arity):
        terms[unit] = draw(st.one_of(st.just(0), coeffs))
    return Polynomial(arity, terms)


@st.composite
def linear_substitutions(draw):
    source, target = draw(arities), draw(arities)
    f = draw(linear_polys(source))
    return f, tuple(draw(polys(target, max_exp=3, max_terms=4)) for _ in range(source))


@settings(max_examples=120, deadline=None)
@given(linear_substitutions())
@example((X, (x**2, Fraction(1, 2) * y, x)))  # a variable: its image itself
@example((Fraction(2, 3) * x + Fraction(1, 6), (Fraction(3, 4) * Y - Z, Fraction(1, 2) * X)))
@example((x - y, (X + Fraction(1, 2) * Y, X + Fraction(1, 2) * Y)))  # cancels to zero
@example((Polynomial.zero(3), (x, y, x * y)))
@example((Polynomial.constant(2, Fraction(-5, 7)), (X * Y, Z)))  # a constant, new arity
@example((2 * x + 3 * y, (Fraction(1, 3) * x, Fraction(1, 2) * y)))  # the 6 cancels
def test_linear_substitute_matches_the_general_path_and_sympy(case):
    f, images = case
    assert f._linear_image(images) is not None
    _check_substitute(f, images)
    got = f.substitute(images)
    with mock.patch.object(Polynomial, "_linear_image", lambda self, images: None):
        assert f.substitute(images) == got


@pytest.mark.parametrize(
    "f, images",
    [
        (x + 2, (Fraction(1, 2), y)),  # a scalar image
        (Fraction(1, 3) * X - Y, (0, 1, 2)),  # scalar images only
        (x * y, (x + 1, y)),  # degree 2
        (y, (x**2 * y, X)),  # mixed image arities
    ],
)
def test_linear_substitute_leaves_other_inputs_to_the_general_path(f, images):
    assert f._linear_image(images) is None
    if len({img.arity for img in images if isinstance(img, Polynomial)}) > 1:
        with pytest.raises(ArityMismatch, match="mixed arities"):
            f.substitute(images)
    else:
        _check_substitute(f, images)


def test_linear_substitute_keeps_the_image_count_check():
    with pytest.raises(ArityMismatch, match="need 3 images, got 2"):
        (X + 1).substitute((x, y))
