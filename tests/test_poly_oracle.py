"""The polynomial kernels checked against sympy.

sympy is only a test dependency: it serves as an independent exact
oracle for sums, differences, scalar and polynomial products, powers,
``substitute``, ``map_exponents``, ``partial``, ``jacobian_det`` and the
coefficient readers.  Every result must also be in normal form: integer
numerators, none zero, over a positive denominator that shares no factor
with all of them.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from tamekit.maps import PolynomialMap, jacobian_det
from tamekit.poly import Polynomial

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
    f, images = case
    polys_in = [img for img in images if isinstance(img, Polynomial)]
    target = polys_in[0].arity if polys_in else f.arity
    names = TARGET[:target]
    expr = to_sympy(f, SOURCE[: f.arity]).xreplace(
        {s: to_sympy(img, names) for s, img in zip(SOURCE, images)}
    )
    got = f.substitute(images)
    assert got.arity == target
    assert_matches(got, expr, names)


@settings(max_examples=60, deadline=None)
@given(arities.flatmap(lambda n: st.tuples(polys(n), st.integers(0, n - 1))))
@example((X**3 * Y - Fraction(1, 3) * X * Z**2 + 7, 0))  # a 1/3 times 3 turns whole
@example((Fraction(1, 2) * x * y + y, 1))
@example((Fraction(5, 4) * Y, 0))  # free of the variable: the zero polynomial
def test_partial_matches_sympy(case):
    f, index = case
    names = TARGET[: f.arity]
    assert_matches(f.partial(index), sympy.diff(to_sympy(f, names), names[index]), names)


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
