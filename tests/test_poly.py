"""Polynomial core: canonical form, ring ops, substitution, derivatives."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from tamekit.errors import ArityMismatch, ConstantPolynomial, ZeroPolynomial
from tamekit.poly import Polynomial

x, y = Polynomial.variables(2)
X, Y, Z = Polynomial.variables(3)


def test_zero_terms_dropped():
    p = Polynomial(2, {(1, 0): 1, (0, 1): 0})
    assert p.terms == {(1, 0): 1}
    assert p == x


def test_fraction_collapse_to_int():
    p = Polynomial(2, {(1, 0): Fraction(4, 2)})
    assert p.terms[(1, 0)] == 2
    assert isinstance(p.terms[(1, 0)], int)


def test_fraction_kept_when_needed():
    p = Polynomial(2, {(1, 0): Fraction(1, 2)})
    assert p.terms[(1, 0)] == Fraction(1, 2)


@pytest.mark.parametrize("p", [x, Fraction(1, 6) * x], ids=["denominator-1", "denominator-6"])
def test_terms_are_read_only(p):
    before = dict(p.terms)
    with pytest.raises(TypeError):
        p.terms[(0, 3)] = 5
    assert dict(p.terms) == before
    assert dict(Polynomial.variables(2)[0].terms) == {(1, 0): 1}


def test_float_rejected():
    with pytest.raises(TypeError):
        Polynomial(2, {(1, 0): 0.5})


def test_arity_mismatch_on_add():
    with pytest.raises(ArityMismatch):
        x + X


def test_square_expansion():
    f = y**2 - x
    assert f * f == y**4 - 2 * x * y**2 + x**2


def test_pow_zero_is_one():
    assert (y**2 - x) ** 0 == Polynomial.constant(2, 1)


@pytest.mark.parametrize("exponent", [-1, 2.0])
def test_pow_refuses_a_negative_or_non_int_exponent(exponent):
    # the same typed error the constructor raises for a negative exponent
    with pytest.raises(ArityMismatch):
        x**exponent


def test_scalar_arithmetic():
    assert 2 * x + 1 - x == x + 1
    assert Fraction(1, 2) * (2 * x) == x
    assert (3 - x) + (x - 3) == Polynomial.zero(2)


def test_substitute_basic():
    f = y**2 - x
    assert f.substitute((x + y**2, y)) == -x


def test_substitute_scalar_images():
    f = x * y + 1
    assert f.substitute((2, 3)).constant_value() == 7


def test_substitute_mixed_arity_images():
    # three-variable polynomial evaluated on the plane z = 1
    f = X**2 * Z + Y * Z**2
    g = f.substitute((x, y, 1))
    assert g == x**2 + y


def test_substitute_preserves_nagata_invariant():
    w = X**2 - Y * Z
    sigma = (X + w * Z, Y + 2 * w * X + w**2 * Z, Z)
    assert w.substitute(sigma) == w


def test_partial_derivatives():
    f = X**2 * Y + 3 * Z
    assert f.partial(0) == 2 * X * Y
    assert f.partial(1) == X**2
    assert f.partial(2) == Polynomial.constant(3, 3)


def test_degrees():
    f = x * y**3 + x**2
    assert f.total_degree() == 4
    assert f.degree_in(0) == 2
    assert f.degree_in(1) == 3
    with pytest.raises(ZeroPolynomial):
        Polynomial.zero(2).total_degree()


def test_constant_value_guard():
    with pytest.raises(ConstantPolynomial):
        x.constant_value()
    assert Polynomial.constant(2, 5).constant_value() == 5
    assert Polynomial.zero(2).constant_value() == 0


def test_render_graded_lex():
    f = y**2 - x + 1
    assert f.render() == "y^2 - x + 1"
    g = x + y**3 + x * y
    assert g.render() == "y^3 + x*y + x"


def test_render_coefficients():
    f = -(x**2) + Fraction(3, 4) * y - 1
    assert f.render() == "-x^2 + 3/4*y - 1"
    assert Polynomial.zero(2).render() == "0"
    # mixed denominators over one common one render in lowest terms
    assert (Fraction(1, 6) * x - Fraction(1, 2) * y + 1).render() == "1/6*x - 1/2*y + 1"


def test_bool_is_not_a_scalar_to_compare_with():
    assert (Polynomial.constant(2, 1) == True) is False
    assert (Polynomial.constant(2, 1) != True) is True
    assert (Polynomial.zero(2) == False) is False


def test_non_scalar_operands_are_not_implemented():
    assert x.__add__("a") is NotImplemented
    assert x.__mul__("a") is NotImplemented
    with pytest.raises(TypeError):
        x + "a"
    with pytest.raises(TypeError):
        x * "a"


def test_constants_hash_like_their_scalars():
    for value in (3, -1, 0, Fraction(1, 2), Fraction(-7, 3)):
        c = Polynomial.constant(2, value)
        assert c == value
        assert hash(c) == hash(value)
        assert c in {value}
        assert value in {c}
    assert len({Polynomial.constant(3, 3), 3, Fraction(6, 2)}) == 1
    assert Polynomial.constant(2, 3) != x


# ---------------------------------------------------------------------------
# property tests

def test_map_exponents_merges_and_cancels():
    half = Fraction(1, 2)
    f = half * X * Z + half * X + Y * Z - Y
    g = f.map_exponents(2, lambda e: e[:2])
    assert g == x
    assert isinstance(g.terms[(1, 0)], int)  # 1/2 + 1/2 collapses to int
    assert (X - X * Z).map_exponents(2, lambda e: e[:2]).is_zero()


coeffs = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)


def polys(arity, max_exp=4, max_terms=5):
    exps = st.tuples(*[st.integers(min_value=0, max_value=max_exp)] * arity)
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(
        lambda d: Polynomial(arity, d)
    )


@settings(max_examples=60, deadline=None)
@given(polys(2), polys(2), polys(2))
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Polynomial.zero(2) == a
    assert a * Polynomial.constant(2, 1) == a
    assert a - a == Polynomial.zero(2)


@settings(max_examples=40, deadline=None)
@given(polys(2), polys(2), polys(2, max_exp=2, max_terms=3), polys(2, max_exp=2, max_terms=3))
def test_substitution_is_a_ring_map(a, b, img0, img1):
    images = (img0, img1)
    assert (a + b).substitute(images) == a.substitute(images) + b.substitute(images)
    assert (a * b).substitute(images) == a.substitute(images) * b.substitute(images)


@settings(max_examples=60, deadline=None)
@given(polys(2), polys(2))
def test_leibniz_rule(a, b):
    for i in range(2):
        assert (a * b).partial(i) == a.partial(i) * b + a * b.partial(i)


@settings(max_examples=60, deadline=None)
@given(polys(2), polys(2))
def test_degree_additivity_over_field(a, b):
    # over Q leading terms cannot cancel, so degrees add exactly
    if a.is_zero() or b.is_zero():
        assert (a * b).is_zero()
    else:
        assert (a * b).total_degree() == a.total_degree() + b.total_degree()


@settings(max_examples=60, deadline=None)
@given(polys(2))
def test_identity_substitution(a):
    assert a.substitute(Polynomial.variables(2)) == a


@settings(max_examples=40, deadline=None)
@given(polys(2))
def test_render_is_stable_under_rebuild(a):
    assert Polynomial(a.arity, dict(a.terms)) == a
    assert hash(Polynomial(a.arity, dict(a.terms))) == hash(a)


@settings(max_examples=40, deadline=None)
@given(polys(3))
def test_map_exponents_matches_substitution(a):
    # relabelling exponents is substitution by variables (or by 1)
    for p in permutations(range(3)):
        images = tuple(Polynomial.variable(3, p.index(i)) for i in range(3))
        moved = a.map_exponents(3, lambda e: (e[p[0]], e[p[1]], e[p[2]]))
        assert moved == a.substitute(images)
    restricted = a.map_exponents(2, lambda e: e[:2])
    assert restricted == a.substitute((x, y, 1))
    assert Polynomial(2, dict(restricted.terms)).terms == restricted.terms


def _accumulated(p, arity, fn):
    # the reference: add each moved term in turn, through the public view
    acc = {}
    for exps, c in p.terms.items():
        acc[fn(exps)] = acc.get(fn(exps), 0) + c
    return Polynomial(arity, acc)


RELABELLINGS = {
    "permutation": (3, lambda e: (e[2], e[0], e[1])),
    "weight lift": (3, lambda e: (e[0], e[1], e[2] + 2 * e[0] + e[1])),
    "restriction": (2, lambda e: e[:2]),
    "fold z into x": (2, lambda e: (e[0] + e[2], e[1])),
}


@settings(max_examples=60, deadline=None)
@given(polys(3), polys(2), st.sampled_from(sorted(RELABELLINGS)))
def test_map_exponents_matches_the_accumulate_loop(a, b, name):
    arity, fn = RELABELLINGS[name]
    # b*(z - 1) collides term by term under the restriction and cancels
    lifted = b.substitute((X, Y))
    for p in (a, lifted * (Z - 1), a + lifted * (Z - 1)):
        assert p.map_exponents(arity, fn) == _accumulated(p, arity, fn)
    assert (lifted * (Z - 1)).map_exponents(2, lambda e: e[:2]).is_zero()
