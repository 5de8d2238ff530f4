"""Gradings: degrees, homogeneity, normalization, threshold exponents."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from tamekit.errors import (
    ArityMismatch,
    GcdPrecondition,
    NotHomogeneous,
    ZeroPolynomial,
)
from tamekit.grading import (
    Grading,
    NormalizedGrading,
    ResidueGrading,
    l_hat,
    normalize_weights,
    plane_residue_grading,
    q_hat,
)
from tamekit.maps import PolynomialMap, compose, identity_map, perm_map
from tamekit.poly import Polynomial

x, y = Polynomial.variables(2)
X, Y, Z = Polynomial.variables(3)


def test_weighted_degree_and_top():
    g = Grading((2, 1, -3))
    f = X * Z + Y**2 + X
    # weights: xz -> -1, y^2 -> 2, x -> 2
    assert g.degree(f) == 2
    assert g.top_component(f) == Y**2 + X
    with pytest.raises(ZeroPolynomial):
        g.degree(Polynomial.zero(3))


def test_homogeneity():
    g = Grading((2, 1, -3))
    assert g.is_homogeneous(Y**2 + X)
    assert not g.is_homogeneous(X + Z)
    assert g.is_homogeneous(Polynomial.zero(3))
    assert g.homogeneous_degree(X * Y) == 3
    with pytest.raises(NotHomogeneous):
        g.homogeneous_degree(X + Z)


def test_graded_map_check():
    g = Grading((2, 1, -3))
    m = PolynomialMap((X + Y**2, Y, Z))
    assert g.is_graded_map(m)
    assert not g.is_graded_map(PolynomialMap((X + Y, Y, Z)))
    # nonzero constant coordinate needs weight zero
    zero_last = Grading((1, 1, 0))
    assert zero_last.is_graded_map(PolynomialMap((X, Y, Z + 1)))
    assert not g.is_graded_map(PolynomialMap((X, Y, Z + 1)))


def test_residue_grading_basics():
    g = ResidueGrading((7, 2), 3)
    assert g.weights == (1, 2)
    assert g.weight((1, 1)) == 0
    assert g.is_homogeneous(x + y**2)
    assert g.homogeneous_degree(x + y**2) == 1
    assert not g.is_homogeneous(x + y)
    assert plane_residue_grading(5, 2, 3) == ResidueGrading((2, 2), 3)


def test_residue_graded_map():
    g = ResidueGrading((1, 2), 3)
    # u + v^2 has residues 1 and 1; v stays residue 2
    m = PolynomialMap((x + y**2, y))
    assert g.is_graded_map(m)
    assert not g.is_graded_map(PolynomialMap((x + y, y)))


def test_exact_and_residue_gradings_stay_distinct():
    exact, residue = Grading((1, 2)), ResidueGrading((1, 2), 3)
    assert exact != residue and residue != exact
    assert len({exact, residue}) == 2


def test_grading_is_never_equal_to_a_non_grading():
    assert Grading((1, 2)).__eq__("x") is NotImplemented
    assert Grading((1, 2)) != "x"


def test_residue_grading_equality_reads_reduced_weights():
    assert ResidueGrading((4, 2), 3) == ResidueGrading((1, 2), 3)
    assert hash(ResidueGrading((4, 2), 3)) == hash(ResidueGrading((1, 2), 3))
    assert ResidueGrading((1, 2), 3) != ResidueGrading((1, 2), 4)


def test_residue_homogeneous_degree_errors():
    g = ResidueGrading((1, 2), 3)
    with pytest.raises(ZeroPolynomial):
        g.homogeneous_degree(Polynomial.zero(2))
    with pytest.raises(NotHomogeneous):
        g.homogeneous_degree(x + y)
    with pytest.raises(ArityMismatch):
        g.homogeneous_degree(X)


@pytest.mark.parametrize("g", [Grading((1, 2)), ResidueGrading((1, 2), 3)])
def test_graded_map_check_refuses_other_arity(g):
    with pytest.raises(ArityMismatch):
        g.is_graded_map(PolynomialMap((X, Y, Z)))


def test_normalize_divides_and_swaps():
    n = normalize_weights((2, 4, -6))
    assert n.weights == (2, 1, -3)
    assert n.divisor == 2
    assert n.permutation == (1, 0, 2)
    assert n.flipped is False


def test_normalize_flips_majority_negative():
    n = normalize_weights((-1, -2, -3))
    assert n.weights == (3, 2, 1)
    assert n.flipped is True
    assert n.permutation == (2, 1, 0)


def test_normalize_zero_patterns():
    assert normalize_weights((0, 0, 0)).weights == (0, 0, 0)
    assert normalize_weights((0, 0, -5)).weights == (1, 0, 0)
    assert normalize_weights((2, 0, 3)).weights == (3, 2, 0)
    assert normalize_weights((4, 2, 0)).weights == (2, 1, 0)
    assert normalize_weights((2, 2, 0)).weights == (1, 1, 0)
    assert normalize_weights((3, 0, -2)).weights == (3, 0, -2)


def test_normalize_tie_keeps_sign():
    # one positive, one negative: no flip
    n = normalize_weights((0, 5, -3))
    assert n.weights == (5, 0, -3)
    assert n.flipped is False


def test_normalize_records_replayable_recipe():
    for w in [(2, 4, -6), (-1, -2, -3), (0, 3, 1), (7, 2, -3), (5, -10, 15)]:
        n = normalize_weights(w)
        sign = -1 if n.flipped else 1
        replay = tuple(sign * n.original[p] // n.divisor for p in n.permutation)
        assert replay == n.weights
        again = normalize_weights(n.weights)
        assert again.weights == n.weights  # idempotent on canonical input


def test_conjugation_preserves_gradedness():
    n = normalize_weights((2, 4, -6))  # normalized (2, 1, -3), swap of x and y
    # graded for the original weights (2, 4, -6): y picks up x^2
    m = PolynomialMap((X, Y + X**2, Z))
    assert Grading(n.original).is_graded_map(m)
    moved = n.to_normalized(m)
    assert Grading(n.weights).is_graded_map(moved)
    assert moved == PolynomialMap((X + Y**2, Y, Z))
    assert n.to_original(moved) == m


def test_conjugation_round_trip_is_identity():
    n = normalize_weights((0, 3, 1))
    m = PolynomialMap((X + 1, Y * Z, X**2))
    assert n.to_original(n.to_normalized(m)) == m


def test_conjugation_matches_permutation_oracle():
    # every ordering of (2, 1, -3) normalizes back to it, and together the
    # orderings need all six permutations; each conjugation must agree
    # with literal composition by the permutation maps
    m = PolynomialMap(
        (X * Y**2 + 3 * Z - 1, Y + X**2 * Z**3, Fraction(1, 2) * X * Z + Y**4 * Z)
    )
    seen = set()
    for w in permutations((2, 1, -3)):
        n = normalize_weights(w)
        assert n.weights == (2, 1, -3)
        p = n.permutation
        p_inv = tuple(p.index(i) for i in range(3))
        r, r_inv = perm_map(p), perm_map(p_inv)
        assert n.to_normalized(m) == compose(r, compose(m, r_inv))
        assert n.to_original(m) == compose(r_inv, compose(m, r))
        seen.add(p)
    assert seen == set(permutations(range(3)))


@pytest.mark.parametrize("w", [(7, 2, -3), (2, 1, -3), (3, 2, 1), (1, 1, 0)])
def test_identity_conjugation_matches_permutation_oracle(w):
    # canonical weights need no permutation: both directions return the
    # map itself, which is what composing with the identity gives
    n = normalize_weights(w)
    assert n.permutation == (0, 1, 2)
    m = PolynomialMap((X * Y**2 + 3 * Z - 1, Y + X**2 * Z**3, Fraction(1, 2) * X * Z))
    r = perm_map(n.permutation)
    assert n.to_normalized(m) == compose(r, compose(m, r)) == m
    assert n.to_original(m) == compose(r, compose(m, r)) == m
    assert n.to_normalized(m) is m and n.to_original(m) is m
    with pytest.raises(ArityMismatch):
        n.to_normalized(PolynomialMap((x, y)))


def test_q_hat_values():
    assert q_hat(7, 2, 3) == 2
    assert q_hat(3, 2, 5) == -1
    assert q_hat(5, 2, 3) == 1
    assert q_hat(9, 2, 1) == 4  # c = 1 collapses to the floor bound
    with pytest.raises(GcdPrecondition):
        q_hat(5, 2, 4)


def test_q_hat_is_the_maximum_solution():
    for a, b, c in [(7, 2, 3), (5, 2, 3), (11, 3, 4), (9, 2, 1), (3, 2, 5)]:
        q = q_hat(a, b, c)
        assert (b * q - a) % c == 0
        assert b * q < a
        assert b * (q + c) >= a  # next solution up is out of range


def test_l_hat_values():
    assert l_hat(7, 2, 3) == 2
    assert l_hat(5, 2, 3) == 1
    assert l_hat(5, 1, 2) == 1
    assert l_hat(4, 7, 1) == 1
    with pytest.raises(GcdPrecondition):
        l_hat(6, 5, 3)


def test_l_hat_is_the_minimum_solution():
    for a, b, c in [(7, 2, 3), (5, 2, 3), (5, 1, 2), (3, 5, 7)]:
        l = l_hat(a, b, c)
        assert 1 <= l <= c
        assert (a * l - b) % c == 0
        for smaller in range(1, l):
            assert (a * smaller - b) % c != 0


def test_weight_length_guards():
    with pytest.raises(ArityMismatch):
        normalize_weights((1, 2))
    with pytest.raises(ArityMismatch):
        Grading((1, 2)).degree(Polynomial.variable(3, 0))


# ---------------------------------------------------------------------------
# property tests

weight_triples = st.tuples(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-9, max_value=9),
)


@settings(max_examples=120, deadline=None)
@given(weight_triples)
def test_normalize_shape_invariants(w):
    n = normalize_weights(w)
    a, b, c = n.weights
    negs = [v for v in n.weights if v < 0]
    assert len(negs) <= 1
    if negs:
        assert c < 0 and a >= b >= 0
    else:
        assert a >= b >= c >= 0
    nonzero = [abs(v) for v in n.weights if v]
    if nonzero:
        g = nonzero[0]
        for v in nonzero[1:]:
            g = __import__("math").gcd(g, v)
        assert g == 1
    sign = -1 if n.flipped else 1
    assert n.weights == tuple(sign * n.original[p] // n.divisor for p in n.permutation)
    again = normalize_weights(n.weights)
    assert again.weights == n.weights


@settings(max_examples=60, deadline=None)
@given(weight_triples)
def test_conjugation_is_inverse_pair(w):
    n = normalize_weights(w)
    m = PolynomialMap((X * Y, Y + Z**2, X + 1))
    assert n.to_original(n.to_normalized(m)) == m
    assert n.to_normalized(n.to_original(m)) == m


def _two_pass_is_graded_map(g, m):
    # the oracle: homogeneity first, then the degree of each coordinate
    for i, c in enumerate(m.coords):
        if c.is_zero():
            continue
        if not g.is_homogeneous(c):
            return False
        deg = g.degree(c) if isinstance(g, Grading) else g.homogeneous_degree(c)
        if deg != g.weights[i]:
            return False
    return True


coefficients = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-2, max_value=2, max_denominator=5),
)


@st.composite
def gradings_and_maps(draw):
    arity = draw(st.sampled_from([2, 3]))
    weights = draw(st.tuples(*[st.integers(min_value=-4, max_value=4)] * arity))
    if draw(st.booleans()):
        g = Grading(weights)
    else:
        g = ResidueGrading(weights, draw(st.integers(min_value=1, max_value=6)))
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * arity)
    coords = []
    for want in g.weights:
        terms = draw(st.dictionaries(exps, coefficients, max_size=4))
        if draw(st.booleans()):
            # keep only the terms of the coordinate's weight, so that
            # graded maps (zero and constant coordinates included) occur
            terms = {e: c for e, c in terms.items() if g.weight(e) == want}
        coords.append(Polynomial(arity, terms))
    return g, PolynomialMap(coords)


@settings(max_examples=300, deadline=None)
@given(gradings_and_maps())
@example((Grading((2, 1, -3)), PolynomialMap((X + Y**2, Y, Polynomial.zero(3)))))
@example((Grading((1, 1, 0)), PolynomialMap((X, Y, Z + Fraction(1, 2)))))
@example((Grading((-2, 1, 0)), PolynomialMap((Fraction(2, 3) * X, Y + 1, Z))))
@example((ResidueGrading((1, 2), 3), PolynomialMap((x + y**2, Polynomial.constant(2, 5)))))
@example((ResidueGrading((-1, 2), 3), PolynomialMap((y**2 + Fraction(1, 3) * x**2 * y, y))))
def test_one_pass_graded_map_check_matches_two_pass_oracle(case):
    g, m = case
    assert g.is_graded_map(m) == _two_pass_is_graded_map(g, m)
