"""Map layer: composition, Jacobians, taxonomy, factor chains."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tamekit.errors import ArityMismatch, EmptySequence, WrongShape, ZeroPolynomial
from tamekit.maps import (
    ElementaryDetail,
    FactorChain,
    MapClass,
    PolynomialMap,
    _affine_matrix,
    classify_map,
    compose,
    compose_chain,
    constant_jacobian,
    elementary_detail,
    identity_map,
    invert_factor,
    is_triangular,
    jacobian_det,
    map_from_matrix,
    matrix_det,
    matrix_inverse,
    matrix_product,
    perm_map,
    plane_swap,
    verify_inverse_pair,
)
from tamekit.poly import Polynomial
from tamekit.space import decompose_positive

x, y = Polynomial.variables(2)
X, Y, Z = Polynomial.variables(3)


def literal_inverse_pair(m, inv):
    """The oracle for verify_inverse_pair: compose both ways, literally."""
    ident = identity_map(m.arity)
    return compose(m, inv) == ident and compose(inv, m) == ident


def test_compose_order():
    f = PolynomialMap((x + y**2, y))
    g = PolynomialMap((2 * x, y))
    assert compose(f, g) == PolynomialMap((2 * x + y**2, y))
    assert compose(g, f) == PolynomialMap((2 * x + 2 * y**2, y))


def test_compose_chain_left_fold():
    f = PolynomialMap((x + y, y))
    g = PolynomialMap((x, y + 1))
    h = PolynomialMap((2 * x, y))
    assert compose_chain((f, g, h)) == compose(compose(f, g), h)
    with pytest.raises(EmptySequence):
        compose_chain(())


def test_self_inverse_plane_map():
    f = PolynomialMap((y**2 - x, y))
    assert verify_inverse_pair(f, f)


def test_jacobian_det_plane():
    f = PolynomialMap((x + y**2, y + x**2))
    assert jacobian_det(f) == 1 - 4 * x * y
    assert constant_jacobian(f) is None
    g = PolynomialMap((x + y**2, y))
    assert constant_jacobian(g) == 1


def test_nagata_is_an_inverse_pair():
    w = X**2 - Y * Z
    sigma = PolynomialMap((X + w * Z, Y + 2 * w * X + w**2 * Z, Z))
    inv = PolynomialMap((X - w * Z, Y - 2 * w * X + w**2 * Z, Z))
    assert verify_inverse_pair(sigma, inv)
    assert constant_jacobian(sigma) == 1


def test_perm_map_orientation():
    m = perm_map((1, 2, 0))
    assert m.coords == (Y, Z, X)
    assert plane_swap() == PolynomialMap((y, x))


def test_apply_pulls_back():
    sigma = PolynomialMap((X + (X**2 - Y * Z) * Z, Y + 2 * (X**2 - Y * Z) * X + (X**2 - Y * Z) ** 2 * Z, Z))
    w = X**2 - Y * Z
    assert w.substitute(sigma.coords) == w


def test_classification_priority():
    assert classify_map(identity_map(2)) is MapClass.IDENTITY
    assert classify_map(plane_swap()) is MapClass.LINEAR
    assert classify_map(PolynomialMap((2 * x + 1, y))) is MapClass.AFFINE
    assert classify_map(PolynomialMap((x + y**3, y))) is MapClass.ELEMENTARY
    assert classify_map(PolynomialMap((2 * x + y**2, 3 * y + 1))) is MapClass.TRIANGULAR
    assert classify_map(PolynomialMap((x + y**2, y + x**2))) is MapClass.GENERAL


def test_elementary_detail_fields():
    d = elementary_detail(PolynomialMap((x, 5 * y + x**3 - 2)))
    assert d.index == 1
    assert d.scale == 5
    assert d.addend == x**3 - 2
    assert elementary_detail(PolynomialMap((x + y**2, y + x**2))) is None
    # a coordinate mixing its own variable into the addend is not elementary
    assert elementary_detail(PolynomialMap((x + x * y, y))) is None


def test_elementary_wide_sense_includes_scaled_axis():
    d = elementary_detail(PolynomialMap((X, Y, 3 * Z + X * Y)))
    assert d.index == 2 and d.scale == 3 and d.addend == X * Y


def test_matrix_helpers():
    m = [[1, 2], [3, 5]]
    assert matrix_det(m) == -1
    inv = matrix_inverse(m)
    assert matrix_product(m, inv) == [[1, 0], [0, 1]]
    three = [[2, 0, 1], [0, 1, 0], [1, 0, 1]]
    assert matrix_det(three) == 1
    assert matrix_product(three, matrix_inverse(three)) == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]
    with pytest.raises(WrongShape):
        matrix_inverse([[1, 2], [2, 4]])


def _cofactor_inverse(rows):
    # adjugate by cofactors over the determinant, the oracle for the closed
    # forms of sizes 1 and 2
    n, det = len(rows), Fraction(matrix_det(rows))
    minor = lambda i, j: [r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j]
    return [
        [(-1) ** (i + j) * (matrix_det(minor(i, j)) if n > 1 else 1) / det for j in range(n)]
        for i in range(n)
    ]


_entries = st.one_of(
    st.integers(-4, 4), st.fractions(min_value=-3, max_value=3, max_denominator=5)
)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_matrix_inverse_matches_cofactors(rows):
    if matrix_det(rows) == 0:
        with pytest.raises(WrongShape, match="singular"):
            matrix_inverse(rows)
        return
    inv = matrix_inverse(rows)
    assert inv == _cofactor_inverse(rows)
    assert all(type(v) is int or v.denominator != 1 for row in inv for v in row)


def test_matrix_inverse_refuses_singular_small_matrices():
    for rows in ([[0]], [[0, 0], [0, 0]], [[Fraction(1, 2), 1], [1, 2]], [[0, 3], [0, -1]]):
        with pytest.raises(WrongShape, match="singular"):
            matrix_inverse(rows)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(_entries, min_size=n, max_size=n))))
def test_map_from_matrix_matches_the_validating_constructor(case):
    rows, consts = case
    n = len(rows)
    units = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    expected = [
        Polynomial(n, {**dict(zip(units, row)), (0,) * n: c}) for row, c in zip(rows, consts)
    ]
    assert map_from_matrix(rows, consts).coords == tuple(expected)


def test_affine_round_trip():
    mat = [[0, 1, 0], [1, 0, 0], [0, 0, 2]]
    consts = (1, 0, -3)
    m = map_from_matrix(mat, consts)
    assert _affine_matrix(m) == mat
    assert tuple(c.constant_term() for c in m.coords) == consts
    assert _affine_matrix(PolynomialMap((x + y**2, y))) is None


def test_factor_chain_invariant():
    target = PolynomialMap((2 * x + y**2, y))
    chain = FactorChain(target, (PolynomialMap((2 * x, y)), PolynomialMap((x + Fraction(1, 2) * y**2, y))))
    assert chain.composed() == target
    assert list(map(classify_map, chain.factors)) == [MapClass.LINEAR, MapClass.ELEMENTARY]
    with pytest.raises(WrongShape):
        FactorChain(target, (PolynomialMap((2 * x, y)),))


def test_factor_chain_repr_renders_target_and_factors():
    target = PolynomialMap((2 * x + y**2, y))
    chain = FactorChain(target, (PolynomialMap((2 * x, y)), PolynomialMap((x + Fraction(1, 2) * y**2, y))))
    assert repr(chain) == "FactorChain(target=(y^2 + 2*x, y), factors=[(2*x, y), (1/2*y^2 + x, y)])"


def test_repr_names_variables_past_three_by_index():
    # render() without names still refuses arity 4; repr never raises
    a, b, c, d = Polynomial.variables(4)
    assert repr(a) == "Polynomial(4, 'x0')"
    assert repr(PolynomialMap((a, b, c, d))) == "PolynomialMap(x0, x1, x2, x3)"
    chain = decompose_positive(PolynomialMap((a + b * c, b, c + d, d)), (2, 1, 1, 1))
    assert repr(chain) == (
        "FactorChain(target=(x1*x2 + x0, x1, x2 + x3, x3), "
        "factors=[(x0, x1, x2 + x3, x3), (x1*x2 + x0, x1, x2, x3)])"
    )


def test_derived_chain_drops_identity_factors_with_their_notes():
    shear, ident = PolynomialMap((x + y**2, y)), identity_map(2)
    chain = FactorChain._derived(shear, (ident, shear, ident), ("a", "b", "c"))
    assert chain.factors == (shear,) and chain.notes == ("b",)
    # the public constructor keeps the factors it is given
    assert FactorChain(shear, (ident, shear)).factors == (ident, shear)


def test_singular_linear_and_affine_maps_are_general():
    for m in (
        PolynomialMap((x + y, x + y)),
        PolynomialMap((x + y + 1, 2 * x + 2 * y)),
        PolynomialMap((x, 0)),
        PolynomialMap((x, 1)),
    ):
        assert classify_map(m) is MapClass.GENERAL, m
        with pytest.raises(WrongShape):
            invert_factor(m)
        # the pair check reads the affine matrix without its determinant,
        # and no candidate passes for a singular one
        for inv in (identity_map(2), m, PolynomialMap((x - y, y))):
            assert not verify_inverse_pair(m, inv)
            assert not literal_inverse_pair(m, inv)


def test_factor_chain_empty_means_identity():
    chain = FactorChain(identity_map(2), ())
    assert chain.composed() == identity_map(2)
    assert chain.factors == ()


def test_scalar_coordinate_becomes_a_constant():
    # first or later; the type is checked because a bare scalar left in
    # place would still compare equal to its constant
    for coords, i in (((1, x), 0), ((X, Y, 3), 2), ((X, Y, Fraction(1, 2)), 2)):
        lifted = PolynomialMap(coords).coords[i]
        assert type(lifted) is Polynomial
        assert lifted == Polynomial.constant(len(coords), coords[i])


def test_polynomial_subclass_coordinate_is_accepted():
    class Tagged(Polynomial):
        __slots__ = ()

    tagged = Tagged(3, {(0, 0, 1): 1})
    m = PolynomialMap((X, Y, tagged))
    assert m.coords[2] is tagged
    assert m == identity_map(3)


def test_map_is_never_equal_to_a_non_map():
    assert PolynomialMap((x, y)).__eq__("x") is NotImplemented
    assert PolynomialMap((x, y)) != "x"


def test_invert_factor_returns_the_identity_itself():
    ident = identity_map(2)
    assert invert_factor(ident) is ident


def test_arity_guard():
    with pytest.raises(ArityMismatch):
        compose(identity_map(2), identity_map(3))
    with pytest.raises(ArityMismatch):
        verify_inverse_pair(plane_swap(), identity_map(3))


def test_degree_skips_zero_coordinates_and_rejects_the_zero_map():
    assert PolynomialMap((Polynomial.zero(2), x * y**2 + 1)).degree() == 3
    with pytest.raises(ZeroPolynomial):
        PolynomialMap((Polynomial.zero(3),) * 3).degree()


# ---------------------------------------------------------------------------
# property tests

coeffs = st.integers(min_value=-4, max_value=4)


def small_polys(arity):
    exps = st.tuples(*[st.integers(min_value=0, max_value=2)] * arity)
    return st.dictionaries(exps, coeffs, max_size=3).map(
        lambda d: Polynomial(arity, d)
    )


def small_maps(arity):
    return st.tuples(*[small_polys(arity)] * arity).map(PolynomialMap)


@settings(max_examples=30, deadline=None)
@given(small_maps(2), small_maps(2), small_maps(2))
def test_compose_is_associative(f, g, h):
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


@settings(max_examples=30, deadline=None)
@given(small_maps(2))
def test_identity_is_neutral(f):
    ident = identity_map(2)
    assert compose(f, ident) == f
    assert compose(ident, f) == f


@settings(max_examples=25, deadline=None)
@given(small_maps(2), small_maps(2))
def test_jacobian_chain_rule(f, g):
    lhs = jacobian_det(compose(f, g))
    rhs = jacobian_det(f).substitute(g.coords) * jacobian_det(g)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# seeded shape corpus: triangular and elementary maps, and near misses

SCALES = [-3, -2, -1, 2, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]


def _random_poly(rng, arity, allowed):
    """A polynomial in the variables ``allowed`` only: one term of degree
    2 or 3, up to two more terms and sometimes a constant.  With no
    variable allowed it is a constant, possibly zero."""
    if not allowed:
        return Polynomial.constant(arity, rng.choice(SCALES + [0]))

    def monomial(low):
        exps = [0] * arity
        for _ in range(rng.randint(low, 3)):
            exps[rng.choice(allowed)] += 1
        return tuple(exps)

    terms = {monomial(2): rng.choice(SCALES)}
    for _ in range(rng.randint(0, 2)):
        terms[monomial(1)] = rng.choice(SCALES)
    if rng.random() < 0.5:
        terms[(0,) * arity] = rng.choice(SCALES)
    return Polynomial(arity, terms)


def _shape_corpus(seed=4021, per_arity=12):
    """(kind, coordinates, expected class, (index, scale, addend) or None).

    Each expected answer comes from how the map is built.  No scale is 1,
    so every coordinate of a triangular map differs from its variable and
    the map is not elementary; the degree-2 term keeps both shapes from
    being affine.  The near misses break one condition each: x_i times
    another variable or x_i^2 in the rest, a zero scale, or a rest in an
    earlier variable."""
    rng = random.Random(seed)
    cases = []
    for arity in (2, 3):
        xs = Polynomial.variables(arity)
        for _ in range(per_arity):
            rests = [_random_poly(rng, arity, range(i + 1, arity)) for i in range(arity)]
            tri = [rng.choice(SCALES) * xs[i] + rests[i] for i in range(arity)]
            cases.append(("triangular", tri, MapClass.TRIANGULAR, None))
            i = rng.randrange(arity - 1)
            bent = list(tri)
            bent[i] = tri[i] + rng.choice(SCALES) * xs[i] * xs[rng.randrange(i + 1, arity)]
            cases.append(("near miss", bent, MapClass.GENERAL, None))
            bent = list(tri)
            bent[i] = rests[i]
            cases.append(("near miss", bent, MapClass.GENERAL, None))
            k = rng.randrange(1, arity)
            bent = list(tri)
            bent[k] = tri[k] + rng.choice(SCALES) * xs[k - 1] ** 2
            cases.append(("near miss", bent, MapClass.GENERAL, None))

            i = rng.randrange(arity)
            scale = rng.choice(SCALES + [1])
            addend = _random_poly(rng, arity, [k for k in range(arity) if k != i])
            elem = list(xs)
            elem[i] = scale * xs[i] + addend
            cases.append(("elementary", elem, MapClass.ELEMENTARY, (i, scale, addend)))
            j = rng.choice([k for k in range(arity) if k != i])
            for extra in (xs[i] * xs[j], xs[i] ** 2):
                bent = list(elem)
                bent[i] = elem[i] + rng.choice(SCALES) * extra
                cases.append(("near miss", bent, MapClass.GENERAL, None))
            bent = list(xs)
            bent[i] = addend
            cases.append(("near miss", bent, MapClass.GENERAL, None))
    return cases


SHAPE_CORPUS = _shape_corpus()


@pytest.mark.parametrize("kind", ["triangular", "elementary", "near miss"])
def test_shape_corpus(kind):
    cases = [c for c in SHAPE_CORPUS if c[0] == kind]
    assert len(cases) >= 24
    for _, coords, expected, detail in cases:
        m = PolynomialMap(coords)
        assert classify_map(m) is expected, m
        d = elementary_detail(m)
        assert (d and (d.index, d.scale, d.addend)) == detail, m
        if expected is not MapClass.ELEMENTARY:
            assert is_triangular(m) is (expected is MapClass.TRIANGULAR), m
        if expected is MapClass.GENERAL:
            with pytest.raises(WrongShape):
                invert_factor(m)
        else:
            # the inverse is unique, so passing the check pins it exactly
            assert literal_inverse_pair(m, invert_factor(m)), m
