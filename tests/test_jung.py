"""Plane decomposition: descent, base cases, variants, inversion."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tamekit.errors import (
    ArityMismatch,
    NotAnAutomorphism,
    NotGradedPlane,
)
from tamekit import maps
from tamekit.grading import Grading, ResidueGrading
from tamekit.jung import (
    _base_factors,
    _shear_for_edge,
    decompose_plane,
    decompose_plane_graded,
    invert_plane,
    is_plane_automorphism,
)
from tamekit.maps import (
    MapClass,
    PolynomialMap,
    classify_map,
    compose,
    compose_chain,
    identity_map,
    invert_factor,
    plane_swap,
    verify_inverse_pair,
)
from tamekit.newton import BinomialEdge
from tamekit.poly import Polynomial, _div
from tamekit.space import decompose_zero_cases
from test_maps import literal_inverse_pair

x, y = Polynomial.variables(2)


def test_classic_parabola_pair():
    m = PolynomialMap((y**2 - x, y))
    chain = decompose_plane(m)
    assert chain.factors == (
        PolynomialMap((-x, y)),
        PolynomialMap((x - y**2, y)),
    )


def test_identity_and_swap():
    assert decompose_plane(identity_map(2)).factors == ()
    assert decompose_plane(plane_swap()).factors == (plane_swap(),)


def test_mirrored_shear_is_one_elementary():
    m = PolynomialMap((y + x**2, x))
    chain = decompose_plane(m)
    assert chain.factors == (plane_swap(), PolynomialMap((x, y + x**2)))
    assert chain.notes == ("", "mirrored")


def test_base_splits_affine_and_elementary():
    m = PolynomialMap((2 * x + 1, 3 * y + x**2))
    chain = decompose_plane(m)
    assert chain.factors == (
        PolynomialMap((2 * x + 1, 3 * y)),
        PolynomialMap((x, y + Fraction(1, 3) * x**2)),
    )
    assert list(map(classify_map, chain.factors)) == [MapClass.AFFINE, MapClass.ELEMENTARY]


def test_multi_step_descent():
    pieces = (
        PolynomialMap((x + y**3, y)),
        PolynomialMap((x, y + x**2)),
        PolynomialMap((x + 1, 2 * y)),
    )
    m = compose_chain(pieces)
    chain = decompose_plane(m)
    assert chain.composed() == m
    assert all(
        c in (MapClass.LINEAR, MapClass.AFFINE, MapClass.ELEMENTARY)
        for c in map(classify_map, chain.factors)
    )


def test_trace_reports_shrinking_area():
    seen = []
    decompose_plane(
        compose(PolynomialMap((x + y**2, y)), PolynomialMap((x, y + x**3))),
        trace=lambda m, area: seen.append(area),
    )
    assert seen == sorted(seen, reverse=True)
    assert seen[-1] == 0


def test_rejects_non_automorphisms():
    for bad in [
        PolynomialMap((x, x * y)),
        PolynomialMap((x + y, x + y)),
        PolynomialMap((x + y**2, y + x**2)),
        PolynomialMap((y**2 - x, y**2)),
        PolynomialMap((x**2, y)),
    ]:
        with pytest.raises(NotAnAutomorphism):
            decompose_plane(bad)
        assert not is_plane_automorphism(bad)


def test_origin_variant():
    # the mixed pipeline takes the descent's factors as origin-preserving
    chain = decompose_plane(PolynomialMap((y**2 - x, y)))
    assert all(f.is_origin_preserving() for f in chain.factors)


def test_graded_variant_exact_weights():
    grading = Grading((2, 1))
    m = PolynomialMap((3 * x + y**2, 2 * y))
    chain = decompose_plane_graded(m, grading)
    assert all(grading.is_graded_map(f) for f in chain.factors)
    with pytest.raises(NotGradedPlane):
        decompose_plane_graded(PolynomialMap((x + y, y)), grading)


def test_graded_variant_residue_weights():
    grading = ResidueGrading((1, 2), 3)
    m = PolynomialMap((x + y**2, y))
    chain = decompose_plane_graded(m, grading)
    assert all(grading.is_graded_map(f) for f in chain.factors)


def test_graded_variant_refuses_a_grading_of_another_arity():
    with pytest.raises(ArityMismatch):
        decompose_plane_graded(PolynomialMap((x + y**2, y)), Grading((1, 1, 1)))


def test_graded_variant_keeps_mirrored_factor_graded():
    # weights give x and y different degrees, so a swap would not be graded;
    # the mirrored shear has to come out as a single elementary factor
    grading = Grading((1, 2))
    m = PolynomialMap((x, y + x**2))
    chain = decompose_plane_graded(m, grading)
    assert all(grading.is_graded_map(f) for f in chain.factors)


def test_invert_plane():
    m = PolynomialMap((y**2 - x, y))
    assert invert_plane(m) == m
    shear = PolynomialMap((x + y**2, y))
    assert invert_plane(shear) == PolynomialMap((x - y**2, y))
    nontrivial = compose(PolynomialMap((2 * x + y**3, y)), plane_swap())
    assert verify_inverse_pair(nontrivial, invert_plane(nontrivial))


def test_invert_factor_shapes():
    aff = PolynomialMap((2 * x + 1, y - 3))
    assert literal_inverse_pair(aff, invert_factor(aff))
    elem = PolynomialMap((x, 5 * y + x**2 - 2))
    assert literal_inverse_pair(elem, invert_factor(elem))
    X, Y, Z = Polynomial.variables(3)
    tri = PolynomialMap((2 * X + Y * Z, Y + Z**2, 3 * Z + 1))
    assert literal_inverse_pair(tri, invert_factor(tri))


# ---------------------------------------------------------------------------
# property tests

def _shears():
    c = st.one_of(
        st.integers(min_value=-3, max_value=3).filter(bool),
        st.sampled_from([Fraction(1, 2), Fraction(-2, 3)]),
    )
    k = st.integers(min_value=1, max_value=2)
    first = st.tuples(c, k).map(lambda t: PolynomialMap((x + t[0] * y ** t[1], y)))
    second = st.tuples(c, k).map(lambda t: PolynomialMap((x, y + t[0] * x ** t[1])))
    diag = st.tuples(
        st.sampled_from([1, -1, 2]), st.sampled_from([1, -1, 3])
    ).map(lambda t: PolynomialMap((t[0] * x, t[1] * y)))
    shift = st.tuples(
        st.integers(min_value=-2, max_value=2), st.integers(min_value=-2, max_value=2)
    ).map(lambda t: PolynomialMap((x + t[0], y + t[1])))
    return st.one_of(first, second, diag, shift, st.just(plane_swap()))


@settings(max_examples=40, deadline=None)
@given(st.lists(_shears(), min_size=1, max_size=3))
def test_random_tame_composites_round_trip(pieces):
    m = compose_chain(pieces)
    chain = decompose_plane(m)
    assert chain.composed() == m
    assert MapClass.GENERAL not in map(classify_map, chain.factors)
    assert verify_inverse_pair(m, invert_plane(m))


@settings(max_examples=40, deadline=None)
@given(st.lists(_shears(), min_size=1, max_size=3))
def test_decomposition_certifies_membership(pieces):
    assert is_plane_automorphism(compose_chain(pieces))


_PLANE_GRADINGS = [
    Grading((1, 1)),
    Grading((2, 1)),
    Grading((1, 2)),
    ResidueGrading((1, 2), 3),
    ResidueGrading((2, 1), 3),
    ResidueGrading((1, 1), 2),
    ResidueGrading((1, 2), 5),
]


def _graded_factors(grading):
    """Diagonal maps, and the unit shears and swap graded for grading."""
    shears = [PolynomialMap((x + y**k, y)) for k in range(1, 5)]
    shears += [PolynomialMap((x, y + x**k)) for k in range(1, 5)]
    graded = [f for f in shears + [plane_swap()] if grading.is_graded_map(f)]
    diag = st.tuples(
        st.sampled_from([1, -1, 2]), st.sampled_from([1, Fraction(-1, 2), 3])
    ).map(lambda t: PolynomialMap((t[0] * x, t[1] * y)))
    return st.one_of(st.sampled_from(graded), diag)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_PLANE_GRADINGS), st.data())
def test_graded_descent_factors_are_graded(grading, data):
    pieces = data.draw(st.lists(_graded_factors(grading), min_size=1, max_size=5))
    chain = decompose_plane_graded(compose_chain(pieces), grading)
    assert all(grading.is_graded_map(f) for f in chain.factors)


@settings(max_examples=40, deadline=None)
@given(st.lists(_shears(), min_size=1, max_size=3))
def test_origin_descent_factors_preserve_origin(pieces):
    moved = compose_chain(pieces)
    m = PolynomialMap(c - c.constant_term() for c in moved.coords)
    chain = decompose_plane(m)
    assert all(f.is_origin_preserving() for f in chain.factors)


def test_jacobian_rejections_do_not_render_the_map(monkeypatch):
    # the caller holds the map already; rendering it for the message is waste
    def no_render(self, names=None):
        raise RuntimeError("rendered")

    X, Y, Z = Polynomial.variables(3)
    monkeypatch.setattr(Polynomial, "render", no_render)
    assert not is_plane_automorphism(PolynomialMap((x + y**2, y + x**2)))
    with pytest.raises(NotAnAutomorphism):
        decompose_zero_cases(PolynomialMap((X + Y, X + Y, Z)), (1, 1, 0))


@pytest.mark.parametrize(
    "m",
    [
        # second coordinate not linear in y once f is x
        (PolynomialMap((x + y**2, y + x**2)), "not linear in y over K\\[x\\]"),
        # first coordinate with a vertex off the axes
        (PolynomialMap((x * y + x + y, y)), "vertex off the axes"),
        # first coordinate of degree 2 on one axis
        (PolynomialMap((x**2, y)), "degree 2 in one variable"),
        # a vanishing coordinate
        (PolynomialMap((x, Polynomial.zero(2))), "a coordinate vanished"),
        # a top edge with both exponents above 1
        (PolynomialMap((y**2 - x**3, y)), "neither edge exponent is 1"),
    ],
)
def test_descent_rejects_behind_a_passing_jacobian(monkeypatch, m):
    # the Jacobian precheck rejects each of these first; without it the
    # descent's own shape checks have to, each row with its own reason
    m, reason = m
    monkeypatch.setattr(maps, "constant_jacobian", lambda m: 1)
    with pytest.raises(NotAnAutomorphism, match=reason):
        decompose_plane(m)


def _fraction_shear_for_edge(edge):
    # the shear and its inverse as they were built through Fraction
    # arithmetic, the oracle for the construction from numerators
    if edge.p == 1:
        r = _div(1, edge.coefficient)
        psi_inv = PolynomialMap((x - r * y**edge.q, y))
        return (0, edge.q, r.numerator, r.denominator), psi_inv, ""
    r = edge.coefficient
    psi_inv = PolynomialMap((x, y - r * x**edge.p))
    return (1, edge.p, r.numerator, r.denominator), psi_inv, "mirrored"


_edge_coefficients = st.one_of(
    st.integers(-6, 6), st.fractions(min_value=-5, max_value=5, max_denominator=9)
).filter(bool)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.booleans(), _edge_coefficients)
def test_shear_for_edge_matches_the_fraction_construction(n, mirrored, c):
    # p == 1 shears x by 1/c; q == 1 with p > 1 shears y by c
    p, q = (n + 1, 1) if mirrored else (1, n)
    edge = BinomialEdge(p=p, q=q, multiplicity=1, scale=1, coefficient=c)
    got = _shear_for_edge(edge)
    assert got == _fraction_shear_for_edge(edge)
    binomial = got[1].coords[got[0][0]]
    assert list(binomial._num) == list(_fraction_shear_for_edge(edge)[1].coords[got[0][0]]._num)


def _fraction_base_factors(current, axis):
    # the base split through split_variable and a scalar product
    if axis == 1:
        current = PolynomialMap(c.map_exponents(2, lambda e: (e[1], e[0])) for c in current.coords)
    f, g = current.coords
    mu, w = g.split_variable(1)
    if mu == 0 or w.involves(1):
        raise NotAnAutomorphism(f"second coordinate {g} is not linear in y over K[x]")
    factors = [PolynomialMap((f, mu * y)), PolynomialMap((x, y + w * _div(1, mu)))]
    return factors + [plane_swap()] if axis == 1 else factors


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 1),
    _edge_coefficients,
    st.integers(-3, 3),
    st.one_of(st.just(0), _edge_coefficients),
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 2)),
        st.fractions(min_value=-3, max_value=3, max_denominator=6),
        max_size=4,
    ),
)
def test_base_factors_match_the_fraction_construction(axis, scale, shift, mu, rest):
    # f is scale * (x or y) + shift; g is mu*y plus terms that may hold y
    f = scale * (x, y)[axis] + shift
    g = mu * (x, y)[1 - axis] + Polynomial(2, rest)
    m = PolynomialMap((f, g))
    try:
        expected = _fraction_base_factors(m, axis)
    except NotAnAutomorphism as exc:
        with pytest.raises(NotAnAutomorphism) as caught:
            _base_factors(m, axis)
        assert str(caught.value) == str(exc)
        return
    factors, notes = _base_factors(m, axis)
    assert factors == expected
    assert notes == [""] * len(expected)
