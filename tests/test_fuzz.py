"""Typed-error fuzz harness over shaped chains.

Blind random maps never reach the deep paths of the pipelines, so the
strategies build chains of one to four shaped plane factors: 2x2
matrices with entries in {-1, 0, 1} (singular ones included) and shears
by a monomial with coefficient +-1.  Each chain runs through
rewrite_liftable_chain under five mixed weights, decompose_plane,
invert_factor and decompose_graded under the trivial weights, and two
properties must hold for every entry point:

  * only a TamekitError escapes;
  * a returned chain recomposes to a map with a nonzero constant
    Jacobian, that is, only automorphisms are accepted.

Shaped single factors also check verify_inverse_pair, which decides
linear, affine and elementary pairs on coefficients: against each
factor's true inverse and six near misses of it, it must agree with
composing both ways literally.

The seed is fixed and the example counts are bounded, so a run takes a
few seconds and always draws the same chains.
"""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from tamekit import (
    FactorChain,
    MapClass,
    Polynomial,
    PolynomialMap,
    TamekitError,
    WrongShape,
    classify_map,
    compose_chain,
    constant_jacobian,
    decompose_graded,
    decompose_plane,
    identity_map,
    invert_factor,
    rewrite_liftable_chain,
    verify_inverse_pair,
)
from tamekit.maps import elementary_detail
from test_maps import literal_inverse_pair

u, v = Polynomial.variables(2)
x, y, z = Polynomial.variables(3)

WEIGHTS = [(5, 2, -3), (1, 1, -1), (2, 1, -1), (3, 1, -2), (7, 2, -3)]
UNIT = st.sampled_from([-1, 0, 1])
SIGN = st.sampled_from([-1, 1])
# degree 4 makes a graded shear for (5, 2, -3); 2 one for (3, 1, -2)
SHEAR_DEGREES = st.sampled_from([1, 2, 4])
MAX_DEGREE = 16  # product of the factor degrees: keeps each chain small

matrices = st.tuples(UNIT, UNIT, UNIT, UNIT).map(
    lambda e: PolynomialMap((e[0] * u + e[1] * v, e[2] * u + e[3] * v))
)


@st.composite
def shears(draw):
    sign, k = draw(SIGN), draw(SHEAR_DEGREES)
    if draw(st.booleans()):
        return PolynomialMap((u + sign * v**k, v))
    return PolynomialMap((u, v + sign * u**k))


def _degree(m):
    """The degree of m, counting the zero map as degree one."""
    return max((c.total_degree() for c in m.coords if not c.is_zero()), default=1)


chains = st.lists(st.one_of(matrices, shears()), min_size=1, max_size=4).filter(
    lambda fs: prod(map(_degree, fs)) <= MAX_DEGREE
)


def _embed(m):
    """(f(x, y), g(x, y), z) for a plane map (f, g)."""
    return PolynomialMap(tuple(c.substitute((x, y)) for c in m.coords) + (z,))


def _check(call):
    """Run call; a returned chain must recompose to an automorphism."""
    try:
        result = call()
    except TamekitError:
        return
    if isinstance(result, FactorChain):
        assert result.composed() == result.target
        result = result.target
    assert constant_jacobian(result) is not None, result


@seed(20230516)
@settings(max_examples=500, deadline=None, database=None)
@given(chains)
def test_shaped_chains_raise_only_typed_errors(factors):
    target = compose_chain(factors)
    chain = FactorChain(target, factors)
    for weights in WEIGHTS:
        _check(lambda: rewrite_liftable_chain(chain, weights))
    _check(lambda: decompose_plane(target))
    _check(lambda: decompose_graded(_embed(target), (0, 0, 0)))
    for f in factors:
        _check(lambda: invert_factor(f))


affine_planes = st.tuples(UNIT, UNIT, UNIT, UNIT, UNIT, UNIT).map(
    lambda e: PolynomialMap((e[0] * u + e[1] * v + e[4], e[2] * u + e[3] * v + e[5]))
)
affine_spaces = st.lists(UNIT, min_size=12, max_size=12).map(
    lambda e: PolynomialMap(
        tuple(e[3 * i] * x + e[3 * i + 1] * y + e[3 * i + 2] * z + e[9 + i] for i in range(3))
    )
)
triangulars = st.tuples(SIGN, SIGN, SIGN, UNIT, UNIT, UNIT, SHEAR_DEGREES).map(
    lambda e: PolynomialMap(
        (e[0] * x + e[3] * y**e[6] * z, e[1] * y + e[4] * z**e[6], e[2] * z + e[5])
    )
)


@seed(20230516)
@settings(max_examples=400, deadline=None, database=None)
@given(st.one_of(matrices, shears(), affine_planes, affine_spaces, triangulars))
def test_every_class_but_general_is_inverted(m):
    if classify_map(m) is MapClass.GENERAL:
        with pytest.raises(WrongShape):
            invert_factor(m)
    else:
        assert literal_inverse_pair(m, invert_factor(m)), m


@st.composite
def elementaries(draw):
    """x_i -> s*x_i + c*x_j^k + d in two or three variables, j != i; a
    degree-1 or constant addend makes the map affine instead."""
    n = draw(st.sampled_from([2, 3]))
    i = draw(st.integers(0, n - 1))
    j = draw(st.sampled_from([k for k in range(n) if k != i]))
    xs = Polynomial.variables(n)
    coords = list(xs)
    s = draw(st.sampled_from([-2, -1, Fraction(1, 2), 1, 3]))
    coords[i] = s * xs[i] + draw(UNIT) * xs[j] ** draw(SHEAR_DEGREES) + draw(UNIT)
    return PolynomialMap(coords)


CANDIDATES = ["inverse", "scale", "addend", "constant", "index", "identity", "non-affine"]


def _candidate(kind, inv, i):
    """inv itself, or a near miss of it at coordinate i."""
    n = inv.arity
    xs = Polynomial.variables(n)
    j = (i + 1) % n
    if kind == "identity":
        return identity_map(n)
    coords = list(inv.coords)
    if kind == "index":
        # inv's i-th coordinate, scale and rest, rewrites another
        # variable instead, one its rest is free of where there is one
        scale, rest = coords[i].split_variable(i)
        j = next((k for k in range(n) if k != i and not rest.involves(k)), j)
        coords = list(xs)
        coords[j] = scale * xs[j] + rest
    elif kind == "scale":
        scale, rest = coords[i].split_variable(i)
        coords[i] = (scale + 1) * xs[i] + rest
    elif kind == "addend":
        coords[i] += xs[j]
    elif kind == "constant":
        coords[i] += 1
    elif kind == "non-affine":
        coords[i] += xs[i] ** 2
    return PolynomialMap(coords)


SHAPED = (MapClass.LINEAR, MapClass.AFFINE, MapClass.ELEMENTARY, MapClass.TRIANGULAR)


@seed(20230516)
@settings(max_examples=600, deadline=None, database=None)
@given(
    st.one_of(matrices, elementaries(), affine_planes, affine_spaces, triangulars),
    st.sampled_from(CANDIDATES),
    st.integers(0, 2),
)
def test_pair_check_agrees_with_literal_composition(m, kind, k):
    cls = classify_map(m)
    assume(cls in SHAPED)
    i = elementary_detail(m).index if cls is MapClass.ELEMENTARY else k % m.arity
    candidate = _candidate(kind, invert_factor(m), i)
    literal = literal_inverse_pair(m, candidate)
    assert verify_inverse_pair(m, candidate) == literal, (m, candidate)
    assert literal or kind != "inverse"
