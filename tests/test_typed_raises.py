"""The exact error class of each input check on the core types.

One row per check: a call that fails it, and the class it must raise.
The calls hit maps, gradings, the plane descent's arity check, the
Polynomial constructor and accessors, the graded entry points' weight
reading, and the parser, so that moving a check or changing its class
cannot go unnoticed.
"""

import pytest

from tamekit import (
    ArityMismatch,
    FactorChain,
    NotAnAutomorphism,
    NotGraded,
    ParseError,
    Polynomial,
    PolynomialMap,
    ResidueGrading,
    WrongShape,
    ZeroPolynomial,
    decompose_plane,
    decompose_positive,
    identity_map,
    invert_factor,
    l_hat,
    parse_document,
    parse_polynomial,
    q_hat,
    split_z_scaling,
    verify_inverse_pair,
)
from tamekit.grading import _check_weights
from tamekit.maps import map_from_matrix, matrix_product, perm_map

u, v = Polynomial.variables(2)
x, y, z = Polynomial.variables(3)
a, b, c, d = Polynomial.variables(4)
ZERO = Polynomial.zero(2)

CASES = [
    # maps
    ("map without coordinates", lambda: PolynomialMap(()), ArityMismatch),
    ("coordinate not a polynomial", lambda: PolynomialMap((u, "v")), ArityMismatch),
    ("coordinates of two arities", lambda: PolynomialMap((u, z)), ArityMismatch),
    ("not a permutation", lambda: perm_map((0, 0)), WrongShape),
    # composing the pair would fail on the plane map's x*y, but the arity
    # check decides first
    (
        "inverse pair of two arities",
        lambda: verify_inverse_pair(PolynomialMap((u + v**2, v)), PolynomialMap((x * y, y, z))),
        ArityMismatch,
    ),
    ("matrix dimensions", lambda: matrix_product([[1, 2]], [[1, 2]]), ArityMismatch),
    ("matrix not square", lambda: map_from_matrix([[1, 2], [3]]), ArityMismatch),
    (
        "note count",
        lambda: FactorChain(identity_map(2), [identity_map(2)], ["a", "b"]),
        WrongShape,
    ),
    # gradings and the plane descent
    ("no weights", lambda: _check_weights(()), ArityMismatch),
    ("zero modulus", lambda: ResidueGrading((1, 2), 0), ArityMismatch),
    ("bool modulus", lambda: ResidueGrading((3, 5), True), ArityMismatch),
    ("q_hat of zero modulus", lambda: q_hat(1, 1, 0), WrongShape),
    ("l_hat of negative modulus", lambda: l_hat(1, 1, -1), WrongShape),
    ("plane descent on arity 3", lambda: decompose_plane(identity_map(3)), ArityMismatch),
    # its Jacobian determinant 2x is not constant, but the arity check runs first
    (
        "plane descent on a singular map of arity 3",
        lambda: decompose_plane(PolynomialMap((x**2, y, z))),
        ArityMismatch,
    ),
    ("positive weight not an int", lambda: decompose_positive(identity_map(3), ("a", 1, 2)), ArityMismatch),
    ("z split weight not an int", lambda: split_z_scaling(identity_map(3), (1, 1, None)), ArityMismatch),
    # four variables: each message names the map, which must not raise itself
    (
        "ungraded map of arity 4",
        lambda: decompose_positive(PolynomialMap((a + b * b, b, c, d)), (1, 1, 1, 1)),
        NotGraded,
    ),
    (
        "singular block of arity 4",
        lambda: decompose_positive(PolynomialMap((a, b, c, 0 * d)), (1, 1, 1, 1)),
        NotAnAutomorphism,
    ),
    ("factor of arity 4 to invert", lambda: invert_factor(PolynomialMap((a * b, b, c, d))), WrongShape),
    # Polynomial validation
    ("arity zero", lambda: Polynomial(0), ArityMismatch),
    ("exponent tuple length", lambda: Polynomial(2, {(1,): 1}), ArityMismatch),
    ("negative exponent", lambda: Polynomial(2, {(1, -1): 1}), ArityMismatch),
    ("variable index", lambda: Polynomial.variable(2, 2), ArityMismatch),
    ("coeff tuple length", lambda: u.coeff((1,)), ArityMismatch),
    ("degree_in of zero", lambda: ZERO.degree_in(0), ZeroPolynomial),
    ("degree_in index", lambda: u.degree_in(2), ArityMismatch),
    ("split_variable index", lambda: u.split_variable(2), ArityMismatch),
    ("partial index", lambda: u.partial(2), ArityMismatch),
    ("image count", lambda: u.substitute((u,)), ArityMismatch),
    ("images of two arities", lambda: u.substitute((x, v)), ArityMismatch),
    ("no default names", lambda: Polynomial.variable(4, 0).render(), ArityMismatch),
    ("name count", lambda: u.render(("a",)), ArityMismatch),
    # parsing
    ("mixed variable names", lambda: parse_polynomial("x + u"), ParseError),
    ("text after expression", lambda: parse_polynomial("x )"), ParseError),
    ("division by a non-literal", lambda: parse_polynomial("1/x"), ParseError),
    (
        "empty document coordinate",
        lambda: parse_document('{"vars": ["x", "y"], "coords": ["", "y"]}'),
        ParseError,
    ),
]


@pytest.mark.parametrize(
    "call, expected",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_check_raises_its_class(call, expected):
    with pytest.raises(Exception) as info:
        call()
    assert type(info.value) is expected
