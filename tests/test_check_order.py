"""Which error the graded entry points raise when an input has two faults.

Every row gives an input with two faults at once and the exact error
class the entry point raises for it, so that moving a check (say,
validating the weights before the map, or the factors of a chain in
one walk) cannot silently change the answer.
"""

import pytest

from tamekit import (
    ArityMismatch,
    FactorChain,
    GcdPrecondition,
    NotAnAutomorphism,
    NotGraded,
    NotGradedChain,
    NotGradedPlane,
    NotWildAdmitting,
    OriginNotPreserved,
    Polynomial,
    PolynomialMap,
    QHatNotOne,
    ThirdCoordinateNotScalar,
    WrongShape,
    compose_chain,
    decompose_graded,
    decompose_positive,
    decompose_qhat_low,
    decompose_zero_cases,
    lift_plane_map,
    rewrite_liftable_chain,
    wild_witness,
    wildness_certificate,
)

u, v = Polynomial.variables(2)
x, y, z = Polynomial.variables(3)

PLANE = PolynomialMap((u + v**2, v))
# not graded for any weights with a nonzero first weight
UNGRADED = PolynomialMap((x + 1, y, z))
# a constant Jacobian fails and the third coordinate is not scalar
SINGULAR_Z = PolynomialMap((x, y, y * z))


def _chain(*factors):
    return FactorChain(compose_chain(factors), factors)


MOVES_ORIGIN = PolynomialMap((u + 1, v))
GENERAL = PolynomialMap((u + v**2, v + u**2))
# linear, graded for every residue grading of u and v of one weight,
# and singular: GENERAL in the map taxonomy
SINGULAR = PolynomialMap((u + v, u + v))

CASES = [
    # decompose_graded: the map's arity, then the weights, then gradedness
    ("arity and weight count", decompose_graded, (PLANE, (1, 2)), ArityMismatch),
    ("weight count and ungraded", decompose_graded, (UNGRADED, (1, 2)), ArityMismatch),
    ("float weight and ungraded", decompose_graded, (UNGRADED, (1.5, 1, 2)), ArityMismatch),
    ("gcd obstruction and ungraded", decompose_graded, (UNGRADED, (2, 1, -2)), NotGraded),
    ("zero weight and ungraded", decompose_graded, (UNGRADED, (1, 1, 0)), NotGraded),
    ("positive and ungraded", decompose_graded, (UNGRADED, (1, 2, 3)), NotGraded),
    ("wild and ungraded", decompose_graded, (UNGRADED, (7, 2, -3)), NotGraded),
    ("jacobian and scalar z", decompose_graded, (SINGULAR_Z, (1, 0, -1)), NotAnAutomorphism),
    # the gcd readers check z before the frozen coordinate
    (
        "gcd: scalar z and frozen y",
        decompose_graded,
        (PolynomialMap((x, y + x * y * z, z + x * z**2)), (2, 1, -2)),
        ThirdCoordinateNotScalar,
    ),
    (
        "symmetric gcd: scalar z and frozen x",
        decompose_graded,
        (PolynomialMap((x + x * y * z, y, z + y * z**2)), (3, 2, -2)),
        ThirdCoordinateNotScalar,
    ),
    # decompose_positive: weight count, then sign, then gradedness
    ("count and mixed", decompose_positive, (PLANE, (1, 2, -3)), ArityMismatch),
    ("mixed and ungraded", decompose_positive, (UNGRADED, (1, 2, -3)), WrongShape),
    ("zero and ungraded", decompose_positive, (UNGRADED, (1, 1, 0)), WrongShape),
    (
        "ungraded and singular",
        decompose_positive,
        (PolynomialMap((x + 1, x, z)), (1, 1, 2)),
        NotGraded,
    ),
    # decompose_zero_cases: the map's arity, the weights, gradedness, Jacobian
    ("arity and no zero", decompose_zero_cases, (PLANE, (1, 2, 3)), ArityMismatch),
    ("weight count and arity", decompose_zero_cases, (UNGRADED, (1, 0)), ArityMismatch),
    ("no zero and ungraded", decompose_zero_cases, (UNGRADED, (1, 2, 3)), WrongShape),
    ("all zero and shape", decompose_zero_cases, (SINGULAR_Z, (0, 0, 0)), WrongShape),
    ("ungraded and singular", decompose_zero_cases, (PolynomialMap((x + 1, x, z)), (1, 1, 0)), NotGraded),
    ("jacobian and scalar z", decompose_zero_cases, (SINGULAR_Z, (1, 0, -1)), NotAnAutomorphism),
    (
        "jacobian and scalar x and z",
        decompose_zero_cases,
        (PolynomialMap((x + x**3 * z**3, y, x**2 * z**4 - z)), (3, 0, -2)),
        NotAnAutomorphism,
    ),
    # decompose_qhat_low: the weights (shape, gcd, q_hat), then the map
    ("positive and arity", decompose_qhat_low, (PLANE, (1, 2, 3)), WrongShape),
    ("zero and arity", decompose_qhat_low, (PLANE, (1, 0, -1)), WrongShape),
    ("gcd and ungraded", decompose_qhat_low, (UNGRADED, (2, 1, -2)), GcdPrecondition),
    ("q_hat two and arity", decompose_qhat_low, (PLANE, (7, 2, -3)), WrongShape),
    ("weight count and arity", decompose_qhat_low, (PLANE, (1, 2)), ArityMismatch),
    ("arity and ungraded weights", decompose_qhat_low, (PLANE, (5, 2, -3)), ArityMismatch),
    (
        "ungraded and scalar z",
        decompose_qhat_low,
        (PolynomialMap((x + 1, y, z + y * z**3)), (1, 1, -1)),
        NotGraded,
    ),
    (
        "scalar z and singular",
        decompose_qhat_low,
        (PolynomialMap((x, x, z + x * z**2)), (1, 1, -1)),
        ThirdCoordinateNotScalar,
    ),
    # wildness_certificate: the weights (sign pattern, gcd), then the map
    ("positive and arity", wildness_certificate, (PLANE, (1, 2, 3)), GcdPrecondition),
    ("zero and ungraded", wildness_certificate, (UNGRADED, (1, 1, 0)), GcdPrecondition),
    ("gcd and ungraded", wildness_certificate, (UNGRADED, (2, 1, -2)), GcdPrecondition),
    ("weight count and arity", wildness_certificate, (PLANE, (7, 2)), ArityMismatch),
    ("arity and ungraded", wildness_certificate, (PLANE, (7, 2, -3)), ArityMismatch),
    (
        "ungraded and scalar z",
        wildness_certificate,
        (PolynomialMap((x + 1, y, z + y**3 * z**3)), (7, 2, -3)),
        NotGraded,
    ),
    # wild_witness: malformed weights before the verdict
    ("weight count and float", wild_witness, ((1.5, 2),), ArityMismatch),
    ("float and tame", wild_witness, ((1.0, 2, 3),), ArityMismatch),
    ("bool and tame", wild_witness, ((True, 2, 3),), ArityMismatch),
    ("tame and unnormalized", wild_witness, ((2, 4, 6),), NotWildAdmitting),
    # lift_plane_map: weight shape, gcd, the map's arity, gradedness
    ("shape and arity", lift_plane_map, (UNGRADED, (1, 2, -3)), WrongShape),
    ("positive and arity", lift_plane_map, (UNGRADED, (2, 1, 3)), WrongShape),
    ("gcd and arity", lift_plane_map, (UNGRADED, (4, 1, -2)), GcdPrecondition),
    ("gcd and ungraded", lift_plane_map, (PolynomialMap((u + 1, v)), (4, 1, -2)), GcdPrecondition),
    ("arity and ungraded", lift_plane_map, (UNGRADED, (7, 2, -3)), ArityMismatch),
    (
        "ungraded and obstructed",
        lift_plane_map,
        (PolynomialMap((u + v**2 + 1, v)), (7, 2, -3)),
        NotGradedPlane,
    ),
    # rewrite_liftable_chain: weight shape, gcd, q_hat, then factor by factor
    ("shape and q_hat", rewrite_liftable_chain, (_chain(PLANE), (2, 3, -1)), WrongShape),
    ("gcd and ungraded", rewrite_liftable_chain, (_chain(MOVES_ORIGIN), (4, 1, -2)), GcdPrecondition),
    ("q_hat and ungraded", rewrite_liftable_chain, (_chain(MOVES_ORIGIN), (7, 2, -3)), QHatNotOne),
    (
        "ungraded and origin",
        rewrite_liftable_chain,
        (_chain(MOVES_ORIGIN), (5, 2, -3)),
        NotGradedChain,
    ),
    (
        "origin then general",
        rewrite_liftable_chain,
        (_chain(MOVES_ORIGIN, GENERAL), (2, 1, -1)),
        OriginNotPreserved,
    ),
    (
        "general then origin",
        rewrite_liftable_chain,
        (_chain(GENERAL, MOVES_ORIGIN), (2, 1, -1)),
        WrongShape,
    ),
    (
        "general then ungraded",
        rewrite_liftable_chain,
        (_chain(PolynomialMap((u + v**4, v + u**4)), MOVES_ORIGIN), (5, 2, -3)),
        WrongShape,
    ),
    ("singular", rewrite_liftable_chain, (_chain(SINGULAR), (5, 2, -3)), WrongShape),
    # PLANE is not graded for (5, 2, -3): v^2 has weight 4, not 2, mod 3
    (
        "ungraded then singular",
        rewrite_liftable_chain,
        (_chain(PLANE, SINGULAR), (5, 2, -3)),
        NotGradedChain,
    ),
    (
        "singular then ungraded",
        rewrite_liftable_chain,
        (_chain(SINGULAR, PLANE), (5, 2, -3)),
        WrongShape,
    ),
    (
        "origin then singular",
        rewrite_liftable_chain,
        (_chain(MOVES_ORIGIN, SINGULAR), (2, 1, -1)),
        OriginNotPreserved,
    ),
]


@pytest.mark.parametrize(
    "fn, args, expected",
    [case[1:] for case in CASES],
    ids=[f"{case[1].__name__}-{case[0]}" for case in CASES],
)
def test_first_fault_decides_the_error(fn, args, expected):
    with pytest.raises(Exception) as info:
        fn(*args)
    assert type(info.value) is expected
