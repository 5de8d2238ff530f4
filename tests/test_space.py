"""Three-variable graded toolkit: classification, witnesses, decomposition."""

import dataclasses
import hashlib
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import tamekit
from tamekit import space
from tamekit.errors import (
    ArityMismatch,
    CertifiedWildMap,
    GcdPrecondition,
    InvariantViolation,
    LastVariableNotFixed,
    NotAnAutomorphism,
    NotGraded,
    NotGradedChain,
    NotGradedPlane,
    NotWildAdmitting,
    OriginNotPreserved,
    QHatNotOne,
    ThirdCoordinateNotScalar,
    WildAdmittingUndecided,
    WitnessTooLarge,
    WrongShape,
)
from tamekit.grading import Grading, normalize_weights, plane_residue_grading
from tamekit.maps import (
    FactorChain,
    MapClass,
    PolynomialMap,
    classify_map,
    compose,
    compose_chain,
    constant_jacobian,
    identity_map,
    plane_swap,
    verify_inverse_pair,
)
from tamekit.poly import Polynomial
from tamekit.space import (
    GradingReason,
    GradingVerdict,
    LiftObstruction,
    ObstructionKind,
    WildnessCertificate,
    ZeroWeightShape,
    classify_grading,
    decompose_graded,
    decompose_positive,
    decompose_qhat_low,
    decompose_zero_cases,
    invert_graded,
    lift_plane_map,
    restrict_to_plane,
    rewrite_liftable_chain,
    split_z_scaling,
    wild_witness,
    wildness_certificate,
)

from corpora import wild_triples

x, y, z = Polynomial.variables(3)
u, v = Polynomial.variables(2)


# ---------------------------------------------------------------------------
# classification

def test_classification_table():
    table = [
        ((0, 0, 0), GradingVerdict.WILD_ADMITTING, GradingReason.TRIVIAL_GRADING),
        ((1, 2, 3), GradingVerdict.TAME_ONLY, GradingReason.ALL_POSITIVE),
        ((-1, -2, -3), GradingVerdict.TAME_ONLY, GradingReason.ALL_NEGATIVE),
        ((2, 1, 0), GradingVerdict.TAME_ONLY, GradingReason.ZERO_WEIGHT),
        ((2, 1, -2), GradingVerdict.TAME_ONLY, GradingReason.GCD_OBSTRUCTION),
        ((3, 2, -2), GradingVerdict.TAME_ONLY,
         GradingReason.SYMMETRIC_GCD_OBSTRUCTION),
        ((7, 2, -3), GradingVerdict.WILD_ADMITTING,
         GradingReason.Q_HAT_AT_LEAST_TWO),
        ((5, 2, -3), GradingVerdict.TAME_ONLY, GradingReason.Q_HAT_ONE),
        ((1, 1, -1), GradingVerdict.TAME_ONLY, GradingReason.Q_HAT_NONPOSITIVE),
    ]
    for weights, verdict, reason in table:
        cls = classify_grading(weights)
        assert cls.verdict is verdict, weights
        assert cls.reason is reason, weights
        assert cls.admits_wild is (verdict is GradingVerdict.WILD_ADMITTING)


def test_classification_normalizes_first():
    # (4, 2, -2) is (2, 1, -1) after dividing by the common factor,
    # so the apparent gcd obstruction disappears
    cls = classify_grading((4, 2, -2))
    assert cls.reason is GradingReason.Q_HAT_ONE
    # permuted and flipped weights classify like their normal form
    for weights in [(-3, 7, 2), (2, -3, 7), (-2, 3, -7)]:
        cls = classify_grading(weights)
        assert cls.reason is GradingReason.Q_HAT_AT_LEAST_TWO, weights


def test_classification_witness_exponents():
    cls = classify_grading((7, 2, -3))
    assert cls.q_hat == 2 and cls.l_hat == 2
    assert cls.witness_q == 2 and cls.witness_p == 1
    assert 7 == cls.witness_q * 2 + cls.witness_p * 3
    cls = classify_grading((3, 1, -1))
    assert cls.q_hat == 2 and cls.l_hat == 1 and cls.witness_p == 1


def test_classification_zero_shapes():
    assert (
        classify_grading((2, 1, 0)).zero_shape
        is ZeroWeightShape.DISTINCT_POSITIVE_PAIR
    )
    assert (
        classify_grading((1, 1, 0)).zero_shape is ZeroWeightShape.EQUAL_POSITIVE_PAIR
    )
    assert (
        classify_grading((2, 0, -3)).zero_shape
        is ZeroWeightShape.POSITIVE_AND_NEGATIVE
    )
    assert classify_grading((0, 1, 0)).zero_shape is ZeroWeightShape.SINGLE_POSITIVE
    assert classify_grading((1, 2, 3)).zero_shape is None


def test_classifications_and_witnesses_are_hashable():
    # frozen dataclasses hash their fields, the normalized grading among them
    cls = classify_grading((7, 2, -3))
    assert hash(cls) == hash(classify_grading((7, 2, -3)))
    assert len({cls, classify_grading((7, 2, -3)), classify_grading((2, 7, -3))}) == 2
    assert hash(cls.normalized) == hash(normalize_weights((7, 2, -3)))
    wit = wild_witness((7, 2, -3))
    assert hash(wit) == hash(wild_witness((7, 2, -3)))


def test_classification_arity():
    with pytest.raises(ArityMismatch):
        classify_grading((1, 2))


def test_classification_matches_direct_search():
    # wildness for mixed coprime weights amounts to solving a = q*b + p*c
    # with q >= 2 and p >= 1; check the verdict against brute force
    for a in range(1, 13):
        for b in range(1, a + 1):
            for c in range(1, 13):
                if gcd(gcd(a, b), c) != 1:
                    continue
                if gcd(a, c) != 1 or gcd(b, c) != 1:
                    continue
                cls = classify_grading((a, b, -c))
                expected = any(
                    a == q * b + p * c
                    for q in range(2, a // b + 1)
                    for p in range(1, (a - q * b) // c + 1)
                )
                assert cls.admits_wild == expected, (a, b, c)


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_classification_fields_pinned():
    # every field of every record for the triples with entries in -6..6
    lines = []
    for w in itertools.product(range(-6, 7), repeat=3):
        cls = classify_grading(w)
        fields = (f"{f.name}={getattr(cls, f.name)!r}" for f in dataclasses.fields(cls))
        lines.append("; ".join(fields))
    assert len(lines) == 13**3
    assert _digest(lines) == CLASSIFICATION_DIGEST


CLASSIFICATION_DIGEST = "7bb20893ea92d169df2574ae092105130e55ca99706b3937ad626816bb442eb3"


def test_graded_chain_rejects_an_ungraded_factor():
    # the two translations recompose to the identity, but x has weight 1
    factors = [PolynomialMap((x + 1, y, z)), PolynomialMap((x - 1, y, z))]
    with pytest.raises(InvariantViolation):
        space._graded_chain(identity_map(3), factors, (1, 2, 3))


# ---------------------------------------------------------------------------
# splitting, restricting, lifting

def test_split_z_scaling_oracle():
    m = PolynomialMap((x + y**2 * z, y, 5 * z))
    scaling, zfixed = split_z_scaling(m, (1, 1, -1))
    assert scaling == PolynomialMap((x, y, 5 * z))
    assert zfixed == PolynomialMap((x + y**2 * z, y, z))
    assert compose(scaling, zfixed) == m


def test_split_z_scaling_rejections():
    with pytest.raises(WrongShape):
        split_z_scaling(identity_map(3), (1, 1, 1))
    with pytest.raises(NotGraded):
        split_z_scaling(PolynomialMap((x, y, z + x * y)), (1, 1, -2))
    # (x, y, x*y*z^3) is graded for (1, 1, -1) but no automorphism
    with pytest.raises(ThirdCoordinateNotScalar):
        split_z_scaling(PolynomialMap((x, y, x * y * z**3)), (1, 1, -1))
    with pytest.raises(ArityMismatch):
        split_z_scaling(identity_map(2), (1, 1, -1))


def test_restrict_to_plane_oracle():
    e = PolynomialMap((x + y**2 * z, y, z))
    assert restrict_to_plane(e) == PolynomialMap((u + v**2, v))
    # terms that meet once z = 1 are added: x*z + x*z^2 merges to 2u,
    # and y*z - y cancels
    for first, second in [
        (x * z + x * z**2, y),
        (x + y * z - y, y + 3 * x * z**4 - x * z),
        (Fraction(1, 2) * x * z + Fraction(1, 2) * x, y * z**2 - y * z + y),
    ]:
        m = PolynomialMap((first, second, z))
        oracle = PolynomialMap(
            (first.substitute((u, v, 1)), second.substitute((u, v, 1)))
        )
        assert restrict_to_plane(m) == oracle
    merged = restrict_to_plane(PolynomialMap((x * z + x * z**2, y, z)))
    assert merged.coords[0] == 2 * u
    cancelled = restrict_to_plane(PolynomialMap((x + y * z - y, y, z)))
    assert cancelled.coords[0] == u


def test_restrict_nagata():
    w = x * x - y * z
    nagata = PolynomialMap((x + w * z, y + 2 * w * x + w * w * z, z))
    wp = u * u - v
    assert restrict_to_plane(nagata) == PolynomialMap(
        (u + wp, v + 2 * wp * u + wp * wp)
    )


def test_restrict_requires_fixed_z():
    with pytest.raises(LastVariableNotFixed):
        restrict_to_plane(PolynomialMap((x, y, 2 * z)))
    with pytest.raises(ArityMismatch):
        restrict_to_plane(identity_map(2))


def test_lift_oracles():
    report = lift_plane_map(PolynomialMap((u + v**5, v)), (7, 2, -3))
    assert report.liftable
    assert report.lifted == PolynomialMap((x + y**5 * z, y, z))
    report = lift_plane_map(PolynomialMap((u + v**2, v)), (7, 2, -3))
    assert not report.liftable and report.lifted is None
    assert report.obstruction == LiftObstruction(
        ObstructionKind.LOW_MONOMIAL, 0, (0, 2)
    )
    # v and v^4 both sit below a = 11 (b*j < a); the report names v
    # whichever order the first coordinate's terms were stored in
    orders = (u + v + v**4, v**4 + v + u)
    assert [list(f.terms) for f in orders] == [[(1, 0), (0, 1), (0, 4)], [(0, 4), (0, 1), (1, 0)]]
    for first in orders:
        report = lift_plane_map(PolynomialMap((first, v)), (11, 2, -3))
        assert not report.liftable
        assert report.obstruction == LiftObstruction(
            ObstructionKind.LOW_MONOMIAL, 0, (0, 1)
        )
    # free terms in the second coordinate only slip past the residue
    # grading when c = 1
    report = lift_plane_map(PolynomialMap((u, v + 1)), (2, 1, -1))
    assert not report.liftable
    assert report.obstruction == LiftObstruction(
        ObstructionKind.FREE_TERM, 1, (0, 0)
    )


def test_lift_rejections():
    with pytest.raises(WrongShape):
        lift_plane_map(identity_map(2), (1, 2, -3))
    with pytest.raises(GcdPrecondition):
        lift_plane_map(identity_map(2), (2, 1, -2))
    with pytest.raises(NotGradedPlane):
        lift_plane_map(PolynomialMap((u + v, v)), (7, 2, -3))
    with pytest.raises(ArityMismatch):
        lift_plane_map(identity_map(3), (7, 2, -3))
    # ints are checked before any gcd, which raises a bare TypeError on floats
    with pytest.raises(ArityMismatch):
        lift_plane_map(identity_map(2), (7.0, 2.0, -3.0))


def test_lift_shear_threshold():
    # the shear (u + v^q, v) lifts exactly when q is past the threshold
    for a, b, c in [(7, 2, 3), (5, 2, 3), (3, 1, 1), (9, 4, 5), (11, 3, 2)]:
        cls = classify_grading((a, b, -c))
        qh = cls.q_hat
        # residue-graded shears need b*q congruent to a mod c
        for q in range(1, qh + 2 * c + 1):
            if (b * q - a) % c:
                continue
            report = lift_plane_map(PolynomialMap((u + v**q, v)), (a, b, -c))
            assert report.liftable == (q > qh), (a, b, c, q)


def test_lift_restrict_round_trip():
    rng = random.Random(11)
    for _ in range(50):
        a, b, c = 7, 2, 3
        coeff = rng.choice([1, -1, 2, Fraction(1, 2)])
        q, t = rng.choice([(5, 1), (8, 3), (11, 5)])
        e = PolynomialMap((x + coeff * y**q * z**t, y, z))
        pm = restrict_to_plane(e)
        report = lift_plane_map(pm, (a, b, -c))
        assert report.liftable and report.lifted == e


@st.composite
def liftable_plane_maps(draw):
    """(weights, pm): mixed coprime weights (a, b, -c) with a >= b and a
    plane map graded mod c whose terms all lift: each term u^i v^j of the
    coordinate of weight w has a*i + b*j >= w, congruent to w mod c."""
    b = draw(st.integers(min_value=1, max_value=6))
    a = draw(st.integers(min_value=b, max_value=12))
    c = draw(st.integers(min_value=1, max_value=7))
    assume(gcd(a, c) == 1 and gcd(b, c) == 1)
    exps = st.tuples(st.integers(0, 6), st.integers(0, 6))
    coefficients = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=4))
    coords = []
    for w in (a, b):
        terms = draw(st.dictionaries(exps, coefficients, max_size=6))
        coords.append(Polynomial(2, {
            (i, j): k for (i, j), k in terms.items()
            if a * i + b * j >= w and (a * i + b * j - w) % c == 0
        }))
    return (a, b, -c), PolynomialMap(coords)


@settings(max_examples=150, deadline=None)
@given(liftable_plane_maps())
def test_restriction_of_the_lift_is_the_plane_map(case):
    weights, pm = case
    report = lift_plane_map(pm, weights)
    assert report.liftable
    assert Grading(weights).is_graded_map(report.lifted)
    assert restrict_to_plane(report.lifted) == pm


# ---------------------------------------------------------------------------
# wild witnesses and the degree test

def test_witness_7_2_3():
    wit = wild_witness((7, 2, -3))
    cls = wit.classification
    assert (cls.weights, cls.q_hat, cls.l_hat, cls.witness_p) == ((7, 2, -3), 2, 2, 1)
    assert not wit.externally_certified
    assert wit.plane_map == compose_chain(
        [
            PolynomialMap((u - v**2, v)),
            PolynomialMap((u, v + u**2)),
            PolynomialMap((u + v**2, v)),
        ]
    )
    # the low-degree violating term and its exact coefficient
    assert wit.map.coords[0].coeff((2, 1, 3)) == -2
    assert wit.map.coords[0].coeff((0, 5, 1)) == -2
    assert wit.map.coords[0].coeff((1, 0, 0)) == 1
    assert wit.inverse.coords[0].coeff((0, 5, 1)) == 2
    g = Grading((7, 2, -3))
    assert g.is_graded_map(wit.map) and g.is_graded_map(wit.inverse)
    assert verify_inverse_pair(wit.map, wit.inverse)
    assert wit.certificate.certified
    assert wit.certificate.violating_degree == 3
    assert wit.certificate.threshold == 5
    assert wit.verify()


def test_witness_drop_term_structure():
    # conjugating (u, v + u^l) by (u + v^q, v) leaves u + G with the
    # lowest term of G at degree q + l - 1 and coefficient -q there
    for weights in [(7, 2, -3), (3, 1, -1), (9, 2, -5), (11, 2, -3)]:
        wit = wild_witness(weights)
        qh, lh = wit.classification.q_hat, wit.classification.l_hat
        drop = wit.plane_map.coords[0] - u
        assert drop.coeff((lh, qh - 1)) == -qh
        assert min(sum(e) for e in drop.terms) == qh + lh - 1
        assert wit.verify()


def _witness_classes(max_sum):
    """The first wild triple of criterion 3's a, b, c <= 40 sweep in each
    (q_hat, l_hat) class with q_hat + l_hat <= max_sum."""
    reps = {}
    for a, b, c in wild_triples():
        cls = classify_grading((a, b, -c))
        if cls.q_hat + cls.l_hat <= max_sum:
            reps.setdefault((cls.q_hat, cls.l_hat), (a, b, -c))
    return reps


def test_closed_form_witness_matches_composition():
    # wild_witness writes the conjugates down from binomials; composing the
    # shears literally must give exactly the same plane maps
    reps = _witness_classes(14)
    assert len(reps) == 74
    for (qh, lh), weights in sorted(reps.items()):
        tau = PolynomialMap((u + v**qh, v))
        tau_inv = PolynomialMap((u - v**qh, v))
        phi = PolynomialMap((u, v + u**lh))
        phi_inv = PolynomialMap((u, v - u**lh))
        wit = wild_witness(weights)
        assert wit.plane_map == compose_chain([tau_inv, phi, tau]), weights
        assert wit.plane_inverse == compose_chain([tau_inv, phi_inv, tau]), weights


def test_witness_l_hat_edge():
    # c = 1 allows l_hat = c, the one case where the conjugating shear
    # exponent meets the modulus
    wit = wild_witness((3, 1, -1))
    assert (wit.classification.q_hat, wit.classification.l_hat) == (2, 1)
    assert verify_inverse_pair(wit.map, wit.inverse)
    assert wit.verify()


def test_witness_flipped_and_permuted_weights():
    for weights in [(-7, -2, 3), (2, -3, 7), (-3, 7, 2)]:
        wit = wild_witness(weights)
        g = Grading(weights)
        assert g.is_graded_map(wit.map) and g.is_graded_map(wit.inverse)
        assert wit.verify()


def test_witness_with_replaced_inverse_fails_verify():
    wit = wild_witness((7, 2, -3))
    tampered = dataclasses.replace(wit, inverse=identity_map(3))
    assert tampered.verify() is False
    assert wit.verify() is True


_TAMPERED_UNDER_O = """
import dataclasses
from tamekit.maps import PolynomialMap, identity_map
from tamekit.poly import Polynomial
from tamekit.space import wild_witness
wit = wild_witness((7, 2, -3))
x, y, z = Polynomial.variables(3)
scaled = PolynomialMap((x, y, 2 * z))
print(wit.verify(), dataclasses.replace(wit, inverse=identity_map(3)).verify())
print(dataclasses.replace(wit, map=scaled).verify())
print(dataclasses.replace(wit, inverse=scaled).verify())
"""


@pytest.mark.parametrize("field", ["map", "inverse"])
def test_witness_with_scaled_z_fails_verify(field):
    # graded, but the third coordinate is not z: verify compares it with z
    # before restricting, so it answers False instead of raising
    wit = wild_witness((7, 2, -3))
    scaled = dataclasses.replace(wit, **{field: PolynomialMap((x, y, 2 * z))})
    assert scaled.verify() is False


def test_witness_with_unmixed_classification_fails_verify():
    # neither record has shears to build: verify answers, it does not raise
    mixed_as_trivial = dataclasses.replace(
        wild_witness((7, 2, -3)), classification=classify_grading((0, 0, 0))
    )
    uncertified_nagata = dataclasses.replace(
        wild_witness((0, 0, 0)), externally_certified=False
    )
    assert mixed_as_trivial.verify() is False
    assert uncertified_nagata.verify() is False


def test_witness_with_ungraded_map_fails_verify():
    wit = wild_witness((7, 2, -3))
    assert dataclasses.replace(wit, map=PolynomialMap((x + 1, y, z))).verify() is False


def test_witness_fails_verify_when_rederived_certificate_fails(monkeypatch):
    wit = wild_witness((7, 2, -3))
    silent = WildnessCertificate(False, (7, 2, -3), 2, 5, 1)
    monkeypatch.setattr(space, "wildness_certificate", lambda m, w: silent)
    assert wit.verify() is False


def test_witness_build_raises_when_its_certificate_fails(monkeypatch):
    silent = WildnessCertificate(False, (7, 2, -3), 2, 5, 1)
    monkeypatch.setattr(space, "_degree_test", lambda cls, mm: silent)
    with pytest.raises(InvariantViolation):
        wild_witness((7, 2, -3))


def test_witness_verify_holds_under_optimize_flag():
    # python -O strips asserts; verify() must still see each replaced field
    src = str(Path(tamekit.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-O", "-c", _TAMPERED_UNDER_O],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    assert out.stdout.split() == ["True", "False", "False", "False"]


def test_witness_trivial_grading_is_nagata():
    wit = wild_witness((0, 0, 0))
    assert wit.externally_certified
    assert wit.certificate is None
    quadric = x * x - y * z
    assert quadric.substitute(wit.map.coords) == quadric
    assert verify_inverse_pair(wit.map, wit.inverse)
    assert wit.verify()


def test_witness_refused_for_tame_only():
    for weights in [(1, 2, 3), (5, 2, -3), (1, 1, -1), (2, 1, 0), (2, 1, -2)]:
        with pytest.raises(NotWildAdmitting):
            wild_witness(weights)


@pytest.mark.parametrize("weights", [(7, 2, -3), (39, 1, -10), (39, 1, -20), (1003, 1, -1001)])
def test_witness_size_bound_reads_the_first_coordinate(weights):
    # the bound of wild_witness: so many terms, each coefficient below 2^(q(l+1))
    wit = wild_witness(weights)
    q, l = wit.classification.q_hat, wit.classification.l_hat
    first = wit.plane_map.coords[0].terms
    assert len(first) == 1 + q + l * q * (q + 1) // 2
    assert all(abs(c) < 2 ** (q * (l + 1)) for c in first.values())


def test_witness_size_bound_is_inclusive(monkeypatch):
    # (7, 2, -3): q_hat = l_hat = 2, so 9 terms below 2^6
    monkeypatch.setattr(space, "_MAX_WITNESS_BITS", 54)
    assert wild_witness((7, 2, -3)).verify()
    monkeypatch.setattr(space, "_MAX_WITNESS_BITS", 53)
    with pytest.raises(WitnessTooLarge):
        wild_witness((7, 2, -3))


def test_witness_at_the_size_bound_verifies():
    # q_hat = 2 with the largest l_hat the bound admits (the next triple,
    # (5773, 1, -5771), is refused): verify shears rows up to 5771 long
    assert wild_witness((5771, 1, -5769)).verify()
    with pytest.raises(WitnessTooLarge):
        wild_witness((5773, 1, -5771))


def test_certificate_on_witness():
    wit = wild_witness((7, 2, -3))
    cert = wildness_certificate(wit.map, (7, 2, -3))
    assert cert.certified and cert.verdict == "CertifiedWild"
    assert cert.q_hat == 2 and cert.threshold == 5
    assert cert.violating_degree == 3 and cert.violating_exponents == (2, 1)
    assert cert.scale == 1


def test_certificate_inconclusive_cases():
    cert = wildness_certificate(PolynomialMap((x + y**5 * z, y, z)), (7, 2, -3))
    assert not cert.certified and cert.verdict == "Inconclusive"
    cert = wildness_certificate(identity_map(3), (7, 2, -3))
    assert not cert.certified
    cert = wildness_certificate(PolynomialMap((2 * x, 3 * y, 5 * z)), (7, 2, -3))
    assert not cert.certified


def test_certificate_rejections():
    with pytest.raises(NotGraded):
        wildness_certificate(PolynomialMap((x + y, y, z)), (7, 2, -3))
    with pytest.raises(GcdPrecondition):
        wildness_certificate(identity_map(3), (1, 2, 3))
    with pytest.raises(GcdPrecondition):
        wildness_certificate(identity_map(3), (2, 1, -2))
    with pytest.raises(ArityMismatch):
        wildness_certificate(identity_map(2), (7, 2, -3))


def test_certificate_never_fires_on_lifted_tame_maps():
    # soundness: compositions of liftable graded factors stay uncertified,
    # and the decomposition pipeline handles them even though the weights
    # admit wild maps
    rng = random.Random(20260818)

    def factor():
        coeff = rng.choice([1, -1, 2, -2, 3])
        kind = rng.randrange(4)
        if kind == 0:
            q, t = rng.choice([(5, 1), (8, 3)])
            return PolynomialMap((x + coeff * y**q * z**t, y, z))
        if kind == 1:
            return PolynomialMap((x, y + coeff * x**2 * z**4, z))
        if kind == 2:
            return PolynomialMap(
                (rng.choice([1, -1, 2]) * x, rng.choice([1, -1, 3]) * y, z)
            )
        return PolynomialMap((x, y, coeff * z))

    for _ in range(25):
        m = compose_chain([factor() for _ in range(rng.randrange(1, 4))])
        cert = wildness_certificate(m, (7, 2, -3))
        assert not cert.certified
        result = decompose_graded(m, (7, 2, -3))
        assert isinstance(result, FactorChain)
        assert verify_inverse_pair(m, invert_graded(m, (7, 2, -3)))


# ---------------------------------------------------------------------------
# strictly positive weights

def test_positive_oracle():
    m = PolynomialMap((y, x, z + x**2 + x * y))
    chain = decompose_positive(m, (1, 1, 2))
    assert chain.factors == (
        PolynomialMap((y, x, z)),
        PolynomialMap((x, y, x**2 + x * y + z)),
    )


def test_positive_linear_only():
    chain = decompose_positive(PolynomialMap((2 * x + y, x, z)), (1, 1, 2))
    assert chain.factors == (PolynomialMap((2 * x + y, x, z)),)
    assert decompose_positive(identity_map(3), (1, 1, 2)).factors == ()


def test_positive_all_negative_weights():
    m = PolynomialMap((y, x, z + x**2 + x * y))
    chain = decompose_positive(m, (-1, -1, -2))
    assert chain.composed() == m


def test_positive_other_arities():
    chain = decompose_positive(PolynomialMap((2 * u + v, u)), (1, 1))
    assert len(chain.factors) == 1
    p = Polynomial.variables(4)
    m = PolynomialMap(
        (p[1], p[0], p[2] + p[0] * p[1], p[3] + p[0] ** 2 + p[2])
    )
    chain = decompose_positive(m, (1, 1, 2, 2))
    assert chain.composed() == m
    g = Grading((1, 1, 2, 2))
    assert all(g.is_graded_map(f) for f in chain.factors)


def test_positive_rejections():
    with pytest.raises(NotAnAutomorphism):
        decompose_positive(PolynomialMap((x + y, x + y, z)), (1, 1, 2))
    with pytest.raises(WrongShape):
        decompose_positive(identity_map(3), (1, 1, -2))
    with pytest.raises(NotGraded):
        decompose_positive(PolynomialMap((x + z, y, z)), (1, 1, 2))
    with pytest.raises(ArityMismatch):
        decompose_positive(identity_map(3), (1, 1))


def test_positive_seeded_corpus():
    rng = random.Random(7)
    gens_112 = [
        PolynomialMap((y, x, z)),
        PolynomialMap((x + 2 * y, y, z)),
        PolynomialMap((x, y, z + x**2)),
        PolynomialMap((x, y, z + x * y - y**2)),
        PolynomialMap((2 * x, -y, 3 * z)),
    ]
    gens_123 = [
        PolynomialMap((x, y + x**2, z)),
        PolynomialMap((x, y, z + x * y)),
        PolynomialMap((x, y, z + x**3)),
        PolynomialMap((-x, 2 * y, z)),
    ]
    for weights, gens in [((1, 1, 2), gens_112), ((1, 2, 3), gens_123)]:
        g = Grading(weights)
        for _ in range(40):
            m = compose_chain(
                [rng.choice(gens) for _ in range(rng.randrange(1, 5))]
            )
            chain = decompose_positive(m, weights)
            assert chain.composed() == m
            assert all(g.is_graded_map(f) for f in chain.factors)
            assert verify_inverse_pair(m, invert_graded(m, weights))


# ---------------------------------------------------------------------------
# zero-weight cases

def test_zero_distinct_pair_oracle():
    m = PolynomialMap((3 * x + y**2 * z**4, 5 * y, 2 * z + 3))
    chain = decompose_zero_cases(m, (2, 1, 0))
    # lowest weight level first: the z line, then y, then x
    assert chain.factors == (
        PolynomialMap((x, y, 2 * z + 3)),
        PolynomialMap((x, 5 * y, z)),
        PolynomialMap((3 * x, y, z)),
        PolynomialMap((x + Fraction(1, 3) * y**2 * z**4, y, z)),
    )
    g = Grading((2, 1, 0))
    assert all(g.is_graded_map(f) for f in chain.factors)
    assert verify_inverse_pair(m, invert_graded(m, (2, 1, 0)))


def test_zero_equal_pair_euclid_oracle():
    m = PolynomialMap(((1 + z**3) * x + z * y, z**2 * x + y, z))
    chain = decompose_zero_cases(m, (1, 1, 0))
    assert chain.factors == (
        PolynomialMap((x + z * y, y, z)),
        PolynomialMap((x, y + z**2 * x, z)),
    )


def test_zero_equal_pair_with_scalings():
    m = PolynomialMap(
        (2 * (1 + z**3) * x + 2 * z * y, 3 * z**2 * x + 3 * y, -z + 5)
    )
    chain = decompose_zero_cases(m, (1, 1, 0))
    assert chain.composed() == m
    assert verify_inverse_pair(m, invert_graded(m, (1, 1, 0)))


def test_zero_equal_pair_needs_constant_determinant():
    # (z*x, y, z) is graded but its Jacobian determinant is z
    with pytest.raises(NotAnAutomorphism):
        decompose_zero_cases(PolynomialMap((z * x, y, z)), (1, 1, 0))


def test_zero_equal_pair_euclid_corpus():
    rng = random.Random(13)

    def zpoly():
        return sum(
            (rng.randrange(-2, 3) * z**k for k in range(rng.randrange(0, 4))),
            Polynomial.zero(3),
        )

    for _ in range(40):
        pieces = []
        for _ in range(rng.randrange(1, 5)):
            kind = rng.randrange(3)
            if kind == 0:
                pieces.append(PolynomialMap((x + zpoly() * y, y, z)))
            elif kind == 1:
                pieces.append(PolynomialMap((x, y + zpoly() * x, z)))
            else:
                pieces.append(
                    PolynomialMap(
                        (rng.choice([1, -1, 2]) * x, rng.choice([1, -1]) * y, z)
                    )
                )
        m = compose_chain(pieces)
        chain = decompose_zero_cases(m, (1, 1, 0))
        assert chain.composed() == m
        assert verify_inverse_pair(m, invert_graded(m, (1, 1, 0)))


def test_zero_pos_neg_oracle():
    m = PolynomialMap((5 * x, 2 * y + x**2 * z**3 + 7, -z))
    chain = decompose_zero_cases(m, (3, 0, -2))
    assert chain.factors == (
        PolynomialMap((5 * x, 2 * y, -z)),
        PolynomialMap((x, y + Fraction(1, 2) * x**2 * z**3 + Fraction(7, 2), z)),
    )
    assert verify_inverse_pair(m, invert_graded(m, (3, 0, -2)))


def test_zero_pos_neg_rejects_fat_coordinates():
    # x + x^3*z^3 is graded for (3, 0, -2) but divisible by x, hence no
    # coordinate of an automorphism; the Jacobian test catches it
    m = PolynomialMap((x + x**3 * z**3, y, -z))
    with pytest.raises(NotAnAutomorphism):
        decompose_zero_cases(m, (3, 0, -2))


def test_zero_single_positive_embeds_plane():
    m = PolynomialMap((2 * x, z + (y + z**2) ** 3, y + z**2))
    chain = decompose_zero_cases(m, (1, 0, 0))
    # the plane factors of level 0 come first, the x scaling last
    assert chain.factors == (
        PolynomialMap((x, z, y)),
        PolynomialMap((x, y, y**3 + z)),
        PolynomialMap((x, z**2 + y, z)),
        PolynomialMap((2 * x, y, z)),
    )
    assert verify_inverse_pair(m, invert_graded(m, (1, 0, 0)))


def test_zero_single_positive_allows_translations():
    m = PolynomialMap((x, y + 1, z + y**2 + 2 * y + 1))
    chain = decompose_zero_cases(m, (1, 0, 0))
    assert chain.factors == (
        PolynomialMap((x, y + 1, z)),
        PolynomialMap((x, y, y**2 + 2 * y + z + 1)),
    )
    g = Grading((1, 0, 0))
    assert all(g.is_graded_map(f) for f in chain.factors)


def test_zero_cases_permuted_weights():
    m = PolynomialMap((x + 5, y + z**2, z))
    chain = decompose_zero_cases(m, (0, 2, 1))
    # x has weight 0, so its translation is the level-0 factor
    assert chain.factors == (
        PolynomialMap((x + 5, y, z)),
        PolynomialMap((x, z**2 + y, z)),
    )
    g = Grading((0, 2, 1))
    assert all(g.is_graded_map(f) for f in chain.factors)
    assert verify_inverse_pair(m, invert_graded(m, (0, 2, 1)))


def test_zero_cases_rejections():
    with pytest.raises(WrongShape):
        decompose_zero_cases(identity_map(3), (1, 1, -1))
    with pytest.raises(WrongShape):
        decompose_zero_cases(identity_map(3), (0, 0, 0))
    with pytest.raises(NotGraded):
        decompose_zero_cases(PolynomialMap((x + z, y, z)), (2, 1, 0))
    with pytest.raises(NotAnAutomorphism):
        decompose_zero_cases(PolynomialMap((2 * x, y, z**2)), (2, 1, 0))


_SCALES = st.sampled_from([-2, -1, 1, 2, 3])
_COEFFS = st.integers(-2, 2)


def _poly_in(monomials):
    # a random sum of the given monomials with small integer coefficients
    return st.lists(_COEFFS, min_size=len(monomials), max_size=len(monomials)).map(
        lambda cs: sum((c * mon for c, mon in zip(cs, monomials)), Polynomial.zero(3))
    )


_DIAGONAL = st.builds(
    lambda a, b, c: PolynomialMap((a * x, b * y, c * z)), _SCALES, _SCALES, _SCALES
)
_ZPOLY = _poly_in([Polynomial.constant(3, 1), z, z**2])
_YZPOLY = _poly_in([Polynomial.constant(3, 1), y, z, y**2, y * z, z**2])


def _chains(factor):
    return st.lists(factor, min_size=1, max_size=4).map(compose_chain)


# graded maps in the shapes of (2, 1, 0), (1, 1, 0) and (1, 0, 0): first
# with small random entries, then composed from factors of the shape
_GRADED_ZERO_MAPS = st.one_of(
    st.tuples(
        st.just((2, 1, 0)),
        st.one_of(
            st.builds(
                lambda r, s, q, p: PolynomialMap((r * x + s * y**2, q * y, p)),
                _ZPOLY, _ZPOLY, _ZPOLY, _ZPOLY,
            ),
            _chains(
                st.one_of(
                    _DIAGONAL,
                    st.builds(lambda s: PolynomialMap((x + s * y**2, y, z)), _ZPOLY),
                    st.builds(lambda c: PolynomialMap((x, y, z + c)), _COEFFS),
                )
            ),
        ),
    ),
    st.tuples(
        st.just((1, 1, 0)),
        st.one_of(
            st.builds(
                lambda a, b, c, d, p: PolynomialMap((a * x + b * y, c * x + d * y, p)),
                _ZPOLY, _ZPOLY, _ZPOLY, _ZPOLY, _ZPOLY,
            ),
            _chains(
                st.one_of(
                    _DIAGONAL,
                    st.builds(lambda q: PolynomialMap((x + q * y, y, z)), _ZPOLY),
                    st.builds(lambda q: PolynomialMap((x, y + q * x, z)), _ZPOLY),
                    st.builds(lambda c: PolynomialMap((x, y, z + c)), _COEFFS),
                )
            ),
        ),
    ),
    st.tuples(
        st.just((1, 0, 0)),
        st.one_of(
            st.builds(
                lambda f, g, h: PolynomialMap((f * x, g, h)),
                _poly_in([Polynomial.constant(3, 1), y, z]), _YZPOLY, _YZPOLY,
            ),
            _chains(
                st.one_of(
                    st.builds(lambda a: PolynomialMap((a * x, y, z)), _SCALES),
                    st.builds(lambda q: PolynomialMap((x, y + q, z)), _ZPOLY),
                    st.builds(lambda q: PolynomialMap((x, z, y + q)), _ZPOLY),
                )
            ),
        ),
    ),
)


@settings(max_examples=150, deadline=None)
@given(case=_GRADED_ZERO_MAPS)
def test_zero_cases_reject_exactly_without_constant_jacobian(case):
    # the shape readers of (2, 1, 0), (1, 1, 0) and (1, 0, 0) read the
    # coefficients without checks of their own: a constant Jacobian
    # determinant is all they need
    weights, m = case
    if constant_jacobian(m) is None:
        with pytest.raises(NotAnAutomorphism):
            decompose_zero_cases(m, weights)
    else:
        chain = decompose_zero_cases(m, weights)
        g = Grading(weights)
        assert all(g.is_graded_map(f) for f in chain.factors)


# ---------------------------------------------------------------------------
# rewriting plane chains into liftable form

def test_rewrite_swap_oracle():
    target = compose_chain([plane_swap(), PolynomialMap((u, v + u**4))])
    chain = FactorChain(target, [plane_swap(), PolynomialMap((u, v + u**4))])
    result = rewrite_liftable_chain(chain, (5, 2, -3))
    assert result.factors == (
        PolynomialMap((u + v**4, v)),
        plane_swap(),
    )
    # the shear lifts; the target's linear part is the swap itself, so
    # the trailing linear factor carries the unliftable content
    assert lift_plane_map(result.factors[0], (5, 2, -3)).liftable
    report = lift_plane_map(result.factors[1], (5, 2, -3))
    assert not report.liftable
    assert report.obstruction.kind is ObstructionKind.LOW_MONOMIAL


def test_rewrite_merges_linear_tail():
    f1 = PolynomialMap((u, v + u))
    f2 = PolynomialMap((2 * u, -v))
    target = compose_chain([f1, f2])
    result = rewrite_liftable_chain(FactorChain(target, [f1, f2]), (5, 2, -3))
    assert result.composed() == target
    assert all(
        lift_plane_map(f, (5, 2, -3)).liftable for f in result.factors
    )


def test_rewrite_rejections():
    ident = FactorChain(identity_map(2), [])
    with pytest.raises(QHatNotOne):
        rewrite_liftable_chain(ident, (7, 2, -3))
    with pytest.raises(GcdPrecondition):
        rewrite_liftable_chain(ident, (2, 1, -2))
    with pytest.raises(WrongShape):
        rewrite_liftable_chain(ident, (1, 2, -3))
    with pytest.raises(ArityMismatch):
        rewrite_liftable_chain(ident, (7.0, 2.0, -3.0))
    # v^2 has residue 1 mod 3, the target residue is 2
    shear = PolynomialMap((u + v**2, v))
    with pytest.raises(NotGradedChain):
        rewrite_liftable_chain(FactorChain(shear, [shear]), (5, 2, -3))
    shift = PolynomialMap((u + 1, v))
    with pytest.raises(OriginNotPreserved):
        rewrite_liftable_chain(FactorChain(shift, [shift]), (2, 1, -1))
    big = PolynomialMap((u + v**2, v + u**3 + v))
    with pytest.raises(WrongShape):
        rewrite_liftable_chain(FactorChain(big, [big]), (2, 1, -1))


def test_rewrite_seeded_graded_chains():
    # residues (2, 2) mod 3: u-shears need exponents 1 mod 3, v-shears
    # likewise, and the swap is graded
    rng = random.Random(23)
    gens = [
        PolynomialMap((u + 2 * v**4, v)),
        PolynomialMap((u - v, v)),
        PolynomialMap((u, v + u**4)),
        PolynomialMap((u, v + 3 * u)),
        plane_swap(),
        PolynomialMap((2 * u, -v)),
    ]
    rg = plane_residue_grading(5, 2, 3)
    for _ in range(40):
        factors = [rng.choice(gens) for _ in range(rng.randrange(1, 5))]
        target = compose_chain(factors)
        result = rewrite_liftable_chain(FactorChain(target, factors), (5, 2, -3))
        assert result.composed() == target
        for f in result.factors:
            assert rg.is_graded_map(f)
        # shears all lift; the one possibly unliftable spot is a
        # trailing linear factor, liftable exactly when the target's
        # linear part is lower triangular
        for f in result.factors[:-1]:
            assert lift_plane_map(f, (5, 2, -3)).liftable
        if result.factors and target.coords[0].coeff((0, 1)) == 0:
            assert lift_plane_map(result.factors[-1], (5, 2, -3)).liftable


def test_rewrite_factors_pinned():
    # the pending matrix meets every split case (identity, diagonal only,
    # shear only, both) and both u-shear cases (pb == 0 and pa != 0)
    rng = random.Random(1527)
    gens = [
        PolynomialMap((u + 2 * v**4, v)),
        PolynomialMap((2 * u + v + v**4, v)),
        PolynomialMap((u, v + u**4)),
        PolynomialMap((u, -v + 3 * u + u**4)),
        PolynomialMap((u - v, v)),
        PolynomialMap((u, v + 3 * u)),
        PolynomialMap((2 * u, -v)),
        PolynomialMap((2 * u, 3 * u - v)),
        PolynomialMap((u + v, u + 2 * v)),
        plane_swap(),
    ]
    lines = []
    for _ in range(60):
        factors = [rng.choice(gens) for _ in range(rng.randrange(1, 6))]
        target = compose_chain(factors)
        result = rewrite_liftable_chain(FactorChain(target, factors), (5, 2, -3))
        lines.append(" ".join(f.render() for f in result.factors))
    assert _digest(lines) == REWRITE_DIGEST


REWRITE_DIGEST = "ea0cbdfdec6dd64a66e27f1e236632b7234d0efa09db9843b9f357d03ade56e3"


# ---------------------------------------------------------------------------
# the mixed-sign pipeline

def test_pipeline_oracle_5_2_3():
    m = PolynomialMap((x + (y + x * z) ** 4 * z, y + x * z, z))
    chain = decompose_qhat_low(m, (5, 2, -3))
    assert chain.factors == (
        PolynomialMap((-x, y, z)),
        PolynomialMap((x - y**4 * z, y, z)),
        PolynomialMap((-x, y, z)),
        PolynomialMap((x, y + x * z, z)),
    )
    assert verify_inverse_pair(m, invert_graded(m, (5, 2, -3)))


def test_pipeline_single_elementary():
    m = PolynomialMap((x + y**2 * z, y, z))
    chain = decompose_qhat_low(m, (1, 1, -1))
    assert chain.factors == (PolynomialMap((x + y**2 * z, y, z)),)


def test_pipeline_keeps_z_scaling():
    m = PolynomialMap((x + y**2 * z, y, 5 * z))
    chain = decompose_qhat_low(m, (1, 1, -1))
    assert chain.factors == (
        PolynomialMap((x, y, 5 * z)),
        PolynomialMap((x + y**2 * z, y, z)),
    )


def test_pipeline_rejections():
    with pytest.raises(WrongShape):
        decompose_qhat_low(identity_map(3), (7, 2, -3))
    with pytest.raises(WrongShape):
        decompose_qhat_low(identity_map(3), (1, 1, 2))
    with pytest.raises(GcdPrecondition):
        decompose_qhat_low(identity_map(3), (2, 1, -2))
    with pytest.raises(NotGraded):
        decompose_qhat_low(PolynomialMap((x + z, y, z)), (1, 1, -1))
    with pytest.raises(NotAnAutomorphism):
        decompose_qhat_low(PolynomialMap((x * y * z - x, y, z)), (1, 1, -1))


def test_pipeline_seeded_corpus():
    rng = random.Random(31)
    gens_111 = [
        PolynomialMap((x + 2 * y**2 * z, y, z)),
        PolynomialMap((x - y**3 * z**2, y, z)),
        PolynomialMap((x, y + x**2 * z, z)),
        PolynomialMap((2 * x, -y, z)),
        PolynomialMap((x, y, 3 * z)),
        PolynomialMap((y, x, z)),
    ]
    gens_523 = [
        PolynomialMap((x + y**4 * z, y, z)),
        PolynomialMap((x - 2 * y**7 * z**3, y, z)),
        PolynomialMap((x, y + 3 * x * z, z)),
        PolynomialMap((x, y, -z)),
        PolynomialMap((-x, 2 * y, z)),
    ]
    for weights, gens in [((1, 1, -1), gens_111), ((5, 2, -3), gens_523)]:
        g = Grading(weights)
        for _ in range(40):
            m = compose_chain(
                [rng.choice(gens) for _ in range(rng.randrange(1, 5))]
            )
            chain = decompose_qhat_low(m, weights)
            assert chain.composed() == m
            for f in chain.factors:
                assert g.is_graded_map(f)
                assert classify_map(f) is not MapClass.GENERAL
            assert verify_inverse_pair(m, invert_graded(m, weights))


# ---------------------------------------------------------------------------
# the dispatcher and inversion

def test_dispatch_certified_wild_returns_certificate():
    wit = wild_witness((7, 2, -3))
    result = decompose_graded(wit.map, (7, 2, -3))
    assert isinstance(result, WildnessCertificate)
    assert result.certified and result.violating_degree == 3


# graded for (7, 2, -3) and certified by the degree test, but its Jacobian
# determinant 1 + 5y^3z^2 + 4y^6z^4 is not constant
NON_AUTOMORPHISM = PolynomialMap((x + x * y**3 * z**2, y + y**4 * z**2, z))


def test_dispatch_decides_membership_before_a_certificate():
    assert wildness_certificate(NON_AUTOMORPHISM, (7, 2, -3)).certified
    assert constant_jacobian(NON_AUTOMORPHISM) is None
    for call in (decompose_graded, invert_graded):
        with pytest.raises(NotAnAutomorphism):
            call(NON_AUTOMORPHISM, (7, 2, -3))


_LARGE_WILD = (303, 1, -301)  # q_hat 2, l_hat 151: 456 terms per plane coordinate


def test_certified_witness_pair_skips_the_descent(monkeypatch):
    # both restrict to the grading's conjugated shear or its inverse,
    # which one comparison proves automorphisms; the descent alone would
    # take about a second and peak near 2.7 MB here
    wit = wild_witness(_LARGE_WILD)

    def refuse(pm, trace):
        raise AssertionError("the descent ran")

    monkeypatch.setattr(space, "_descend", refuse)
    for m in (wit.map, wit.inverse):
        tracemalloc.start()
        try:
            result = decompose_graded(m, _LARGE_WILD)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(result, WildnessCertificate) and result.certified
        assert peak < 2**20


def _spy_descend(monkeypatch):
    calls = []
    descend = space._descend

    def spy(pm, trace):
        calls.append(pm)
        return descend(pm, trace)

    monkeypatch.setattr(space, "_descend", spy)
    return calls


def test_certified_maps_off_the_witness_go_through_the_descent(monkeypatch):
    # the witness with its x coefficient 1 changed to 2 keeps the certificate
    # and the term count, but its Jacobian is no longer constant
    wit = wild_witness(_LARGE_WILD)
    changed = PolynomialMap((wit.map.coords[0] + x, *wit.map.coords[1:]))
    assert wildness_certificate(changed, _LARGE_WILD).certified
    calls = _spy_descend(monkeypatch)
    for m, weights in ((changed, _LARGE_WILD), (NON_AUTOMORPHISM, (7, 2, -3))):
        with pytest.raises(NotAnAutomorphism):
            decompose_graded(m, weights)
    assert len(calls) == 2


def test_degree_test_reports_the_least_exponent_of_the_lowest_degree():
    # the plane drop u^4 + u*v^3 has two terms of degree 4, below the
    # threshold 5; the larger exponent tuple comes first in the map
    m = PolynomialMap((x + x**4 * z**7 + x * y**3 * z**2, y, z))
    cert = wildness_certificate(m, (7, 2, -3))
    assert cert.certified and cert.threshold == 5
    assert cert.violating_degree == 4 and cert.violating_exponents == (1, 3)


def test_dispatch_tame_map_under_wild_weights():
    m = PolynomialMap((x + y**5 * z, y, z))
    result = decompose_graded(m, (7, 2, -3))
    assert isinstance(result, FactorChain)
    assert result.factors == (m,)


_SCALARS = (1, -1, 2, Fraction(1, 3))


def _monomial_shears(weights, top=20):
    """(index, monomial) for the graded shears x + k*y^j*z^t and
    y + k*x^i*z^t of total degree at most top, for weights (a, b, -c):
    b*j - c*t = a and a*i - c*t = b."""
    a, b, c = weights[0], weights[1], -weights[2]
    out = []
    for j in range(top + 1):
        t, r = divmod(b * j - a, c)
        if t >= 0 and not r and j + t <= top:
            out.append((0, y**j * z**t))
    for i in range(1, top + 1):
        t, r = divmod(a * i - b, c)
        if t >= 0 and not r and i + t <= top:
            out.append((1, x**i * z**t))
    return out


@st.composite
def mixed_words(draw):
    """Words of 1-3 graded factors under wild-admitting mixed weights: the
    witness, its inverse, scalings and single-monomial shears."""
    weights = draw(st.sampled_from([(7, 2, -3), (11, 3, -5)]))
    wit = wild_witness(weights)
    shears = _monomial_shears(weights)

    def factor():
        kind = draw(st.sampled_from(["witness", "inverse", "scaling", "shear"]))
        if kind == "witness":
            return wit.map
        if kind == "inverse":
            return wit.inverse
        if kind == "scaling":
            scales = [draw(st.sampled_from(_SCALARS)) for _ in range(3)]
            return PolynomialMap(s * v for s, v in zip(scales, (x, y, z)))
        i, mono = draw(st.sampled_from(shears))
        coords = [x, y, z]
        coords[i] = coords[i] + draw(st.sampled_from(_SCALARS)) * mono
        return PolynomialMap(coords)

    return weights, [factor() for _ in range(draw(st.integers(1, 3)))]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mixed_words())
def test_dispatch_never_undecided_on_mixed_words(case):
    # the undecided branch needs an uncertified map whose rewritten plane
    # chain leaves an unliftable factor; no word here reaches it.  A word
    # is skipped once a prefix composite has degree above 60, which also
    # bounds the cost of each composition.
    weights, word = case
    m = word[0]
    for f in word[1:]:
        m = compose(m, f)
        assume(m.degree() <= 60)
    try:
        result = decompose_graded(m, weights)
    except WildAdmittingUndecided:
        pytest.fail(f"undecided under {weights}: {m}")
    if isinstance(result, FactorChain):
        assert result.target == m
    else:
        assert result.certified


def test_dispatch_routes_by_sign_pattern():
    pos = PolynomialMap((y, x, z + x**2 + x * y))
    assert decompose_graded(pos, (1, 1, 2)).composed() == pos
    zero = PolynomialMap((3 * x + y**2 * z**4, 5 * y, 2 * z + 3))
    assert decompose_graded(zero, (2, 1, 0)).composed() == zero
    mixed = PolynomialMap((x + y**2 * z, y, z))
    assert decompose_graded(mixed, (1, 1, -1)).composed() == mixed


def test_dispatch_gcd_obstructed():
    m = PolynomialMap((x + y**2, y, 3 * z))
    chain = decompose_graded(m, (2, 1, -2))
    assert chain.factors == (
        PolynomialMap((x, y, 3 * z)),
        PolynomialMap((x + y**2, y, z)),
    )
    assert verify_inverse_pair(m, invert_graded(m, (2, 1, -2)))
    # x^2*z has weight 2, not 1, so y + x^2*z is not graded here
    with pytest.raises(NotGraded):
        decompose_graded(PolynomialMap((x, y + x**2 * z, z)), (2, 1, -2))
    # y + x*y*z is graded but divisible by y: the frozen middle
    # coordinate must be a plain scaling
    with pytest.raises(NotAnAutomorphism):
        decompose_graded(PolynomialMap((x, y + x * y * z, z)), (2, 1, -2))


def test_dispatch_symmetric_gcd_obstructed():
    # weights (3, 2, -2): gcd(2, 2) does not divide 3, the mirror case;
    # x^2*z^2 has weight 6 - 4 = 2, so y + x^2*z^2 is graded
    m = PolynomialMap((5 * x, y + x**2 * z**2, -z))
    chain = decompose_graded(m, (3, 2, -2))
    assert chain.factors == (
        PolynomialMap((5 * x, y, -z)),
        PolynomialMap((x, y + x**2 * z**2, z)),
    )
    assert verify_inverse_pair(m, invert_graded(m, (3, 2, -2)))
    # x + x*y*z is graded here but divisible by x, so no automorphism
    # has it as first coordinate
    with pytest.raises(NotAnAutomorphism):
        decompose_graded(PolynomialMap((x + x * y * z, y, z)), (3, 2, -2))


def test_dispatch_trivial_grading_shapes():
    assert decompose_graded(identity_map(3), (0, 0, 0)).factors == ()
    lin = PolynomialMap((y, z, x))
    assert decompose_graded(lin, (0, 0, 0)).factors == (lin,)
    elem = PolynomialMap((x, y + x * z + 4, z))
    assert decompose_graded(elem, (0, 0, 0)).factors == (elem,)
    tri = PolynomialMap((2 * x + y * z + z**3, 3 * y + z**2 + 1, 5 * z + 7))
    chain = decompose_graded(tri, (0, 0, 0))
    assert chain.composed() == tri
    assert verify_inverse_pair(tri, invert_graded(tri, (0, 0, 0)))
    # triangular maps peel levels with x above y above z
    tri = PolynomialMap((2 * x + y**2 * z, 3 * y + z**2, -z + 1))
    assert decompose_graded(tri, (0, 0, 0)).factors == (
        PolynomialMap((x, y, -z + 1)),
        PolynomialMap((x, 3 * y, z)),
        PolynomialMap((x, y + Fraction(1, 3) * z**2, z)),
        PolynomialMap((2 * x, y, z)),
        PolynomialMap((x + Fraction(1, 2) * y**2 * z, y, z)),
    )
    with pytest.raises(NotAnAutomorphism):
        decompose_graded(PolynomialMap((x + y, x + y + 1, z)), (0, 0, 0))
    wit = wild_witness((0, 0, 0))
    with pytest.raises(WildAdmittingUndecided):
        decompose_graded(wit.map, (0, 0, 0))


def test_invert_graded_blocks_certified_wild():
    wit = wild_witness((7, 2, -3))
    with pytest.raises(CertifiedWildMap) as info:
        invert_graded(wit.map, (7, 2, -3))
    assert info.value.certificate.certified


def test_invert_graded_identity():
    assert invert_graded(identity_map(3), (1, 1, -1)) == identity_map(3)
