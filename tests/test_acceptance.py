"""Acceptance suite: one test per headline capability.

Every test drives the package end to end with exact arithmetic and
frozen seeds, then records a single PASS/FAIL verdict line that pytest
prints after the run.  Tolerances are exact equality throughout; the
only numeric bound is the wall-clock budget on the plane round trip.
"""

import random
import time
from contextlib import contextmanager
from math import gcd

import pytest

from tamekit import (
    FactorChain,
    Grading,
    NotAnAutomorphism,
    ObstructionKind,
    Polynomial,
    PolynomialMap,
    classify_grading,
    compose_chain,
    constant_jacobian,
    decompose_graded,
    decompose_plane,
    invert_factor,
    invert_graded,
    is_plane_automorphism,
    lift_plane_map,
    nagata_pair,
    restrict_to_plane,
    verify_inverse_pair,
    wild_witness,
)
from test_golden_plane import chain_line, criterion_1_maps, golden_lines

u, v = Polynomial.variables(2)
x, y, z = Polynomial.variables(3)

NONZERO = [-3, -2, -1, 1, 2, 3]


@contextmanager
def _scored(record, number, label):
    try:
        yield
    except BaseException:
        record(f"criterion {number}: FAIL ({label})")
        raise
    record(f"criterion {number}: PASS ({label})")


# ----------------------------------------------------------------------
# criterion 1: plane tame maps decompose and recompose exactly


def test_criterion_1_plane_round_trip(verdict):
    with _scored(verdict, 1, "500 plane tame maps round trip in under 60s"):
        golden = golden_lines()
        assert len(golden) == 500
        start = time.monotonic()
        for i, m in criterion_1_maps():
            areas = []
            chain = decompose_plane(m, trace=lambda cur, area: areas.append(area))
            assert chain.composed() == m
            assert chain_line(i, chain) == golden[i]
            # the Newton polygon area must shrink strictly at every step
            assert all(later < earlier for earlier, later in zip(areas, areas[1:]))
        assert time.monotonic() - start < 60.0


# ----------------------------------------------------------------------
# criterion 2: curated non-automorphisms are all rejected


def test_criterion_2_rejects_non_automorphisms(verdict):
    with _scored(verdict, 2, "at least 20 curated non-automorphisms rejected"):
        bad = [
            (u * u, v),
            (u * v, v),
            (u + v, u + v),
            (u, u),
            (v, v),
            (u**2 + v**2, v),
            (u**3 - v**2, v),
            (u + v**2, v + u**2),
            (2 * u + 3 * v, 4 * u + 6 * v),
            (u + 1, u + 3),
            (Polynomial.zero(2), v),
            (Polynomial.constant(2, 1), v),
            (u * (1 + v), v),
            (u + v**3, v - u**3),
            (u * v + 1, v),
            (u**3, v**3),
            (u + v**2, 2 * v + u**2),
            (u**2, v**2),
            (u + v, u - v + u**2),
            (v**2, u**2),
            (u**2 - v**2, u + v),
            (u + u**2 * v**2, v),
        ]
        assert len(bad) >= 20
        for coords in bad:
            m = PolynomialMap(coords)
            assert not is_plane_automorphism(m), m
            with pytest.raises(NotAnAutomorphism):
                decompose_plane(m)


# ----------------------------------------------------------------------
# criteria 3 and 4: the mixed-weight sweep


_SWEEP_CACHE = {}


def _mixed_sweep():
    """All (a, b, c) with 1 <= b <= a <= 40, 1 <= c <= 40 and the three
    gcd conditions gcd(a,b,c) = gcd(a,c) = gcd(b,c) = 1."""
    got = _SWEEP_CACHE.get("sweep")
    if got is None:
        got = [
            (a, b, c)
            for a in range(1, 41)
            for b in range(1, a + 1)
            for c in range(1, 41)
            if gcd(gcd(a, b), c) == 1 and gcd(a, c) == 1 and gcd(b, c) == 1
        ]
        _SWEEP_CACHE["sweep"] = got
    return got


def _directly_wild(a, b, c):
    # search a = q*b + p*c with q >= 2 and p >= 1, no residue shortcuts
    for q in range(2, (a - c) // b + 1):
        rest = a - q * b
        if rest >= c and rest % c == 0:
            return True
    return False


def _wild_triples():
    got = _SWEEP_CACHE.get("wild")
    if got is None:
        got = [t for t in _mixed_sweep() if _directly_wild(*t)]
        _SWEEP_CACHE["wild"] = got
    return got


def test_criterion_3_wildness_boundary(verdict):
    with _scored(verdict, 3, "classification matches direct search on 14207 weight triples"):
        triples = _mixed_sweep()
        assert len(triples) == 14207
        wild = 0
        for a, b, c in triples:
            cls = classify_grading((a, b, -c))
            expected = _directly_wild(a, b, c)
            assert cls.admits_wild == expected, (a, b, c)
            assert (cls.q_hat >= 2) == expected, (a, b, c)
            if expected:
                wild += 1
                assert cls.witness_q >= 2 and cls.witness_p >= 1
                assert a == cls.witness_q * b + cls.witness_p * c
        assert wild == len(_wild_triples()) == 1527


def test_criterion_4_witness_for_every_wild_grading(verdict):
    with _scored(verdict, 4, "explicit wild witnesses verify for all 1527 wild gradings"):
        wild = _wild_triples()
        assert len(wild) == 1527
        for a, b, c in wild:
            w = (a, b, -c)
            wit = wild_witness(w)
            assert wit.verify(), w
            g = Grading(w)
            assert g.is_graded_map(wit.map) and g.is_graded_map(wit.inverse)
            cert = wit.certificate
            assert cert.certified
            assert cert.violating_degree == wit.q_hat + wit.l_hat - 1
            assert cert.violating_degree < cert.threshold == wit.q_hat + c
        # one pair checked by full literal composition, plus pinned terms
        wit = wild_witness((7, 2, -3))
        assert verify_inverse_pair(wit.map, wit.inverse)
        assert verify_inverse_pair(wit.plane_map, wit.plane_inverse)
        assert wit.map.coords[0].coeff((2, 1, 3)) == -2
        assert wit.map.coords[0].coeff((0, 5, 1)) == -2


# ----------------------------------------------------------------------
# criterion 5: the Nagata automorphism


def test_criterion_5_nagata(verdict):
    with _scored(verdict, 5, "Nagata pair inverts, preserves the quadric, has Jacobian 1"):
        nag, nag_inv = nagata_pair()
        assert verify_inverse_pair(nag, nag_inv)
        quadric = x**2 - y * z
        assert quadric.substitute(nag.coords) == quadric
        assert quadric.substitute(nag_inv.coords) == quadric
        assert constant_jacobian(nag) == 1
        assert constant_jacobian(nag_inv) == 1


# ----------------------------------------------------------------------
# criterion 6: lifting and restriction round trips at (7, 2, -3)


def test_criterion_6_lifting(verdict):
    with _scored(verdict, 6, "200+200 lift/restriction round trips, obstructions tagged"):
        w = (7, 2, -3)
        g = Grading(w)
        rng = random.Random(723)

        def liftable_plane_factor():
            kind = rng.randrange(4)
            c = rng.choice(NONZERO)
            if kind == 0:
                return PolynomialMap((u + c * v**5, v))
            if kind == 1:
                return PolynomialMap((u + c * v**8, v))
            if kind == 2:
                return PolynomialMap((u, v + c * u**2))
            return PolynomialMap((rng.choice(NONZERO) * u, rng.choice(NONZERO) * v))

        for _ in range(200):
            pm = compose_chain(
                [liftable_plane_factor() for _ in range(rng.randrange(1, 5))]
            )
            rep = lift_plane_map(pm, w)
            assert rep.liftable, pm
            assert rep.lifted.coords[2] == z
            assert g.is_graded_map(rep.lifted)
            assert restrict_to_plane(rep.lifted) == pm

        def graded_zfixed_factor():
            kind = rng.randrange(4)
            c = rng.choice(NONZERO)
            if kind == 0:
                return PolynomialMap((x + c * y**5 * z, y, z))
            if kind == 1:
                return PolynomialMap((x + c * y**8 * z**3, y, z))
            if kind == 2:
                return PolynomialMap((x, y + c * x**2 * z**4, z))
            return PolynomialMap((rng.choice(NONZERO) * x, rng.choice(NONZERO) * y, z))

        # a graded map fixing z is pinned down by its plane restriction
        for _ in range(200):
            m = compose_chain(
                [graded_zfixed_factor() for _ in range(rng.randrange(1, 5))]
            )
            rep = lift_plane_map(restrict_to_plane(m), w)
            assert rep.liftable
            assert rep.lifted == m

        rep = lift_plane_map(PolynomialMap((u + v**2, v)), w)
        assert not rep.liftable
        assert rep.obstruction.kind is ObstructionKind.LOW_MONOMIAL
        assert rep.obstruction.coordinate == 0
        assert rep.obstruction.exponents == (0, 2)

        rep = lift_plane_map(PolynomialMap((v, u)), (5, 2, -3))
        assert not rep.liftable
        assert rep.obstruction.kind is ObstructionKind.LOW_MONOMIAL
        assert rep.obstruction.exponents == (0, 1)

        rep = lift_plane_map(PolynomialMap((u, v + 1)), (2, 1, -1))
        assert not rep.liftable
        assert rep.obstruction.kind is ObstructionKind.FREE_TERM
        assert rep.obstruction.coordinate == 1

        rep = lift_plane_map(PolynomialMap((u + v**2, v)), (2, 1, -1))
        assert rep.liftable
        assert rep.lifted == PolynomialMap((x + y**2, y, z))


# ----------------------------------------------------------------------
# criterion 7: zero-weight gradings go through the Euclid route


def test_criterion_7_zero_weight_euclid(verdict):
    with _scored(verdict, 7, "100 zero-weight Euclid products recompose exactly"):
        w = (1, 1, 0)
        g = Grading(w)
        rng = random.Random(110)

        def zpoly():
            while True:
                p = Polynomial.zero(3)
                for k in range(5):
                    c = rng.randrange(-3, 4)
                    if c:
                        p = p + c * z**k
                if not p.is_zero():
                    return p

        def euclid_factor():
            kind = rng.randrange(3)
            if kind == 0:
                return PolynomialMap((x + zpoly() * y, y, z))
            if kind == 1:
                return PolynomialMap((x, y + zpoly() * x, z))
            return PolynomialMap((rng.choice(NONZERO) * x, rng.choice(NONZERO) * y, z))

        for _ in range(100):
            m = compose_chain([euclid_factor() for _ in range(rng.randrange(1, 6))])
            chain = decompose_graded(m, w)
            assert isinstance(chain, FactorChain)
            assert chain.composed() == m
            for fac in chain.factors:
                assert g.is_graded_map(fac)
                invert_factor(fac)


# ----------------------------------------------------------------------
# criterion 8: mixed weights with q_hat <= 1 decompose into liftable factors


def _pipeline_check(weights, seed, factor_fn):
    g = Grading(weights)
    rng = random.Random(seed)
    for _ in range(100):
        m = compose_chain([factor_fn(rng) for _ in range(rng.randrange(1, 6))])
        chain = decompose_graded(m, weights)
        assert isinstance(chain, FactorChain)
        assert chain.composed() == m
        for fac in chain.factors:
            assert g.is_graded_map(fac)
            invert_factor(fac)
            if fac.coords[2] == z:
                assert lift_plane_map(restrict_to_plane(fac), weights).liftable


def test_criterion_8_qhat_low_pipelines(verdict):
    with _scored(verdict, 8, "q-hat <= 1 pipelines: 100+100 maps, liftable graded factors"):

        def factor_1_1_1(rng):
            kind = rng.randrange(5)
            c = rng.choice(NONZERO)
            if kind == 0:
                return PolynomialMap((x + c * y**2 * z, y, z))
            if kind == 1:
                return PolynomialMap((x + c * y**3 * z**2, y, z))
            if kind == 2:
                return PolynomialMap((x, y + c * x**2 * z, z))
            if kind == 3:
                return PolynomialMap((y, x, z))
            return PolynomialMap(
                (rng.choice(NONZERO) * x, rng.choice(NONZERO) * y, rng.choice(NONZERO) * z)
            )

        def factor_5_2_3(rng):
            kind = rng.randrange(4)
            c = rng.choice(NONZERO)
            if kind == 0:
                return PolynomialMap((x + c * y**4 * z, y, z))
            if kind == 1:
                return PolynomialMap((x + c * y**7 * z**3, y, z))
            if kind == 2:
                return PolynomialMap((x, y + c * x * z, z))
            return PolynomialMap(
                (rng.choice(NONZERO) * x, rng.choice(NONZERO) * y, rng.choice(NONZERO) * z)
            )

        _pipeline_check((1, 1, -1), 811, factor_1_1_1)
        _pipeline_check((5, 2, -3), 852, factor_5_2_3)


# ----------------------------------------------------------------------
# criterion 9: all-positive weights decompose level by level


def test_criterion_9_positive_pipelines(verdict):
    with _scored(verdict, 9, "positive gradings: 100+100 maps recompose, blocks invert"):

        def factor_1_1_2(rng):
            kind = rng.randrange(3)
            if kind == 0:
                while True:
                    a, b, c, d = (rng.randrange(-3, 4) for _ in range(4))
                    if a * d - b * c != 0:
                        break
                return PolynomialMap(
                    (a * x + b * y, c * x + d * y, rng.choice(NONZERO) * z)
                )
            if kind == 1:
                q = Polynomial.zero(3)
                for mon in (x**2, x * y, y**2):
                    q = q + rng.randrange(-3, 4) * mon
                return PolynomialMap((x, y, z + q))
            return PolynomialMap((x, y, rng.choice(NONZERO) * z))

        def factor_1_2_3(rng):
            kind = rng.randrange(4)
            c = rng.choice(NONZERO)
            if kind == 0:
                return PolynomialMap(
                    (rng.choice(NONZERO) * x, rng.choice(NONZERO) * y, rng.choice(NONZERO) * z)
                )
            if kind == 1:
                return PolynomialMap((x, y + c * x**2, z))
            if kind == 2:
                return PolynomialMap((x, y, z + c * x * y))
            return PolynomialMap((x, y, z + c * x**3))

        for weights, seed, factor_fn in (
            ((1, 1, 2), 912, factor_1_1_2),
            ((1, 2, 3), 923, factor_1_2_3),
        ):
            g = Grading(weights)
            rng = random.Random(seed)
            for _ in range(100):
                m = compose_chain([factor_fn(rng) for _ in range(rng.randrange(1, 6))])
                chain = decompose_graded(m, weights)
                assert isinstance(chain, FactorChain)
                assert chain.composed() == m
                for fac in chain.factors:
                    assert g.is_graded_map(fac)
                    invert_factor(fac)
                inv = invert_graded(m, weights)
                assert verify_inverse_pair(m, inv)
