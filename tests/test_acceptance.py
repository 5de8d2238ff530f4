"""Acceptance suite: one test per headline capability.

Every test drives the package end to end with exact arithmetic on the
seeded corpora of ``corpora.py``, which the goldens share, then records
a single PASS/FAIL verdict line that pytest prints after the run.
Tolerances are exact equality throughout; the only numeric bound is
the wall-clock budget on the plane round trip.
"""

import time
from contextlib import contextmanager

import pytest

from tamekit import (
    FactorChain,
    Grading,
    NotAnAutomorphism,
    ObstructionKind,
    Polynomial,
    PolynomialMap,
    classify_grading,
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

import corpora

u, v = Polynomial.variables(2)
x, y, z = Polynomial.variables(3)


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
        golden = corpora.plane_golden_lines()
        assert len(golden) == 500
        start = time.monotonic()
        for i, m in corpora.criterion_1_maps():
            areas = []
            chain = decompose_plane(m, trace=lambda cur, area: areas.append(area))
            assert chain.composed() == m
            assert corpora.chain_line(i, chain) == golden[i]
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


def test_criterion_3_wildness_boundary(verdict):
    with _scored(verdict, 3, "classification matches direct search on 14207 weight triples"):
        triples = corpora.mixed_sweep()
        assert len(triples) == 14207
        wild = 0
        for a, b, c in triples:
            cls = classify_grading((a, b, -c))
            expected = corpora.directly_wild(a, b, c)
            assert cls.admits_wild == expected, (a, b, c)
            assert (cls.q_hat >= 2) == expected, (a, b, c)
            if expected:
                wild += 1
                assert cls.witness_q >= 2 and cls.witness_p >= 1
                assert a == cls.witness_q * b + cls.witness_p * c
        assert wild == len(corpora.wild_triples()) == 1527


def test_criterion_4_witness_for_every_wild_grading(verdict, wild_witnesses):
    with _scored(verdict, 4, "explicit wild witnesses verify for all 1527 wild gradings"):
        wild = corpora.wild_triples()
        assert len(wild) == 1527
        # the witnesses are built once per session (see conftest.py)
        assert tuple(t for t, _ in wild_witnesses) == wild
        for (a, b, c), wit in wild_witnesses:
            w = (a, b, -c)
            cls = wit.classification
            assert cls.weights == w
            assert wit.verify(), w
            g = Grading(w)
            assert g.is_graded_map(wit.map) and g.is_graded_map(wit.inverse)
            cert = wit.certificate
            assert cert.certified
            assert cert.violating_degree == cls.q_hat + cls.l_hat - 1
            assert cert.violating_degree < cert.threshold == cls.q_hat + c
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
        plane_maps, space_maps = corpora.lifting_maps()
        for pm in plane_maps:
            rep = lift_plane_map(pm, w)
            assert rep.liftable, pm
            assert rep.lifted.coords[2] == z
            assert g.is_graded_map(rep.lifted)
            assert restrict_to_plane(rep.lifted) == pm

        # a graded map fixing z is pinned down by its plane restriction
        for m in space_maps:
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
# criteria 7-9: graded pipelines on the corpora of corpora.PIPELINES


def _decomposed(tag):
    """(weights, [(map, chain)]) for one pipeline corpus, each chain
    checked: it recomposes to its map, and every factor is graded and
    inverts."""
    weights, maps = corpora.pipeline(tag)
    g = Grading(weights)
    pairs = []
    for m in maps:
        chain = decompose_graded(m, weights)
        assert isinstance(chain, FactorChain)
        assert chain.composed() == m
        for fac in chain.factors:
            assert g.is_graded_map(fac)
            invert_factor(fac)
        pairs.append((m, chain))
    return weights, pairs


def test_criterion_7_zero_weight_euclid(verdict):
    with _scored(verdict, 7, "100 zero-weight Euclid products recompose exactly"):
        _decomposed("euclid")


def test_criterion_8_qhat_low_pipelines(verdict):
    with _scored(verdict, 8, "q-hat <= 1 pipelines: 100+100 maps, liftable graded factors"):
        for tag in ("qhat111", "qhat523"):
            weights, pairs = _decomposed(tag)
            for _, chain in pairs:
                for fac in chain.factors:
                    if fac.coords[2] == z:
                        assert lift_plane_map(restrict_to_plane(fac), weights).liftable


def test_criterion_9_positive_pipelines(verdict):
    with _scored(verdict, 9, "positive gradings: 100+100 maps recompose, blocks invert"):
        for tag in ("pos112", "pos123"):
            weights, pairs = _decomposed(tag)
            for m, _ in pairs:
                assert verify_inverse_pair(m, invert_graded(m, weights))
