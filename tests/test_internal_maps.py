"""Maps tamekit builds itself skip PolynomialMap's checks.

``PolynomialMap._raw`` trusts its caller to pass Polynomials of the
map's arity.  The ``checked_raw`` fixture puts the public constructor's
checks back into ``_raw``, and the seeded plane, witness and graded
corpora run through it against their golden outputs, so an internal
builder that hands ``_raw`` anything else fails here.
"""

import pytest

import test_golden
import test_golden_plane
import test_golden_witness
from tamekit import Polynomial, PolynomialMap, decompose_plane, invert_factor, wild_witness
from test_maps import literal_inverse_pair

STEP = 10


@pytest.fixture
def checked_raw(monkeypatch):
    """Every map _raw builds, after checking it as PolynomialMap would."""
    built = []
    raw = PolynomialMap._raw.__func__

    def checked(cls, coords):
        m = raw(cls, coords)
        if not m.coords:
            pytest.fail("a map needs at least one coordinate")
        for c in m.coords:
            if not isinstance(c, Polynomial):
                pytest.fail(f"coordinate {c!r} is not a polynomial")
            if c.arity != m.arity:
                pytest.fail(f"coordinate arity {c.arity} does not match map arity {m.arity}")
        built.append(m)
        return m

    monkeypatch.setattr(PolynomialMap, "_raw", classmethod(checked))
    return built


def test_plane_corpus_builds_well_formed_maps(checked_raw):
    golden = test_golden_plane.golden_lines()
    for i, m in test_golden_plane.criterion_1_maps(STEP):
        chain = decompose_plane(m)
        assert test_golden_plane.chain_line(i, chain) == golden[i]
        for f in chain.factors:
            assert literal_inverse_pair(f, invert_factor(f))
    assert checked_raw


def test_witness_corpus_builds_well_formed_maps(checked_raw):
    golden = test_golden_witness._golden_lines()
    triples = test_golden_witness.wild_triples()
    for k in range(0, len(triples), STEP):
        a, b, c = triples[k]
        wit = wild_witness((a, b, -c))
        assert wit.verify()
        assert test_golden_witness.witness_line(wit) + "\n" == golden[k]
    assert checked_raw


def test_graded_corpus_builds_well_formed_maps(checked_raw):
    assert test_golden.render_golden() == test_golden.GOLDEN.read_text()
    assert checked_raw
