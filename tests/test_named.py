"""Named example registry."""

import pytest

from tamekit.errors import InvariantViolation, NotWildAdmitting, UnknownName
from tamekit.maps import (
    PolynomialMap,
    constant_jacobian,
    identity_map,
    verify_inverse_pair,
)
from tamekit.named import example_names, get_example, nagata_pair
from tamekit.poly import Polynomial
from tamekit.space import WildWitness, wild_witness

x, y, z = Polynomial.variables(3)


def test_example_names():
    assert example_names() == [
        "identity3",
        "nagata",
        "nagata-inverse",
        "witness(a,b,c)",
    ]


def test_identity_example():
    ex = get_example("identity3")
    assert ex.map == identity_map(3)
    assert ex.inverse == identity_map(3)


def test_nagata_pair():
    nag, nag_inv = nagata_pair()
    assert verify_inverse_pair(nag, nag_inv)
    w = x * x - y * z
    assert nag == PolynomialMap((x + w * z, y + 2 * w * x + w * w * z, z))
    # the quadric x^2 - y*z is preserved
    assert w.substitute(nag.coords) == w
    assert w.substitute(nag_inv.coords) == w
    # unit Jacobian determinant
    assert constant_jacobian(nag) == 1


def test_nagata_examples():
    ex = get_example("nagata")
    inv = get_example("nagata-inverse")
    assert ex.inverse == inv.map and ex.map == inv.inverse
    assert verify_inverse_pair(ex.map, ex.inverse)
    assert ex.notes


def test_witness_examples():
    ex = get_example("witness(7,2,3)")
    wit = wild_witness((7, 2, -3))
    assert ex.map == wit.map and ex.inverse == wit.inverse
    assert "degree 3" in ex.notes
    ex = get_example("witness( 3 , 1 , 1 )")
    assert ex.map == wild_witness((3, 1, -1)).map
    # the trivial grading's witness is Nagata's pair, with no certificate
    ex = get_example("witness(0,0,0)")
    assert (ex.map, ex.inverse) == nagata_pair()
    assert "externally certified" in ex.notes


def test_witness_example_refuses_a_witness_that_fails_verify(monkeypatch):
    monkeypatch.setattr(WildWitness, "verify", lambda self: False)
    with pytest.raises(InvariantViolation):
        get_example("witness(7,2,3)")


def test_witness_example_refuses_tame_weights():
    with pytest.raises(NotWildAdmitting):
        get_example("witness(5,2,3)")


def test_unknown_name():
    with pytest.raises(UnknownName) as info:
        get_example("nagataa")
    assert "nagata" in str(info.value)
    with pytest.raises(UnknownName):
        get_example("witness(1,2)")
