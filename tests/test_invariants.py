"""Internal checks are typed raises that survive ``python -O``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tamekit
import tamekit.jung
import tamekit.maps
import tamekit.space
from tamekit.cli import main
from tamekit.errors import InvariantViolation, LiftFailure, WildAdmittingUndecided
from tamekit.jung import decompose_plane, invert_plane
from tamekit.maps import PolynomialMap, compose, identity_map
from tamekit.poly import Polynomial
from tamekit.space import (
    LiftReport,
    WildnessCertificate,
    decompose_graded,
    decompose_qhat_low,
    decompose_zero_cases,
    invert_graded,
    wild_witness,
)

SRC = Path(tamekit.__file__).parent

u, v = Polynomial.variables(2)
x, y, z = Polynomial.variables(3)


def test_no_assert_statements_in_the_library():
    # python -O strips asserts, so none may guard an invariant
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


@pytest.mark.parametrize(
    "invert, args",
    [
        (invert_plane, (PolynomialMap((u + v**2, v)),)),
        (invert_graded, (PolynomialMap((x + y**2 * z, y, z)), (1, 1, -1))),
    ],
)
def test_wrong_factor_inverse_is_an_invariant_violation(monkeypatch, invert, args):
    monkeypatch.setattr(tamekit.maps, "invert_factor", lambda f: f)
    with pytest.raises(InvariantViolation):
        invert(*args)


_WRONG_INVERSE_UNDER_O = """
import tamekit.maps
from tamekit.errors import InvariantViolation
from tamekit.jung import invert_plane
from tamekit.maps import PolynomialMap
from tamekit.poly import Polynomial
from tamekit.space import invert_graded
u, v = Polynomial.variables(2)
x, y, z = Polynomial.variables(3)
tamekit.maps.invert_factor = lambda f: f
for call in (
    lambda: invert_plane(PolynomialMap((u + v**2, v))),
    lambda: invert_graded(PolynomialMap((x + y**2 * z, y, z)), (1, 1, -1)),
):
    try:
        call()
        print("returned")
    except InvariantViolation:
        print("raised")
"""


def test_wrong_factor_inverse_raises_under_optimize_flag():
    out = subprocess.run(
        [sys.executable, "-O", "-c", _WRONG_INVERSE_UNDER_O],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        check=True,
    )
    assert out.stdout.split() == ["raised", "raised"]


def test_derived_chain_that_fails_to_recompose_exits_70(monkeypatch, capsys):
    # a chain tamekit builds itself that does not recompose is a bug, not
    # a wrong input shape (exit 64); a caller's own chain keeps WrongShape
    # (tests/test_maps.py)
    pipeline = tamekit.space._mixed_pipeline
    monkeypatch.setattr(tamekit.space, "_mixed_pipeline", lambda *a: pipeline(*a)[:-1])
    with pytest.raises(InvariantViolation):
        decompose_graded(PolynomialMap((x + y**2 * z, y, z)), (1, 1, -1))
    code = main(["decompose", "(x + y^2*z, y, z)", "--grading", "1,1,-1"])
    assert code == 70
    assert capsys.readouterr().err.startswith("internal error:")


def test_plane_descent_that_fails_to_recompose_is_an_invariant_violation(monkeypatch):
    descend = tamekit.jung._descend

    def drop_last(m, trace):
        factors, notes = descend(m, trace)
        return factors[:-1], notes[:-1]

    monkeypatch.setattr(tamekit.jung, "_descend", drop_last)
    with pytest.raises(InvariantViolation):
        decompose_plane(PolynomialMap((u + v**2, v)))



def test_escaped_lift_failure_exits_70(monkeypatch, capsys):
    # a factor the tame pipeline cannot lift is a bug below q_hat = 2,
    # not the "not liftable" verdict of exit 3
    monkeypatch.setattr(tamekit.space, "lift_plane_map", lambda pm, w: LiftReport(False, "stub"))
    with pytest.raises(LiftFailure):
        decompose_graded(PolynomialMap((x + y**2 * z, y, z)), (1, 1, -1))
    code = main(["decompose", "(x + y^2*z, y, z)", "--grading", "1,1,-1"])
    assert code == 70
    assert capsys.readouterr().err.startswith("internal error:")


def test_unliftable_wild_factor_leaves_the_map_undecided(monkeypatch):
    # with q_hat >= 2 an unliftable factor is an open question, not a bug
    weights = (7, 2, -3)
    m = wild_witness(weights).map
    monkeypatch.setattr(
        tamekit.space,
        "_degree_test",
        lambda cls, mm: WildnessCertificate(False, cls.weights, cls.q_hat, 0, 1),
    )
    with pytest.raises(WildAdmittingUndecided) as info:
        decompose_graded(m, weights)
    assert type(info.value.__cause__) is LiftFailure


def test_area_that_fails_to_shrink_is_an_invariant_violation(monkeypatch, capsys):
    # an automorphism's area always falls, so a step that keeps it is a bug;
    # only the first shear is replaced, so a descent without the check ends
    shear = tamekit.jung._shear_for_edge
    calls = []

    def identity_first(edge):
        calls.append(edge)
        if len(calls) == 1:
            # the identity shear x -> x + 0*y^0 leaves the area as it is
            return (0, 0, 0, 1), identity_map(2), ""
        return shear(edge)

    monkeypatch.setattr(tamekit.jung, "_shear_for_edge", identity_first)
    with pytest.raises(InvariantViolation):
        decompose_plane(PolynomialMap((u + v**2, v)))
    calls.clear()
    assert main(["decompose", "(x + y^2, y)"]) == 70
    assert capsys.readouterr().err.startswith("internal error:")


def test_untraced_descents_build_no_hull(monkeypatch):
    def no_hull(f):
        raise RuntimeError("newton_area called")

    monkeypatch.setattr(tamekit.jung, "newton_area", no_hull)
    decompose_plane(PolynomialMap((u + (v + u**2) ** 2, v + u**2)))
    graded = compose(PolynomialMap((x + y**2 * z, y, z)), PolynomialMap((x, y + x**2 * z, z)))
    decompose_qhat_low(graded, (1, 1, -1))
    decompose_zero_cases(PolynomialMap((2 * x, y + z**2, z + 3)), (1, 0, 0))
    with pytest.raises(RuntimeError):
        decompose_plane(PolynomialMap((u + v**2, v)), trace=lambda m, area: None)
