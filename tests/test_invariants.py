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
from tamekit.errors import InvariantViolation
from tamekit.jung import decompose_plane, invert_plane
from tamekit.maps import PolynomialMap
from tamekit.poly import Polynomial
from tamekit.space import decompose_graded, invert_graded

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

