"""Inline text and JSON document parsing."""

import json
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from tamekit.errors import ParseError
from tamekit.grading import Grading, ResidueGrading
from tamekit.maps import PolynomialMap
from tamekit.parsing import (
    parse_document,
    parse_map,
    parse_polynomial,
    parse_weights,
)
from tamekit.poly import Polynomial

x, y, z = Polynomial.variables(3)
u, v = Polynomial.variables(2)


def test_parse_three_variable_polynomial():
    assert parse_polynomial("y^2*z + x") == y**2 * z + x
    assert parse_polynomial("x^2 - y*z") == x * x - y * z
    assert parse_polynomial(
        "-x^4*z^7 - 4*x^3*y^2*z^6 - 2*x^2*y*z^3 + x"
    ) == -x**4 * z**7 - 4 * x**3 * y**2 * z**6 - 2 * x**2 * y * z**3 + x


def test_parse_two_variable_alphabets():
    assert parse_polynomial("u + v^2") == u + v**2
    assert parse_polynomial("x + y^2") == u + v**2
    assert parse_polynomial("x - y").arity == 2


def test_parse_arity_override():
    p = parse_polynomial("x + y^2", arity=3)
    assert p.arity == 3 and p == x + y**2


def test_parse_constants_and_fractions():
    assert parse_polynomial("3") == Polynomial.constant(2, 3)
    assert parse_polynomial("0") == Polynomial.zero(2)
    assert parse_polynomial("1/2*x^2 + 7/2") == (
        Fraction(1, 2) * u**2 + Polynomial.constant(2, Fraction(7, 2))
    )
    assert parse_polynomial("-5/3") == Polynomial.constant(2, Fraction(-5, 3))


def test_parse_parentheses_and_double_star():
    assert parse_polynomial("2*(x + y)^2") == 2 * (u + v) ** 2
    assert parse_polynomial("x**2 + y") == u**2 + v
    assert parse_polynomial("(x + 1)*(x - 1)") == u**2 - 1


def test_parse_leading_sign():
    assert parse_polynomial("-x + y") == -u + v
    assert parse_polynomial("+x") == u
    assert parse_polynomial("3*(-x + y)") == 3 * (v - u)


def test_parse_error_positions():
    cases = [
        ("2x", 1),          # missing operator
        ("x y", 2),
        ("x^-1", 1),        # exponent must be an integer literal
        ("x^(2)", 1),
        ("x/2", 1),         # division of a variable
        ("1/0", 2),
        ("(x", 2),          # unclosed parenthesis
        ("x + w", 4),       # unknown variable
        ("u + x", 4),       # mixed alphabets
        ("x $ y", 2),       # stray character
    ]
    for text, position in cases:
        with pytest.raises(ParseError) as info:
            parse_polynomial(text)
        assert info.value.position == position, text


_DIVISION = "division is only available between integer literals"


# on each of these inputs a later check raises ParseError too, with
# another message, so each row pins the message and position of the
# check that speaks first
@pytest.mark.parametrize(
    "parse, text, message, position",
    [
        (partial(parse_polynomial, arity=3), "u + v",
         "three-variable text uses x, y, z", 0),
        (partial(parse_polynomial, arity=2), "x + z",
         "z is not available in two variables", 4),
        (parse_polynomial, "  ", "empty polynomial", 0),
        (parse_polynomial, "2x", "missing operator (explicit * is required)", 1),
        (parse_polynomial, "x/2", _DIVISION, 1),
        (parse_polynomial, "1/x", _DIVISION, 1),
        (parse_map, "(x)", "a map needs two or three coordinates, got 1", 0),
    ],
    ids=[
        "u-v-in-three-variables", "z-in-two-variables", "blank", "missing-operator",
        "variable-divided", "divided-by-a-variable", "one-coordinate",
    ],
)
def test_parse_error_message_and_position(parse, text, message, position):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert (str(info.value), info.value.position) == (message, position)


def test_parse_empty_and_dangling():
    with pytest.raises(ParseError):
        parse_polynomial("")
    with pytest.raises(ParseError):
        parse_polynomial("   ")
    with pytest.raises(ParseError):
        parse_polynomial("x +")
    with pytest.raises(ParseError):
        parse_polynomial("* x")


def test_parse_alphabet_restrictions():
    with pytest.raises(ParseError):
        parse_polynomial("z", arity=2)
    with pytest.raises(ParseError):
        parse_polynomial("u + v", arity=3)
    with pytest.raises(ParseError):
        parse_polynomial("x", arity=4)
    # z forces three variables during inference
    assert parse_polynomial("z").arity == 3
    with pytest.raises(ParseError):
        parse_polynomial("u + z")


def test_parse_map_oracles():
    assert parse_map("(y^2*z + x, y, z)") == PolynomialMap((y**2 * z + x, y, z))
    assert parse_map("(u + v^2, v)") == PolynomialMap((u + v**2, v))
    assert parse_map("(x + y^2, y)") == PolynomialMap((u + v**2, v))
    assert parse_map(" ( x , y , z ) ") == PolynomialMap((x, y, z))
    assert parse_map("(x, y + (x + z)^2, z)") == PolynomialMap(
        (x, y + (x + z) ** 2, z)
    )


def test_parse_map_errors():
    for text in [
        "",
        "x, y",
        "(x)",
        "(x, y, z, x)",
        "(x, )",
        "(x, y",
        "(x, y) junk",
        "(u, z)",
        "()",
    ]:
        with pytest.raises(ParseError):
            parse_map(text)


def test_parse_weights():
    assert parse_weights("7,2,-3") == (7, 2, -3)
    assert parse_weights("(1, 1, 0)") == (1, 1, 0)
    assert parse_weights(" 1 , 1 ") == (1, 1)
    with pytest.raises(ParseError):
        parse_weights("1,b,3")
    with pytest.raises(ParseError):
        parse_weights("")


_coeffs = st.one_of(
    st.integers(-9, 9).filter(bool),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
)


def _polys(arity):
    exps = st.tuples(*([st.integers(0, 4)] * arity))
    return st.dictionaries(exps, _coeffs, max_size=6).map(
        lambda d: sum(
            (Polynomial.monomial(arity, e, c) for e, c in d.items()),
            Polynomial.zero(arity),
        )
    )


@settings(max_examples=60, deadline=None)
@given(_polys(3))
def test_render_parse_round_trip_three(p):
    assert parse_polynomial(p.render(), arity=3) == p


@settings(max_examples=60, deadline=None)
@given(_polys(2))
def test_render_parse_round_trip_two(p):
    assert parse_polynomial(p.render(), arity=2) == p


@settings(max_examples=40, deadline=None)
@given(_polys(3), _polys(3), _polys(3))
def test_map_render_parse_round_trip(p0, p1, p2):
    m = PolynomialMap((p0, p1, p2))
    assert parse_map(m.render()) == m


_DOCUMENT_NAMES = {
    2: [("x", "y"), ("u", "v"), ("s", "t")],
    3: [("x", "y", "z"), ("s", "t", "r")],
}


@st.composite
def _documents(draw):
    """A JSON document built with json.dumps, and the map and grading it holds."""
    arity = draw(st.sampled_from((2, 3)))
    names = draw(st.sampled_from(_DOCUMENT_NAMES[arity]))
    m = PolynomialMap([draw(_polys(arity)) for _ in range(arity)])
    data = {"vars": list(names), "coords": [c.render(names) for c in m.coords]}
    kind = draw(st.sampled_from(("none", "exact", "residue")))
    grading = None
    if kind != "none":
        weights = draw(st.lists(st.integers(-9, 9), min_size=arity, max_size=arity))
        data["grading"] = {"weights": weights}
        grading = Grading(weights)
        if kind == "residue":
            modulus = draw(st.integers(1, 7))
            data["grading"]["modulus"] = modulus
            grading = ResidueGrading(weights, modulus)
    return json.dumps(data), m, grading


@settings(max_examples=60, deadline=None)
@given(_documents())
def test_document_round_trip(case):
    text, m, grading = case
    parsed, back = parse_document(text)
    assert parsed == m
    assert back == grading and type(back) is type(grading)


def test_document_residue_grading():
    m, grading = parse_document(
        '{"vars": ["u", "v"], "coords": ["u + v^5", "v"], '
        '"grading": {"weights": [7, 2], "modulus": 3}}'
    )
    assert m == PolynomialMap((u + v**5, v))
    assert isinstance(grading, ResidueGrading)
    assert grading == ResidueGrading((7, 2), 3) and grading.modulus == 3


def test_document_without_grading():
    # an absent or null grading is none; a null modulus is an exact grading
    coords = '"vars": ["x", "y"], "coords": ["x", "y"]'
    assert parse_document("{" + coords + "}") == (identity2(), None)
    assert parse_document("{" + coords + ', "grading": null}') == (identity2(), None)
    _, grading = parse_document(
        "{" + coords + ', "grading": {"weights": [1, 2], "modulus": null}}'
    )
    assert grading == Grading((1, 2)) and type(grading) is Grading


def identity2():
    return PolynomialMap((u, v))


def test_document_custom_names():
    m, grading = parse_document('{"vars": ["s", "t"], "coords": ["s + t^2", "t"]}')
    assert m == PolynomialMap((u + v**2, v)) and grading is None
    # rendering canonicalizes term order (graded-lex descending)
    assert [c.render(("s", "t")) for c in m.coords] == ["t^2 + s", "t"]


def test_document_json_validation():
    good = '{"vars": ["x", "y"], "coords": ["x", "y"]}'
    assert parse_document(good)[0] == identity2()
    bad = [
        "[]",
        "{",
        '{"vars": ["x", "y"]}',
        '{"vars": ["x", "x"], "coords": ["x", "x"]}',
        '{"vars": ["x", "2y"], "coords": ["x", "y"]}',
        '{"vars": ["x", "y"], "coords": ["x"]}',
        '{"vars": ["x", "y"], "coords": ["x", "y"], "extra": 1}',
        '{"vars": ["x", "y"], "coords": ["x", "y"], "grading": {"weights": [1]}}',
        '{"vars": ["x", "y"], "coords": ["x", "y"], '
        '"grading": {"weights": [1, "a"]}}',
        '{"vars": ["x", "y"], "coords": ["x", "y"], '
        '"grading": {"weights": [1, 1], "modulus": 0}}',
        '{"vars": ["x", "y"], "coords": ["x", "y"], '
        '"grading": {"weights": [1, 1], "modulos": 3}}',
    ]
    for text in bad:
        with pytest.raises(ParseError):
            parse_document(text)


def test_document_unknown_variable_in_coordinate():
    with pytest.raises(ParseError):
        parse_document('{"vars": ["x", "y"], "coords": ["x + q", "y"]}')


def test_document_grading_is_checked_before_the_coordinates():
    text = (
        '{"vars": ["x", "y"], "coords": ["x + q", "y"], '
        '"grading": {"weights": [1]}}'
    )
    with pytest.raises(ParseError, match="2 variables but 1 weights"):
        parse_document(text)
