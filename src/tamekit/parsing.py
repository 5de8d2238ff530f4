"""Text and JSON forms for polynomials, maps, and gradings.

The inline syntax is what ``Polynomial.render`` produces: integer and
rational coefficients, explicit ``*`` between factors, ``^`` (or ``**``)
for powers, and parentheses.  Two-variable text uses either x, y or
u, v; three-variable text always uses x, y, z.  The JSON document form
carries explicit variable names next to the coordinate strings, plus an
optional grading, and parses to the map and its Grading.

Every text, inline or a document coordinate, becomes a polynomial
through one ``_ExprParser`` over the text's tokens and its variable
names; inline text takes its names from ``_resolve_names``.
"""

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError
from .grading import Grading, ResidueGrading
from .maps import PolynomialMap
from .poly import Polynomial

_TOKEN = re.compile(r"(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\*\*|[+\-*/^(),])")
_NAME_OK = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")

_FAMILIES = {"x": "xyz", "y": "xyz", "z": "xyz", "u": "uv", "v": "uv"}
_MIXED_NAMES = "mixing u, v with x, y, z in one expression"
_MAX_DEPTH = 100


@dataclass(frozen=True)
class _Token:
    kind: str  # "int", "name", "op", "end"
    text: str
    position: int


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", position=pos
            )
        if match.group(1) is not None:
            tokens.append(_Token("int", match.group(1), pos))
        elif match.group(2) is not None:
            tokens.append(_Token("name", match.group(2), pos))
        else:
            op = "^" if match.group(3) == "**" else match.group(3)
            tokens.append(_Token("op", op, pos))
        pos = match.end()
    # blank text is reported empty at column 0
    tokens.append(_Token("end", "", len(text) if tokens else 0))
    return tokens


def _resolve_names(tokens, arity):
    """The variable names of inline text, in index order.

    ``arity`` may come in as None, in which case it is inferred: the z
    alphabet forces three variables, u, v or plain x, y give two.  Names
    from neither alphabet are left for the parser to reject.
    """
    family = first = saw_z = None
    for tok in tokens:
        this = _FAMILIES.get(tok.text)
        if this is None:
            continue
        if family not in (None, this):
            raise ParseError(_MIXED_NAMES, position=tok.position)
        family, first = this, first or tok
        if tok.text == "z":
            saw_z = tok
    if arity is None:
        arity = 3 if saw_z is not None else 2
    if arity == 3:
        if family == "uv":
            raise ParseError(
                "three-variable text uses x, y, z", position=first.position
            )
        return ("x", "y", "z")
    if arity == 2:
        if saw_z is not None:
            raise ParseError(
                "z is not available in two variables", position=saw_z.position
            )
        return ("u", "v") if family == "uv" else ("x", "y")
    raise ParseError(f"inline text supports two or three variables, not {arity}")


def _integer(tok):
    """The value of an integer literal token."""
    try:
        return int(tok.text)
    except ValueError:  # past the interpreter's limit on decimal digits
        raise ParseError(
            f"integer literal of {len(tok.text)} digits is too long",
            position=tok.position,
        ) from None


class _ExprParser:
    """Recursive-descent parser over a token window, in the variables
    ``names`` (index order).

    Grammar, loosest binding first:

        expr   := [sign] term ((+ | -) term)*
        term   := factor (* factor)*
        factor := atom [^ INT]
        atom   := INT [/ INT] | NAME | ( expr )

    Parentheses nest at most _MAX_DEPTH deep, well inside the
    interpreter's recursion limit.
    """

    def __init__(self, tokens, names):
        self.tokens = tokens
        self.mapping = {name: i for i, name in enumerate(names)}
        self.arity = len(names)
        self.index = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.index]

    def take(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def _is_op(self, *texts):
        tok = self.peek()
        return tok.kind == "op" and tok.text in texts

    def parse(self):
        tok = self.peek()
        if tok.kind == "end":
            raise ParseError("empty polynomial", position=tok.position)
        poly = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(
                f"unexpected {tok.text!r} after expression", position=tok.position
            )
        return poly

    def expr(self):
        sign = 1
        if self._is_op("+", "-"):
            sign = -1 if self.take().text == "-" else 1
        poly = self.term() * sign
        while self._is_op("+", "-"):
            op = self.take().text
            nxt = self.term()
            poly = poly - nxt if op == "-" else poly + nxt
        return poly

    def term(self):
        poly = self.factor()
        while True:
            if self._is_op("*"):
                self.take()
                poly = poly * self.factor()
                continue
            tok = self.peek()
            if tok.kind in ("int", "name") or (
                tok.kind == "op" and tok.text == "("
            ):
                raise ParseError(
                    "missing operator (explicit * is required)",
                    position=tok.position,
                )
            if tok.kind == "op" and tok.text == "/":
                raise ParseError(
                    "division is only available between integer literals",
                    position=tok.position,
                )
            return poly

    def factor(self):
        poly = self.atom()
        if self._is_op("^"):
            caret = self.take()
            tok = self.peek()
            if tok.kind != "int":
                raise ParseError(
                    "exponents must be nonnegative integer literals",
                    position=caret.position,
                )
            self.take()
            poly = poly ** _integer(tok)
        return poly

    def atom(self):
        tok = self.take()
        if tok.kind == "int":
            value = _integer(tok)
            if self._is_op("/"):
                slash = self.take()
                den = self.peek()
                if den.kind != "int":
                    raise ParseError(
                        "division is only available between integer literals",
                        position=slash.position,
                    )
                self.take()
                if _integer(den) == 0:
                    raise ParseError(
                        "zero denominator", position=den.position
                    )
                value = Fraction(value, _integer(den))
            return Polynomial.constant(self.arity, value)
        if tok.kind == "name":
            if tok.text not in self.mapping:
                raise ParseError(
                    f"unknown variable {tok.text!r}", position=tok.position
                )
            return Polynomial.variable(self.arity, self.mapping[tok.text])
        if tok.kind == "op" and tok.text == "(":
            if self.depth == _MAX_DEPTH:
                raise ParseError(
                    f"parentheses nested deeper than {_MAX_DEPTH}",
                    position=tok.position,
                )
            self.depth += 1
            poly = self.expr()
            self.depth -= 1
            closing = self.peek()
            if not self._is_op(")"):
                raise ParseError(
                    "expected a closing parenthesis", position=closing.position
                )
            self.take()
            return poly
        what = tok.text if tok.kind != "end" else "end of input"
        raise ParseError(f"unexpected {what!r}", position=tok.position)


def parse_polynomial(text, arity=None):
    """Parse inline polynomial text.

    With ``arity`` None the variable alphabet decides: z means three
    variables, otherwise two.  Constants parse at arity 2 by default.
    """
    tokens = _tokenize(text)
    return _ExprParser(tokens, _resolve_names(tokens, arity)).parse()


def _split_coordinates(tokens):
    """Token windows for each top-level coordinate of '(f, g, ...)'."""
    first = tokens[0]
    if not (first.kind == "op" and first.text == "("):
        raise ParseError(
            "a map is a parenthesised list of coordinates", position=first.position
        )
    windows = []
    start = depth = 1
    for i, tok in enumerate(tokens[1:], 1):
        if tok.kind == "end":
            raise ParseError("expected a closing parenthesis", position=tok.position)
        if tok.kind != "op":
            continue
        depth += {"(": 1, ")": -1}.get(tok.text, 0)
        if depth == 0 or (depth == 1 and tok.text == ","):
            windows.append(tokens[start:i] + [_Token("end", "", tok.position)])
            start = i + 1
        if depth == 0:
            after = tokens[start]
            if after.kind != "end":
                raise ParseError(
                    f"unexpected {after.text!r} after the map", position=after.position
                )
            return windows


def parse_map(text):
    """Parse '(f, g)' or '(f, g, h)' into a PolynomialMap."""
    tokens = _tokenize(text)
    windows = _split_coordinates(tokens)
    if len(windows) not in (2, 3):
        raise ParseError(
            f"a map needs two or three coordinates, got {len(windows)}",
            position=tokens[0].position,
        )
    names = _resolve_names(tokens, len(windows))
    return PolynomialMap([_ExprParser(w, names).parse() for w in windows])


def parse_weights(text):
    """Parse 'a,b,c' (parens and spaces tolerated) into an int tuple."""
    stripped = text.strip()
    if stripped.startswith("(") and stripped.endswith(")"):
        stripped = stripped[1:-1]
    pieces = stripped.split(",")
    weights = []
    for piece in pieces:
        piece = piece.strip()
        try:
            weights.append(int(piece))
        except ValueError:
            raise ParseError(f"weight {piece!r} is not an integer") from None
    return tuple(weights)


# ---------------------------------------------------------------------------
# JSON documents


def _require(condition, message):
    if not condition:
        raise ParseError(message)


def parse_document(text):
    """Parse a JSON map document into (map, grading).

    The document names its variables next to its coordinate strings::

        {"vars": ["x", "y", "z"],
         "coords": ["y^2*z + x", "y", "z"],
         "grading": {"weights": [1, 1, -1]}}

    A residue grading adds "modulus" next to "weights".  The grading is
    a ResidueGrading, a Grading, or None when the document has none.
    Every key is checked before any coordinate is parsed.
    """
    # JSONDecodeError and over-long integers are ValueErrors; arrays
    # nested past the interpreter's recursion limit raise RecursionError
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"not valid JSON: {exc}") from None
    _require(isinstance(data, dict), "a map document is a JSON object")
    extra = set(data) - {"vars", "coords", "grading"}
    _require(not extra, f"unexpected keys {sorted(extra)}")
    names = data.get("vars")
    _require(
        isinstance(names, list) and names and
        all(isinstance(n, str) and _NAME_OK.match(n) for n in names),
        '"vars" must be a list of variable names',
    )
    _require(len(set(names)) == len(names), "variable names must be distinct")
    coords = data.get("coords")
    _require(
        isinstance(coords, list)
        and all(isinstance(c, str) for c in coords),
        '"coords" must be a list of polynomial strings',
    )
    _require(
        len(coords) == len(names),
        f"{len(names)} variables but {len(coords)} coordinates",
    )
    grading = data.get("grading")
    weights = modulus = None
    if grading is not None:
        _require(isinstance(grading, dict), '"grading" must be an object')
        extra = set(grading) - {"weights", "modulus"}
        _require(not extra, f"unexpected grading keys {sorted(extra)}")
        weights = grading.get("weights")
        _require(
            isinstance(weights, list)
            and all(type(w) is int for w in weights),
            '"weights" must be a list of integers',
        )
        _require(
            len(weights) == len(names),
            f"{len(names)} variables but {len(weights)} weights",
        )
        modulus = grading.get("modulus")
        _require(
            modulus is None or type(modulus) is int and modulus >= 1,
            '"modulus" must be a positive integer',
        )
    m = PolynomialMap(
        [_ExprParser(_tokenize(c), names).parse() for c in coords]
    )
    if weights is None:
        return m, None
    if modulus is None:
        return m, Grading(weights)
    return m, ResidueGrading(weights, modulus)
