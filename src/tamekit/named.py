"""Named example automorphisms with their inverses.

The registry holds the classical fixed examples plus a parametric
family: ``witness(a,b,c)`` builds the graded-wild witness for the
weights (a, b, -c), writing the third weight's magnitude so the name
stays free of signs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import InvariantViolation, UnknownName
from .maps import PolynomialMap, identity_map
from .space import nagata_pair, wild_witness


@dataclass(frozen=True)
class NamedExample:
    name: str
    map: PolynomialMap
    inverse: PolynomialMap
    notes: str


def _build_identity():
    ident = identity_map(3)
    return NamedExample("identity3", ident, ident, "The identity map in three variables.")


def _build_nagata():
    nagata, inverse = nagata_pair()
    return NamedExample(
        "nagata",
        nagata,
        inverse,
        "Nagata's automorphism: fixes the quadric x^2 - y*z, has Jacobian "
        "determinant 1, and is wild in three variables.",
    )


def _build_nagata_inverse():
    nagata, inverse = nagata_pair()
    return NamedExample(
        "nagata-inverse",
        inverse,
        nagata,
        "The inverse of Nagata's automorphism; it fixes the same quadric.",
    )


_BUILDERS = {
    "identity3": _build_identity,
    "nagata": _build_nagata,
    "nagata-inverse": _build_nagata_inverse,
}

# at most 640 digits, the least limit the interpreter may set on reading an int
_WITNESS_PATTERN = re.compile(
    r"witness\(\s*(\d{1,640})\s*,\s*(\d{1,640})\s*,\s*(\d{1,640})\s*\)\Z"
)


def example_names():
    """Registry names, the parametric family written with placeholders."""
    return sorted(_BUILDERS) + ["witness(a,b,c)"]


def get_example(name):
    """Look up a named example, building parametric witnesses on demand."""
    key = name.strip()
    builder = _BUILDERS.get(key)
    if builder is not None:
        return builder()
    match = _WITNESS_PATTERN.match(key)
    if match is not None:
        a, b, c = (int(s) for s in match.groups())
        witness = wild_witness((a, b, -c))
        if not witness.verify():
            raise InvariantViolation(f"the witness {key} failed its own verification")
        cert = witness.certificate
        if cert is None:
            # the trivial grading's witness is Nagata's pair, which has no
            # degree certificate
            notes = (
                f"Graded-wild witness for the weights ({a}, {b}, {-c}): "
                f"Nagata's automorphism, whose wildness is externally certified."
            )
        else:
            notes = (
                f"Graded-wild witness for the weights ({a}, {b}, {-c}); its "
                f"restricted drop term has total degree {cert.violating_degree}, "
                f"below the tame bound {cert.threshold}."
            )
        return NamedExample(key, witness.map, witness.inverse, notes)
    raise UnknownName(
        f"no example named {name!r}; known names: {', '.join(example_names())}"
    )
