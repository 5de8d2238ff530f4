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


# name: (the pair (map, inverse) it is built from, notes)
_FIXED = {
    "identity3": (lambda: (identity_map(3),) * 2, "The identity map in three variables."),
    "nagata": (
        nagata_pair,
        "Nagata's automorphism: fixes the quadric x^2 - y*z, has Jacobian "
        "determinant 1, and is wild in three variables.",
    ),
    "nagata-inverse": (
        lambda: nagata_pair()[::-1],
        "The inverse of Nagata's automorphism; it fixes the same quadric.",
    ),
}

# at most 640 digits, the least limit the interpreter may set on reading an int
_WITNESS_PATTERN = re.compile(
    r"witness\(\s*(\d{1,640})\s*,\s*(\d{1,640})\s*,\s*(\d{1,640})\s*\)\Z"
)


def example_names():
    """Registry names, the parametric family written with placeholders."""
    return sorted(_FIXED) + ["witness(a,b,c)"]


def get_example(name):
    """Look up a named example, building parametric witnesses on demand."""
    key = name.strip()
    if key in _FIXED:
        pair, notes = _FIXED[key]
        return NamedExample(key, *pair(), notes)
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
