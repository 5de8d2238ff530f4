"""Polynomial maps of the plane and of space, plus their taxonomy.

A PolynomialMap stores one coordinate polynomial per variable and acts
as a point map: ``compose(f, g)`` is f after g, i.e. its i-th
coordinate is f's i-th coordinate evaluated at g's coordinates.

The MapClass taxonomy (identity, linear, affine, elementary, triangular,
general, in that priority order) names shaped automorphisms: every class
except GENERAL is an automorphism, which invert_factor inverts directly,
so a singular linear or affine map is GENERAL.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
    ArityMismatch,
    EmptySequence,
    InvariantViolation,
    NotAnAutomorphism,
    WrongShape,
    ZeroPolynomial,
)
from .poly import Polynomial, _coerce, _div, _repr_names, _scalar, _units


class PolynomialMap:
    """An n-tuple of polynomials in n variables, acting on points."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = tuple(coords)
        if not coords:
            raise ArityMismatch("a map needs at least one coordinate")
        arity = len(coords)
        for c in coords:
            if type(c) is not Polynomial or c.arity != arity:
                break
        else:
            # every coordinate is a Polynomial of the map's arity already
            self.coords = coords
            return
        lifted = []
        for c in coords:
            if isinstance(c, (int, Fraction)):
                c = Polynomial.constant(arity, c)
            if not isinstance(c, Polynomial):
                raise ArityMismatch(f"coordinate {c!r} is not a polynomial")
            if c.arity != arity:
                raise ArityMismatch(
                    f"coordinate arity {c.arity} does not match map arity {arity}"
                )
            lifted.append(c)
        self.coords = tuple(lifted)

    @property
    def arity(self):
        return len(self.coords)

    def degree(self):
        degrees = [c.total_degree() for c in self.coords if not c.is_zero()]
        if not degrees:
            raise ZeroPolynomial("the zero map has no degree")
        return max(degrees)

    def is_origin_preserving(self):
        return all(c.constant_term() == 0 for c in self.coords)

    def __eq__(self, other):
        if not isinstance(other, PolynomialMap):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def render(self, names=None):
        return "(" + ", ".join(c.render(names) for c in self.coords) + ")"

    def __str__(self):
        return self.render(_repr_names(self.arity))

    def __repr__(self):
        return f"PolynomialMap{self.render(_repr_names(self.arity))}"


# ---------------------------------------------------------------------------
# constructors

@lru_cache(maxsize=None, typed=True)
def identity_map(arity):
    # one shared map per arity: maps are never changed in place
    return PolynomialMap(Polynomial.variables(arity))


def perm_map(perm):
    """Map whose i-th coordinate is the variable perm[i]."""
    perm = tuple(perm)
    if sorted(perm) != list(range(len(perm))):
        raise WrongShape(f"{perm} is not a permutation")
    n = len(perm)
    return PolynomialMap(tuple(Polynomial.variable(n, perm[i]) for i in range(n)))


@lru_cache(maxsize=None)
def plane_swap():
    # one shared map, as identity_map
    return perm_map((1, 0))


# ---------------------------------------------------------------------------
# composition

def compose(left, right):
    """The map 'left after right'.

    Maps of two arities raise ArityMismatch from Polynomial.substitute,
    whose image count is checked on the first coordinate before any
    product.
    """
    return PolynomialMap(c.substitute(right.coords) for c in left.coords)


def compose_chain(maps):
    maps = tuple(maps)
    if not maps:
        raise EmptySequence("cannot compose an empty sequence of maps")
    result = maps[0]
    for m in maps[1:]:
        result = compose(result, m)
    return result


# ---------------------------------------------------------------------------
# Jacobians

def _det(rows):
    """Cofactor expansion along the first row; the entries may be scalars
    or polynomials of one arity."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def jacobian_det(m):
    n = m.arity
    return _det([[c.partial(j) for j in range(n)] for c in m.coords])


def constant_jacobian(m):
    """The Jacobian determinant if it is a nonzero scalar, else None.

    Every polynomial automorphism has one; a map without one cannot be
    an automorphism.
    """
    j = jacobian_det(m)
    if j.is_zero() or not j.is_constant():
        return None
    return j.constant_term()


def _require_constant_jacobian(m):
    """Raise NotAnAutomorphism unless m has a nonzero constant Jacobian
    determinant."""
    if constant_jacobian(m) is None:
        raise NotAnAutomorphism(
            "the map does not have a nonzero constant Jacobian determinant"
        )


# ---------------------------------------------------------------------------
# scalar matrices (used for linear blocks and base cases)

def matrix_det(rows):
    return _coerce(_det(rows))


def matrix_inverse(rows):
    n = len(rows)
    det = matrix_det(rows)
    if det == 0:
        raise WrongShape("matrix is singular")
    # one exact division per matrix: at det = ±1 each entry is an int product
    inv_det = _div(1, det)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            # adjugate: cofactor of (j, i)
            minor = [
                r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j
            ]
            cof = _det(minor) if n > 1 else 1
            if (i + j) % 2:
                cof = -cof
            row.append(_coerce(cof * inv_det))
        out.append(row)
    return out


def matrix_product(a, b):
    n, mid, m = len(a), len(b), len(b[0])
    if len(a[0]) != mid:
        raise ArityMismatch("matrix dimensions do not match")
    return [
        [_coerce(sum(a[i][k] * b[k][j] for k in range(mid))) for j in range(m)]
        for i in range(n)
    ]


def map_from_matrix(rows, constants=None):
    """Affine map whose i-th coordinate is row i dotted with the variables."""
    n = len(rows)
    if constants is None:
        constants = (0,) * n
    units = _units(n)
    coords = []
    for i in range(n):
        if len(rows[i]) != n:
            raise ArityMismatch("matrix is not square")
        terms = dict(zip(units, rows[i]))
        terms[(0,) * n] = constants[i]
        coords.append(Polynomial(n, terms))
    return PolynomialMap(coords)


def _affine_matrix(m):
    """The matrix of m's linear part, or None if a term has degree > 1."""
    rows = [[0] * m.arity for _ in m.coords]
    for row, c in zip(rows, m.coords):
        for e, num in c._num.items():
            d = sum(e)
            if d > 1:
                return None
            if d:
                row[e.index(1)] = _scalar(num, c._den)
    return rows


# ---------------------------------------------------------------------------
# taxonomy

class MapClass(enum.Enum):
    IDENTITY = "identity"
    LINEAR = "linear"
    AFFINE = "affine"
    ELEMENTARY = "elementary"
    TRIANGULAR = "triangular"
    GENERAL = "general"


@dataclass(frozen=True, slots=True)
class ElementaryDetail:
    """Which coordinate an elementary map rewrites, and how."""

    index: int
    scale: object
    addend: Polynomial


def elementary_detail(m):
    """Detail record if the map is elementary in the wide sense, else None.

    Wide sense: every coordinate is its own variable except one, which is
    a nonzero scalar times its variable plus a polynomial free of it.
    """
    n = m.arity
    xs = Polynomial.variables(n)
    special = [i for i in range(n) if m.coords[i] != xs[i]]
    if len(special) > 1:
        return None
    i = special[0] if special else 0
    scale, addend = m.coords[i].split_variable(i)
    if scale == 0 or addend.involves(i):
        return None
    return ElementaryDetail(i, scale, addend)


def is_triangular(m):
    """Each coordinate is a nonzero multiple of its variable plus a
    polynomial in strictly later variables."""
    for i, c in enumerate(m.coords):
        scale, rest = c.split_variable(i)
        if scale == 0 or any(rest.involves(j) for j in range(i + 1)):
            return False
    return True


def _shape(m):
    """(class, data): data is the linear part's matrix for LINEAR and
    AFFINE, the ElementaryDetail for ELEMENTARY, else None.  A singular
    affine map is GENERAL: an affine elementary or triangular map has
    its nonzero scales as determinant."""
    if m == identity_map(m.arity):
        return MapClass.IDENTITY, None
    matrix = _affine_matrix(m)
    if matrix is not None:
        if matrix_det(matrix) == 0:
            return MapClass.GENERAL, None
        return (MapClass.LINEAR if m.is_origin_preserving() else MapClass.AFFINE), matrix
    d = elementary_detail(m)
    if d is not None:
        return MapClass.ELEMENTARY, d
    if is_triangular(m):
        return MapClass.TRIANGULAR, None
    return MapClass.GENERAL, None


def classify_map(m):
    return _shape(m)[0]


# ---------------------------------------------------------------------------
# direct inversion of shaped factors

def _invert_triangular(m):
    n = m.arity
    xs = Polynomial.variables(n)
    inv = list(xs)
    for i in reversed(range(n)):
        scale, rest = m.coords[i].split_variable(i)
        images = list(xs[: i + 1]) + inv[i + 1:]
        inv[i] = (xs[i] - rest.substitute(images)) * _div(1, scale)
    return PolynomialMap(inv)


def invert_factor(m):
    """Invert a map of one of the shaped classes directly.

    Handles every class but GENERAL; a GENERAL map needs a full
    decomposition first, or is no automorphism, and raises WrongShape.
    """
    cls, data = _shape(m)
    if cls is MapClass.IDENTITY:
        return m
    if cls in (MapClass.LINEAR, MapClass.AFFINE):
        inv = matrix_inverse(data)
        n = m.arity
        consts = [c.constant_term() for c in m.coords]
        shifted = [
            _coerce(-sum(inv[i][j] * consts[j] for j in range(n))) for i in range(n)
        ]
        return map_from_matrix(inv, shifted)
    if cls is MapClass.ELEMENTARY:
        i = data.index
        xs = Polynomial.variables(m.arity)
        coords = list(xs)
        coords[i] = (xs[i] - data.addend) * _div(1, data.scale)
        return PolynomialMap(coords)
    if cls is MapClass.TRIANGULAR:
        return _invert_triangular(m)
    raise WrongShape(f"cannot invert {m} without decomposing it")


def verify_inverse_pair(m, inv):
    """True when inv is the two-sided inverse of m: decided on
    coefficients for affine and elementary m, else composed.

    m is not classified: its affine matrix and elementary detail are
    read directly, with no identity test and no determinant, so
    FactorChain.inverse classifies each factor once, in invert_factor.
    For m = M*x + c, m∘inv is c + M*inv, summed coordinate by coordinate
    with no substitution; it is the identity exactly when inv = N*x + d
    with M*N = I and M*d + c = 0.  Then M is invertible and m an
    automorphism, so m∘inv = id alone gives inv = m⁻¹∘m∘inv = m⁻¹, and
    inv∘m = id with it; a singular M never passes.  An elementary m, an
    automorphism, sends x_i to s*x_i + a, a free of x_i.  If inv fixes
    the other variables and sends x_i to t*x_i + b, b free of x_i, then
    m∘inv sends x_i to s*t*x_i + s*b + a, which is x_i exactly when
    s*t = 1 and s*b + a = 0.  m⁻¹ has that form, so any other inv (the
    identity, which elementary_detail reads on index 0, included) is
    not m⁻¹.
    """
    if m.arity != inv.arity:
        raise ArityMismatch(f"cannot compose arity {m.arity} with arity {inv.arity}")
    matrix = _affine_matrix(m)
    if matrix is not None:
        for row, f, x in zip(matrix, m.coords, Polynomial.variables(m.arity)):
            image = Polynomial.constant(m.arity, f.constant_term())
            for a, g in zip(row, inv.coords):
                if a:
                    image = image + a * g
            if image != x:
                return False
        return True
    data = elementary_detail(m)
    if data is not None:
        d = elementary_detail(inv)
        return (
            d is not None
            and d.index == data.index
            and data.scale * d.scale == 1
            and (data.scale * d.addend + data.addend).is_zero()
        )
    ident = identity_map(m.arity)
    return compose(m, inv) == ident and compose(inv, m) == ident


# ---------------------------------------------------------------------------
# factor chains

class FactorChain:
    """A target map together with factors that compose back to it.

    The defining invariant is checked at construction: composing the
    factors in order (left to right) reproduces the target exactly.
    ``notes`` carries an optional annotation per factor.
    """

    __slots__ = ("target", "factors", "notes")

    def __init__(self, target, factors, notes=None):
        factors = tuple(factors)
        if notes is None:
            notes = ("",) * len(factors)
        notes = tuple(notes)
        if len(notes) != len(factors):
            raise WrongShape("one note per factor, or none")
        self.target = target
        self.factors = factors
        self.notes = notes
        if self.composed() != target:
            raise WrongShape("factors do not compose to the target map")

    @classmethod
    def _derived(cls, target, factors, notes=None):
        """A chain tamekit derived itself, without its identity factors
        and their notes (the one place they are dropped): factors that
        fail to recompose are a bug in tamekit (InvariantViolation)."""
        factors = tuple(factors)
        notes = ("",) * len(factors) if notes is None else tuple(notes)
        if len(notes) == len(factors):  # else the constructor refuses them
            ident = identity_map(target.arity)
            kept = [i for i, f in enumerate(factors) if f != ident]
            factors, notes = [factors[i] for i in kept], [notes[i] for i in kept]
        try:
            return cls(target, factors, notes)
        except WrongShape as exc:
            raise InvariantViolation(f"derived chain: {exc}") from exc

    def composed(self):
        if not self.factors:
            return identity_map(self.target.arity)
        return compose_chain(self.factors)

    def inverse(self):
        """The inverse of the target: the factors inverted, in reverse order.

        The target is g1∘…∘gn exactly (checked at construction), and each
        hi = invert_factor(gi) is checked to be a two-sided inverse of gi
        by verify_inverse_pair (on coefficients unless gi is triangular),
        else InvariantViolation.  So hn∘…∘h1 is the inverse of the
        target, and the target itself is never composed.  Only
        invert_factor classifies gi.
        """
        if not self.factors:
            return identity_map(self.target.arity)
        inverses = []
        for f in reversed(self.factors):
            h = invert_factor(f)
            if not verify_inverse_pair(f, h):
                raise InvariantViolation(f"inverted factor fails to invert {f}")
            inverses.append(h)
        return compose_chain(inverses)

    def __repr__(self):
        names = _repr_names(self.target.arity)
        inner = ", ".join(f.render(names) for f in self.factors)
        return f"FactorChain(target={self.target.render(names)}, factors=[{inner}])"
