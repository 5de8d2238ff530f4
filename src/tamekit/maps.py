"""Polynomial maps of the plane and of space, plus their taxonomy.

A PolynomialMap stores one coordinate polynomial per variable and acts
as a point map: ``compose(f, g)`` is f after g, i.e. its i-th
coordinate is f's i-th coordinate evaluated at g's coordinates.

The MapClass taxonomy is purely structural (identity, linear, affine,
elementary, triangular, general, in that priority order); whether a map
is invertible is a separate question answered by the Jacobian helpers
and the decomposition routines.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .errors import ArityMismatch, EmptySequence, InvariantViolation, WrongShape
from .poly import Polynomial, _coerce


class PolynomialMap:
    """An n-tuple of polynomials in n variables, acting on points."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = tuple(coords)
        if not coords:
            raise ArityMismatch("a map needs at least one coordinate")
        arity = len(coords)
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

    def apply(self, poly):
        """Pull a polynomial back through the map: h becomes h(coords)."""
        return poly.substitute(self.coords)

    def degree(self):
        return max(c.total_degree() for c in self.coords if not c.is_zero())

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
        return self.render()

    def __repr__(self):
        return f"PolynomialMap{self.render()}"


# ---------------------------------------------------------------------------
# constructors

def identity_map(arity):
    return PolynomialMap(Polynomial.variables(arity))


def perm_map(perm):
    """Map whose i-th coordinate is the variable perm[i]."""
    perm = tuple(perm)
    if sorted(perm) != list(range(len(perm))):
        raise WrongShape(f"{perm} is not a permutation")
    n = len(perm)
    return PolynomialMap(tuple(Polynomial.variable(n, perm[i]) for i in range(n)))


def plane_swap():
    return perm_map((1, 0))


# ---------------------------------------------------------------------------
# composition

def compose(left, right):
    """The map 'left after right'."""
    if left.arity != right.arity:
        raise ArityMismatch(
            f"cannot compose arity {left.arity} with arity {right.arity}"
        )
    return PolynomialMap(tuple(c.substitute(right.coords) for c in left.coords))


def compose_chain(maps):
    maps = tuple(maps)
    if not maps:
        raise EmptySequence("cannot compose an empty sequence of maps")
    result = maps[0]
    for m in maps[1:]:
        result = compose(result, m)
    return result


def verify_inverse_pair(m, inv):
    ident = identity_map(m.arity)
    return compose(m, inv) == ident and compose(inv, m) == ident


# ---------------------------------------------------------------------------
# Jacobians

def jacobian_matrix(m):
    n = m.arity
    return [[m.coords[i].partial(j) for j in range(n)] for i in range(n)]


def _poly_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = Polynomial.zero(rows[0][0].arity)
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _poly_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def jacobian_det(m):
    return _poly_det(jacobian_matrix(m))


def constant_jacobian(m):
    """The Jacobian determinant if it is a nonzero scalar, else None.

    Every polynomial automorphism has one; a map without one cannot be
    an automorphism.
    """
    j = jacobian_det(m)
    if j.is_zero() or not j.is_constant():
        return None
    return j.constant_term()


# ---------------------------------------------------------------------------
# scalar matrices (used for linear blocks and base cases)

def matrix_det(rows):
    n = len(rows)
    if n == 1:
        return _coerce(rows[0][0])
    if n == 2:
        return _coerce(rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0])
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * matrix_det(minor)
        total += term if j % 2 == 0 else -term
    return _coerce(total)


def matrix_inverse(rows):
    n = len(rows)
    det = matrix_det(rows)
    if det == 0:
        raise WrongShape("matrix is singular")
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            # adjugate: cofactor of (j, i)
            minor = [
                r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j
            ]
            cof = matrix_det(minor) if n > 1 else 1
            if (i + j) % 2:
                cof = -cof
            row.append(_coerce(Fraction(cof) / Fraction(det)))
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
    xs = Polynomial.variables(n)
    coords = []
    for i in range(n):
        if len(rows[i]) != n:
            raise ArityMismatch("matrix is not square")
        c = Polynomial.constant(n, constants[i])
        for j in range(n):
            if rows[i][j]:
                c = c + rows[i][j] * xs[j]
        coords.append(c)
    return PolynomialMap(coords)


def affine_parts(m):
    """(matrix, constants) of an affine map; WrongShape otherwise."""
    n = m.arity
    for c in m.coords:
        if any(sum(e) > 1 for e in c._num):
            raise WrongShape(f"{m} is not affine")
    unit = lambda j: tuple(1 if k == j else 0 for k in range(n))
    matrix = [[m.coords[i].coeff(unit(j)) for j in range(n)] for i in range(n)]
    constants = [m.coords[i].constant_term() for i in range(n)]
    return matrix, constants


# ---------------------------------------------------------------------------
# taxonomy

class MapClass(enum.Enum):
    IDENTITY = "identity"
    LINEAR = "linear"
    AFFINE = "affine"
    ELEMENTARY = "elementary"
    TRIANGULAR = "triangular"
    GENERAL = "general"


class ElementaryDetail:
    """Which coordinate an elementary map rewrites, and how."""

    __slots__ = ("index", "scale", "addend")

    def __init__(self, index, scale, addend):
        self.index = index
        self.scale = scale
        self.addend = addend

    def __repr__(self):
        return (
            f"ElementaryDetail(index={self.index}, scale={self.scale}, "
            f"addend={self.addend.render()!r})"
        )


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
    c = m.coords[i]
    unit = tuple(1 if k == i else 0 for k in range(n))
    scale = c.coeff(unit)
    if scale == 0:
        return None
    addend = c - scale * xs[i]
    if addend.involves(i):
        return None
    return ElementaryDetail(i, scale, addend)


def is_triangular(m):
    """Each coordinate is a nonzero multiple of its variable plus a
    polynomial in strictly later variables."""
    n = m.arity
    xs = Polynomial.variables(n)
    for i in range(n):
        unit = tuple(1 if k == i else 0 for k in range(n))
        scale = m.coords[i].coeff(unit)
        if scale == 0:
            return False
        rest = m.coords[i] - scale * xs[i]
        if any(exps[j] for exps in rest._num for j in range(i + 1)):
            return False
    return True


def classify_map(m):
    n = m.arity
    if m == identity_map(n):
        return MapClass.IDENTITY
    if all(c._num and all(sum(e) == 1 for e in c._num) for c in m.coords):
        return MapClass.LINEAR
    if all(all(sum(e) <= 1 for e in c._num) for c in m.coords):
        return MapClass.AFFINE
    if elementary_detail(m) is not None:
        return MapClass.ELEMENTARY
    if is_triangular(m):
        return MapClass.TRIANGULAR
    return MapClass.GENERAL


# ---------------------------------------------------------------------------
# direct inversion of shaped factors

def _invert_triangular(m):
    n = m.arity
    xs = Polynomial.variables(n)
    inv = list(xs)
    for i in reversed(range(n)):
        unit = tuple(1 if k == i else 0 for k in range(n))
        scale = m.coords[i].coeff(unit)
        rest = m.coords[i] - scale * xs[i]
        images = list(xs[: i + 1]) + inv[i + 1:]
        recip = _coerce(Fraction(1) / Fraction(scale))
        inv[i] = (xs[i] - rest.substitute(images)) * recip
    return PolynomialMap(inv)


def invert_factor(m):
    """Invert a map of one of the shaped classes directly.

    Handles identity, linear, affine, wide-sense elementary and
    triangular maps; anything else needs a full decomposition first and
    raises WrongShape.
    """
    cls = classify_map(m)
    if cls is MapClass.IDENTITY:
        return m
    if cls in (MapClass.LINEAR, MapClass.AFFINE):
        mat, consts = affine_parts(m)
        inv = matrix_inverse(mat)
        n = m.arity
        shifted = [
            _coerce(-sum(inv[i][j] * consts[j] for j in range(n))) for i in range(n)
        ]
        return map_from_matrix(inv, shifted)
    if cls is MapClass.ELEMENTARY:
        d = elementary_detail(m)
        xs = Polynomial.variables(m.arity)
        recip = _coerce(Fraction(1) / Fraction(d.scale))
        coords = list(xs)
        coords[d.index] = (xs[d.index] - d.addend) * recip
        return PolynomialMap(coords)
    if cls is MapClass.TRIANGULAR:
        return _invert_triangular(m)
    raise WrongShape(f"cannot invert {m} without decomposing it")


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
        composed = (
            identity_map(target.arity) if not factors else compose_chain(factors)
        )
        if composed != target:
            raise WrongShape("factors do not compose to the target map")
        self.target = target
        self.factors = factors
        self.notes = notes

    @classmethod
    def _derived(cls, target, factors, notes=None):
        """A chain tamekit derived itself: factors that fail to recompose
        are a bug in tamekit (InvariantViolation), not a wrong input."""
        try:
            return cls(target, factors, notes)
        except WrongShape as exc:
            raise InvariantViolation(f"derived chain: {exc}") from exc

    def __len__(self):
        return len(self.factors)

    def __iter__(self):
        return iter(self.factors)

    def __getitem__(self, i):
        return self.factors[i]

    def composed(self):
        if not self.factors:
            return identity_map(self.target.arity)
        return compose_chain(self.factors)

    def classes(self):
        return tuple(classify_map(f) for f in self.factors)

    def inverse(self):
        """The inverse of the target, from the factors inverted in reverse
        order; checked both ways, else InvariantViolation."""
        if not self.factors:
            return identity_map(self.target.arity)
        inverse = compose_chain([invert_factor(f) for f in reversed(self.factors)])
        if not verify_inverse_pair(self.target, inverse):
            raise InvariantViolation(f"inverted factors fail to invert {self.target}")
        return inverse

    def __repr__(self):
        inner = ", ".join(f.render() for f in self.factors)
        return f"FactorChain(target={self.target.render()}, factors=[{inner}])"
