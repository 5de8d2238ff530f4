"""Exact sparse polynomials over the rationals.

A polynomial is stored as integer numerators over one positive common
denominator: ``_num`` maps exponent tuples to nonzero ints and ``_den``
shares no factor with all of them, so two equal polynomials always have
equal ``(_num, _den)``.  Every kernel works on these integers; the
``terms`` mapping of ``int``/``Fraction`` coefficients is a read-only
view that builds each coefficient when it is read.

Arity (number of variables) is explicit.  Mixing arities raises
ArityMismatch instead of guessing.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

from .errors import ArityMismatch, ConstantPolynomial, ZeroPolynomial

DEFAULT_NAMES = {1: ("x",), 2: ("x", "y"), 3: ("x", "y", "z")}


def _repr_names(arity):
    """DEFAULT_NAMES, or x0, x1, ... for an arity it has none for; str
    and repr use them, so printing a value never raises."""
    return DEFAULT_NAMES.get(arity) or tuple(f"x{i}" for i in range(arity))


@lru_cache(maxsize=None)
def _units(arity):
    """The exponent tuple of each variable, one shared table per arity."""
    return tuple(tuple(int(k == i) for k in range(arity)) for i in range(arity))


def _coerce(value):
    # boundary coefficients are exactly int or exactly Fraction, and a
    # denominator-1 Fraction collapses to int, so each value has one form
    kind = type(value)
    if kind is int:
        return value
    if kind is Fraction:
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, bool):
        raise TypeError("bool is not a polynomial coefficient")
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return _coerce(Fraction(value))
    raise TypeError(
        f"coefficients must be int or Fraction, got {type(value).__name__}"
    )


def _div(num, den):
    # the exact quotient num / den of two scalars, in boundary form
    return _coerce(Fraction(num, den))


def _scalar(num, den):
    # the coefficient num / den as an int or a reduced Fraction
    return num if den == 1 else _coerce(Fraction(num, den))


class _Terms(Mapping):
    """The coefficients num / den, each built when it is read; length and
    iteration read the numerators alone."""

    __slots__ = ("_num", "_den")

    def __init__(self, num, den):
        self._num, self._den = num, den

    def __getitem__(self, exps):
        return _scalar(self._num[exps], self._den)

    def __iter__(self):
        return iter(self._num)

    def __len__(self):
        return len(self._num)


# plane products with at least this many term pairs go by x-degree rows
# into list columns, when their box fits (see _convolve).  Time against
# the pair loop, dict columns / list columns, summed per band of term
# pairs over the 716 products of at least 256 pairs that Polynomial.__mul__
# makes in one pass of each plane benchmark workload (seed 1, CPython 3.11
# on a 2-vCPU x86 host): 1.05 / 1.07 at 256-383 pairs, 0.94 / 0.91 at
# 384-511, 0.86 / 0.79 at 512-767, 0.83 / 0.75 at 768-1023, 0.74 / 0.63
# at 1024-2047, 0.70 / 0.55 at 2048-4095 and 0.64 / 0.49 at 4096-8191.
# Below 512 the lists gain too little to rely on: at 384-511 pairs
# substitute's products took 0.98, and the __mul__ ones 1.06 at 384-447.
_ROWS_MIN_PAIRS = 512


def _rows(terms, low):
    # x-exponent -> [(y-exponent - low, coefficient), ...] of a plane term dict
    rows = {}
    for (i, j), c in terms.items():
        rows.setdefault(i, []).append((j - low, c))
    return rows


def _convolve(arity, t1, t2, acc):
    """Add the product of the int-coefficient term dicts ``t1`` and
    ``t2`` into ``acc``.  Sums that cancel may stay in ``acc`` as zeros.

    The product loop of ``__mul__``, ``__pow__`` and ``substitute``,
    except powers of short bases (``_short_power``) and plane shears
    (``_sheared``).  Exponent addition is unrolled for the two and three
    variable cases; the generic tuple-of-sums shows up in profiles.

    A plane product of at least ``_ROWS_MIN_PAIRS`` term pairs groups
    each factor into rows by x-exponent and adds each pair of rows into
    a list of ints for x-degree i1 + i2, indexed by the y-exponent above
    the lowest one, so a term pair costs one list add with no (i, j)
    tuple built or hashed; the nonzero sums go into ``acc`` at the end.
    Each list spans the product's y-range, so the lists take at most its
    box: output x-degrees times y-span.  When that box is larger than
    the term pairs (a sparse factor with huge exponents), the product
    keeps the pair loop, which costs only its terms; so do smaller
    products, as grouping costs more than it saves.
    """
    if len(t1) > len(t2):
        # the smaller factor outside means fewer inner loops to set up
        t1, t2 = t2, t1
    get = acc.get
    if arity == 2 and len(t1) * len(t2) >= _ROWS_MIN_PAIRS:
        xs1, ys1 = zip(*t1)
        xs2, ys2 = zip(*t2)
        low1, low2 = min(ys1), min(ys2)
        span = max(ys1) + max(ys2) - low1 - low2 + 1
        if (max(xs1) + max(xs2) - min(xs1) - min(xs2) + 1) * span <= len(t1) * len(t2):
            cols = {}
            rows2 = _rows(t2, low2).items()
            for i1, row1 in _rows(t1, low1).items():
                for i2, row2 in rows2:
                    col = cols.get(i1 + i2)
                    if col is None:
                        col = cols[i1 + i2] = [0] * span
                    for j1, c1 in row1:
                        for j2, c2 in row2:
                            col[j1 + j2] += c1 * c2
            for i, col in cols.items():
                for j, c in enumerate(col, low1 + low2):
                    if c:
                        key = (i, j)
                        acc[key] = get(key, 0) + c
            return acc
    if arity == 2:
        for (i1, j1), c1 in t1.items():
            for (i2, j2), c2 in t2.items():
                key = (i1 + i2, j1 + j2)
                acc[key] = get(key, 0) + c1 * c2
    elif arity == 3:
        for (i1, j1, k1), c1 in t1.items():
            for (i2, j2, k2), c2 in t2.items():
                key = (i1 + i2, j1 + j2, k1 + k2)
                acc[key] = get(key, 0) + c1 * c2
    else:
        for e1, c1 in t1.items():
            for e2, c2 in t2.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                acc[key] = get(key, 0) + c1 * c2
    return acc


def _int_product(arity, t1, t2):
    # product of two int-coefficient term dicts, zeros dropped
    return {e: c for e, c in _convolve(arity, t1, t2, {}).items() if c}


def _short_power(num, e):
    """``num`` to the e-th power, for an int term dict of one or two terms.

    c*X^a gives c^e*X^(e*a), and c*X^a + d*X^b gives the e + 1 terms
    C(e, k)*c^k*d^(e-k)*X^(k*a + (e-k)*b) by the binomial theorem.
    These never collide, because a != b, and none is zero.
    """
    if len(num) == 1:
        ((a, c),) = num.items()
        return {tuple(e * i for i in a): c**e}
    (a, c), (b, d) = num.items()
    cpow, dpow = [1], [1]
    for _ in range(e):
        cpow.append(cpow[-1] * c)
        dpow.append(dpow[-1] * d)
    coeffs = [comb(e, k) * cpow[k] * dpow[e - k] for k in range(e + 1)]
    # exponent column of each variable: e*j, e*j + (i - j), ..., e*i
    cols = [
        range(e * j, e * i + (1 if i > j else -1), i - j) if i != j else (e * i,) * (e + 1)
        for i, j in zip(a, b)
    ]
    return dict(zip(zip(*cols), coeffs))


def _int_power(arity, powers, e):
    """The e-th power of ``powers[1]``, an int term dict, read from or
    added to ``powers`` (exponent -> power; it holds 0 and 1 at least).

    One- and two-term bases are written down by ``_short_power``; longer
    ones (and zero) multiply the two cached halves of e, so a high power
    costs O(log e) products and cache entries.
    """
    got = powers.get(e)
    if got is None:
        base = powers[1]
        if 1 <= len(base) <= 2:
            got = _short_power(base, e)
        else:
            half = e // 2
            low, high = _int_power(arity, powers, half), _int_power(arity, powers, e - half)
            got = _int_product(arity, low, high)
        powers[e] = got
    return got


class Polynomial:
    """Immutable-by-convention sparse polynomial over Q."""

    __slots__ = ("arity", "_num", "_den")

    def __init__(self, arity, terms=None):
        if not isinstance(arity, int) or arity < 1:
            raise ArityMismatch(f"arity must be a positive int, got {arity!r}")
        clean = {}
        den = 1
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != arity:
                    raise ArityMismatch(
                        f"exponent tuple {exps} has length {len(exps)}, "
                        f"expected {arity}"
                    )
                if any(not isinstance(e, int) or e < 0 for e in exps):
                    raise ArityMismatch(
                        f"exponents must be non-negative ints, got {exps}"
                    )
                coeff = _coerce(coeff)
                if coeff:
                    clean[exps] = coeff
                    if type(coeff) is Fraction:
                        den = lcm(den, coeff.denominator)
        self.arity = arity
        # over the lcm of reduced denominators the numerators share no factor
        self._num = clean if den == 1 else {
            e: c.numerator * (den // c.denominator) for e, c in clean.items()
        }
        self._den = den

    @classmethod
    def _raw(cls, arity, num, den=1):
        # internal, no validation: nonzero int numerators over den > 0
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {e: c // g for e, c in num.items()}
                den //= g
        self = object.__new__(cls)
        self.arity = arity
        self._num = num
        self._den = den
        return self

    @property
    def terms(self):
        """Read-only {exponent tuple: int or Fraction coefficient}."""
        return _Terms(self._num, self._den)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, arity):
        return cls._raw(arity, {})

    @classmethod
    def constant(cls, arity, value):
        value = _coerce(value)
        if not value:
            return cls.zero(arity)
        return cls._raw(arity, {(0,) * arity: value.numerator}, value.denominator)

    @classmethod
    def variable(cls, arity, index):
        if not 0 <= index < arity:
            raise ArityMismatch(f"variable index {index} out of range for arity {arity}")
        exps = tuple(1 if i == index else 0 for i in range(arity))
        return cls._raw(arity, {exps: 1})

    @classmethod
    @lru_cache(maxsize=None, typed=True)
    def variables(cls, arity):
        # one shared tuple per arity: polynomials are never changed in place
        return tuple(cls.variable(arity, i) for i in range(arity))

    @classmethod
    def monomial(cls, arity, exps, coeff=1):
        return cls(arity, {tuple(exps): coeff})

    # ------------------------------------------------------------------
    # predicates and views

    def is_zero(self):
        return not self._num

    def is_constant(self):
        num = self._num
        return not num or (len(num) == 1 and (0,) * self.arity in num)

    def constant_term(self):
        return _scalar(self._num.get((0,) * self.arity, 0), self._den)

    def constant_value(self):
        if not self.is_constant():
            raise ConstantPolynomial(f"{self} is not a constant")
        return self.constant_term()

    def coeff(self, exps):
        exps = tuple(exps)
        if len(exps) != self.arity:
            raise ArityMismatch(
                f"exponent tuple {exps} has length {len(exps)}, expected {self.arity}"
            )
        return _scalar(self._num.get(exps, 0), self._den)

    def total_degree(self):
        if not self._num:
            raise ZeroPolynomial("the zero polynomial has no degree")
        # each term's degree inline for two and three variables
        if self.arity == 2:
            return max([i + j for i, j in self._num])
        if self.arity == 3:
            return max([i + j + k for i, j, k in self._num])
        return max(map(sum, self._num))

    def degree_in(self, index):
        if not self._num:
            raise ZeroPolynomial("the zero polynomial has no degree")
        if not 0 <= index < self.arity:
            raise ArityMismatch(f"variable index {index} out of range for arity {self.arity}")
        return max(exps[index] for exps in self._num)

    def involves(self, index):
        return any(exps[index] for exps in self._num)

    def split_variable(self, index):
        """(scale, rest) with self == scale * x_index + rest: scale is the
        coefficient of x_index itself, rest every other term.  Both are
        read off the numerators; nothing is multiplied or subtracted."""
        if not 0 <= index < self.arity:
            raise ArityMismatch(f"variable index {index} out of range for arity {self.arity}")
        unit = _units(self.arity)[index]
        if unit not in self._num:
            return 0, self
        num = dict(self._num)
        scale = num.pop(unit)
        return _scalar(scale, self._den), Polynomial._raw(self.arity, num, self._den)

    # ------------------------------------------------------------------
    # ring operations

    def _check_arity(self, other):
        if self.arity != other.arity:
            raise ArityMismatch(
                f"cannot combine arity {self.arity} with arity {other.arity}"
            )

    def _combine(self, other, sign):
        # self + sign * other over the lcm of the two denominators
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Polynomial.constant(self.arity, other)
        self._check_arity(other)
        d1, d2 = self._den, other._den
        g = gcd(d1, d2)
        s1, s2 = d2 // g, sign * (d1 // g)
        acc = dict(self._num) if s1 == 1 else {e: c * s1 for e, c in self._num.items()}
        for e, c in other._num.items():
            c = acc.get(e, 0) + c * s2
            if c:
                acc[e] = c
            else:
                del acc[e]  # only a term of self can cancel
        return Polynomial._raw(self.arity, acc, d1 * s1)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.arity, {e: -c for e, c in self._num.items()}, self._den)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_arity(other)
            num = _int_product(self.arity, self._num, other._num)
            return Polynomial._raw(self.arity, num, self._den * other._den)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        other = _coerce(other)
        if not other:
            return Polynomial.zero(self.arity)
        num = {e: c * other.numerator for e, c in self._num.items()}
        return Polynomial._raw(self.arity, num, self._den * other.denominator)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ArityMismatch(f"exponent must be a non-negative int, got {exponent!r}")
        powers = {0: {(0,) * self.arity: 1}, 1: self._num}
        num = _int_power(self.arity, powers, exponent)
        return Polynomial._raw(self.arity, num, self._den**exponent)

    # ------------------------------------------------------------------
    # calculus and substitution

    def partial(self, index):
        if not 0 <= index < self.arity:
            raise ArityMismatch(f"variable index {index} out of range for arity {self.arity}")
        # distinct terms keep distinct exponents, so nothing merges; the
        # two and three variable cases are unrolled, as in _convolve
        items = self._num.items()
        if self.arity == 2:
            if index:
                num = {(i, j - 1): c * j for (i, j), c in items if j}
            else:
                num = {(i - 1, j): c * i for (i, j), c in items if i}
        elif self.arity == 3:
            if index == 0:
                num = {(i - 1, j, k): c * i for (i, j, k), c in items if i}
            elif index == 1:
                num = {(i, j - 1, k): c * j for (i, j, k), c in items if j}
            else:
                num = {(i, j, k - 1): c * k for (i, j, k), c in items if k}
        else:
            num = {}
            for exps, c in items:
                e = exps[index]
                if e:
                    num[exps[:index] + (e - 1,) + exps[index + 1:]] = c * e
        return Polynomial._raw(self.arity, num, self._den)

    def map_exponents(self, arity, fn):
        """Move each term's exponent tuple e to ``fn(e)`` in ``arity``
        variables, adding terms that land together (zero sums vanish).

        One pass relabels the support; terms are added one by one only if
        two exponents collided (the restriction to z = 1 and the
        permutations never collide on graded supports).  The new
        tuples are not validated: callers keep them of length ``arity``
        with no negative entry.
        """
        num = self._num
        moved = dict(zip(map(fn, num), num.values()))
        if len(moved) < len(num):
            moved = {}
            for e, c in zip(map(fn, num), num.values()):
                moved[e] = moved.get(e, 0) + c
            moved = {e: c for e, c in moved.items() if c}
        return Polynomial._raw(arity, moved, self._den)

    def substitute(self, images):
        """Evaluate at ``images``, one per variable.

        Images may be Polynomial (all of one arity) or scalars; scalars
        are lifted to constants of the inferred arity.

        The work stays on plain integers.  Each image is P_k / d_k with
        P_k its numerators, each numerator of self is scaled by the
        powers of the d_k its term lacks, and the sum is divided by the
        one common denominator at the end.  Powers of P_k are cached;
        those of a one- or two-term P_k are written down by the binomial
        theorem, with no product at all.  Terms are grouped by all but
        the last exponent: within a group the cached powers of the last
        image are added linearly, and the group is then multiplied by
        one cached power per earlier variable, so each group costs at
        most arity - 1 products instead of each term costing two.
        Plane shear images (x + r*y^q, y) or (x, y + r*x^q), q >= 0 (q = 0
        a translation), take no product at all: see ``_sheared``.
        """
        images = tuple(images)
        if len(images) != self.arity:
            raise ArityMismatch(
                f"need {self.arity} images, got {len(images)}"
            )
        shear = _shear_of(images)
        if shear is not None:
            return self._sheared(*shear)
        target = None
        for img in images:
            if isinstance(img, Polynomial):
                if target is None:
                    target = img.arity
                elif img.arity != target:
                    raise ArityMismatch("images have mixed arities")
        if target is None:
            target = self.arity
        lifted = [
            img if isinstance(img, Polynomial) else Polynomial.constant(target, img)
            for img in images
        ]
        one = {(0,) * target: 1}
        # powers[k][e] is P_k ** e on ints, filled on demand by _int_power
        powers = [{0: one, 1: img._num} for img in lifted]
        den = self._den
        # (k, d_k, highest power of d_k any term needs) for each image
        # with a denominator
        cleared = [
            (k, img._den, max((exps[k] for exps in self._num), default=0))
            for k, img in enumerate(lifted)
            if img._den != 1
        ]
        for _, d, top in cleared:
            den *= d**top

        last = self.arity - 1
        groups = {}
        for exps, c in self._num.items():
            for k, d, top in cleared:
                c *= d ** (top - exps[k])
            prefix = exps[:last]
            inner = groups.get(prefix)
            if inner is None:
                inner = groups[prefix] = {}
            get = inner.get
            for key, v in _int_power(target, powers[last], exps[last]).items():
                inner[key] = get(key, 0) + c * v
        acc = {}
        for prefix, inner in groups.items():
            factor = one
            for k, e in enumerate(prefix):
                if e:
                    more = _int_power(target, powers[k], e)
                    factor = more if factor is one else _int_product(target, factor, more)
            _convolve(target, inner, factor, acc)
        return Polynomial._raw(target, {e: c for e, c in acc.items() if c}, den)

    def _sheared(self, s, q, rn, rd):
        """self at x_s -> x_s + (rn/rd)*x_o^q, x_o -> x_o (o = 1 - s), for
        ``substitute`` and the plane descent: each term c*x_s^i*x_o^j is the
        binomial row sum_k C(i, k)*r^(i-k)*x_s^k*x_o^(j + q(i-k)), on
        integer numerators over den*rd^top (top = max i).

        Entry k of row i is C(i, k)*t[i - k] with t[m] = rn^m*rd^(top-m),
        one table per shear.  Each row is built once per power i, its
        binomials by C(i, k+1) = C(i, k)*(i-k)/(k+1), so a row costs its
        length in products.  Keys are written in (x, y) order directly."""
        num, o = self._num, 1 - s
        top = 0
        for e in num:
            if e[s] > top:
                top = e[s]
        t = [rd**top]
        for _ in range(top):
            t.append(t[-1] * rn // rd)  # exact: t[m] holds rd^(top-m), m < top
        rows, acc = {}, {}
        get = acc.get
        for e, c in num.items():
            i = e[s]
            jq = e[o] + q * i
            row = rows.get(i)
            if row is None:
                row, b = [], 1
                for k in range(i + 1):
                    row.append(b * t[i - k])
                    b = b * (i - k) // (k + 1)
                rows[i] = row
            # entry k has x_s exponent k and x_o exponent jq - q*k
            if s:
                for k, v in enumerate(row):
                    key = (jq - q * k, k)
                    acc[key] = get(key, 0) + c * v
            else:
                for k, v in enumerate(row):
                    key = (k, jq - q * k)
                    acc[key] = get(key, 0) + c * v
        num = {e: c for e, c in acc.items() if c}
        return Polynomial._raw(2, num, self._den * t[0])

    # ------------------------------------------------------------------
    # comparison and display

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return (
                self.arity == other.arity
                and self._den == other._den
                and self._num == other._num
            )
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.is_constant() and self.constant_term() == other
        return NotImplemented

    def __hash__(self):
        # a constant equals its scalar, so it hashes like it too
        if self.is_constant():
            return hash(self.constant_term())
        return hash((self.arity, self._den, frozenset(self._num.items())))

    def render(self, names=None):
        """Human- and parser-readable text, graded-lex descending."""
        if names is None:
            names = DEFAULT_NAMES.get(self.arity)
            if names is None:
                raise ArityMismatch(
                    f"no default names for arity {self.arity}; pass names="
                )
        if len(names) != self.arity:
            raise ArityMismatch(
                f"got {len(names)} names for arity {self.arity}"
            )
        num, den = self._num, self._den
        if not num:
            return "0"
        pieces = []
        order = sorted(num, key=lambda e: (sum(e), e), reverse=True)
        for exps in order:
            coeff = num[exps]
            mag = abs(coeff)
            parts = []
            if mag != den or not any(exps):
                # mag / den in lowest terms, written as Fraction writes it
                g = gcd(mag, den)
                parts.append(str(mag // g) if g == den else f"{mag // g}/{den // g}")
            for name, e in zip(names, exps):
                if e == 1:
                    parts.append(name)
                elif e > 1:
                    parts.append(f"{name}^{e}")
            body = "*".join(parts)
            if not pieces:
                pieces.append(f"-{body}" if coeff < 0 else body)
            else:
                pieces.append(f"- {body}" if coeff < 0 else f"+ {body}")
        return " ".join(pieces)

    def __str__(self):
        return self.render(_repr_names(self.arity))

    def __repr__(self):
        return f"Polynomial({self.arity}, {self.render(_repr_names(self.arity))!r})"


def _shear_of(images):
    """(s, q, rn, rd) when the plane images are x_s + (rn/rd)*x_o^q with
    q >= 0 and x_o itself (o = 1 - s), else None."""
    if len(images) != 2:
        return None
    a, b = images
    if type(a) is Polynomial and type(b) is Polynomial and a.arity == b.arity == 2:
        for s, unit, other in ((0, (1, 0), (0, 1)), (1, (0, 1), (1, 0))):
            img, fixed = images[s], images[1 - s]
            num = img._num
            if (len(num) == 2 and num.get(unit) == img._den
                    and fixed._den == 1 and fixed._num == {other: 1}):
                ((e, rn),) = [(e, c) for e, c in num.items() if e != unit]
                if not e[s]:
                    return s, e[1 - s], rn, img._den
    return None
