"""Exact sparse polynomials over the rationals.

Coefficients are kept as ``int`` whenever possible and ``Fraction``
otherwise, so arithmetic never loses exactness and the common integer
case stays fast.  A polynomial is a dict from exponent tuples to
nonzero coefficients; the constructor canonicalizes, so two equal
polynomials always have equal dicts.

Arity (number of variables) is explicit.  Mixing arities raises
ArityMismatch instead of guessing.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import ArityMismatch, ConstantPolynomial, ZeroPolynomial

DEFAULT_NAMES = {1: ("x",), 2: ("x", "y"), 3: ("x", "y", "z")}


def _coerce(value):
    # canonical coefficients are exactly int or exactly Fraction, so the
    # kernels below can test ``type(c) is Fraction`` instead of running
    # the slower ABC isinstance; denominator-1 Fractions collapse to int
    # so dict lookups and arithmetic stay on the fast integer path
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


def _common_denominator(terms):
    den = 1
    for c in terms.values():
        if type(c) is Fraction:
            d = c.denominator
            den = den // gcd(den, d) * d
    return den


def _scaled_terms(terms, den):
    # multiply every coefficient by den, which the caller chose so the
    # results are plain ints
    if den == 1:
        return terms
    return {
        e: c.numerator * (den // c.denominator) if type(c) is Fraction else c * den
        for e, c in terms.items()
    }


def _unscaled_terms(acc, den):
    # canonical terms of acc / den, where acc holds int numerators that
    # may include zeros
    if den == 1:
        return {e: c for e, c in acc.items() if c}
    return {e: _coerce(Fraction(c, den)) for e, c in acc.items() if c}


def _convolve(arity, t1, t2, acc):
    """Add the product of the int-coefficient term dicts ``t1`` and
    ``t2`` into ``acc``.  Sums that cancel stay in ``acc`` as zeros.

    This is the one multiplication loop: ``__mul__``, ``__pow__`` and
    ``substitute`` all end here.  Exponent addition is unrolled for the
    two and three variable cases; the generic tuple-of-sums shows up in
    profiles.
    """
    if len(t1) > len(t2):
        # the smaller factor outside means fewer inner loops to set up
        t1, t2 = t2, t1
    get = acc.get
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


class Polynomial:
    """Immutable-by-convention sparse polynomial over Q."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity, terms=None):
        if not isinstance(arity, int) or arity < 1:
            raise ArityMismatch(f"arity must be a positive int, got {arity!r}")
        clean = {}
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
        self.arity = arity
        self.terms = clean

    @classmethod
    def _raw(cls, arity, terms):
        # internal: terms already canonical, skip the validation pass
        self = object.__new__(cls)
        self.arity = arity
        self.terms = terms
        return self

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
        return cls._raw(arity, {(0,) * arity: value})

    @classmethod
    def variable(cls, arity, index):
        if not 0 <= index < arity:
            raise ArityMismatch(f"variable index {index} out of range for arity {arity}")
        exps = tuple(1 if i == index else 0 for i in range(arity))
        return cls._raw(arity, {exps: 1})

    @classmethod
    def variables(cls, arity):
        return tuple(cls.variable(arity, i) for i in range(arity))

    @classmethod
    def monomial(cls, arity, exps, coeff=1):
        return cls(arity, {tuple(exps): coeff})

    # ------------------------------------------------------------------
    # predicates and views

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return len(self.terms) == 0 or (
            len(self.terms) == 1 and (0,) * self.arity in self.terms
        )

    def constant_term(self):
        return self.terms.get((0,) * self.arity, 0)

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
        return self.terms.get(exps, 0)

    def support(self):
        return tuple(self.terms)

    def total_degree(self):
        if not self.terms:
            raise ZeroPolynomial("the zero polynomial has no degree")
        return max(sum(exps) for exps in self.terms)

    def min_total_degree(self):
        if not self.terms:
            raise ZeroPolynomial("the zero polynomial has no degree")
        return min(sum(exps) for exps in self.terms)

    def degree_in(self, index):
        if not self.terms:
            raise ZeroPolynomial("the zero polynomial has no degree")
        if not 0 <= index < self.arity:
            raise ArityMismatch(f"variable index {index} out of range for arity {self.arity}")
        return max(exps[index] for exps in self.terms)

    def involves(self, index):
        return any(exps[index] for exps in self.terms)

    # ------------------------------------------------------------------
    # ring operations

    def _check_arity(self, other):
        if self.arity != other.arity:
            raise ArityMismatch(
                f"cannot combine arity {self.arity} with arity {other.arity}"
            )

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Polynomial.constant(self.arity, other)
        self._check_arity(other)
        acc = dict(self.terms)
        for exps, coeff in other.terms.items():
            new = acc.get(exps, 0) + coeff
            if new:
                acc[exps] = _coerce(new)
            else:
                acc.pop(exps, None)
        return Polynomial._raw(self.arity, acc)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.arity, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Polynomial.constant(self.arity, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_arity(other)
            # clearing denominators keeps the convolution on plain ints;
            # Fraction arithmetic normalizes with a gcd on every single
            # operation, which dominates runtime on large products
            den1 = _common_denominator(self.terms)
            den2 = _common_denominator(other.terms)
            acc = _convolve(
                self.arity,
                _scaled_terms(self.terms, den1),
                _scaled_terms(other.terms, den2),
                {},
            )
            return Polynomial._raw(self.arity, _unscaled_terms(acc, den1 * den2))
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        other = _coerce(other)
        if not other:
            return Polynomial.zero(self.arity)
        return Polynomial._raw(
            self.arity, {e: _coerce(c * other) for e, c in self.terms.items()}
        )

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a non-negative int, got {exponent!r}")
        # square on ints: (P / d) ** e is P ** e / d ** e with P = d * self
        den = _common_denominator(self.terms)
        base = _scaled_terms(self.terms, den)
        result = {(0,) * self.arity: 1}
        e = exponent
        while e:
            if e & 1:
                result = _int_product(self.arity, result, base)
            e >>= 1
            if e:
                base = _int_product(self.arity, base, base)
        return Polynomial._raw(self.arity, _unscaled_terms(result, den**exponent))

    # ------------------------------------------------------------------
    # calculus and substitution

    def partial(self, index):
        if not 0 <= index < self.arity:
            raise ArityMismatch(f"variable index {index} out of range for arity {self.arity}")
        acc = {}
        for exps, coeff in self.terms.items():
            e = exps[index]
            if e:
                key = exps[:index] + (e - 1,) + exps[index + 1:]
                acc[key] = acc.get(key, 0) + coeff * e
        return Polynomial(self.arity, acc)

    def map_exponents(self, arity, fn):
        """Move each term's exponent tuple e to ``fn(e)`` in ``arity``
        variables, adding terms that land together (zero sums vanish).

        The new tuples are not validated: callers guarantee they have
        length ``arity`` and non-negative entries.
        """
        acc = {}
        for exps, coeff in self.terms.items():
            key = fn(exps)
            acc[key] = acc.get(key, 0) + coeff
        return Polynomial._raw(arity, {e: _coerce(c) for e, c in acc.items() if c})

    def substitute(self, images):
        """Evaluate at ``images``, one per variable.

        Images may be Polynomial (all of one arity) or scalars; scalars
        are lifted to constants of the inferred arity.

        The work stays on plain integers.  Denominators are cleared once
        per call: each image is written as P_k / d_k with P_k on ints,
        each coefficient of self is scaled by the powers of the d_k its
        term lacks, and the sum is divided by the one common denominator
        at the end.  Terms are grouped by all but the last exponent:
        within a group the cached powers of the last image are added
        linearly, and the group is then multiplied by one cached power
        per earlier variable, so each group costs at most arity - 1
        products instead of each term costing two.
        """
        images = tuple(images)
        if len(images) != self.arity:
            raise ArityMismatch(
                f"need {self.arity} images, got {len(images)}"
            )
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
        if not self.terms:
            return Polynomial.zero(target)
        one = {(0,) * target: 1}
        dens = [_common_denominator(img.terms) for img in lifted]
        # powers[k][e] is P_k ** e on ints, filled on demand by halving e,
        # so a high power costs O(log e) products and cache entries
        powers = [{0: one, 1: _scaled_terms(img.terms, d)} for img, d in zip(lifted, dens)]
        den = _common_denominator(self.terms)
        scaled = _scaled_terms(self.terms, den)
        # (k, d_k, highest power of d_k any term needs) for each image
        # with a denominator
        cleared = [
            (k, d, max(exps[k] for exps in scaled))
            for k, d in enumerate(dens)
            if d != 1
        ]
        for _, d, top in cleared:
            den *= d**top

        def power(k, e):
            cache = powers[k]
            got = cache.get(e)
            if got is None:
                half = e // 2
                got = cache[e] = _int_product(target, power(k, half), power(k, e - half))
            return got

        last = self.arity - 1
        groups = {}
        for exps, c in scaled.items():
            for k, d, top in cleared:
                c *= d ** (top - exps[k])
            prefix = exps[:last]
            inner = groups.get(prefix)
            if inner is None:
                inner = groups[prefix] = {}
            get = inner.get
            for key, v in power(last, exps[last]).items():
                inner[key] = get(key, 0) + c * v
        acc = {}
        for prefix, inner in groups.items():
            factor = one
            for k, e in enumerate(prefix):
                if e:
                    more = power(k, e)
                    factor = more if factor is one else _int_product(target, factor, more)
            _convolve(target, inner, factor, acc)
        return Polynomial._raw(target, _unscaled_terms(acc, den))

    # ------------------------------------------------------------------
    # comparison and display

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.arity == other.arity and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_term() == _coerce(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

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
        if not self.terms:
            return "0"
        pieces = []
        order = sorted(self.terms, key=lambda e: (sum(e), e), reverse=True)
        for exps in order:
            coeff = self.terms[exps]
            negative = coeff < 0
            mag = -coeff if negative else coeff
            parts = []
            if mag != 1 or not any(exps):
                parts.append(str(mag))
            for name, e in zip(names, exps):
                if e == 1:
                    parts.append(name)
                elif e > 1:
                    parts.append(f"{name}^{e}")
            body = "*".join(parts)
            if not pieces:
                pieces.append(f"-{body}" if negative else body)
            else:
                pieces.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(pieces)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"Polynomial({self.arity}, {self.render()!r})"
