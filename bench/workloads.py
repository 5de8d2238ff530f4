"""Seeded inputs and exact output checks for the benchmark workloads.

Every workload is a list of ``Item``s built from a seed before any
timing starts.  An item's ``call`` runs the public tamekit operations
the benchmark times and returns a tuple of plain values that compare
with ``==``; ``check`` verifies such an output from scratch and returns
a reason string when it is wrong (``None`` when it is right); ``render``
turns it into text for the behaviour digest.

The size of the inputs is fixed by the workload, not left to the seed:
each workload is a table of strata, each stratum holds a fixed number of
items, and every item of a stratum lies in that stratum's stated size
band.  The seed only decides which inputs fill the bands.  All checks
are explicit comparisons, so they hold under ``python -O`` too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable

NONZERO = (-3, -2, -1, 1, 2, 3)

# a plane chain joins a stratum only when its degree bound (chain_bounds)
# is at most this; larger chains compose into maps whose set-up cost
# would swamp the run
MAX_DEGREE_BOUND = 30


@dataclass
class Item:
    """One benchmark input.  ``terms`` and ``degree`` give its size; an
    item whose size is only known from its output (a witness built from
    a weight triple) leaves them None and sets ``output_size``."""

    label: str
    stratum: str
    terms: int | None
    degree: int | None
    call: Callable
    check: Callable
    render: Callable
    output_size: Callable | None = None


def map_terms(m):
    return sum(len(c.terms) for c in m.coords)


def _scaled(count, scale):
    return max(1, round(count * scale))


def _render_maps(maps):
    return "; ".join(m.render() for m in maps)


# maps are compared at points modulo this prime: two different maps of
# degree at most D agree at a random point with probability at most
# D / PRIME (Schwartz-Zippel), far below 1e-12 for every map here
PRIME = 2**61 - 1


def eval_mod(poly, point):
    """The polynomial's value at the point, modulo PRIME."""
    total = 0
    for exps, coeff in poly.terms.items():
        term = coeff.numerator * pow(coeff.denominator, -1, PRIME)
        for x, e in zip(point, exps):
            term = term * pow(x, e, PRIME) % PRIME
        total += term
    return total % PRIME


def inverse_at_points(m, inv, rng, count=3):
    """False when m(inv(x)) or inv(m(x)) differs from x at one of
    ``count`` random points modulo PRIME.

    Composing a witness with its inverse literally squares its degree,
    which takes minutes for the large classes; evaluating the two maps
    one after the other at a point costs milliseconds.
    """
    for _ in range(count):
        x = tuple(rng.randrange(PRIME) for _ in range(m.arity))
        for first, second in ((inv, m), (m, inv)):
            y = tuple(eval_mod(c, x) for c in first.coords)
            if tuple(eval_mod(c, y) for c in second.coords) != x:
                return False
    return True


def _chain_mismatch(tk, target, factors):
    """Reason string unless the factors compose back to target exactly."""
    composed = tk.compose_chain(factors) if factors else tk.identity_map(target.arity)
    if composed != target:
        return "factors do not recompose to the input"
    return None


# ---------------------------------------------------------------------------
# plane maps: criterion 1's factor distribution


def plane_factor(rng):
    """One factor of criterion 1's tame-chain distribution, as its two
    coordinates' term dicts {(i, j): coefficient}."""
    kind = rng.randrange(6)
    if kind in (0, 1):
        d = rng.randrange(2, 5)
        c = Fraction(rng.choice(NONZERO), rng.randrange(1, 4))
        return {(1, 0): 1, (0, d): c}, {(0, 1): 1}
    if kind in (2, 3):
        d = rng.randrange(2, 5)
        c = Fraction(rng.choice(NONZERO), rng.randrange(1, 4))
        return {(1, 0): 1}, {(0, 1): 1, (d, 0): c}
    if kind == 4:
        while True:
            a, b, c, d = (rng.randrange(-3, 4) for _ in range(4))
            if a * d - b * c != 0:
                return _nonzero({(1, 0): a, (0, 1): b}), _nonzero({(1, 0): c, (0, 1): d})
    s, t = rng.randrange(-3, 4), rng.randrange(-3, 4)
    return _nonzero({(1, 0): 1, (0, 0): s}), _nonzero({(0, 1): 1, (0, 0): t})


def _nonzero(terms):
    return {e: c for e, c in terms.items() if c}


# plane maps that fold or collapse the plane, so that no chain holding
# one is an automorphism: (u^2, v), (u, v^2), (u*v, v), (u, u*v)
NON_INJECTIVE = (
    ({(2, 0): 1}, {(0, 1): 1}),
    ({(1, 0): 1}, {(0, 2): 1}),
    ({(1, 1): 1}, {(0, 1): 1}),
    ({(1, 0): 1}, {(1, 1): 1}),
)


def _lattice_points(du, dv, total):
    return sum(min(dv, total - i) + 1 for i in range(min(du, total) + 1))


def chain_bounds(chain):
    """(degree bound, term bound) of the composed chain, read off the
    exponents alone.

    The degrees in u, in v and in total of each coordinate are pushed
    from the last factor to the first; a coordinate cannot have more
    terms than lattice points under its three degrees.
    """
    boxes = None
    for coords in reversed(chain):
        if boxes is None:
            boxes = [
                (max(i for i, _ in t), max(j for _, j in t), max(i + j for i, j in t))
                for t in coords
            ]
            continue
        boxes = [
            tuple(max(i * boxes[0][k] + j * boxes[1][k] for i, j in t) for k in range(3))
            for t in coords
        ]
    return max(b[2] for b in boxes), sum(_lattice_points(*b) for b in boxes)


def plane_chain_map(tk, chain):
    """Build the chain's factors as maps and compose them."""
    factors = [tk.PolynomialMap((tk.Polynomial(2, f), tk.Polynomial(2, g))) for f, g in chain]
    return tk.compose_chain(factors)


@dataclass(frozen=True)
class PlaneBand:
    """A plane stratum: a term-count band for the composed map."""

    name: str
    min_terms: int
    max_terms: int
    count: int


def fill_plane_bands(tk, rng, bands, draw):
    """Draw chains until every band holds its count of composed maps.

    ``draw(rng)`` returns a chain of factor term dicts.  A chain whose
    degree bound exceeds MAX_DEGREE_BOUND belongs to no band.  The
    others are composed when their term bound reaches a band that is
    still open, and kept when their term count falls in one.
    """
    filled = {band.name: [] for band in bands}
    draws = 0
    while any(len(filled[b.name]) < b.count for b in bands):
        draws += 1
        if draws > 1_000_000:
            raise RuntimeError("plane bands did not fill; the band table is unreachable")
        chain = draw(rng)
        degree_bound, term_bound = chain_bounds(chain)
        if degree_bound > MAX_DEGREE_BOUND:
            continue
        open_bands = [
            b for b in bands if len(filled[b.name]) < b.count and term_bound >= b.min_terms
        ]
        if not open_bands:
            continue
        m = plane_chain_map(tk, chain)
        terms = map_terms(m)
        for b in open_bands:
            if b.min_terms <= terms <= b.max_terms:
                filled[b.name].append(m)
                break
    return filled


def tame_chain(rng):
    """Criterion 1's chain: one to six factors."""
    return [plane_factor(rng) for _ in range(rng.randrange(1, 7))]


def rejected_chain(rng):
    """A tame chain with a non-injective factor inserted at a seeded place."""
    chain = tame_chain(rng)
    chain.insert(rng.randrange(len(chain) + 1), rng.choice(NON_INJECTIVE))
    return chain


# the dense maps come in three term-count bands of equal size: the cost
# of a dense item grows with its term count, so fixing how many fall in
# each third of the range keeps a pass's cost nearly the same per seed
DENSE_BANDS = (
    PlaneBand("dense_100_133", 100, 133, 40),
    PlaneBand("dense_134_166", 134, 166, 40),
    PlaneBand("dense_167_200", 167, 200, 40),
)

PLANE_ROUNDTRIP_BANDS = (PlaneBand("small", 8, 20, 360),) + DENSE_BANDS

PLANE_REJECT_BANDS = (PlaneBand("small", 8, 20, 300),) + DENSE_BANDS


def _scaled_bands(bands, scale):
    return [PlaneBand(b.name, b.min_terms, b.max_terms, _scaled(b.count, scale)) for b in bands]


def _roundtrip_item(tk, label, stratum, m):
    def call():
        areas = []
        chain = tk.decompose_plane(m, trace=lambda current, area: areas.append(area))
        return chain.factors, tuple(areas)

    def check(out):
        factors, areas = out
        if any(later >= earlier for earlier, later in zip(areas, areas[1:])):
            return "Newton area did not strictly decrease"
        return _chain_mismatch(tk, m, factors)

    def render(out):
        return _render_maps(out[0])

    return Item(label, stratum, map_terms(m), m.degree(), call, check, render)


def build_plane_roundtrip(tk, seed, scale=1.0):
    rng = random.Random(seed)
    filled = fill_plane_bands(tk, rng, _scaled_bands(PLANE_ROUNDTRIP_BANDS, scale), tame_chain)
    items = [
        _roundtrip_item(tk, f"{name}#{i}", name, m)
        for name, maps in filled.items()
        for i, m in enumerate(maps)
    ]
    rng.shuffle(items)
    return items


def curated_non_automorphisms(tk):
    """Criterion 2's 22 curated plane maps that are not automorphisms."""
    u, v = tk.Polynomial.variables(2)
    P = tk.Polynomial
    coords = [
        (u * u, v),
        (u * v, v),
        (u + v, u + v),
        (u, u),
        (v, v),
        (u**2 + v**2, v),
        (u**3 - v**2, v),
        (u + v**2, v + u**2),
        (2 * u + 3 * v, 4 * u + 6 * v),
        (u + 1, u + 3),
        (P.zero(2), v),
        (P.constant(2, 1), v),
        (u * (1 + v), v),
        (u + v**3, v - u**3),
        (u * v + 1, v),
        (u**3, v**3),
        (u + v**2, 2 * v + u**2),
        (u**2, v**2),
        (u + v, u - v + u**2),
        (v**2, u**2),
        (u**2 - v**2, u + v),
        (u + u**2 * v**2, v),
    ]
    return [tk.PolynomialMap(c) for c in coords]


def _reject_item(tk, label, stratum, m):
    def call():
        accepted = tk.is_plane_automorphism(m)
        try:
            tk.decompose_plane(m)
        except tk.NotAnAutomorphism as exc:
            return accepted, type(exc).__name__
        return accepted, None

    def check(out):
        accepted, raised = out
        if accepted:
            return "is_plane_automorphism accepted a non-automorphism"
        if raised is None:
            return "decompose_plane did not raise NotAnAutomorphism"
        return None

    def render(out):
        return f"accepted={out[0]} raised={out[1]}"

    return Item(label, stratum, map_terms(m), m.degree(), call, check, render)


def build_plane_reject(tk, seed, scale=1.0):
    rng = random.Random(seed)
    curated = curated_non_automorphisms(tk)
    items = [_reject_item(tk, f"curated#{i}", "curated", m) for i, m in enumerate(curated)]
    filled = fill_plane_bands(tk, rng, _scaled_bands(PLANE_REJECT_BANDS, scale), rejected_chain)
    items += [
        _reject_item(tk, f"{name}#{i}", name, m)
        for name, maps in filled.items()
        for i, m in enumerate(maps)
    ]
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# wild witnesses: criterion 3's sweep, a fixed number of triples for every
# (q_hat, l_hat) class


def directly_wild(a, b, c):
    """Criterion 3's direct search: a = q*b + p*c with q >= 2, p >= 1."""
    for q in range(2, (a - c) // b + 1):
        rest = a - q * b
        if rest >= c and rest % c == 0:
            return True
    return False


def threshold_exponents(a, b, c):
    """(q_hat, l_hat) by direct search, independent of tamekit."""
    qh = max(q for q in range(-c, a) if b * q < a and (b * q - a) % c == 0)
    lh = next(l for l in range(1, c + 1) if (a * l - b) % c == 0)
    return qh, lh


def wild_triples():
    """The wild (a, b, c) of criterion 3's a, b, c <= 40 sweep, with
    their threshold exponents."""
    out = []
    for a in range(1, 41):
        for b in range(1, a + 1):
            for c in range(1, 41):
                if gcd(gcd(a, b), c) != 1 or gcd(a, c) != 1 or gcd(b, c) != 1:
                    continue
                if directly_wild(a, b, c):
                    out.append(((a, b, c), threshold_exponents(a, b, c)))
    return out


# (name, lowest q_hat + l_hat, highest q_hat + l_hat, triples per class):
# the cheap low bands take several triples of each class, so that the
# sample has enough items for a 90th percentile with ten beyond it
WITNESS_BANDS = (
    ("qlsum_03_06", 3, 6, 3),
    ("qlsum_07_10", 7, 10, 2),
    ("qlsum_11_14", 11, 14, 1),
)


def _wild_classes():
    """(q_hat, l_hat) -> the wild triples of that class."""
    by_class = {}
    for triple, ql in wild_triples():
        by_class.setdefault(ql, []).append(triple)
    return by_class


def _witness_item(tk, label, stratum, triple, ql):
    a, b, c = triple
    weights = (a, b, -c)
    qh, lh = ql

    def call():
        cls = tk.classify_grading(weights)
        wit = tk.wild_witness(weights)
        verified = wit.verify()
        return cls, wit, verified

    def check(out):
        cls, wit, verified = out
        wmap, winv, cert = wit.map, wit.inverse, wit.certificate
        if verified is not True:
            return "WildWitness.verify() did not return True"
        # verify() checks with assert, which python -O strips
        rng = random.Random(label)
        if not (
            inverse_at_points(wit.plane_map, wit.plane_inverse, rng)
            and inverse_at_points(wmap, winv, rng)
        ):
            return "the witness and its inverse are not inverse maps"
        if not cls.admits_wild or (cls.q_hat, cls.l_hat) != (qh, lh):
            return "classification disagrees with the direct search"
        if not (cls.witness_q >= 2 and cls.witness_p >= 1):
            return "witness exponents out of range"
        if a != cls.witness_q * b + cls.witness_p * c:
            return "witness exponents do not solve a = q*b + p*c"
        g = tk.Grading(weights)
        if not (g.is_graded_map(wmap) and g.is_graded_map(winv)):
            return "witness or its inverse is not graded"
        if cert is None or not cert.certified:
            return "certificate missing or not certified"
        if cert.violating_degree != qh + lh - 1:
            return "certificate violating degree is not q_hat + l_hat - 1"
        if not (cert.violating_degree < cert.threshold == qh + c):
            return "certificate threshold is not q_hat + c"
        return None

    def render(out):
        cls, wit, _ = out
        cert = wit.certificate
        return (
            f"{weights} {cls.reason.value} q={cls.q_hat} l={cls.l_hat} "
            f"map={wit.map.render()} inverse={wit.inverse.render()} "
            f"cert={cert.violating_exponents}@{cert.violating_degree}<{cert.threshold}"
        )

    def output_size(out):
        return map_terms(out[1].map), out[1].map.degree()

    return Item(label, stratum, None, None, call, check, render, output_size)


def build_witness(tk, seed, scale=1.0):
    rng = random.Random(seed)
    by_class = _wild_classes()
    items = []
    for name, lo, hi, per in WITNESS_BANDS:
        classes = sorted(ql for ql in by_class if lo <= sum(ql) <= hi)
        keep = _scaled(len(classes), scale)
        # an even spread over the band, so a small scale still spans it
        classes = [classes[i * len(classes) // keep] for i in range(keep)]
        for ql in classes:
            for triple in rng.choices(by_class[ql], k=per):
                label = f"({triple[0]},{triple[1]},-{triple[2]})#{len(items)}"
                items.append(_witness_item(tk, label, name, triple, ql))
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# graded pipelines: the generators of criteria 6-9


def _graded_factor_makers(tk):
    """kind -> (weights, factor maker, longest chain), as in criteria 6-9."""
    P = tk.Polynomial
    PM = tk.PolynomialMap
    u, v = P.variables(2)
    x, y, z = P.variables(3)

    def lift_plane(rng):
        kind, c = rng.randrange(4), rng.choice(NONZERO)
        if kind == 0:
            return PM((u + c * v**5, v))
        if kind == 1:
            return PM((u + c * v**8, v))
        if kind == 2:
            return PM((u, v + c * u**2))
        return PM((rng.choice(NONZERO) * u, rng.choice(NONZERO) * v))

    def lift_space(rng):
        kind, c = rng.randrange(4), rng.choice(NONZERO)
        if kind == 0:
            return PM((x + c * y**5 * z, y, z))
        if kind == 1:
            return PM((x + c * y**8 * z**3, y, z))
        if kind == 2:
            return PM((x, y + c * x**2 * z**4, z))
        return PM((rng.choice(NONZERO) * x, rng.choice(NONZERO) * y, z))

    def euclid(rng):
        def zpoly():
            while True:
                p = P.zero(3)
                for k in range(5):
                    c = rng.randrange(-3, 4)
                    if c:
                        p = p + c * z**k
                if not p.is_zero():
                    return p

        kind = rng.randrange(3)
        if kind == 0:
            return PM((x + zpoly() * y, y, z))
        if kind == 1:
            return PM((x, y + zpoly() * x, z))
        return PM((rng.choice(NONZERO) * x, rng.choice(NONZERO) * y, z))

    def scale3(rng):
        return PM(tuple(rng.choice(NONZERO) * t for t in (x, y, z)))

    def qhat_111(rng):
        kind, c = rng.randrange(5), rng.choice(NONZERO)
        if kind == 0:
            return PM((x + c * y**2 * z, y, z))
        if kind == 1:
            return PM((x + c * y**3 * z**2, y, z))
        if kind == 2:
            return PM((x, y + c * x**2 * z, z))
        if kind == 3:
            return PM((y, x, z))
        return scale3(rng)

    def qhat_523(rng):
        kind, c = rng.randrange(4), rng.choice(NONZERO)
        if kind == 0:
            return PM((x + c * y**4 * z, y, z))
        if kind == 1:
            return PM((x + c * y**7 * z**3, y, z))
        if kind == 2:
            return PM((x, y + c * x * z, z))
        return scale3(rng)

    def positive_112(rng):
        kind = rng.randrange(3)
        if kind == 0:
            while True:
                a, b, c, d = (rng.randrange(-3, 4) for _ in range(4))
                if a * d - b * c != 0:
                    break
            return PM((a * x + b * y, c * x + d * y, rng.choice(NONZERO) * z))
        if kind == 1:
            q = P.zero(3)
            for mon in (x**2, x * y, y**2):
                q = q + rng.randrange(-3, 4) * mon
            return PM((x, y, z + q))
        return PM((x, y, rng.choice(NONZERO) * z))

    def positive_123(rng):
        kind, c = rng.randrange(4), rng.choice(NONZERO)
        if kind == 0:
            return scale3(rng)
        if kind == 1:
            return PM((x, y + c * x**2, z))
        if kind == 2:
            return PM((x, y, z + c * x * y))
        return PM((x, y, z + c * x**3))

    return {
        "lift_plane_7_2_3": ((7, 2, -3), lift_plane, 4),
        "lift_space_7_2_3": ((7, 2, -3), lift_space, 4),
        "euclid_1_1_0": ((1, 1, 0), euclid, 5),
        "qhat_low_1_1_1": ((1, 1, -1), qhat_111, 5),
        "qhat_low_5_2_3": ((5, 2, -3), qhat_523, 5),
        "positive_1_1_2": ((1, 1, 2), positive_112, 5),
        "positive_1_2_3": ((1, 2, 3), positive_123, 5),
    }


GRADED_PER_CELL = 30
# this workload times small maps; the few long chains that compose into
# hundreds of terms would decide its throughput alone
GRADED_MAX_TERMS = 40
# candidates drawn per kept chain: the kept chains sit at evenly spaced
# term-count ranks of the candidates, so every seed holds nearly the
# same mix of small and large chains in each cell, and the latency tail,
# which the largest chains of one generator make up, does not depend on
# how many of them a seed happens to draw
GRADED_POOL = 4


def _graded_factors_mismatch(tk, m, weights, factors, lift=False):
    reason = _chain_mismatch(tk, m, factors)
    if reason:
        return reason
    g = tk.Grading(weights)
    z = tk.Polynomial.variable(3, 2)
    for fac in factors:
        if not g.is_graded_map(fac):
            return "a factor is not graded"
        tk.invert_factor(fac)
        if lift and fac.coords[2] == z:
            if not tk.lift_plane_map(tk.restrict_to_plane(fac), weights).liftable:
                return "a z-fixing factor does not lift after restriction"
    return None


def _graded_item(tk, kind, weights, m, label, stratum):
    z = tk.Polynomial.variable(3, 2)

    if kind.startswith("lift_plane"):

        def call():
            rep = tk.lift_plane_map(m, weights)
            back = tk.restrict_to_plane(rep.lifted) if rep.liftable else None
            return rep.liftable, rep.lifted, back

        def check(out):
            liftable, lifted, back = out
            if not liftable:
                return "liftable plane chain reported unliftable"
            if lifted.coords[2] != z or not tk.Grading(weights).is_graded_map(lifted):
                return "lift does not fix z or is not graded"
            if back != m:
                return "restriction of the lift is not the input"
            return None

        render = lambda out: out[1].render()
    elif kind.startswith("lift_space"):

        def call():
            rep = tk.lift_plane_map(tk.restrict_to_plane(m), weights)
            return rep.liftable, rep.lifted

        def check(out):
            if not out[0] or out[1] != m:
                return "restrict-then-lift did not give the input back"
            return None

        render = lambda out: out[1].render()
    elif kind.startswith("qhat_low"):
        a, b, c = weights[0], weights[1], -weights[2]
        rewrite = kind == "qhat_low_5_2_3"

        def call():
            chain = tk.decompose_qhat_low(m, weights)
            if not rewrite:
                return chain.factors, None
            # the plane half of the pipeline through its public steps
            plane = tk.restrict_to_plane(tk.split_z_scaling(m, weights)[1])
            grading = tk.plane_residue_grading(a, b, c)
            rewritten = tk.rewrite_liftable_chain(
                tk.decompose_plane_graded(plane, grading), weights
            )
            return chain.factors, (plane, rewritten.factors)

        def check(out):
            factors, plane_part = out
            reason = _graded_factors_mismatch(tk, m, weights, factors, lift=True)
            if reason or plane_part is None:
                return reason
            plane, rewritten = plane_part
            reason = _chain_mismatch(tk, plane, rewritten)
            if reason:
                return "rewritten plane chain: " + reason
            for fac in rewritten:
                if not tk.lift_plane_map(fac, weights).liftable:
                    return "a rewritten plane factor does not lift"
            return None

        def render(out):
            text = _render_maps(out[0])
            return text if out[1] is None else text + " | " + _render_maps(out[1][1])
    elif kind.startswith("positive"):

        def call():
            chain = tk.decompose_graded(m, weights)
            return chain.factors, tk.invert_graded(m, weights)

        def check(out):
            factors, inverse = out
            reason = _graded_factors_mismatch(tk, m, weights, factors)
            if reason:
                return reason
            if not tk.verify_inverse_pair(m, inverse):
                return "invert_graded did not return the inverse"
            return None

        render = lambda out: _render_maps(out[0]) + " | " + out[1].render()
    else:

        def call():
            return (tk.decompose_graded(m, weights).factors,)

        def check(out):
            return _graded_factors_mismatch(tk, m, weights, out[0])

        render = lambda out: _render_maps(out[0])

    return Item(label, stratum, map_terms(m), m.degree(), call, check, render)


def _small_graded_chain(tk, rng, make, n):
    """A composed chain of n factors with at most GRADED_MAX_TERMS terms."""
    for _ in range(10_000):
        m = tk.compose_chain([make(rng) for _ in range(n)])
        if map_terms(m) <= GRADED_MAX_TERMS:
            return m
    raise RuntimeError("graded chains never came out small enough")


def _graded_chains(tk, rng, make, n, count):
    """count small chains of n factors, at evenly spaced term-count ranks
    of GRADED_POOL * count candidates."""
    pool = sorted(
        (_small_graded_chain(tk, rng, make, n) for _ in range(GRADED_POOL * count)),
        key=map_terms,
    )
    return [pool[GRADED_POOL * i + GRADED_POOL // 2] for i in range(count)]


def build_graded(tk, seed, scale=1.0):
    rng = random.Random(seed)
    makers = _graded_factor_makers(tk)
    per_cell = _scaled(GRADED_PER_CELL, scale)
    items = []
    # round-robin over the generators, one chain length at a time
    for n in range(1, 6):
        chains = {
            kind: _graded_chains(tk, rng, make, n, per_cell)
            for kind, (weights, make, longest) in makers.items()
            if n <= longest
        }
        for rep in range(per_cell):
            for kind, cell in chains.items():
                weights = makers[kind][0]
                items.append(
                    _graded_item(tk, kind, weights, cell[rep], f"{kind}#{n}.{rep}", f"{kind}/len{n}")
                )
    return items


# ---------------------------------------------------------------------------


WORKLOADS = {
    "plane_roundtrip": build_plane_roundtrip,
    "plane_reject": build_plane_reject,
    "witness": build_witness,
    "graded": build_graded,
}


def build(tk, name, seed, scale=1.0):
    return WORKLOADS[name](tk, seed, scale)
