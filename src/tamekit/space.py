"""Graded automorphisms of K[x,y,z]: classification and decomposition.

A Z-grading assigns an integer weight to each variable.  From the
weights alone, classify_grading decides whether the grading admits
graded-wild automorphisms.  In the admitting mixed-sign cases
wild_witness builds an explicit wild automorphism together with its
inverse and a degree certificate; wildness_certificate runs the same
degree test against any given graded map.  In the tame-only cases
decompose_graded factors a graded automorphism into graded elementary
and linear maps, dispatching on the sign pattern:

  * strictly positive (or strictly negative) weights peel off one
    weight level at a time, lowest first;
  * weights with a zero entry normalize to four shapes.  (a, b, 0),
    (1, 1, 0) and (1, 0, 0) peel levels in the same loop, with a level
    0 added: the affine z line, or the plane descent on (y, z).  For
    (1, 1, 0) the level-1 block has entries in K[z] and is reduced by
    Euclid.  (a, 0, -c) splits off its scalings and one shear;
  * mixed-sign weights restrict to the plane by setting z = 1, run the
    Newton-polygon descent there, rewrite the plane factors into
    liftable form, and lift everything back to three variables.

The key quantity for a mixed grading (a, b, -c) is the threshold
exponent q_hat: the largest q with b*q congruent to a modulo c while
b*q < a.  Graded-wild automorphisms exist exactly when q_hat >= 2 (and
in the trivial grading, where every automorphism is graded).

Each public entry point checks its inputs once, at its own boundary,
and classifies the weights once: the GradingClassification is the one
weight context passed down from there.  decompose_graded dispatches on
its reason, handing positive and zero weights to the public
decompose_positive and decompose_zero_cases, which check their input
again (so zero weights are classified twice).  Both end in one level
loop, _peel_levels, which also factors the triangular maps of the
trivial grading; decompose_zero_cases sends only (a, 0, -c) elsewhere.
The degree test, the pipelines and the lifts below take the context
as given and never classify, normalize or re-check the input map
again.  Nor does the mixed pipeline re-check the plane descent factors
it rewrites: they are graded and fix the origin by proof (see
_mixed_pipeline), and only the public rewrite_liftable_chain checks the
factors it is given.

Everything is exact rational arithmetic; no floating point enters.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import comb, gcd
from operator import itemgetter

from .errors import (
    ArityMismatch,
    CertifiedWildMap,
    GcdPrecondition,
    InvariantViolation,
    LastVariableNotFixed,
    LiftFailure,
    NotAnAutomorphism,
    NotGraded,
    NotGradedChain,
    NotGradedPlane,
    NotWildAdmitting,
    OriginNotPreserved,
    QHatNotOne,
    ThirdCoordinateNotScalar,
    WildAdmittingUndecided,
    WitnessTooLarge,
    WrongShape,
)
from .grading import (
    Grading,
    _check_weights,
    l_hat,
    normalize_weights,
    plane_residue_grading,
    q_hat,
)
from .jung import _descend
from .maps import (
    ElementaryDetail,
    FactorChain,
    MapClass,
    PolynomialMap,
    _require_constant_jacobian,
    _shape,
    classify_map,
    compose_chain,
    map_from_matrix,
    matrix_inverse,
    matrix_product,
    verify_inverse_pair,
)
from .poly import Polynomial, _div

_U, _V = Polynomial.variables(2)
_X, _Y, _Z = Polynomial.variables(3)


def _scalar_coord(coord, index):
    """The scale when coord == scale * variable(index) exactly, else None."""
    scale, rest = coord.split_variable(index)
    return scale if scale and rest.is_zero() else None


# ---------------------------------------------------------------------------
# classification of gradings

class GradingVerdict(enum.Enum):
    WILD_ADMITTING = "wild-admitting"
    TAME_ONLY = "tame-only"


class GradingReason(enum.Enum):
    TRIVIAL_GRADING = "trivial-grading"
    ALL_POSITIVE = "all-positive"
    ALL_NEGATIVE = "all-negative"
    ZERO_WEIGHT = "zero-weight"
    GCD_OBSTRUCTION = "gcd-obstruction"
    SYMMETRIC_GCD_OBSTRUCTION = "symmetric-gcd-obstruction"
    Q_HAT_AT_LEAST_TWO = "q-hat-at-least-two"
    Q_HAT_ONE = "q-hat-one"
    Q_HAT_NONPOSITIVE = "q-hat-nonpositive"


class ZeroWeightShape(enum.Enum):
    DISTINCT_POSITIVE_PAIR = "distinct-positive-pair"
    EQUAL_POSITIVE_PAIR = "equal-positive-pair"
    POSITIVE_AND_NEGATIVE = "positive-and-negative"
    SINGLE_POSITIVE = "single-positive"


@dataclass(frozen=True)
class GradingClassification:
    """Verdict on a weight triple, with the data the verdict rests on.

    ``normalized`` transports maps between the given weights and the
    canonical ones.  For mixed-sign coprime weights ``q_hat`` and
    ``l_hat`` are the two modular exponents everything else is built
    from; when the verdict is wild-admitting, ``witness_q`` and
    ``witness_p`` solve a = q*b + p*c with q >= 2 and p >= 1.
    """

    weights: tuple
    normalized: object
    verdict: GradingVerdict
    reason: GradingReason
    zero_shape: object = None
    q_hat: object = None
    l_hat: object = None
    witness_q: object = None
    witness_p: object = None

    @property
    def admits_wild(self):
        return self.verdict is GradingVerdict.WILD_ADMITTING


def _zero_shape(nw):
    """Normalization leaves weights with a zero entry, not all zero, in
    four shapes: (a, b, 0) with a > b, (1, 1, 0), (a, 0, -c), (1, 0, 0)."""
    a, b, w2 = nw
    if w2 == 0 and b >= 1:
        if a > b:
            return ZeroWeightShape.DISTINCT_POSITIVE_PAIR
        return ZeroWeightShape.EQUAL_POSITIVE_PAIR
    if b == 0 and w2 < 0:
        return ZeroWeightShape.POSITIVE_AND_NEGATIVE
    return ZeroWeightShape.SINGLE_POSITIVE


def classify_grading(weights):
    """Decide whether a weight triple admits graded-wild automorphisms.

    Wild-admitting cases: the trivial grading, and mixed-sign coprime
    weights whose threshold exponent q_hat is at least two.  Everything
    else is tame-only, with the reason recording which decomposition
    argument applies.
    """
    w = tuple(weights)
    norm = normalize_weights(w)
    nw = norm.weights
    a, b, c = nw[0], nw[1], -nw[2]
    zero_shape = qh = lh = witness_q = witness_p = None
    if nw == (0, 0, 0):
        reason = GradingReason.TRIVIAL_GRADING
    elif all(v > 0 for v in nw):
        reason = (
            GradingReason.ALL_NEGATIVE if norm.flipped else GradingReason.ALL_POSITIVE
        )
    elif 0 in nw:
        reason = GradingReason.ZERO_WEIGHT
        zero_shape = _zero_shape(nw)
    elif b % gcd(a, c):
        reason = GradingReason.GCD_OBSTRUCTION
    elif a % gcd(b, c):
        reason = GradingReason.SYMMETRIC_GCD_OBSTRUCTION
    else:
        # both divisibility checks passing forces gcd(a,c) = gcd(b,c) = 1
        qh = q_hat(a, b, c)
        lh = l_hat(a, b, c)
        if qh >= 2:
            reason = GradingReason.Q_HAT_AT_LEAST_TWO
            witness_q, witness_p = qh, (a - b * qh) // c
        elif qh == 1:
            reason = GradingReason.Q_HAT_ONE
        else:
            reason = GradingReason.Q_HAT_NONPOSITIVE
    wild = reason in (GradingReason.TRIVIAL_GRADING, GradingReason.Q_HAT_AT_LEAST_TWO)
    verdict = GradingVerdict.WILD_ADMITTING if wild else GradingVerdict.TAME_ONLY
    return GradingClassification(
        w, norm, verdict, reason, zero_shape, qh, lh, witness_q, witness_p
    )


def _mixed_abc(w, shape_error):
    """(a, b, c) for weights (a, b, -c) with a >= b >= 1, c >= 1 and
    gcd(a, c) = gcd(b, c) = 1.

    A wrong shape raises shape_error, a shared factor GcdPrecondition.
    Normalized weights have this shape exactly when they are mixed-sign,
    and then pass the gcd test exactly when neither divisibility
    obstruction of classify_grading holds.
    """
    if len(w) != 3 or not (w[0] >= w[1] >= 1 and w[2] < 0):
        raise shape_error(
            f"weights {w} must look like (a, b, -c) with a >= b >= 1 and c >= 1"
        )
    a, b, c = w[0], w[1], -w[2]
    if gcd(a, c) != 1 or gcd(b, c) != 1:
        raise GcdPrecondition(
            f"needs gcd(a, c) = gcd(b, c) = 1, got a={a}, b={b}, c={c}"
        )
    return a, b, c


def _check_graded(m, weights):
    """Raise NotGraded unless m is graded for weights; Grading.is_graded_map
    raises ArityMismatch when m's arity is not the weight count."""
    if not Grading(weights).is_graded_map(m):
        raise NotGraded(f"{m} is not graded for weights {weights}")


def _graded_chain(m, factors, weights, norm=None):
    """The FactorChain of m, after moving the factors back to the
    original variables with norm when they were found in normalized
    ones.  This is the final check of every graded decomposition;
    FactorChain._derived drops the identity factors the builders below
    emit."""
    if norm is not None:
        factors = [norm.to_original(f) for f in factors]
    chain = FactorChain._derived(m, factors)
    g = Grading(weights)
    for f in chain.factors:
        if not g.is_graded_map(f):
            raise InvariantViolation(f"factor {f} is not graded for weights {weights}")
    return chain


# ---------------------------------------------------------------------------
# splitting off the z scaling, restriction to the plane, and lifting back

def split_z_scaling(m, weights):
    """Split a graded map as (x, y, lam*z) composed after a map fixing z.

    Needs the first two weights nonnegative and the third negative; the
    third coordinate of a graded map then has every monomial divisible
    by z, and for an automorphism it must be lam*z exactly (anything
    else raises ThirdCoordinateNotScalar).  The weights are read before
    the map; the NotGraded check raises ArityMismatch for a map that
    does not have three variables.
    """
    w = _check_weights(weights)
    if len(w) != 3 or not (w[0] >= 0 and w[1] >= 0 and w[2] < 0):
        raise WrongShape(
            f"weights {w} must have the third negative and the others nonnegative"
        )
    _check_graded(m, w)
    return _split_z(m)


def _z_scale(m):
    """lam when the third coordinate of m is lam*z exactly, for a nonzero
    scalar lam; ThirdCoordinateNotScalar otherwise."""
    lam = _scalar_coord(m.coords[2], 2)
    if lam is None:
        raise ThirdCoordinateNotScalar(
            f"third coordinate {m.coords[2]} is not a nonzero scalar multiple of z"
        )
    return lam


def _split_z(m):
    """split_z_scaling for a map already known to be graded."""
    return PolynomialMap((_X, _Y, _z_scale(m) * _Z)), PolynomialMap((*m.coords[:2], _Z))


def restrict_to_plane(m):
    """Set z = 1 in the first two coordinates of a map that fixes z."""
    if m.arity != 3:
        raise ArityMismatch(f"need a three-variable map, got arity {m.arity}")
    if m.coords[2] != _Z:
        raise LastVariableNotFixed(
            f"third coordinate must be z itself, got {m.coords[2]}"
        )
    return PolynomialMap(c.map_exponents(2, itemgetter(0, 1)) for c in m.coords[:2])


class ObstructionKind(enum.Enum):
    LOW_MONOMIAL = "low-monomial"
    FREE_TERM = "free-term"


@dataclass(frozen=True)
class LiftObstruction:
    """A plane monomial that would need a negative power of z to lift."""

    kind: ObstructionKind
    coordinate: int
    exponents: tuple


@dataclass(frozen=True)
class LiftReport:
    liftable: bool
    obstruction: object = None
    lifted: object = None


def _lift_coord(poly, target, a, b, c):
    # u^i v^j goes to x^i y^j z^t with a*i + b*j - c*t = target; the lift
    # keeps i and j, so it is injective on exponents and no terms merge
    lifted = {(i, j, (a * i + b * j - target) // c): n for (i, j), n in poly._num.items()}
    return Polynomial._raw(3, lifted, poly._den)


def lift_plane_map(pm, weights):
    """Lift a residue-graded plane map to three variables, or report why not.

    ``weights`` is the mixed triple (a, b, -c) with a >= b >= 1, c >= 1
    and gcd(a, c) = gcd(b, c) = 1.  Each monomial u^i v^j becomes
    x^i y^j z^t with t fixed by weight homogeneity.  The lift exists
    unless the first coordinate has a pure power v^j with b*j < a (the
    free term included) or the second coordinate has a free term; the
    report carries the offending monomial instead of raising.  A map
    that is not a plane map fails the NotGradedPlane check first, with
    ArityMismatch.  No assert guards the power of z: the NotGradedPlane
    check makes it an integer and the two obstruction scans make it
    non-negative.
    """
    a, b, c = _mixed_abc(_check_weights(weights), WrongShape)
    rg = plane_residue_grading(a, b, c)
    if not rg.is_graded_map(pm):
        raise NotGradedPlane(f"{pm} is not graded for {rg!r}")
    low = min((j for (i, j) in pm.coords[0]._num if not i and b * j < a), default=None)
    if low is not None:
        return LiftReport(
            False, LiftObstruction(ObstructionKind.LOW_MONOMIAL, 0, (0, low))
        )
    if (0, 0) in pm.coords[1]._num:
        return LiftReport(
            False, LiftObstruction(ObstructionKind.FREE_TERM, 1, (0, 0))
        )
    lifted = PolynomialMap(
        (
            _lift_coord(pm.coords[0], a, a, b, c),
            _lift_coord(pm.coords[1], b, a, b, c),
            _Z,
        )
    )
    return LiftReport(True, None, lifted)


def _lift_or_fail(pm, weights):
    rep = lift_plane_map(pm, weights)
    if not rep.liftable:
        raise LiftFailure(
            f"factor {pm} fails to lift for weights {tuple(weights)}: "
            f"{rep.obstruction}"
        )
    return rep.lifted


# ---------------------------------------------------------------------------
# wildness certificate and explicit witnesses

@dataclass(frozen=True)
class WildnessCertificate:
    """Outcome of the degree test against a graded map.

    Any graded-tame automorphism for mixed coprime weights has, after
    normalizing, splitting off the z scaling and setting z = 1, a first
    coordinate lam*u + G where every monomial of G has total degree at
    least q_hat + c.  A monomial below that threshold therefore
    certifies wildness; ``certified`` False means the test is silent
    (it is sound, not complete).
    """

    certified: bool
    weights: tuple
    q_hat: int
    threshold: int
    scale: object
    violating_exponents: object = None
    violating_degree: object = None

    @property
    def verdict(self):
        return "CertifiedWild" if self.certified else "Inconclusive"


def wildness_certificate(m, weights):
    """Run the degree test for graded wildness against a graded map.

    The test certifies automorphisms only: it does not check that m is
    one, and for a graded map that is not, a certificate means nothing.
    decompose_graded decides membership before it returns a certificate.
    """
    cls = classify_grading(weights)
    _mixed_abc(cls.normalized.weights, GcdPrecondition)
    _check_graded(m, cls.weights)
    return _degree_test(cls, cls.normalized.to_normalized(m))


def _degree_test(cls, mm):
    """The degree test on mm, a graded map in the normalized variables of
    mixed coprime weights.

    It reads only the first coordinate of the plane restriction of mm's
    z-fixing part, which is mm's own first coordinate at z = 1.  That is
    read off mm without relabelling: the weight fixes each term's power
    of z (see WildWitness.verify), so u is x itself and a term x^i y^j z^k
    has plane degree i + j.  The drop term reported is the lowest in
    degree and, of those, the one with the least exponent tuple.
    """
    qh = cls.q_hat
    _z_scale(mm)
    lam, drop = mm.coords[0].split_variable(0)
    threshold = qh - cls.normalized.weights[2]
    low = min([i + j for i, j, _ in drop._num], default=threshold)
    if low < threshold:
        i = min([i for i, j, _ in drop._num if i + j == low])
        return WildnessCertificate(True, cls.weights, qh, threshold, lam, (i, low - i), low)
    return WildnessCertificate(False, cls.weights, qh, threshold, lam)


@dataclass(frozen=True)
class WildWitness:
    """An explicit graded-wild automorphism for a wild-admitting grading.

    For mixed weights the construction conjugates the shear
    (u, v + u^l_hat) by the unliftable shear (u + v^q_hat, v); the
    result and its inverse both lift to three variables even though the
    conjugating factor does not, and the lifted map fails the tameness
    degree bound, which ``certificate`` records.  For the trivial
    grading the witness is Nagata's automorphism and
    ``externally_certified`` is True: its wildness is a known fact the
    degree test does not reprove, and the mixed-only fields stay None.
    The weights, q_hat, l_hat and the shear exponent witness_p are read
    from ``classification``.
    """

    classification: GradingClassification
    map: PolynomialMap
    inverse: PolynomialMap
    plane_map: object = None
    plane_inverse: object = None
    certificate: object = None
    externally_certified: bool = False

    def verify(self, compose_cap=200):
        """Re-check every claim about the witness, exactly.

        Checks gradedness under the original weights, that the two shear
        factors are inverse pairs (both are elementary, so
        verify_inverse_pair decides them on their coefficients), that
        the plane map and plane inverse really are the stated
        conjugates, that the map and its inverse fix z after
        normalizing, and that they restrict to the plane pair.
        wild_witness writes the conjugates down from binomial sums, so
        composing the factors here is an independent second derivation,
        not a replay of the first.  The composition folds the two small
        factors first and substitutes the outer shear last; that order keeps
        every intermediate a short sum of binomial powers, where any
        other association expands powers of the full conjugate.  The
        degree certificate is re-derived as well.

        These checks prove the three-variable pair without composing it.
        The plane pair is inverse: (tau_inv phi tau)(tau_inv phi_inv tau)
        telescopes to the identity once the factor pairs cancel.  After
        normalizing to (a, b, -c), setting z = 1 is injective on graded
        maps that fix z: in a coordinate of weight w the monomial
        x^i y^j z^k has c*k = a*i + b*j - w, so the restriction
        determines the coordinate.  It also respects composition, as a
        map that fixes z commutes with setting z = 1.  Both composites
        of the normalized pair are graded, fix z and restrict to a
        composite of the plane pair, the identity; the identity map has
        the same three properties, so both composites are the identity.
        The pair is still composed literally, in the plane and in three
        variables, when the product of the two total degrees is at most
        compose_cap.  The argument above makes that branch redundant; it
        stays only because bench/layers.py reads the default of
        compose_cap.
        Returns True when every check holds and False at the first that
        fails, a record whose classification has no shears to build (it
        is not mixed with q_hat >= 2) included; no check is an assert, so
        the answer is the same under ``python -O``.
        """
        cls = self.classification
        g = Grading(cls.weights)
        if not (g.is_graded_map(self.map) and g.is_graded_map(self.inverse)):
            return False
        if self.externally_certified:
            return verify_inverse_pair(self.map, self.inverse)
        if cls.reason is not GradingReason.Q_HAT_AT_LEAST_TWO:
            return False
        qh, lh = cls.q_hat, cls.l_hat
        tau = PolynomialMap((_U + _V**qh, _V))
        tau_inv = PolynomialMap((_U - _V**qh, _V))
        phi = PolynomialMap((_U, _V + _U**lh))
        phi_inv = PolynomialMap((_U, _V - _U**lh))
        mm, mi = (cls.normalized.to_normalized(f) for f in (self.map, self.inverse))
        if not (
            verify_inverse_pair(tau, tau_inv)
            and verify_inverse_pair(phi, phi_inv)
            and compose_chain([tau_inv, phi, tau]) == self.plane_map
            and compose_chain([tau_inv, phi_inv, tau]) == self.plane_inverse
            and mm.coords[2] == mi.coords[2] == _Z
            and restrict_to_plane(mm) == self.plane_map
            and restrict_to_plane(mi) == self.plane_inverse
            and self.certificate is not None
            and self.certificate.certified
        ):
            return False
        recheck = wildness_certificate(self.map, cls.weights)
        if not (recheck.certified and recheck.violating_degree == qh + lh - 1):
            return False
        degw = max(f.total_degree() for f in self.map.coords)
        degi = max(f.total_degree() for f in self.inverse.coords)
        return degw * degi > compose_cap or (
            verify_inverse_pair(self.plane_map, self.plane_inverse)
            and verify_inverse_pair(self.map, self.inverse)
        )


def _conjugated_shear(qh, lh, sign):
    """tau_inv phi tau in closed form, for tau = (u + v^qh, v) and
    phi = (u, v + sign*u^lh) with sign 1 or -1."""
    first = {(1, 0): 1}
    for k in range(1, qh + 1):
        # c is -sign^k C(qh, k) C(n, j); the row's recurrence divides exactly
        n, c = lh * k, -(sign**k) * comb(qh, k)
        for j in range(n + 1):
            first[(j, qh - k + qh * (n - j))] = c
            c = c * (n - j) // (j + 1)
    second = {(0, 1): 1}
    for j in range(lh + 1):
        second[(j, qh * (lh - j))] = sign * comb(lh, j)
    # the exponents are distinct and every coefficient is a nonzero int
    # (see wild_witness), so the validating constructor is not needed
    return PolynomialMap((Polynomial._raw(2, first), Polynomial._raw(2, second)))


def _is_conjugated_shear(pm, qh, lh):
    """True when pm is _conjugated_shear(qh, lh, sign), sign 1 or -1.

    The sign is read off pm's u^lh coefficient in the second coordinate,
    and the shear is built only when pm's first coordinate has its term
    count, 1 + qh + lh*qh*(qh+1)/2 (see _MAX_WITNESS_BITS); the
    comparison costs O(terms)."""
    sign = pm.coords[1].coeff((lh, 0))
    if sign not in (1, -1) or len(pm.coords[0]._num) != 1 + qh + lh * qh * (qh + 1) // 2:
        return False
    return pm == _conjugated_shear(qh, lh, sign)


def nagata_pair():
    """Nagata's automorphism and its inverse.

    The quadric w = x^2 - y*z is fixed, which is what makes the
    explicit inverse this short.
    """
    w = _X * _X - _Y * _Z
    nagata = PolynomialMap((_X + w * _Z, _Y + 2 * w * _X + w * w * _Z, _Z))
    inverse = PolynomialMap((_X - w * _Z, _Y - 2 * w * _X + w * w * _Z, _Z))
    return nagata, inverse


# eps's first coordinate has 1 + q + l*q*(q+1)/2 terms, each coefficient
# below 2^(q*(l+1)): wild_witness refuses weights for which the terms times
# the bits are past this bound, before anything is built
_MAX_WITNESS_BITS = 5 * 10**7


def wild_witness(weights):
    """Build an explicit graded-wild automorphism for admitting weights.

    For mixed weights with threshold exponents q = q_hat and l = l_hat
    the plane witness is eps = tau_inv phi tau, with tau = (u + v^q, v)
    and phi = (u, v + u^l).  The binomial theorem gives it directly:

        eps = (u - sum_{k>=1} sum_j C(q,k) C(lk,j) u^j v^(q-k+q(lk-j)),
               v + sum_j C(l,j) u^j v^(q(l-j)))

    and eps_inv, the conjugate of phi_inv = (u, v - u^l), puts (-1)^k
    in the first sum and a minus sign in front of the second.  No two
    pairs (k, j) give the same monomial: for fixed j the power of v is
    q(1 - j) + k(ql - 1), and ql - 1 >= 1 because q >= 2 and l >= 1.
    Nor does any pair give u or v itself.  So every coefficient is a
    single product of binomials, and nothing is composed.

    Raises NotWildAdmitting when the classification says the grading
    only has graded-tame automorphisms, and WitnessTooLarge past the
    size bound _MAX_WITNESS_BITS.
    """
    cls = classify_grading(weights)
    if not cls.admits_wild:
        raise NotWildAdmitting(
            f"weights {cls.weights} admit no graded-wild automorphisms "
            f"({cls.reason.value})"
        )
    if cls.reason is GradingReason.TRIVIAL_GRADING:
        nag, nag_inv = nagata_pair()
        return WildWitness(cls, nag, nag_inv, externally_certified=True)
    norm = cls.normalized
    qh, lh = cls.q_hat, cls.l_hat
    if (1 + qh + lh * qh * (qh + 1) // 2) * qh * (lh + 1) > _MAX_WITNESS_BITS:
        raise WitnessTooLarge(f"the witness for {cls.weights} is past the size bound")
    eps = _conjugated_shear(qh, lh, 1)
    eps_inv = _conjugated_shear(qh, lh, -1)
    lifted = _lift_or_fail(eps, norm.weights)
    lifted_inv = _lift_or_fail(eps_inv, norm.weights)
    # the lowest-degree term of the drop, -q_hat*u^l_hat*v^(q_hat-1), has
    # total degree q_hat + l_hat - 1, below the tame bound q_hat + c
    cert = _degree_test(cls, lifted)
    if not (cert.certified and cert.violating_degree == qh + lh - 1):
        raise InvariantViolation(f"witness for {cls.weights} fails its certificate")
    return WildWitness(
        classification=cls,
        map=norm.to_original(lifted),
        inverse=norm.to_original(lifted_inv),
        plane_map=eps,
        plane_inverse=eps_inv,
        certificate=cert,
    )


# ---------------------------------------------------------------------------
# weights without a negative entry: peel weight levels

def _peel_levels(m, w):
    """The factors of m, lowest weight level first, for nonnegative
    weights w with at most two zeros.

    Write V_d for the variables of weight d.  The loop needs each
    coordinate on V_d to be a unit block over V_d plus a tail in
    strictly lower levels: gradedness gives this in the graded cases
    below, and triangularity gives it for the trivial grading, where
    _decompose_trivial puts x above y above z.  Each factor changes the
    coordinates of one level only, into polynomials in that level and
    lower ones, which the factors after it fix; so the chain recomposes
    with every tail as read, and nothing is substituted.  Level 0 is the
    affine coordinate of a single weight-0 variable, or the plane
    descent on two.  Every other level is one linear stage and
    commuting single-variable shears.  A singular block proves the map
    is not an automorphism; matrix_inverse finds it, so each block's
    determinant is computed once.

    For positive weights a monomial of weight d has no variable of
    weight above d, and one that has a variable of V_d is that variable
    alone: the block is constant.  The zero-weight shapes left by
    normalizing are (a, b, 0) with a > b, (1, 1, 0) and (1, 0, 0).  In
    each the Jacobian determinant is the level-0 Jacobian times the
    block determinants, so the constant Jacobian test of
    decompose_zero_cases has made each of them a unit:

      * (a, b, 0): gradedness leaves x*r(z) + y^(a/b)*s(z) (the second
        term only when b divides a), y*q(z) and p(z), with determinant
        r*q*p'.  So r and q are nonzero scalars and p is linear in z.
      * (1, 1, 0): A*x + B*y, C*x + D*y and p(z) with A, B, C, D in
        K[z], with determinant (A*D - B*C)*p'.  The block's entries lie
        in K[z], so _euclid_block reduces it, not matrix_inverse.
      * (1, 0, 0): x*f(y, z) and a plane map (y, z) -> (g, h) free of
        x, with determinant f*J_plane.  So f is a nonzero scalar and the
        plane Jacobian a nonzero constant: the descent runs without its
        own precheck.  Embedding (y, z) is injective and respects
        composition, so the caller's final chain check covers the plane
        recomposition.
    """
    n = m.arity
    xs = Polynomial.variables(n)
    zeros = [i for i in range(n) if w[i] == 0]
    factors = []
    if len(zeros) == 2:
        # the normalized weights are (1, 0, 0)
        drop_x = lambda e: e[1:]
        embed = lambda e: (0, *e)
        pm = PolynomialMap(c.map_exponents(2, drop_x) for c in m.coords[1:])
        for f in _descend(pm, None)[0]:
            embedded = (c.map_exponents(3, embed) for c in f.coords)
            factors.append(PolynomialMap((_X, *embedded)))
    elif zeros:
        coords = list(xs)
        coords[zeros[0]] = m.coords[zeros[0]]
        factors.append(PolynomialMap(coords))
    for level in sorted(set(w) - {0}):
        idxs = [i for i in range(n) if w[i] == level]
        if zeros and len(idxs) == 2:
            # normalized (1, 1, 0): gradedness puts exactly one of x, y in
            # each monomial, so the entries are the partials and no tail is left
            entries = (m.coords[i].partial(j) for i in idxs for j in idxs)
            factors += _euclid_block(*entries)
            continue
        block, tails = [], []
        for i in idxs:
            row, tail = [], m.coords[i]
            for j in idxs:
                scale, tail = tail.split_variable(j)
                row.append(scale)
            block.append(row)
            tails.append(tail)
        try:
            inv = matrix_inverse(block)
        except WrongShape:
            raise NotAnAutomorphism(
                f"the weight-{level} linear block of {m} is singular"
            ) from None
        lin_coords = list(xs)
        for i, tail in zip(idxs, tails):
            lin_coords[i] = m.coords[i] - tail
        factors.append(PolynomialMap(lin_coords))
        for r, i in enumerate(idxs):
            acc = Polynomial.zero(n)
            for col in range(len(idxs)):
                acc = acc + inv[r][col] * tails[col]
            coords = list(xs)
            coords[i] = xs[i] + acc
            factors.append(PolynomialMap(coords))
    return factors


def _zdivmod(num, den):
    """Exact division with remainder for polynomials in z alone; the
    Euclid loop only divides by a nonzero den."""
    dd = den.degree_in(2)
    lead = den.coeff((0, 0, dd))
    q = Polynomial.zero(3)
    r = num
    while not r.is_zero() and r.degree_in(2) >= dd:
        dr = r.degree_in(2)
        t = Polynomial.monomial(3, (0, 0, dr - dd), _div(r.coeff((0, 0, dr)), lead))
        q = q + t
        r = r - t * den
    return q, r


def _euclid_block(A, B, C, D):
    """The factors of (A*x + B*y, C*x + D*y, z) for A, B, C, D in K[z]
    with A*D - B*C a nonzero scalar, by Euclid over K[z].

    The first column is cleared by row operations; each operation is an
    elementary map over K[z] whose inverse joins the chain.  The gcd of
    the column divides the constant determinant, so the loop ends with
    a unit in the corner.
    """
    factors = []
    while not C.is_zero():
        if A.is_zero():
            # pull the second row up so the usual degree reduction applies
            A, B = A + C, B + D
            factors.append(PolynomialMap((_X - _Y, _Y, _Z)))
        elif C.degree_in(2) >= A.degree_in(2):
            q, C = _zdivmod(C, A)
            D = D - q * B
            factors.append(PolynomialMap((_X, _Y + q * _X, _Z)))
        else:
            q, A = _zdivmod(A, C)
            B = B - q * D
            factors.append(PolynomialMap((_X + q * _Y, _Y, _Z)))
    # row operations keep det, so A*D = det is a nonzero constant: A, D are too
    lamA = A.constant_value()
    factors.append(PolynomialMap((lamA * _X, D.constant_value() * _Y, _Z)))
    factors.append(PolynomialMap((_X + B * _Y * _div(1, lamA), _Y, _Z)))
    return factors


def decompose_positive(m, weights):
    """Decompose a graded map when all weights share one strict sign.

    Works in any number of variables.  All-negative weights give the
    same grading as their negatives, and _peel_levels factors the map,
    one weight level at a time, lowest first.
    """
    given = _check_weights(weights)
    if len(given) != m.arity:
        raise ArityMismatch(
            f"{len(given)} weights for a map of arity {m.arity}"
        )
    w = tuple(-v for v in given) if all(v < 0 for v in given) else given
    if not all(v > 0 for v in w):
        raise WrongShape(f"weights {given} are not of one strict sign")
    _check_graded(m, given)
    return _graded_chain(m, _peel_levels(m, w), w)


# ---------------------------------------------------------------------------
# weights with a zero entry

def _scalars_and_shear(mm, open_idx):
    """Maps whose z coordinate and one of x, y only rescale: the open
    coordinate (x at open_idx 0, y at 1) is a scaling plus a part free
    of its variable, and the other one, the frozen coordinate, a scaling.

    This is the shape of three gradings.  For mixed weights (a, b, -c)
    where gcd(a, c) does not divide b (open 0), every graded monomial of
    the y and z coordinates is divisible by y and z, so these coordinates
    are reducible unless they are scalings; a reducible polynomial is no
    coordinate of an automorphism.  The constant Jacobian of an
    automorphism then flattens the x coordinate to lam*x plus an x-free
    part.  When gcd(b, c) does not divide a the roles of x and y swap
    (open 1).  For (a, 0, -c) with gcd(a, c) = 1 (open 1) the x and z
    coordinates are divisible by x and z.

    The checks run z (ThirdCoordinateNotScalar), the frozen coordinate,
    then the open one (NotAnAutomorphism).  For (a, 0, -c) the constant
    Jacobian test of decompose_zero_cases runs first, so the order of the
    x and z checks could only matter on a map that passes it with x and z
    both not scalings.  That map would have a reducible coordinate, hence
    be a non-automorphism with a nonzero constant Jacobian determinant:
    a counterexample to the Jacobian conjecture.
    """
    _z_scale(mm)
    frozen = 1 - open_idx
    if _scalar_coord(mm.coords[frozen], frozen) is None:
        raise NotAnAutomorphism(
            f"coordinate {mm.coords[frozen]} must be a scalar multiple of "
            f"its variable for these weights"
        )
    xs = Polynomial.variables(3)
    coord = mm.coords[open_idx]
    lam_open, rest = coord.split_variable(open_idx)
    if lam_open == 0 or rest.involves(open_idx):
        raise NotAnAutomorphism(
            f"coordinate {coord} must be linear in its variable with a "
            f"remainder free of it"
        )
    diag = list(mm.coords)
    diag[open_idx] = lam_open * xs[open_idx]
    shear = list(xs)
    shear[open_idx] = xs[open_idx] + rest * _div(1, lam_open)
    return [PolynomialMap(diag), PolynomialMap(shear)]


def decompose_zero_cases(m, weights):
    """Decompose a graded automorphism when some weight is zero.

    Normalization leaves four shapes: (a, b, 0) with a > b, (1, 1, 0),
    (a, 0, -c), and (1, 0, 0).  The constant Jacobian test runs first;
    then (a, 0, -c) splits off its scalings and one shear, and the other
    three shapes peel weight levels as positive weights do, with a
    level 0 added (see _peel_levels).  Translations in the weight-zero
    variables are graded and are handled (the zero-weight chains are
    the one place constants can appear).
    """
    if m.arity != 3:
        raise ArityMismatch(f"need a three-variable map, got arity {m.arity}")
    cls = classify_grading(weights)
    if cls.zero_shape is None:
        raise WrongShape(
            f"weights {cls.weights} must have a zero entry but not be entirely zero"
        )
    _check_graded(m, cls.weights)
    mm = cls.normalized.to_normalized(m)
    _require_constant_jacobian(mm)
    if cls.zero_shape is ZeroWeightShape.POSITIVE_AND_NEGATIVE:
        factors = _scalars_and_shear(mm, 1)
    else:
        factors = _peel_levels(mm, cls.normalized.weights)
    return _graded_chain(m, factors, cls.weights, cls.normalized)


# ---------------------------------------------------------------------------
# mixed-sign weights: rewrite plane chains into liftable form

_ID2 = [[1, 0], [0, 1]]
_SWAP2 = [[0, 1], [1, 0]]


def _emit_split(emitted, p):
    """Emit a lower-triangular matrix as a diagonal map and a pure shear,
    leaving out whichever of the two is the identity."""
    (pa, _), (pc, pd) = p
    if pa != 1 or pd != 1:
        emitted.append(PolynomialMap((pa * _U, pd * _V)))
    if pc:
        emitted.append(PolynomialMap((_U, _V + _div(pc, pd) * _U)))


def _strip_first_shear(emitted, scale, addend):
    """Write (scale*u + addend(v), v) as a pure shear times a linear map;
    addend has no constant term, as every factor the walk reads fixes
    the origin."""
    beta, nonlin = addend.split_variable(1)
    if not nonlin.is_zero():
        emitted.append(PolynomialMap((_U + nonlin, _V)))
    return [[scale, beta], [0, 1]]


def _absorb(emitted, p, d):
    """Push the pending linear map p through the elementary factor with
    ElementaryDetail d.

    Returns the new pending matrix; whatever cannot stay pending is
    appended to ``emitted`` as pure factors.  A u-shear needs pa != 0,
    and then q = pb/pa clears the corner; pb == 0 needs no case of its
    own, as it is q = 0, and an invertible p with pb == 0 has pa != 0.
    The remaining cases conjugate the factor by the swap of u and v,
    which only relabels exponents; that recursion lands in a
    non-recursive case, so the depth is at most one.
    """
    (pa, pb), (pc, pd) = p
    if d.index == 0:
        if pa != 0:
            q = _div(pb, pa)
            _emit_split(emitted, [[pa, 0], [pc, pd - q * pc]])
            return _strip_first_shear(emitted, d.scale, d.addend + q * _V)
    elif pb == 0:
        _emit_split(emitted, p)
        emitted.append(PolynomialMap((_U, _V + d.addend)))
        return [[1, 0], [0, d.scale]]
    swap = lambda e: (e[1], e[0])
    conj = ElementaryDetail(1 - d.index, d.scale, d.addend.map_exponents(2, swap))
    return matrix_product(_absorb(emitted, matrix_product(p, _SWAP2), conj), _SWAP2)


def rewrite_liftable_chain(chain, weights):
    """Rewrite a graded plane chain so the factors lift individually.

    ``weights`` is the mixed triple (a, b, -c) with threshold exponent
    exactly one (QHatNotOne otherwise); factors must be graded for the
    residue grading, origin-preserving, and invertible linear or
    elementary (WrongShape otherwise, also for a singular linear factor).
    The rewrite pushes every impure linear part rightward into one pending
    linear map, emitting pure shears along the way; with q_hat equal to
    one every emitted shear lifts, so all unliftable content ends up
    concentrated in at most one trailing linear factor.  That factor
    lifts exactly when the target's own linear part is lower
    triangular, which holds automatically for restrictions of graded
    three-variable maps.
    """
    a, b, c = _mixed_abc(_check_weights(weights), WrongShape)
    qh = q_hat(a, b, c)
    if qh != 1:
        raise QHatNotOne(f"rewrite applies when the threshold exponent is 1, got {qh}")
    rg = plane_residue_grading(a, b, c)
    return FactorChain._derived(chain.target, _rewrite_walk(_checked(chain.factors, rg)))


def _checked(factors, rg):
    """The factors, each checked when the walk reaches it: graded for rg,
    then origin-preserving, before the walk reads its shape."""
    for f in factors:
        if not rg.is_graded_map(f):
            raise NotGradedChain(f"factor {f} is not graded for {rg!r}")
        if not f.is_origin_preserving():
            raise OriginNotPreserved(f"factor {f} moves the origin")
        yield f


def _rewrite_walk(factors):
    """Left-to-right walk keeping prefix = emitted composed with pending;
    returns the emitted factors.

    The factors are graded for the residue grading and fix the origin:
    rewrite_liftable_chain checks both as each factor is reached, and
    _mixed_pipeline's descent factors have both by proof.  The walk
    reads each factor's shape once, linear or elementary; a singular
    linear factor is GENERAL, so it raises WrongShape and the pending
    matrix stays invertible.  Each emitted factor is graded, and none is
    the identity: a linear map is graded when diagonal or when u and v
    share a weight, and an emitted shear holds terms of a graded addend.
    """
    emitted = []
    pending = _ID2
    for f in factors:
        kind, data = _shape(f)
        if kind is MapClass.LINEAR:
            pending = matrix_product(pending, data)
        elif kind is MapClass.ELEMENTARY:
            pending = _absorb(emitted, pending, data)
        elif kind is not MapClass.IDENTITY:
            raise WrongShape(f"factor {f} is neither invertible linear nor elementary")
    if pending[0][1] == 0:
        _emit_split(emitted, pending)
    else:
        emitted.append(map_from_matrix(pending))
    return emitted


# ---------------------------------------------------------------------------
# the mixed-sign pipeline and the dispatcher

def _mixed_pipeline(cls, mm):
    """Restrict, decompose, rewrite, lift: mm is graded for the normalized
    mixed coprime weights (a, b, -c) of cls.

    The plane map pm is graded for the residue grading mod c, and it
    fixes the origin: x and y have weights a, b > 0 and z has -c < 0,
    so a monomial x^i y^j z^k of weight a or b has i + j >= 1, and
    setting z = 1 leaves no constant term.  The descent factors are then
    graded (decompose_plane_graded) and fix the origin
    (jung._descend), so _rewrite_walk takes them unchecked.  The
    later exact checks still cover a fault: lift_plane_map's
    NotGradedPlane check and the per-factor gradedness and
    recomposition checks of the caller's _graded_chain.  Setting z = 1
    is injective on graded maps fixing z and respects composition, so
    that final chain check covers both plane recompositions.  The
    constant-Jacobian precheck runs on pm, as decompose_plane runs it.
    A rewritten linear factor with a v term in its first coordinate
    lifts only when a = b, with no z: every lift is one linear or
    elementary factor.
    """
    nw = cls.normalized.weights
    scaling, zfixed = _split_z(mm)
    pm = restrict_to_plane(zfixed)
    _require_constant_jacobian(pm)
    factors, _ = _descend(pm, None)
    return [scaling] + [_lift_or_fail(f, nw) for f in _rewrite_walk(factors)]


def decompose_qhat_low(m, weights):
    """Decompose a graded automorphism for mixed weights with q_hat <= 1.

    Splits off the z scaling, restricts to the plane, runs the
    Newton-polygon descent there, rewrites the factors into liftable
    form and lifts them back.  With q_hat <= 1 every rewritten factor
    lifts, so the result is a complete graded factorization.
    """
    cls = classify_grading(weights)
    _mixed_abc(cls.normalized.weights, WrongShape)
    if cls.q_hat > 1:
        raise WrongShape(
            f"pipeline assumes threshold exponent at most 1, got {cls.q_hat}"
        )
    _check_graded(m, cls.weights)
    factors = _mixed_pipeline(cls, cls.normalized.to_normalized(m))
    return _graded_chain(m, factors, cls.weights, cls.normalized)


def _decompose_trivial(m):
    """The factors of m for zero weights: every map is graded, so only
    shaped cases decompose.  The constant Jacobian test runs first, as in
    decompose_zero_cases; every class but GENERAL is an automorphism.

    A triangular map goes to _peel_levels with x above y above z.  The
    loop needs each level's coordinates to be a unit block over that
    level plus a tail in strictly lower levels; in the graded cases
    gradedness gives this, and here triangularity does: each coordinate
    is a nonzero multiple of its variable plus a polynomial in the later
    ones."""
    _require_constant_jacobian(m)
    cls = classify_map(m)
    if cls is MapClass.TRIANGULAR:
        return _peel_levels(m, (2, 1, 0))
    if cls is not MapClass.GENERAL:
        return [m]
    raise WildAdmittingUndecided(
        "the zero grading admits wild automorphisms; only linear, "
        "elementary and triangular shapes are decomposed directly"
    )


def decompose_graded(m, weights):
    """Decompose a graded automorphism, or certify that none can exist.

    Returns a FactorChain of graded factors in the tame-only cases.
    For wild-admitting mixed weights the degree test runs first: a
    certified map returns its WildnessCertificate instead of a chain,
    an uncertified one goes through the tame pipeline anyway, and if
    some factor then fails to lift the outcome is genuinely unknown and
    WildAdmittingUndecided is raised.

    The degree test assumes an automorphism, so a certificate is
    returned only once the plane restriction pm of the z-fixing part m
    is known to be an automorphism.  When pm is the grading's conjugated
    shear eps = tau_inv phi tau or its inverse, as it is for a witness
    and its inverse, it is a composite of elementary automorphisms, and
    the comparison with eps costs O(terms).  Any other pm goes through
    the plane descent, which decides membership by itself (see jung;
    NotAnAutomorphism otherwise; its factors are not recomposed, as no
    chain is returned).  The constant-Jacobian precheck is left out
    there: it would only add two products of the map's size to it.
    Membership of pm decides m.  m fixes the origin of the (x, y) plane
    over K[z] (see _mixed_pipeline), and its Jacobian determinant in x
    and y is homogeneous of weight 0 and restricts to J(pm), so it is
    that nonzero constant (setting z = 1 is injective on each weight).
    The formal inverse of m therefore has coefficients in K[z]; it is
    graded and restricts to pm^-1, so it is the Laurent lift of pm^-1, a
    polynomial map: m is an automorphism, and so is the map itself.
    """
    cls = classify_grading(weights)
    reason = cls.reason
    if reason in (GradingReason.ALL_POSITIVE, GradingReason.ALL_NEGATIVE):
        return decompose_positive(m, cls.weights)
    if reason is GradingReason.ZERO_WEIGHT:
        return decompose_zero_cases(m, cls.weights)
    _check_graded(m, cls.weights)
    mm = cls.normalized.to_normalized(m)
    if reason is GradingReason.TRIVIAL_GRADING:
        factors = _decompose_trivial(mm)
    elif reason is GradingReason.GCD_OBSTRUCTION:
        factors = _scalars_and_shear(mm, 0)
    elif reason is GradingReason.SYMMETRIC_GCD_OBSTRUCTION:
        factors = _scalars_and_shear(mm, 1)
    elif reason is GradingReason.Q_HAT_AT_LEAST_TWO:
        cert = _degree_test(cls, mm)
        if cert.certified:
            pm = restrict_to_plane(_split_z(mm)[1])
            if not _is_conjugated_shear(pm, cls.q_hat, cls.l_hat):
                _descend(pm, None)
            return cert
        try:
            factors = _mixed_pipeline(cls, mm)
        except LiftFailure as exc:
            raise WildAdmittingUndecided(
                f"weights {cls.weights} admit wild automorphisms, the degree "
                f"test is inconclusive for {m}, and the tame pipeline left an "
                f"unliftable factor"
            ) from exc
    else:
        factors = _mixed_pipeline(cls, mm)
    return _graded_chain(m, factors, cls.weights, cls.normalized)


def invert_graded(m, weights):
    """Exact inverse of a graded automorphism via its factor chain."""
    result = decompose_graded(m, weights)
    if isinstance(result, WildnessCertificate):
        raise CertifiedWildMap(
            "cannot invert through a factor chain: the map is certified "
            "graded-wild; wild witnesses carry their own inverses",
            certificate=result,
        )
    return result.inverse()
