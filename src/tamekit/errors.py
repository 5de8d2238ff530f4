"""Exception hierarchy shared by every tamekit module.

Everything raised on purpose derives from TamekitError so callers can
catch the whole family with one clause.  Subclass relationships encode
meaning: ThirdCoordinateNotScalar *is* a NotAnAutomorphism failure, and
the plane/chain grading errors are refinements of NotGraded.
"""


class TamekitError(Exception):
    """Base class for all tamekit errors."""


class ArityMismatch(TamekitError):
    """Operands or images disagree on the number of variables."""


class ZeroPolynomial(TamekitError):
    """The zero polynomial was passed where a degree is needed."""


class ConstantPolynomial(TamekitError):
    """A constant was passed where a nonconstant polynomial is needed."""


class NotAnAutomorphism(TamekitError):
    """The map fails a property every polynomial automorphism has."""


class ThirdCoordinateNotScalar(NotAnAutomorphism):
    """Third coordinate is not a nonzero scalar multiple of z."""


class NotGraded(TamekitError):
    """Map does not preserve the grading it is claimed to preserve."""


class NotGradedPlane(NotGraded):
    """Plane map is not graded for the given pair of weights."""


class NotGradedChain(NotGraded):
    """A factor of a chain is not graded for the given weights."""


class OriginNotPreserved(TamekitError):
    """Map has a nonzero constant term where none is allowed."""


class WrongShape(TamekitError):
    """Map does not have the structural form the routine requires."""


class LastVariableNotFixed(TamekitError):
    """Map does not send the last variable to itself exactly."""


class GcdPrecondition(TamekitError):
    """Weight divisibility preconditions for this routine fail."""


class QHatNotOne(TamekitError):
    """Routine is only valid when the threshold exponent equals one."""


class InvariantViolation(TamekitError):
    """A result failed tamekit's own final check: a bug, not an input verdict."""


class LiftFailure(InvariantViolation):
    """Internal lift invariant violated; indicates a bug upstream."""


class WildAdmittingUndecided(TamekitError):
    """No implemented algorithm decides tameness for this input."""


class NotWildAdmitting(TamekitError):
    """Grading provably has no graded-wild automorphisms to exhibit."""


class CertifiedWildMap(TamekitError):
    """Operation impossible because the map is certified graded-wild.

    ``certificate`` carries the wildness certificate that triggered.
    """

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class WitnessTooLarge(TamekitError):
    """The witness for these weights is past the size bound of wild_witness."""


class UnknownName(TamekitError):
    """Requested named map does not exist."""


class ParseError(TamekitError):
    """Input text is not a valid polynomial or map expression.

    ``position`` is the zero-based offset where scanning failed.
    """

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class EmptySequence(TamekitError):
    """An operation needing at least one element got none."""
