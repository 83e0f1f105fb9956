"""Exception types shared across the package."""


class ProjstructError(Exception):
    """Base class for every error this package raises on purpose."""


def _ensure(cond, what):
    if not cond:
        raise ProjstructError("internal invariant failed: " + what)


# --- series arithmetic ---------------------------------------------------

class NonUnitDivisor(ProjstructError):
    """Division by a jet whose constant term is not invertible."""


class NonZeroConstantTerm(ProjstructError):
    """An operation required a jet vanishing (or nilpotent) at the origin."""


class NonSquareConstant(ProjstructError):
    """sqrt of a jet whose constant term is not a nonzero rational square."""


class NotInvertible(ProjstructError):
    """Compositional inverse of a series that is not x + O(x^2)-shaped."""


# --- expressions ---------------------------------------------------------

class ExprSyntaxError(ProjstructError):
    """Malformed expression text; carries the byte offset of the problem."""

    def __init__(self, message, offset):
        super().__init__("%s (at offset %d)" % (message, offset))
        self.message = message
        self.offset = offset


class UnboundParameter(ProjstructError):
    """Expression mentions a parameter the environment does not bind."""


class UnsupportedExponent(ProjstructError):
    """Exponent whose denominator is not 1 or 2."""


# --- structures and germs ------------------------------------------------

class DegenerateJacobian(ProjstructError):
    """Coordinate change whose linear part is singular at the origin."""


class NotInNormalForm(ProjstructError):
    """Input structure does not satisfy a normalization precondition."""


# --- pencils of foliations -----------------------------------------------

class VerticalAtOrigin(ProjstructError):
    """Foliation tangent to the vertical direction at the origin."""


class DegenerateWedge(ProjstructError):
    """Pencil whose two generating forms are proportional at the origin."""


# --- verification driver -------------------------------------------------

class UnknownCase(ProjstructError):
    """``run_case`` or ``verify-paper --case`` got an unregistered case id."""


class PreconditionViolated(ProjstructError):
    """Input violates a documented precondition of a verification op."""


class InadmissibleParameters(PreconditionViolated):
    """Parameter values violate a case's admissibility constraints."""
