"""Dual rationals Q[eps]/(eps^2).

`DualRational(re, ep)` models `re + ep*eps` with `eps^2 = 0`.  A jet
over dual rationals is stored in the one form of :mod:`projstruct.jets`,
its values as numerators over the denominator 1, and the same integer
loops run on them through a small coefficient protocol (ring ops,
comparison with 0, ``is_unit``).  Dual jets are a first-order oracle:
pulling a structure back along ``id + eps*v`` and reading off the
eps-part differentiates through the full nonlinear transformation law
without any symbolic machinery.
"""

from fractions import Fraction


def _coerce(value):
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError("dual parts must be rational, got %r" % (value,))


def _dual_operand(method):
    """``method`` with its operand read by ``as_dual``, or NotImplemented."""
    def binary(self, other):
        other = as_dual(other)
        if other is NotImplemented:
            return NotImplemented
        return method(self, other)
    return binary


class DualRational:
    __slots__ = ("re", "ep")

    def __init__(self, re, ep=0):
        self.re = _coerce(re)
        self.ep = _coerce(ep)

    # -- ring structure ----------------------------------------------

    @_dual_operand
    def __add__(self, other):
        return DualRational(self.re + other.re, self.ep + other.ep)

    __radd__ = __add__

    @_dual_operand
    def __sub__(self, other):
        return DualRational(self.re - other.re, self.ep - other.ep)

    @_dual_operand
    def __rsub__(self, other):
        return other - self

    @_dual_operand
    def __mul__(self, other):
        return DualRational(self.re * other.re,
                            self.re * other.ep + self.ep * other.re)

    __rmul__ = __mul__

    def __neg__(self):
        return DualRational(-self.re, -self.ep)

    @_dual_operand
    def __truediv__(self, other):
        return self * other._inverse()

    @_dual_operand
    def __rtruediv__(self, other):
        return other * self._inverse()

    def _inverse(self):
        if self.re == 0:
            raise ZeroDivisionError("dual number with nilpotent real part")
        inv = 1 / self.re
        return DualRational(inv, -self.ep * inv * inv)

    # -- protocol bits used by Jet2 ------------------------------------

    @property
    def is_unit(self):
        return self.re != 0

    @_dual_operand
    def __eq__(self, other):
        return self.re == other.re and self.ep == other.ep

    def __hash__(self):
        # equal to its real part when ep == 0, so it must hash alike
        return hash(self.re) if self.ep == 0 else hash((self.re, self.ep))

    def __bool__(self):
        return self.re != 0 or self.ep != 0

    def __repr__(self):
        return "DualRational(%s, %s)" % (self.re, self.ep)


#: the generator, handy in tests: EPS*EPS == 0
EPS = DualRational(0, 1)


def as_dual(value):
    """Coerce ints and Fractions into DualRational; pass duals through."""
    if isinstance(value, DualRational):
        return value
    if isinstance(value, (int, Fraction)):
        return DualRational(value)
    return NotImplemented
