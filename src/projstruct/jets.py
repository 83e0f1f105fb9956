"""Truncated bivariate power series ("2-jets") with exact coefficients.

A :class:`Jet2` stores Taylor coefficients of a germ at the origin as a
dict ``{(i, j): c}`` for the monomial ``x^i y^j``, up to a total-degree
bound.  Two bounds are tracked:

``order``
    the nominal truncation degree the computation was set up at;

``eff``
    the *effective* order, i.e. the degree up to which the stored
    coefficients are actually trustworthy.  Differentiation loses one
    degree of information, integration gains one back (capped at
    ``order``), and binary operations propagate the weaker bound.

Equality of germs is therefore always a statement "up to the common
effective order"; use :meth:`Jet2.agree` / :meth:`Jet2.is_zero` for
mathematical comparisons.  ``==`` is strict structural equality (same
order, same eff, same coefficients) and is mainly useful in tests and
fixed-point loops.

Coefficients are ``fractions.Fraction`` in ordinary use.  All arithmetic
is written against a minimal protocol (ring ops, equality with 0, an
optional ``is_unit`` attribute), so the same code runs unchanged over
the dual rationals of :mod:`projstruct.duals`.

The product is the hot spot of the package.  It visits only the pairs of
terms whose degrees sum to at most the result's ``eff``: the factor
with fewer terms is sorted by total degree once, and each term of the
other takes the prefix of it that fits.  When both factors have rational coefficients
(``int`` or ``Fraction``, anything with ``numerator``/``denominator``),
each is written as integer numerators over the lcm of its denominators,
as FLINT's ``fmpq_poly`` does; the loop then sums plain ``int`` products
and builds one reduced ``Fraction`` per output term.  Other coefficient
types, such as dual rationals, go through the same loop with their own
values.  A one-term factor is a shifted scale of the other and needs
neither.
"""

import math
from bisect import bisect_right
from fractions import Fraction

from .errors import (
    NonSquareConstant,
    NonUnitDivisor,
    NonZeroConstantTerm,
    NotInvertible,
)

DEFAULT_ORDER = 12


def _is_unit(c):
    """Is the coefficient invertible?  Its own ``is_unit`` if it has one."""
    u = getattr(c, "is_unit", None)
    if u is not None:
        return u
    return c != 0


def _numerators(coeffs):
    """Integer numerators over the lcm of the denominators, and that lcm.

    Raises AttributeError for coefficients that are not rational.
    """
    den = math.lcm(*[c.denominator for c in coeffs.values()])
    return {k: c.numerator * (den // c.denominator)
            for k, c in coeffs.items()}, den


def as_coeff(value):
    """Coerce a scalar into a usable coefficient (Fraction by default)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if hasattr(value, "is_unit"):  # dual rationals and friends
        return value
    raise TypeError("cannot use %r as a jet coefficient" % (value,))


class Jet2:
    __slots__ = ("order", "eff", "coeffs")

    def __init__(self, coeffs, order, eff=None):
        if order < 0:
            raise ValueError("jet order must be >= 0")
        eff = order if eff is None else min(eff, order)
        if eff < -1:
            eff = -1
        clean = {}
        for (i, j), c in coeffs.items():
            if i + j <= eff and not c == 0:
                clean[(i, j)] = c
        self.order = order
        self.eff = eff
        self.coeffs = clean

    @classmethod
    def _of(cls, coeffs, order, eff):
        """A jet from coefficients already clean: nonzero, of degree <= eff."""
        jet = object.__new__(cls)
        jet.order, jet.eff, jet.coeffs = order, eff, coeffs
        return jet

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, order, eff=None):
        return cls({}, order, eff)

    @classmethod
    def constant(cls, value, order, eff=None):
        return cls({(0, 0): as_coeff(value)}, order, eff)

    @classmethod
    def variable(cls, name, order):
        if name == "x":
            return cls({(1, 0): Fraction(1)}, order)
        if name == "y":
            return cls({(0, 1): Fraction(1)}, order)
        raise ValueError("unknown variable %r" % (name,))

    @classmethod
    def monomial(cls, i, j, value, order, eff=None):
        return cls({(i, j): as_coeff(value)}, order, eff)

    @classmethod
    def from_terms(cls, terms, order, eff=None):
        return cls({k: as_coeff(v) for k, v in terms.items()}, order, eff)

    # -- basic queries ----------------------------------------------------

    def coeff(self, i, j):
        return self.coeffs.get((i, j), 0)

    @property
    def constant_term(self):
        return self.coeff(0, 0)

    def is_zero(self):
        """True when every known coefficient vanishes."""
        return not self.coeffs

    def is_x_only(self):
        return all(j == 0 for (_, j) in self.coeffs)

    def _val_bound(self):
        # least total degree at which this jet can be nonzero
        if self.coeffs:
            return min(i + j for (i, j) in self.coeffs)
        return self.eff + 1

    def agree(self, other):
        """Coefficientwise equality up to the common effective order."""
        other = self._lift(other)
        e = min(self.eff, other.eff)
        keys = set(self.coeffs) | set(other.coeffs)
        for (i, j) in keys:
            if i + j <= e and not self.coeff(i, j) == other.coeff(i, j):
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, Jet2):
            return NotImplemented
        return (self.order == other.order and self.eff == other.eff
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.order, self.eff, frozenset(self.coeffs.items())))

    def __repr__(self):
        return "Jet2(%s; order=%d, eff=%d)" % (
            format_jet(self), self.order, self.eff)

    # -- scalar lifting -----------------------------------------------------

    def _lift(self, other):
        if isinstance(other, Jet2):
            return other
        return Jet2.constant(as_coeff(other), self.order)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        order = min(self.order, other.order)
        eff = min(self.eff, other.eff)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out[k] + c if k in out else c
        return Jet2(out, order, eff)

    __radd__ = __add__

    def __neg__(self):
        return Jet2({k: -c for k, c in self.coeffs.items()},
                    self.order, self.eff)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        if not isinstance(other, Jet2):
            return self.scale(as_coeff(other))
        order = min(self.order, other.order)
        eff = min(order,
                  self.eff + other._val_bound(),
                  other.eff + self._val_bound())
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        if not b:
            return Jet2._of({}, order, eff)
        if len(b) == 1:
            # a shifted scale of the other factor
            ((i0, j0), c0), = b.items()
            lim = eff - i0 - j0
            out = {}
            for (i, j), c in a.items():
                if i + j <= lim:
                    p = c * c0
                    if not p == 0:
                        out[(i + i0, j + j0)] = p
            return Jet2._of(out, order, eff)
        try:
            (a, da), (b, db) = _numerators(a), _numerators(b)
            den = da * db
        except AttributeError:  # not rational: multiply the values as they are
            den = None
        # Key (i, j) packs to i*m + j, which is additive on every kept
        # product since its j stays below m.  The smaller factor is
        # sorted by degree, so each term of the other takes a prefix of it.
        m = eff + 1
        keys = sorted(b, key=sum)
        degrees = [i + j for (i, j) in keys]
        right = [(i * m + j, b[(i, j)]) for (i, j) in keys]
        acc = {}
        for (i, j), c1 in a.items():
            k1 = i * m + j
            for k2, c2 in right[:bisect_right(degrees, eff - i - j)]:
                k = k1 + k2
                if k in acc:
                    acc[k] += c1 * c2
                else:
                    acc[k] = c1 * c2
        if den is None:
            out = {divmod(k, m): c for k, c in acc.items() if not c == 0}
        else:
            out = {divmod(k, m): Fraction(n, den) for k, n in acc.items() if n}
        return Jet2._of(out, order, eff)

    def __rmul__(self, other):
        return self.scale(as_coeff(other))

    def scale(self, c):
        c = as_coeff(c)
        if c == 0:
            return Jet2.zero(self.order, self.eff)
        return Jet2({k: c * v for k, v in self.coeffs.items()},
                    self.order, self.eff)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("jet powers must be integers")
        if n < 0:
            return self.inverse() ** (-n)
        out = Jet2.constant(1, self.order)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self):
        """Multiplicative inverse; requires a unit constant term."""
        c0 = self.constant_term
        if not _is_unit(c0):
            raise NonUnitDivisor("constant term %r is not invertible" % (c0,))
        z = Jet2.constant(1 / c0, self.order, self.eff)
        # Newton iteration z <- z*(2 - u*z) doubles correct digits
        for _ in range(max(1, self.order.bit_length() + 2)):
            nz = z * (2 - self * z)
            if nz == z:
                break
            z = nz
        return z

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            return self * other.inverse()
        c = as_coeff(other)
        if not _is_unit(c):
            raise NonUnitDivisor("scalar %r is not invertible" % (c,))
        return self.scale(1 / c)

    def __rtruediv__(self, other):
        return self.inverse().scale(as_coeff(other))

    # -- calculus -----------------------------------------------------------

    def d_dx(self):
        out = {}
        for (i, j), c in self.coeffs.items():
            if i > 0:
                out[(i - 1, j)] = i * c
        return Jet2(out, self.order, self.eff - 1)

    def d_dy(self):
        out = {}
        for (i, j), c in self.coeffs.items():
            if j > 0:
                out[(i, j - 1)] = j * c
        return Jet2(out, self.order, self.eff - 1)

    def integrate_x(self):
        """Antiderivative in x vanishing on x = 0."""
        eff = min(self.eff + 1, self.order)
        out = {}
        for (i, j), c in self.coeffs.items():
            if i + j + 1 <= eff:
                out[(i + 1, j)] = c * Fraction(1, i + 1)
        return Jet2(out, self.order, eff)

    # -- reshaping ----------------------------------------------------------

    def swap_vars(self):
        """The jet of F(y, x)."""
        return Jet2({(j, i): c for (i, j), c in self.coeffs.items()},
                    self.order, self.eff)

    def shift_y(self, y0):
        """Recenter in y: the jet of F(x, y + y0).

        Treats the stored coefficients as an exact polynomial, so this
        is only meaningful for jets whose truncation error is understood
        by the caller (it is used to evaluate coefficients along curves
        through (0, y0) with y0 exact).
        """
        y0 = as_coeff(y0)
        if y0 == 0:
            return self
        out = {}
        for (i, j), c in self.coeffs.items():
            for k in range(j + 1):
                key = (i, k)
                term = c * math.comb(j, k) * y0 ** (j - k)
                out[key] = out[key] + term if key in out else term
        return Jet2(out, self.order, self.eff)

    def truncated(self, order=None, eff=None):
        """A copy with lowered bounds (never raises either bound)."""
        order = self.order if order is None else min(order, self.order)
        eff = self.eff if eff is None else min(eff, self.eff)
        return Jet2(self.coeffs, order, min(eff, order))

# -- composition ------------------------------------------------------------

def substitute(f, u, v):
    """The jet of f(u(x,y), v(x,y)).

    The constant terms of ``u`` and ``v`` must square to zero, i.e. be
    genuinely zero over the rationals or nilpotent over dual numbers
    (which is what makes germs like ``id + eps*v`` substitutable).  In
    the nilpotent case the result loses one order: shifting the base
    point by an infinitesimal differentiates the truncated tail of
    ``f``, so coefficients at the top known degree of ``f`` are no
    longer trustworthy.
    """
    drift = 0
    for g in (u, v):
        c = g.constant_term
        if not c * c == 0:
            raise NonZeroConstantTerm(
                "substitution point %r is not infinitesimal" % (c,))
        if not c == 0:
            drift = 1
    order = min(f.order, u.order, v.order)
    eff = min(f.eff, u.eff, v.eff, order) - drift
    acc = Jet2.zero(order)
    max_i = max((i for (i, _) in f.coeffs), default=0)
    max_j = max((j for (_, j) in f.coeffs), default=0)
    upow = _powers(u.truncated(order), max_i, order)
    vpow = _powers(v.truncated(order), max_j, order)
    for (i, j) in sorted(f.coeffs):
        if i >= len(upow) or j >= len(vpow):
            continue  # that power is exactly zero to full order
        term = upow[i] * vpow[j]
        acc = acc + term.scale(f.coeffs[(i, j)])
    return Jet2(acc.coeffs, order, min(acc.eff, eff))


def _powers(g, top, order):
    """[g^0, g^1, ..] up to exponent ``top``, stopping once exactly zero."""
    out = [Jet2.constant(1, order)]
    for _ in range(top):
        nxt = out[-1] * g
        if nxt.is_zero() and nxt.eff == order:
            break
        out.append(nxt)
    return out


def compose1(f, g):
    """Univariate composition f(g(x)) for x-only jets."""
    return substitute(f, g, Jet2.zero(g.order))


def comp_inverse(u):
    """Compositional inverse of a univariate jet u = c1*x + O(x^2)."""
    if not u.is_x_only():
        raise NotInvertible("compositional inverse needs an x-only jet")
    if not u.constant_term == 0:
        raise NotInvertible("series does not vanish at the origin")
    u1 = u.coeff(1, 0)
    if not _is_unit(u1):
        raise NotInvertible("linear coefficient %r is not invertible" % (u1,))
    order = u.order
    x = Jet2.variable("x", order)
    tail = u - x.scale(u1)  # valuation >= 2
    inv1 = 1 / u1
    v = x.scale(inv1)
    for _ in range(order + 2):
        nv = (x - compose1(tail, v)).scale(inv1)
        if nv == v:
            break
        v = nv
    return v


# -- analytic series ----------------------------------------------------------

def exp_series(u):
    """exp(u) for a jet with zero constant term."""
    if not u.constant_term == 0:
        raise NonZeroConstantTerm("exp needs a vanishing constant term")
    acc = Jet2.constant(1, u.order)
    term = Jet2.constant(1, u.order)
    for k in range(1, u.order + 1):
        term = (term * u).scale(Fraction(1, k))
        if term.is_zero() and term.eff == u.order:
            break
        acc = acc + term
    return Jet2(acc.coeffs, u.order, min(acc.eff, u.eff))


def _rational_sqrt(c):
    if c < 0:
        return None
    n, d = c.numerator, c.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn != n or rd * rd != d:
        return None
    return Fraction(rn, rd)


def sqrt_series(u):
    """The square root with sqrt(c0) > 0; c0 must be a nonzero rational square."""
    c0 = u.constant_term
    if c0 == 0:
        if u.is_zero():
            return u
        raise NonSquareConstant("constant term vanishes but the jet does not")
    if not isinstance(c0, Fraction):
        raise NonSquareConstant("sqrt needs rational coefficients")
    r0 = _rational_sqrt(c0)
    if r0 is None:
        raise NonSquareConstant("%s is not a rational square" % (c0,))
    r = Jet2.constant(r0, u.order, u.eff)
    for _ in range(max(1, u.order.bit_length() + 2)):
        nr = (r + u / r).scale(Fraction(1, 2))
        if nr == r:
            break
        r = nr
    return r


# -- printing -----------------------------------------------------------------

def _mono_text(i, j):
    parts = []
    if i == 1:
        parts.append("x")
    elif i > 1:
        parts.append("x^%d" % i)
    if j == 1:
        parts.append("y")
    elif j > 1:
        parts.append("y^%d" % j)
    return " ".join(parts)


def format_jet(jet):
    """Deterministic text form: terms sorted by total degree, then x-degree."""
    if not jet.coeffs:
        return "0"
    keys = sorted(jet.coeffs, key=lambda ij: (ij[0] + ij[1], ij[0]))
    parts = []
    for (i, j) in keys:
        c = jet.coeffs[(i, j)]
        mono = _mono_text(i, j)
        parts.append("%s * %s" % (c, mono) if mono else str(c))
    return " + ".join(parts)
