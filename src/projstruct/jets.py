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
order, same eff, same coefficients) and is mainly useful in tests.

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

The series kernels end by construction; none iterates to a fixed point
under a cap.  A coefficient of degree d of ``inverse``, ``sqrt_series``
and ``exp_series`` depends only on coefficients of lower degree, so one
pass by total degree fixes each once (``_graded_solve``):

- ``inverse``: z_k = -(1/u_0) sum_e u_e z_(k-e), on integer numerators;
- ``sqrt_series``: r_k = (u_k - sum r_p r_q) / (2 r_0), p, q nonconstant;
- ``exp_series``: d f_k = sum_e deg(e) u_e f_(k-e), from the Euler
  operator x d/dx + y d/dy, on integer numerators.

``comp_inverse`` is Newton reversion, doubling the precision each pass.
Series solutions of ODEs climb a staircase of Picard passes
(``_picard``): pass t runs at truncation t and fixes the degree-t
coefficient, and a last pass at full order must return its input.  See
R. P. Brent and H. T. Kung, "Fast algorithms for manipulating formal
power series", J. ACM 25 (1978).
"""

import math
import operator
from bisect import bisect_right
from fractions import Fraction

from .errors import (
    NonSquareConstant,
    NonUnitDivisor,
    NonZeroConstantTerm,
    NotInvertible,
    _ensure,
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


def _graded_solve(tail, first, eff, divide=None):
    """Coefficients w of degree <= eff with w_0 = first and, at degree d > 0,
    w_k = sum_e tail_e w_(k-e), or ``divide(that sum, d)`` when given.

    ``tail`` has no constant term, so w_k depends only on terms of lower
    degree: one pass by total degree, in which each finished term pushes
    its products with the tail onto the keys above it, fixes every
    coefficient once.  Keys pack as in ``Jet2.__mul__``.
    """
    m = eff + 1
    keys = sorted(tail, key=sum)
    degrees = [i + j for (i, j) in keys]
    right = [(i * m + j, tail[(i, j)]) for (i, j) in keys]
    acc = {0: first}
    out = {}
    for d in range(m):
        pushes = right[:bisect_right(degrees, eff - d)]
        for i in range(d + 1):
            k = i * m + d - i
            w = acc.pop(k, 0)
            if w == 0:
                continue
            if divide is not None and d:
                w = divide(w, d)
            out[(i, d - i)] = w
            for ke, t in pushes:
                if k + ke in acc:
                    acc[k + ke] += t * w
                else:
                    acc[k + ke] = t * w
    return out


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
            n >>= 1
            if n:
                base = base * base
        return out

    def inverse(self):
        """Multiplicative inverse; requires a unit constant term.

        With u = U/den (integer numerators) and c = U_00, the integers
        Z_k = c^(d+1) (1/U)_k at degree d obey Z_0 = 1 and
        Z_k = -sum_e c^(deg e - 1) U_e Z_(k-e); then (1/u)_k = den Z_k / c^(d+1).
        """
        c0 = self.constant_term
        if not _is_unit(c0):
            raise NonUnitDivisor("constant term %r is not invertible" % (c0,))
        order, eff = self.order, self.eff
        try:
            num, den = _numerators(self.coeffs)
        except AttributeError:  # not rational: the same recurrence on the values
            inv = 1 / c0
            tail = {k: -(c * inv) for k, c in self.coeffs.items() if k != (0, 0)}
            return Jet2._of(_graded_solve(tail, inv, eff), order, eff)
        c = num.pop((0, 0))
        scaled = _graded_solve({(i, j): -n * c ** (i + j - 1)
                                for (i, j), n in num.items()}, 1, eff)
        return Jet2._of({(i, j): Fraction(den * n, c ** (i + j + 1))
                         for (i, j), n in scaled.items()}, order, eff)

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
    return _substitute_all((f,), u, v)[0]


def _substitute_all(fs, u, v):
    """[substitute(f, u, v) for f in fs], for jets f of one order.

    The powers of u and v, and each product u^i v^j, are built once and
    shared by every f that has a term x^i y^j.
    """
    fs = tuple(fs)
    drift = 0
    for g in (u, v):
        c = g.constant_term
        if not c * c == 0:
            raise NonZeroConstantTerm(
                "substitution point %r is not infinitesimal" % (c,))
        if not c == 0:
            drift = 1
    order = min(u.order, v.order, *(f.order for f in fs))
    upow = _powers(u.truncated(order),
                   max((i for f in fs for (i, _) in f.coeffs), default=0), order)
    vpow = _powers(v.truncated(order),
                   max((j for f in fs for (_, j) in f.coeffs), default=0), order)
    products = {}   # (i, j) -> (u^i v^j, its numerators and their lcm)
    out = []
    for f in fs:
        acc_eff = order
        parts = []
        for (i, j), c in f.coeffs.items():
            if i >= len(upow) or j >= len(vpow):
                continue  # that power is exactly zero to full order
            if (i, j) not in products:
                term = upow[i] * vpow[j]
                try:
                    products[(i, j)] = (term,) + _numerators(term.coeffs)
                except AttributeError:
                    products[(i, j)] = (term, None, None)
            term, num, den = products[(i, j)]
            acc_eff = min(acc_eff, term.eff)
            parts.append((c, term.coeffs, num, den))
        eff = min(f.eff, u.eff, v.eff, order) - drift
        out.append(Jet2(_linear_combination(parts), order, min(acc_eff, eff)))
    return out


def _linear_combination(parts):
    """sum c * t over (c, t, numerators of t, their lcm) as one coefficient dict.

    Over the rationals the sum runs on integers over one common
    denominator, with one reduced Fraction per output term.
    """
    acc = {}
    if all(num is not None and hasattr(c, "denominator")
           for c, _, num, _ in parts):
        den = math.lcm(*[c.denominator * d for c, _, _, d in parts])
        for c, _, num, d in parts:
            s = c.numerator * (den // (c.denominator * d))
            for k, n in num.items():
                acc[k] = acc[k] + s * n if k in acc else s * n
        return {k: Fraction(n, den) for k, n in acc.items() if n}
    for c, coeffs, _, _ in parts:
        for k, t in coeffs.items():
            acc[k] = acc[k] + c * t if k in acc else c * t
    return acc


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
    """Compositional inverse of a univariate jet u = c1*x + O(x^2).

    Newton reversion v <- v - (u o v - x) / (u' o v): a v right through
    degree p gives one right through degree 2p + 1, so each pass runs at
    the next precision of 1, 3, 7, ... up to ``u.eff``.
    """
    if not u.is_x_only():
        raise NotInvertible("compositional inverse needs an x-only jet")
    if not u.constant_term == 0:
        raise NotInvertible("series does not vanish at the origin")
    u1 = u.coeff(1, 0)
    if not _is_unit(u1):
        raise NotInvertible("linear coefficient %r is not invertible" % (u1,))
    order, eff = u.order, u.eff
    x = Jet2.variable("x", order)
    zero = Jet2.zero(order)
    du = u.d_dx()
    v = Jet2._of({(1, 0): 1 / as_coeff(u1)}, order, 1)
    p = 1
    while p < eff:
        p = min(eff, 2 * p + 1)
        w = Jet2(v.coeffs, order, p)
        uw, dw = _substitute_all((u.truncated(eff=p), du.truncated(eff=p)),
                                 w, zero)
        v = w - (uw - x) / dw
    return v


def _picard(step, y, first, what):
    """The fixed point of a Picard pass ``step``, climbing one degree a pass.

    ``step`` takes an iterate right through degree t - 1, where t is its
    order, and returns one of order t right through degree t.  The passes
    run at truncations first, first + 1, ..., ``y.order``, so each costs
    only what its degree needs; one more pass at full order must return
    its input (``what`` names that check).
    """
    order = y.order
    for t in range(min(first, order), order + 1):
        y = step(Jet2(y.coeffs, t, y.eff))
    _ensure(step(y) == y, what)
    return y


# -- analytic series ----------------------------------------------------------

def exp_series(u):
    """exp(u) for a jet with zero constant term.

    f = exp(u) solves E f = f E u for the Euler operator
    E = x d/dx + y d/dy; at degree d that reads d f_k = sum_e deg(e) u_e f_(k-e).
    """
    if not u.constant_term == 0:
        raise NonZeroConstantTerm("exp needs a vanishing constant term")
    eff = u.eff
    try:
        num, den = _numerators(u.coeffs)
    except AttributeError:  # not rational: the same recurrence on the values
        tail = {(i, j): (i + j) * c for (i, j), c in u.coeffs.items()}
        return Jet2._of(_graded_solve(tail, Fraction(1), eff, operator.truediv),
                        u.order, eff)
    # With u = U/den, g_k = den^d f_k are the coefficients of exp(V) for
    # V(x, y) = U(den x, den y)/den, which has integer coefficients, so
    # d! g_k is an integer and so is h_k = eff! g_k: the division by d
    # in d h_k = sum_e deg(e) V_e h_(k-e) is exact.
    top = math.factorial(max(eff, 0))
    tail = {(i, j): (i + j) * n * den ** (i + j - 1)
            for (i, j), n in num.items()}
    scaled = _graded_solve(tail, top, eff, operator.floordiv)
    return Jet2._of({(i, j): Fraction(n, top * den ** (i + j))
                     for (i, j), n in scaled.items()}, u.order, eff)


def _rational_sqrt(c):
    if c < 0:
        return None
    n, d = c.numerator, c.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn != n or rd * rd != d:
        return None
    return Fraction(rn, rd)


def sqrt_series(u):
    """The square root with sqrt(c0) > 0; c0 must be a nonzero rational square.

    One pass by total degree: r_k = (u_k - sum r_p r_q) / (2 r_0), the sum
    over p + q = k with p, q nonconstant.  Each finished r_k pushes its
    products with the terms before it onto the keys above.
    """
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
    eff = u.eff
    m = eff + 1
    half = 1 / (2 * r0)
    out = {(0, 0): r0}
    done, degrees = [], []   # finished nonconstant terms, by degree
    acc = {}
    for d in range(1, m):
        for i in range(d + 1):
            k = i * m + d - i
            r = (u.coeff(i, d - i) - acc.pop(k, 0)) * half
            if r == 0:
                continue
            out[(i, d - i)] = r
            for kq, rq in done[:bisect_right(degrees, eff - d)]:
                acc[k + kq] = acc.get(k + kq, 0) + 2 * r * rq
            if 2 * d <= eff:
                acc[2 * k] = acc.get(2 * k, 0) + r * r
            done.append((k, r))
            degrees.append(d)
    return Jet2._of(out, u.order, eff)


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
