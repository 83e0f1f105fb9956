"""Truncated bivariate power series ("2-jets") with exact coefficients.

A :class:`Jet2` holds the Taylor coefficients of a germ at the origin,
the coefficient of x^i y^j under the key ``(i, j)``, up to a total-degree
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

Every jet is stored in one form, as FLINT's ``fmpq_poly`` is: ``_num``
maps (i, j) to a nonzero numerator, with no key of degree above ``eff``,
over one denominator ``_den``, an ``int > 0``.  Rational coefficients
(``int`` or ``Fraction``, anything with ``numerator``/``denominator``)
become ``int`` numerators with gcd(_den, *_num.values()) == 1.  That form
is canonical, so ``==`` and ``hash`` read it directly.  Every operation
works on the numerators and ends with one content gcd; only ``shift_y``
(run for y0 != 0 alone) builds a ``Fraction`` per term.  ``coeffs``, the
read-only mapping ``{(i, j): Fraction}``, is built on first use and
cached, and ``coeff`` returns a ``Fraction`` (0 when the term is absent).

Any other coefficients, such as the dual rationals of
:mod:`projstruct.duals`, are kept as numerators over 1, and ``coeffs``
reads them as they are.  The integer recurrences hold over Q[eps] once
the denominator is 1, so the same loops run on them against a minimal
protocol (ring ops, equality with 0, an optional ``is_unit`` attribute).
A dual jet whose values all have a zero eps-part equals the rational jet
of their real parts, and hashes as that jet does.

The product is the hot spot of the package.  It visits only the pairs of
terms whose degrees sum to at most the result's ``eff``: the factor
with fewer terms is sorted by total degree once, and each term of the
other takes the prefix of it that fits.  Over the rationals it sums
plain ``int`` products over the product of the two denominators.  A
one-term factor is a shifted scale of the other.

The series kernels end by construction; none iterates to a fixed point
under a cap.  A coefficient of degree d of ``inverse`` and of the Euler
solve depends only on coefficients of lower degree, so one pass by total
degree fixes each once (``_graded_solve``):

- ``inverse``: z_k = -(1/u_0) sum_e u_e z_(k-e), on integer numerators,
  over the one denominator c^(eff+1), c the constant numerator;
- ``_euler_solve(g)``: the f with f_0 = 1 and E f = f g, for the Euler
  operator E = x d/dx + y d/dy; at degree d, d f_k = sum_e g_e f_(k-e),
  on integer numerators over eff! den^eff.  ``exp_series(u)`` is the
  solve of E u, and ``sqrt_series(u)`` is r_0 times the solve of
  (E u)/(2u).

``comp_inverse`` is Newton reversion, doubling the precision each pass.
Series solutions of ODEs climb a staircase of Picard passes
(``_picard``): pass t runs at truncation t and fixes the degree-t
coefficient, and a last pass at full order must return its input.  See
R. P. Brent and H. T. Kung, "Fast algorithms for manipulating formal
power series", J. ACM 25 (1978).
"""

import math
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


def _canonical(num, den):
    """The stored form of ``num`` over ``den``; ``num`` holds no zeros.

    Integer numerators lose their content gcd, and ``den`` is made > 0.
    Any other values are divided by ``den`` (a unit, but not always an
    ``int``).  If they are then all rational, they become integers over
    their lcm; otherwise, as for dual rationals, they stay over 1.
    """
    try:
        g = math.gcd(den, *num.values())
    except TypeError:  # not all integers
        if den != 1:
            inv = Fraction(1) / den
            num = {k: v * inv for k, v in num.items()}
        try:
            den = math.lcm(*[v.denominator for v in num.values()])
        except AttributeError:
            return num, 1
        return {k: v.numerator * (den // v.denominator)
                for k, v in num.items()}, den
    if den < 0:
        g = -g
    if g == 1:
        return num, den
    return {k: n // g for k, n in num.items()}, den // g


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
    """Coerce a scalar into a usable coefficient: ``int`` and ``Fraction``
    as they are, text parsed to a ``Fraction``."""
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, str):
        return Fraction(value)
    if hasattr(value, "is_unit"):  # dual rationals and friends
        return value
    raise TypeError("cannot use %r as a jet coefficient" % (value,))


class Jet2:
    __slots__ = ("order", "eff", "_num", "_den", "_coeffs")

    def __init__(self, coeffs, order, eff=None):
        if order < 0:
            raise ValueError("jet order must be >= 0")
        eff = order if eff is None else min(eff, order)
        eff = max(eff, -1)
        clean = {(i, j): c for (i, j), c in coeffs.items()
                 if i + j <= eff and not c == 0}
        self.order, self.eff, self._coeffs = order, eff, None
        self._num, self._den = _canonical(clean, 1)

    @classmethod
    def _new(cls, num, den, order, eff):
        """The jet ``num``/``den``, put in the stored form by ``_canonical``;
        ``num`` holds no zeros and no key of degree above ``eff``."""
        jet = object.__new__(cls)
        jet.order, jet.eff, jet._coeffs = order, eff, None
        jet._num, jet._den = _canonical(num, den)
        return jet

    def _window(self, order, eff):
        """The same terms read at ``order`` and ``eff``; either may rise."""
        eff = max(min(eff, order), -1)
        return Jet2._new({(i, j): c for (i, j), c in self._num.items()
                          if i + j <= eff}, self._den, order, eff)

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
            return cls({(1, 0): 1}, order)
        if name == "y":
            return cls({(0, 1): 1}, order)
        raise ValueError("unknown variable %r" % (name,))

    @classmethod
    def monomial(cls, i, j, value, order, eff=None):
        return cls({(i, j): as_coeff(value)}, order, eff)

    @classmethod
    def from_terms(cls, terms, order, eff=None):
        return cls({k: as_coeff(v) for k, v in terms.items()}, order, eff)

    # -- basic queries ----------------------------------------------------

    @property
    def coeffs(self):
        """``{(i, j): coefficient}``, read-only, built on first use and
        cached: ``Fraction``s for integer numerators, other values as
        stored (their denominator is 1)."""
        if self._coeffs is None:
            den = self._den
            self._coeffs = {k: Fraction(n, den) if type(n) is int else n
                            for k, n in self._num.items()}
        return self._coeffs

    def coeff(self, i, j):
        c = self._num.get((i, j), 0)
        return Fraction(c, self._den) if c and type(c) is int else c

    @property
    def constant_term(self):
        return self.coeff(0, 0)

    def is_zero(self):
        """True when every known coefficient vanishes."""
        return not self._num

    def is_x_only(self):
        return all(j == 0 for (_, j) in self._num)

    def _val_bound(self):
        # least total degree at which this jet can be nonzero
        return min(map(sum, self._num), default=self.eff + 1)

    def agree(self, other):
        """Coefficientwise equality up to the common effective order."""
        other = self._lift(other)
        e = min(self.eff, other.eff)
        a, b = self._num, other._num
        keys = [(i, j) for (i, j) in a.keys() | b.keys() if i + j <= e]
        da, db = self._den, other._den
        return all(a.get(k, 0) * db == b.get(k, 0) * da for k in keys)

    def __eq__(self, other):
        if not isinstance(other, Jet2):
            return NotImplemented
        if self.order != other.order or self.eff != other.eff:
            return False
        a, b, da, db = self._num, other._num, self._den, other._den
        if da == db:
            return a == b
        # a dual jet (over 1) can equal a rational one
        return a.keys() == b.keys() and all(a[k] * db == b[k] * da for k in a)

    def __hash__(self):
        num, den = self._num, self._den
        if any(type(n) is not int for n in num.values()):
            # hash as the rational jet of the real parts, which this jet
            # equals when every eps-part is zero
            real = Jet2({k: getattr(v, "re", v) for k, v in num.items()},
                        self.order, self.eff)
            num, den = real._num, real._den
        return hash((self.order, self.eff, den, frozenset(num.items())))

    def __repr__(self):
        return "Jet2(%s; order=%d, eff=%d)" % (
            format_jet(self), self.order, self.eff)

    # -- scalar lifting -----------------------------------------------------

    def _lift(self, other):
        if isinstance(other, Jet2):
            return other
        return Jet2.constant(other, self.order)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        order = min(self.order, other.order)
        eff = min(self.eff, other.eff)
        da, db = self._den, other._den
        den = math.lcm(da, db)
        sa, sb = den // da, den // db
        out = {k: n * sa for k, n in self._num.items()}
        for k, n in other._num.items():
            out[k] = out[k] + n * sb if k in out else n * sb
        return Jet2._new({(i, j): n for (i, j), n in out.items()
                          if n and i + j <= eff}, den, order, eff)

    __radd__ = __add__

    def __neg__(self):
        return Jet2._new({k: -c for k, c in self._num.items()}, self._den,
                         self.order, self.eff)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        if not isinstance(other, Jet2):
            return self.scale(other)
        order = min(self.order, other.order)
        eff = min(order,
                  self.eff + other._val_bound(),
                  other.eff + self._val_bound())
        a, b, den = self._num, other._num, self._den * other._den
        if len(a) < len(b):
            a, b = b, a
        if not b:
            return Jet2._new({}, 1, order, eff)
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
            return Jet2._new(out, den, order, eff)
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
        return Jet2._new({divmod(k, m): c for k, c in acc.items()
                          if not c == 0}, den, order, eff)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        n, d = ((c.numerator, c.denominator) if isinstance(c, (int, Fraction))
                else (as_coeff(c), 1))
        if n == 0:
            return Jet2.zero(self.order, self.eff)
        # over the dual numbers n * v can vanish: eps * eps == 0
        return Jet2._new({k: p for k, v in self._num.items() if (p := n * v)},
                         self._den * d, self.order, self.eff)

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
        Z_k = -sum_e c^(deg e - 1) U_e Z_(k-e); then (1/u)_k = den Z_k / c^(d+1),
        which is den Z_k c^(eff-d) over the one denominator c^(eff+1).
        Over the dual numbers c is a dual unit, and ``_canonical`` divides
        by that denominator.
        """
        c = self._num.get((0, 0), 0)
        if not _is_unit(c):
            raise NonUnitDivisor("constant term %r is not invertible" % (c,))
        order, eff = self.order, self.eff
        scaled = _graded_solve({(i, j): -n * c ** (i + j - 1)
                                for (i, j), n in self._num.items() if i + j},
                               1, eff)
        den = self._den
        return Jet2._new({(i, j): den * n * c ** (eff - i - j)
                          for (i, j), n in scaled.items()}, c ** (eff + 1),
                         order, eff)

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            return self * other.inverse()
        c = as_coeff(other)
        if not _is_unit(c):
            raise NonUnitDivisor("scalar %r is not invertible" % (c,))
        return self.scale(Fraction(1) / c)

    def __rtruediv__(self, other):
        return self.inverse().scale(other)

    # -- calculus -----------------------------------------------------------

    def d_dx(self):
        return Jet2._new({(i - 1, j): i * c for (i, j), c in self._num.items()
                          if i > 0}, self._den, self.order, max(self.eff - 1, -1))

    def d_dy(self):
        return Jet2._new({(i, j - 1): j * c for (i, j), c in self._num.items()
                          if j > 0}, self._den, self.order, max(self.eff - 1, -1))

    def integrate_x(self):
        """Antiderivative in x vanishing on x = 0."""
        eff = min(self.eff + 1, self.order)
        kept = [(i, j, c) for (i, j), c in self._num.items() if i + j + 1 <= eff]
        top = math.lcm(*[i + 1 for i, _, _ in kept])
        return Jet2._new({(i + 1, j): n * (top // (i + 1)) for i, j, n in kept},
                         self._den * top, self.order, eff)

    # -- reshaping ----------------------------------------------------------

    def swap_vars(self):
        """The jet of F(y, x)."""
        return Jet2._new({(j, i): c for (i, j), c in self._num.items()},
                         self._den, self.order, self.eff)

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
        return self._window(order, eff)

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
                   max((i for f in fs for (i, _) in f._num), default=0), order)
    vpow = _powers(v.truncated(order),
                   max((j for f in fs for (_, j) in f._num), default=0), order)
    products = {}   # (i, j) -> u^i v^j
    out = []
    for f in fs:
        acc_eff = order
        parts = []
        for (i, j) in f._num:
            if i >= len(upow) or j >= len(vpow):
                continue  # that power is exactly zero to full order
            if (i, j) not in products:
                products[(i, j)] = upow[i] * vpow[j]
            term = products[(i, j)]
            acc_eff = min(acc_eff, term.eff)
            parts.append(((i, j), term))
        eff = max(min(acc_eff, min(f.eff, u.eff, v.eff, order) - drift), -1)
        acc, den = _linear_combination(f, parts)
        out.append(Jet2._new({(i, j): c for (i, j), c in acc.items()
                              if i + j <= eff and not c == 0}, den, order, eff))
    return out


def _linear_combination(f, parts):
    """sum f_k * t over (k, t) in ``parts``, as (numerators, denominator):
    the numerators sum over f's denominator times the lcm of the t's."""
    acc = {}
    den = math.lcm(*[t._den for _, t in parts])
    for k, t in parts:
        s = f._num[k] * (den // t._den)
        for key, n in t._num.items():
            acc[key] = acc[key] + s * n if key in acc else s * n
    return acc, f._den * den


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
    v = Jet2({(1, 0): 1 / u1}, order, 1)
    p = 1
    while p < eff:
        p = min(eff, 2 * p + 1)
        w = v._window(order, p)
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
        y = step(y._window(t, y.eff))
    _ensure(step(y) == y, what)
    return y


# -- analytic series ----------------------------------------------------------

def _euler(u):
    """E u = x u_x + y u_y: each term times its degree, in the same window."""
    return Jet2._new({(i, j): (i + j) * n for (i, j), n in u._num.items()},
                     u._den, u.order, u.eff)


def _euler_solve(g):
    """The f with f_0 = 1 and E f = f g, for a jet g with no constant term.

    At degree d that reads d f_k = sum_e g_e f_(k-e).  With g = G/den
    (integer numerators), d! den^d f_k is an integer by induction on d, so
    h_k = eff! den^d f_k is too, and the division by d in
    d h_k = sum_e G_e den^(deg e - 1) h_(k-e) is exact.  Then f_k is
    h_k den^(eff-d) over the one denominator eff! den^eff.  Over the dual
    numbers den is 1, and an ``int`` h_k comes from ``int`` terms of G
    alone, so it divides exactly too.
    """
    eff, den = g.eff, g._den
    top = math.factorial(max(eff, 0))
    tail = {(i, j): n * den ** (i + j - 1) for (i, j), n in g._num.items()}
    scaled = _graded_solve(tail, top, eff,
                           lambda w, d: w // d if type(w) is int else w / d)
    return Jet2._new({(i, j): n * den ** (eff - i - j)
                      for (i, j), n in scaled.items()},
                     top * den ** max(eff, 0), g.order, eff)


def exp_series(u):
    """exp(u) for a jet with zero constant term: f = exp(u) solves
    E f = f E u for the Euler operator E = x d/dx + y d/dy."""
    if (0, 0) in u._num:
        raise NonZeroConstantTerm("exp needs a vanishing constant term")
    return _euler_solve(_euler(u))


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

    r = sqrt(u) solves E r = r (E u)/(2u), and (E u)/(2u) has no constant
    term, so r / r0 is the Euler solve of (E u)/(2u).
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
    return _euler_solve((_euler(u) / u).scale(Fraction(1, 2))).scale(r0)


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
