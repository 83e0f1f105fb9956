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
effective order" (:meth:`Jet2.agree`, a vanishing difference), and every
verdict that a germ vanishes is one :func:`first_nonzero`.  ``==`` is
strict structural equality (same order, eff and terms), mainly for tests.

Every jet is stored in one form, as FLINT's ``fmpq_poly`` is: ``_num``
maps (i, j) to a nonzero numerator, with no key of degree above ``eff``,
over one denominator ``_den``, an ``int > 0``.  Rational coefficients
(``int`` or ``Fraction``, anything with ``numerator``/``denominator``)
become ``int`` numerators with gcd(_den, *_num.values()) == 1.  That form
is canonical, so ``==`` and ``hash`` read it directly.  Every operation
works on the numerators and ends with one content gcd.  ``coeffs``, the
read-only mapping ``{(i, j): Fraction}``, is built on first use and
cached, and ``coeff`` returns a ``Fraction`` (0 when the term is absent).
The valuation that ``_product_window`` and ``_quotient_window`` read
(``_val_bound``) is cached next to it.

Any other coefficients, such as the dual rationals of
:mod:`projstruct.duals`, are kept as numerators over 1, and ``coeffs``
reads them as they are.  The integer recurrences hold over Q[eps] once
the denominator is 1, so the same loops run on them against a minimal
protocol (ring ops, equality with 0 and a truth value that is false only
at 0, an optional ``is_unit`` attribute).  A dual jet whose values all
have a zero eps part (``ep``) is stored as the rational jet of their real
parts (``re``), so dual jets too have one stored form.

This module is the one place that sums or multiplies numerator dicts,
through two kernels that ``Jet2`` arithmetic, substitution and the
polynomial nodes of :mod:`projstruct.expressions` share.  ``_lincomb``
sums s n / d over the lcm of the d, dropping cancelled terms and those
above the window.  ``_product`` is the product, the hot spot of the
package.  It visits only the pairs of terms whose degrees sum to at most
the result's ``eff``: the factor with fewer terms is sorted by total
degree once, and each term of the other takes the prefix of it that
fits.  Over the rationals it sums plain ``int`` products into a flat
list over the result's exponent box (``_box_sum``): h rows by w columns,
where h and w exceed the largest x- and y-exponent a kept product can
have.  The box is never sized by the working order, so a product of two
short jets costs the same at order 400 as at order 20.  A one-term
factor is a shifted scale of the other.  ``_sum_of_products`` sums many
products c f g in one such box over one denominator and reduces once; it
forms each slot of ``residual``, ``liouville``, ``pullback``, the slope
products and ``apply_y_shift``, the six parts of ``is_geodesic``'s cleared
numerator, ``_rhs_along`` and ``Pencil.wedge``.  Substitution
(``_substitute_all``) builds the powers of u and v once; a pure power of f
reads u^i or v^j itself, and a mixed term x^i y^j takes the numerators of
one ``_product`` u^i v^j, formed once and shared by every f, with no jet
built for it.

The series kernels end by construction; no kernel iterates to a fixed
point under a cap.  A coefficient of degree d of a quotient and of the
Euler solve depends only on coefficients of lower degree, so one pass by
total degree fixes each once (``_graded_solve``):

- ``a / b``: q_k = (a_k - sum_(e != 0) b_e q_(k-e)) / b_0, on integer
  numerators over the one denominator da c^(eff+1), c the constant
  numerator of b, with no inverse jet and no product; ``inverse`` is
  ``1 / b``, and ``_quotients`` divides several in one bit-packed pass,
  or, by a divisor whose only term is c, scales integer numerators with
  no pass;
- ``_euler_solve(g)``: the f with f_0 = 1 and E f = f g, for the Euler
  operator E = x d/dx + y d/dy; at degree d, d f_k = sum_e g_e f_(k-e),
  on integer numerators over eff! den^eff.  ``exp_series(u)`` is the
  solve of E u, and ``sqrt_series(u)`` is r_0 times the solve of
  (E u)/(2u).

Reversion is one online pass too, in the style of
``structures.geodesic_solve`` (J. van der Hoeven, "Relax, but don't be
too lazy", J. Symbolic Comput. 34 (2002)): ``comp_inverse`` is
Lagrangian reversion by a table of integer powers (D. E. Knuth, TAOCP
Vol. 2, 4.7, Algorithm L), in which the coefficient of x^n reads only
those below it, over the one denominator c^(2 eff - 1), c the linear
numerator of u, with no substitution and no quotient.
"""

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, repeat
from operator import itemgetter, mul

from .errors import (
    NonSquareConstant,
    NonUnitDivisor,
    NonZeroConstantTerm,
    NotInvertible,
)

DEFAULT_ORDER = 12

_j = itemgetter(1)   # the y-exponent of a key (i, j)


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
    their lcm; so do dual values whose eps parts are all zero, read as
    their real parts.  Otherwise they stay over 1.
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
            if any(getattr(v, "ep", 1) for v in num.values()
                   if not hasattr(v, "denominator")):
                return num, 1
            return _canonical({k: getattr(v, "re", v)
                               for k, v in num.items()}, 1)
        return {k: v.numerator * (den // v.denominator)
                for k, v in num.items()}, den
    if den < 0:
        g = -g
    if g == 1:
        return num, den
    return {k: n // g for k, n in num.items()}, den // g


def _graded_solve(tail, start, eff, divide=None):
    """Coefficients w of degree <= eff with w_k = start_k + sum_e tail_e
    w_(k-e), or at degree d > 0 ``divide(that sum, d)`` when given.

    ``tail`` has no constant term, so w_k depends only on terms of lower
    degree: one pass by total degree, in which each finished term pushes
    its products with the tail onto the keys above it, fixes every
    coefficient once.  Key (i, j) packs to i*m + j in a flat list of all
    (eff + 1)^2 keys, which the pass visits anyway.  ``start`` holds no
    key of degree above ``eff`` unless the window is empty (eff = -1).
    """
    if eff < 0:
        return {}
    m = eff + 1
    keys = sorted(tail, key=sum)
    degrees = [i + j for (i, j) in keys]
    right = [(i * m + j, tail[(i, j)]) for (i, j) in keys]
    acc = [0] * (m * m)
    for (i, j), s in start.items():
        acc[i * m + j] = s
    out = {}
    for d in range(m):
        pushes = right[:bisect_right(degrees, eff - d)]
        for i in range(d + 1):
            k = i * m + d - i
            w = acc[k]
            if w == 0:
                continue
            if divide is not None and d:
                w = divide(w, d)
            out[(i, d - i)] = w
            for ke, t in pushes:
                acc[k + ke] += t * w
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
    __slots__ = ("order", "eff", "_num", "_den", "_coeffs", "_val")

    def __init__(self, coeffs, order, eff=None):
        """``coeffs`` maps pairs (i, j) of ints >= 0 to values that
        ``as_coeff`` reads; terms of degree above ``eff`` are dropped."""
        if order < 0:
            raise ValueError("jet order must be >= 0")
        eff = order if eff is None else min(eff, order)
        eff = max(eff, -1)
        clean = {}
        for k, c in coeffs.items():
            if not (type(k) is tuple and len(k) == 2
                    and all(type(e) is int and e >= 0 for e in k)):
                raise ValueError("bad jet key %r, not a pair of ints >= 0"
                                 % (k,))
            if not (c := as_coeff(c)) == 0 and sum(k) <= eff:
                clean[k] = c
        self.order, self.eff, self._coeffs, self._val = order, eff, None, None
        self._num, self._den = _canonical(clean, 1)

    @classmethod
    def _new(cls, num, den, order, eff):
        """The jet ``num``/``den``, put in the stored form by ``_canonical``;
        ``num`` holds no zeros and no key of degree above ``eff``."""
        jet = object.__new__(cls)
        jet.order, jet.eff, jet._coeffs, jet._val = order, eff, None, None
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
        return cls({(0, 0): value}, order, eff)

    @classmethod
    def variable(cls, name, order):
        if name == "x":
            return cls({(1, 0): 1}, order)
        if name == "y":
            return cls({(0, 1): 1}, order)
        raise ValueError("unknown variable %r" % (name,))

    @classmethod
    def monomial(cls, i, j, value, order, eff=None):
        return cls({(i, j): value}, order, eff)

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
        """The least total degree at which this jet can be nonzero, eff + 1
        when it has no term: computed on first use and cached, as
        ``coeffs`` is, for the window rules read it per product."""
        if self._val is None:
            self._val = min(map(sum, self._num), default=self.eff + 1)
        return self._val

    def agree(self, other):
        """Coefficientwise equality up to the common effective order."""
        return first_nonzero(self - other) is None

    def __eq__(self, other):
        if not isinstance(other, Jet2):
            return NotImplemented
        return (self.order == other.order and self.eff == other.eff
                and self._den == other._den and self._num == other._num)

    def __hash__(self):
        return hash((self.order, self.eff, self._den,
                     frozenset(self._num.items())))

    def __repr__(self):
        return "Jet2(%s; order=%d, eff=%d)" % (
            format_jet(self), self.order, self.eff)

    # -- scalar lifting -----------------------------------------------------

    def _lift(self, other):
        if isinstance(other, Jet2):
            return other
        return Jet2.constant(other, self.order)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other, s=1):
        """self + s other in one ``_lincomb``; ``__sub__`` passes s = -1."""
        other = self._lift(other)
        eff = min(self.eff, other.eff)
        return Jet2._new(*_lincomb([(1, self._num, self._den),
                                    (s, other._num, other._den)], eff),
                         min(self.order, other.order), eff)

    __radd__ = __add__

    def __neg__(self):
        return Jet2._new({k: -c for k, c in self._num.items()}, self._den,
                         self.order, self.eff)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        if not isinstance(other, Jet2):
            return self.scale(other)
        order, eff = _product_window(self, other)
        return Jet2._new(_product(self._num, other._num, eff),
                         self._den * other._den, order, eff)

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
        out, base = (None if n else Jet2.constant(1, self.order)), self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def inverse(self):
        """Multiplicative inverse, the quotient 1 / self; requires a unit
        constant term."""
        return Jet2.constant(1, self.order) / self

    def __truediv__(self, other):
        """self / other; a jet divisor needs a unit constant term."""
        if not isinstance(other, Jet2):
            c = as_coeff(other)
            if not _is_unit(c):
                raise NonUnitDivisor("scalar %r is not invertible" % (c,))
            return self.scale(Fraction(1) / c)
        return _quotients((self,), other)[0]

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

    def truncated(self, order=None, eff=None):
        """A copy with lowered bounds (never raises either bound), order >= 0."""
        if order is not None and order < 0:
            raise ValueError("jet order must be >= 0")
        order = self.order if order is None else min(order, self.order)
        eff = self.eff if eff is None else min(eff, self.eff)
        return self._window(order, eff)


def first_nonzero(parts):
    """The one vanishing decision behind every verdict of the package:
    ``None`` when every part vanishes, else ``(k, part)`` for the first
    part that does not.  ``parts`` is one ``Jet2`` or the parts of one
    statement, in order (a record, a residual's ``coeffs``, a generator).
    """
    for k, part in enumerate((parts,) if isinstance(parts, Jet2) else parts):
        if not part.is_zero():
            return k, part
    return None


def _lincomb(parts, eff):
    """sum s n / d over ``parts`` (s, n, d), n a numerator dict, as
    (numerators, denominator) over the lcm of the d: the terms that cancel
    and those of degree above ``eff`` are dropped."""
    den = math.lcm(*[d for _, _, d in parts])
    acc = {}
    for s, num, d in parts:
        s *= den // d
        for k, n in num.items():
            acc[k] = acc[k] + s * n if k in acc else s * n
    return {(i, j): n for (i, j), n in acc.items() if n and i + j <= eff}, den


def _product(a, b, eff):
    """The numerators of the product of numerator dicts ``a`` and ``b``
    through degree ``eff``: empty if a factor is, a shifted scale of the
    other if one has one term, else one ``_box_sum``."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return {}
    if len(b) == 1:
        ((i0, j0), c0), = b.items()
        lim = eff - i0 - j0
        out = {}
        for (i, j), c in a.items():
            if i + j <= lim:
                p = c * c0
                if not p == 0:
                    out[(i + i0, j + j0)] = p
        return out
    return _box_sum([(1, a, b)], eff)


def _box_sum(products, eff):
    """The numerators of sum s a b over ``products`` (s, a, b) of numerator
    dicts, through degree ``eff``, in a flat list over the exponent box of
    the result, h rows by w columns, never sized by the working order.  Key
    (i, j) packs to i*w + j, additive on every kept product since its i
    stays below h and its j below w.  Of each pair, the factor with fewer
    terms is sorted by degree; each term of the other takes a prefix."""
    h = w = 0
    for _, a, b in products:
        h = max(h, max(a)[0] + max(b)[0])
        w = max(w, max(map(_j, a)) + max(map(_j, b)))
    h, w = min(eff, h) + 1, min(eff, w) + 1
    acc = [0] * (h * w)
    for s, a, b in products:
        if len(a) < len(b):
            a, b = b, a
        keys = sorted(b, key=sum)
        degrees = [i + j for (i, j) in keys]
        right = [(i * w + j, s * b[(i, j)]) for (i, j) in keys]
        for (i, j), c1 in a.items():
            k1 = i * w + j
            for k2, c2 in right[:bisect_right(degrees, eff - i - j)]:
                acc[k1 + k2] += c1 * c2
    return {divmod(k, w): c for k, c in enumerate(acc) if c}


def _product_window(f, g):
    """(order, eff) of the product f g: the lesser order, and the window
    min(order, f.eff + val g, g.eff + val f)."""
    order = min(f.order, g.order)
    return order, min(order, f.eff + g._val_bound(), g.eff + f._val_bound())


def _quotient_window(a, b):
    """(order, eff) of the quotient a / b, for b with a unit constant term:
    the lesser order, and the window min(order, a.eff, b.eff + val a)."""
    order = min(a.order, b.order)
    return order, min(order, a.eff, b.eff + a._val_bound())


def _sum_window(terms):
    """(order, eff) of sum c f g over ``terms`` (c, f, g): each product
    keeps its ``_product_window``, and the sum the least order and eff."""
    orders, effs = zip(*[_product_window(f, g) for _, f, g in terms])
    return min(orders), min(effs)


_ONE = {(0, 0): 1}   # the numerators of 1, the partner of a lone factor


def _sum_of_products(terms, cap=None):
    """sum c f g over ``terms`` (c, f, g), and c f over terms (c, f), c
    rational and f, g jets, lowered to ``cap`` when one is given.

    As in ``_sum_window``, each product keeps its ``_product_window`` and
    the sum the least order and eff.  A lone factor f is f * 1 in its own
    window (f.order, f.eff), which ``_product_window(f, 1)`` gives whenever
    the order of 1 is at least f.order.  All products share one
    ``_box_sum`` over the lcm of their denominators, then one
    ``_canonical`` (delayed reduction: J.-G. Dumas, P. Giorgi and
    C. Pernet, ACM TOMS 35 (2008))."""
    windows, live = [], []
    for term in terms:
        c, f = term[0], term[1]
        if len(term) == 3:
            g = term[2]
            windows.append(_product_window(f, g))
            if f._num and g._num:
                live.append((c, c.denominator * f._den * g._den, f._num,
                             g._num))
        else:
            windows.append((f.order, f.eff))
            if f._num:
                live.append((c, c.denominator * f._den, f._num, _ONE))
    orders, effs = zip(*windows)
    order, eff = min(orders), min(effs)
    if cap is not None:
        eff = min(eff, cap)
    den = math.lcm(*[d for _, d, _, _ in live])
    return Jet2._new(_box_sum([(c.numerator * (den // d), a, b)
                               for c, d, a, b in live], eff), den, order, eff)


def _quotients(nums, b):
    """[a / b for a in nums], for a jet ``b`` with a unit constant term.

    With a = A/da and b = B/db (integer numerators), a divisor whose only
    term is its constant c scales: a/b is db A over da c, in the window
    a * (1/b) has.  Any other divisor takes one graded pass, with no
    inverse and no product: the integers Z_k = c^(d+1) (A/B)_k at degree d
    obey Z_k = c^d A_k - sum_e c^(deg e - 1) B_e Z_(k-e); then (a/b)_k is
    db Z_k c^(eff-d) over the one denominator da c^(eff+1).  Over the dual
    numbers c is a dual unit, ``_canonical`` divides by that denominator,
    and each a runs its own pass.

    Several integer numerators share one pass to the largest eff, the r-th
    Z at bit offset r S of one int (J.-G. Dumas, L. Fousse and B. Salvy,
    J. Symbolic Comput. 46 (2011)); the pass is exact and linear, so only
    the final values must fit.  With s_d the sum of |start| over the slots
    and keys of degree d, and t_e that of |tail| over degree e,
    u_d = s_d + sum_(e=1..d) t_e u_(d-e) bounds sum_(deg k = d) |Z_k| in
    every slot; S is two bits past max u_d.  Slot r is ((P + B) >> rS) &
    (2^S - 1) - 2^(S-1), for B = sum_r 2^(S-1) 2^(rS), through its eff,
    and each slot's jet is built straight from those words.
    """
    c = b._num.get((0, 0), 0)
    if not _is_unit(c):
        raise NonUnitDivisor("constant term %r is not invertible" % (c,))
    orders, effs = zip(*[_quotient_window(a, b) for a in nums])
    db = b._den
    ints = all(type(n) is int for f in (b, *nums) for n in f._num.values())
    if ints and len(b._num) == 1:
        return [Jet2._new({(i, j): db * n for (i, j), n in a._num.items()
                           if i + j <= eff}, a._den * c, order, eff)
                for a, order, eff in zip(nums, orders, effs)]
    top = max(effs)
    cpow = list(accumulate(repeat(c, top + 1), mul, initial=1))
    tail = {(i, j): -n * cpow[i + j - 1]
            for (i, j), n in b._num.items() if 0 < i + j <= top}
    starts = [{(i, j): n * cpow[i + j]
               for (i, j), n in a._num.items() if i + j <= eff}
              for a, eff in zip(nums, effs)]
    if len(nums) == 1 or not ints:
        return [Jet2._new({(i, j): db * n * cpow[eff - i - j] for (i, j), n
                           in _graded_solve(tail, start, eff).items()},
                          a._den * cpow[eff + 1], order, eff)
                for a, order, eff, start in zip(nums, orders, effs, starts)]
    u, t = [0] * (top + 1), [0] * (top + 1)
    for sums, terms in [(u, start) for start in starts] + [(t, tail)]:
        for (i, j), n in terms.items():
            sums[i + j] += abs(n)
    for d in range(top + 1):  # s_d becomes u_d
        u[d] += sum(map(mul, t[1:d + 1], reversed(u[:d])))
    width = max(u, default=0).bit_length() + 2
    packed = dict(starts[0])
    for r, start in enumerate(starts[1:], 1):
        for k, n in start.items():
            packed[k] = packed.get(k, 0) + (n << (r * width))
    half, mask = 1 << (width - 1), (1 << width) - 1
    bias = sum(half << (r * width) for r in range(len(nums)))
    words = [(i, j, w + bias)
             for (i, j), w in _graded_solve(tail, packed, top).items()]
    return [Jet2._new({(i, j): db * z * cpow[eff - i - j] for i, j, w in words
                       if i + j <= eff
                       and (z := ((w >> (r * width)) & mask) - half)},
                      a._den * cpow[eff + 1], order, eff)
            for r, (a, order, eff) in enumerate(zip(nums, orders, effs))]


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

    The powers of u and v are built once.  A pure power x^i or y^j of f
    reads u^i or v^j itself, as u^i * 1 would have its window and stored
    form; each mixed product u^i v^j (i, j >= 1) is formed once, as the
    numerators, denominator and window that ``u^i * v^j`` would reduce
    and store, and shared by every f that has a term x^i y^j.
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
    products = {}   # (i, j) -> (num, den, eff) of u^i v^j, for i, j >= 1
    out = []
    for f in fs:
        eff = min(f.eff, u.eff, v.eff, order) - drift
        parts = []
        for (i, j), c in f._num.items():
            if i >= len(upow) or j >= len(vpow):
                continue  # that power is exactly zero to full order
            if i and j:
                if (i, j) not in products:
                    p, q = upow[i], vpow[j]
                    e = _product_window(p, q)[1]
                    products[(i, j)] = (_product(p._num, q._num, e),
                                        p._den * q._den, e)
                num, den, e = products[(i, j)]
            else:
                term = upow[i] if i else vpow[j]
                num, den, e = term._num, term._den, term.eff
            eff = min(eff, e)
            parts.append((c, num, f._den * den))
        eff = max(eff, -1)
        out.append(Jet2._new(*_lincomb(parts, eff), order, eff))
    return out


def _powers(g, top, order):
    """[g^0, g^1, ..] up to exponent ``top``, stopping once exactly zero.

    g^1 is ``g`` itself, which is read at ``order``: 1 * g would have its
    order, window and stored form.
    """
    out = [Jet2.constant(1, order)]
    for k in range(top):
        nxt = out[-1] * g if k else g
        if nxt.is_zero() and nxt.eff == order:
            break
        out.append(nxt)
    return out


def compose1(f, g):
    """Univariate composition f(g(x)) for x-only jets."""
    return substitute(f, g, Jet2.zero(g.order))


def comp_inverse(u):
    """Compositional inverse of a univariate jet u = c1*x + O(x^2).

    Lagrangian reversion in one online pass on integers.  With
    u = (1/D) sum U_k x^k and c = U_1, put v = c w(D x / c^2): u(v) = x
    reads w + sum_(k>=2) U_k c^(k-2) w^k = z, so v_n = D^n W_n / c^(2n-1)
    with W_1 = 1 and W_n = -sum_(k=2..n) U_k c^(k-2) Q_k[n], where
    Q_k[n], the z^n coefficient of w^k, is sum_m W_m Q_(k-1)[n-m] and
    Q_1 = W.  W_n reads only W_m and Q_k[m] for m < n, and U_2..U_n, so
    v_n reads only u_1..u_n: the result is known wherever u is, in the
    window (u.order, u.eff), over the one denominator c^(2 eff - 1).
    Over the dual numbers the same ring operations run, and
    ``_canonical`` divides by that dual denominator.
    """
    if not u.is_x_only():
        raise NotInvertible("compositional inverse needs an x-only jet")
    if not u.constant_term == 0:
        raise NotInvertible("series does not vanish at the origin")
    u1 = u.coeff(1, 0)
    if not _is_unit(u1):
        raise NotInvertible("linear coefficient %r is not invertible" % (u1,))
    eff, num = u.eff, u._num
    c = num[(1, 0)]
    cpow = list(accumulate(repeat(c, 2 * eff - 1), mul, initial=1))
    top = max(i for i, _ in num)   # U_k = 0 above it: no Q_k is needed
    weight = [0, 0] + [num.get((k, 0), 0) * cpow[k - 2]
                       for k in range(2, top + 1)]
    w = [0, 1]                     # W_n, W_0 = 0
    q = [None, w] + [[0] * k for k in range(2, top + 1)]   # q[k][n] = Q_k[n]
    for n in range(2, eff + 1):
        total = 0
        for k in range(2, min(n, top) + 1):
            qk = sum(map(mul, w[1:n - k + 2], q[k - 1][n - 1:k - 2:-1]))
            q[k].append(qk)
            total += weight[k] * qk
        w.append(-total)
    den = u._den
    return Jet2._new({(n, 0): den ** n * w[n] * cpow[2 * (eff - n)]
                      for n in range(1, eff + 1) if w[n]},
                     cpow[2 * eff - 1], u.order, eff)


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
    scaled = _graded_solve(tail, {(0, 0): top}, eff,
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
