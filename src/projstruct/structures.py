"""Projective structures and their transformation calculus.

A projective structure (germ at the origin) is the second-order ODE

    y'' = A(x, y) + B(x, y) y' + C(x, y) y'^2 + D(x, y) y'^3

identified with its coefficient quadruple of 2-jets.  Graphs of
solutions are the geodesics.  The right-hand side being cubic in the
slope is exactly the condition preserved by arbitrary coordinate
changes, which is what :func:`pullback` implements.  :func:`liouville`
gives the obstruction to flatness, each invariant one kernel sum of its
second derivatives and four products whose partners are linear
combinations of first derivatives.

:func:`geodesic_solve` solves its nonlinear ODE online, or relaxed
(J. van der Hoeven, "Relax, but don't be too lazy", J. Symbolic Comput.
34 (2002)): each coefficient is fixed once, degree by degree, from the
lower ones, through products whose coefficient n is a ``_cauchy`` sum
of terms already known.  It rescales x and the solution so that the ODE
has integer coefficients; then every derivative at 0 is an integer, and
the lists hold N! times the Taylor coefficients (N the order), so a
product coefficient is an exact ``// N!`` of such a sum.  It then runs
one Picard pass of the ODE at full order along the online jet and
returns it once the online coefficients agree, so the window follows the
jet rules of the pass.  The ODE of ``ib_flattening_germ`` is linear for
the inverse germ, and the quartic of ``alpha_ode_solve`` has a closed
form: jet operations alone solve both.
"""

import math
from fractions import Fraction
from operator import mul

from .errors import (
    DegenerateJacobian,
    NotInNormalForm,
    NotInvertible,
    _ensure,
)
from .jets import (Jet2, _is_unit, _lincomb, _quotients, _substitute_all,
                   _sum_of_products, _sum_window, comp_inverse, compose1,
                   first_nonzero)
from .records import Record
from .slopes import _slope_terms


class _JetRecord(Record):
    """A record whose fields are parts of one order: jets, or records of
    jets.

    Iterating a record yields its parts in field order; ``order``,
    ``eff``, ``agree`` and the rest act part by part.
    """

    def __post_init__(self):
        orders = {f.order for f in self}
        if len(orders) != 1:
            raise ValueError("%s parts must share one order, got %s"
                             % (type(self).__name__, orders))

    @property
    def order(self):
        return self[0].order

    @property
    def eff(self):
        return min(f.eff for f in self)

    def map(self, fn):
        return type(self)(*map(fn, self))

    def agree(self, other):
        return all(a.agree(b) for a, b in zip(self, other))

    def is_zero(self):
        return first_nonzero(self) is None

    def is_x_only(self):
        return all(f.is_x_only() for f in self)

    def truncated(self, order=None, eff=None):
        return self.map(lambda f: f.truncated(order, eff))

    @classmethod
    def zero(cls, order):
        return cls(*[Jet2.zero(order)] * len(cls._fields))


class ProjectiveStructure(_JetRecord):
    A: Jet2
    B: Jet2
    C: Jet2
    D: Jet2


class DiffeoGerm(_JetRecord):
    """A coordinate change germ fixing the origin, (x, y) -> (u, v)."""

    u: Jet2
    v: Jet2

    def __post_init__(self):
        super().__post_init__()
        for g in self:
            c = g.constant_term
            if not c * c == 0:
                raise DegenerateJacobian("germ does not fix the origin")
        j0 = (self.u.coeff(1, 0) * self.v.coeff(0, 1)
              - self.u.coeff(0, 1) * self.v.coeff(1, 0))
        if not _is_unit(j0):
            raise DegenerateJacobian("linear part is singular at the origin")

    def compose(self, inner):
        """self after inner: (self . inner)(q) = self(inner(q))."""
        return DiffeoGerm(*_substitute_all(self, *inner))


def pullback(germ, st):
    """Transport a structure through a coordinate change.

    The geodesics of ``pullback(germ, st)`` are exactly the
    germ-preimages of the geodesics of ``st``: if Y(X) solves ``st``
    then the curve traced in source coordinates solves the result.
    Functorially, ``pullback(g1.compose(g2), st) ==
    pullback(g2, pullback(g1, st))``.

    A linear germ over the rationals, whose four first derivatives are
    integer-numerator constants (a scaling, a shear), has no second
    derivatives: the slope terms of p2 and q2 vanish, and each of the 16
    cubic coefficients is a number M_ks.  Each slot is then the constant
    mix sum_s M_ks s of the substituted slots, one ``_lincomb`` capped at
    the window ``_cubic_windows`` gives it, so its windows are the grouped
    path's; the Jacobian divides it as on that path.
    """
    u, v = germ.u, germ.v
    ux, uy, vx, vy = u.d_dx(), u.d_dy(), v.d_dx(), v.d_dy()
    jac = _sum_of_products([(1, ux, vy), (-1, uy, vx)])
    # With slope p, dX/dx = dn = ux + uy p and dY/dx = nn = vx + vy p.  Slot
    # k is the p^k coefficient of dn^2 (a dn + b nn) + nn^2 (c dn + d nn)
    # - (p2 dn - nn q2), for p2 and q2 the second total derivatives of v
    # and u (p2 carries its minus sign in its weights); each coefficient of
    # the two linear factors and each slot is one kernel sum.  A slot keeps
    # the window that summing a dn^3 + b dn^2 nn + c dn nn^2 + d nn^3 by its
    # 16 cubic coefficients gives (``_cubic_windows``), and a, b, c or d,
    # when known less far, is read at full window in the linear factors:
    # its unknown terms cancel from the slot through that window.
    dn, nn = [(1, ux), (1, uy)], [(1, vx), (1, vy)]
    dn2, nn2 = ([(1, f * f), (2, f * g), (1, g * g)]
                for f, g in ((ux, uy), (vx, vy)))
    q2 = [(1, ux.d_dx()), (2, ux.d_dy()), (1, uy.d_dy())]
    p2 = [(-1, vx.d_dx()), (-2, vx.d_dy()), (-1, vy.d_dy())]
    sts = _substitute_all(st, u, v)
    rest = [f + g for f, g in zip(_slope_terms(p2, dn), _slope_terms(nn, q2))]
    cubic = list(zip(*(_slope_terms(sq, f) for sq, f in
                       zip((dn2, dn2, nn2, nn2), (dn, nn, dn, nn)))))
    effs = _cubic_windows(sts, cubic, rest)
    if all(type(n) is int and not (i or j)
           for g in (ux, uy, vx, vy) for (i, j), n in g._num.items()):
        # a linear germ: rest vanishes and each cubic coefficient is a
        # number M_ks, so slot k is the constant mix sum_s M_ks sts[s]
        slots = []
        for coeffs, eff in zip(cubic, effs):
            mix = []
            for s, terms in zip(sts, coeffs):
                m = sum(w * f.constant_term * g.constant_term
                        for w, f, g in terms)
                if m:
                    mix.append((m.numerator, s._num, m.denominator * s._den))
            slots.append(Jet2._new(*_lincomb(mix, eff), sts[0].order, eff))
    else:
        a, b, c, d = (s if s.eff >= max(effs)
                      else s._window(s.order, s.order) for s in sts)
        lin = [[(1, _sum_of_products([(1, s, f), (1, t, g)])) for f, g in
                ((ux, vx), (uy, vy))] for s, t in ((a, b), (c, d))]
        slots = [_sum_of_products(f + g + r, eff) for f, g, r, eff in zip(
            _slope_terms(dn2, lin[0]), _slope_terms(nn2, lin[1]), rest, effs)]
    return ProjectiveStructure(*_quotients(slots, jac))


def _cubic_windows(sts, cubic, rest):
    """For each slot k, the window of the kernel sum of ``rest[k]`` and of
    C_s s over the slots s of ``sts``, where C_s is the kernel sum of its
    terms in ``cubic[k]``.  A C_s is formed only for a slot s known less
    far than the bound so far: only its valuation can then lower it."""
    vals = [s._val_bound() for s in sts]
    out = []
    for coeffs, terms in zip(cubic, rest):
        bound = min(sts[0].order, _sum_window(terms)[1],
                    *(_sum_window(t)[1] + val for t, val in zip(coeffs, vals)))
        for s, t in zip(sts, coeffs):
            if s.eff < bound:
                bound = min(bound, s.eff + _sum_of_products(t)._val_bound())
        out.append(bound)
    return out


# --- closed-form transformation laws ---------------------------------------
#
# Special cases of pullback with one-variable data; the generic pullback
# serves as the oracle for these in the tests, and the normalization
# routines below use them because they stay exactly within x-only jets.


def apply_x_reparam(st, psi):
    """Pull back along (x, y) -> (psi(x), y)."""
    if not (psi.is_x_only() and psi.constant_term == 0):
        raise NotInvertible("reparametrization must be x-only and fix 0")
    dps = psi.d_dx()
    if not _is_unit(dps.constant_term):
        raise NotInvertible("reparametrization slope vanishes at 0")
    y = Jet2.variable("y", psi.order)
    ta, tb, tc, td = _substitute_all(st, psi, y)
    return ProjectiveStructure(ta * dps * dps, tb * dps + dps.d_dx() / dps,
                               tc, td / dps)


def apply_y_shift(st, phi):
    """Pull back along (x, y) -> (x, y + phi(x))."""
    if not (phi.is_x_only() and phi.constant_term == 0):
        raise NotInvertible("shift must be x-only and fix 0")
    x = Jet2.variable("x", phi.order)
    y = Jet2.variable("y", phi.order)
    dph = phi.d_dx()
    dph2 = dph * dph
    ta, tb, tc, td = _substitute_all(st, x, y + phi)
    a = _sum_of_products([(1, ta), (1, tb, dph), (1, tc, dph2),
                          (1, td, dph2 * dph), (-1, dph.d_dx())])
    b = _sum_of_products([(1, tb), (2, tc, dph), (3, td, dph2)])
    c = _sum_of_products([(1, tc), (3, td, dph)])
    return ProjectiveStructure(a, b, c, td)


def apply_y_scale(st, a0):
    """Pull back along (x, y) -> (x, a0 * y)."""
    a0 = Fraction(a0)
    if a0 == 0:
        raise DegenerateJacobian("scale factor must be nonzero")
    x = Jet2.variable("x", st.order)
    y = Jet2.variable("y", st.order)
    ta, tb, tc, td = _substitute_all(st, x, y.scale(a0))
    return ProjectiveStructure(ta / a0, tb, tc * a0, td * a0 ** 2)


def swap_axes(st):
    """The same geometry with the roles of x and y exchanged.

    Graphs y(x) of geodesics become graphs of the inverse functions, so
    vertical-direction phenomena become horizontal ones.  Involutive.
    """
    sw = [f.swap_vars() for f in st]
    return ProjectiveStructure(-sw[3], -sw[2], -sw[1], -sw[0])


# --- invariants -----------------------------------------------------------


class LiouvillePair(_JetRecord):
    L1: Jet2
    L2: Jet2


def liouville(st):
    """The obstruction pair (L1, L2); both vanish iff linearizable.

    L1 = 2 b_xy - c_xx - 3 a_yy + 3 a (c_y - 2 d_x) - 3 a_x d + 3 a_y c
    + b (c_x - 2 b_y) and L2 = 2 c_xy - b_yy - 3 d_xx - 3 d (b_x - 2 a_y)
    + 3 a d_y - 3 b d_x - c (b_y - 2 c_x), each one kernel sum of three
    second derivatives and four products, a partner g - 2 h one
    ``__add__``.  The second derivatives cap each at its slots' eff - 2,
    and grouping adds only windows f.eff + val g >= f.eff, so both keep the
    windows of the sums written with (a c)_y and (b d)_x.  For the same
    reason a grouped product whose factor f is empty, 0 in a window of at
    least f.eff, is left out with its partner.
    """
    a, b, c, d = st
    ax, bx, cx, dx = (f.d_dx() for f in st)
    ay, by, cy, dy = (f.d_dy() for f in st)
    l1 = _sum_of_products([
        (2, bx.d_dy()), (-1, cx.d_dx()), (-3, ay.d_dy()),
        (-3, ax, d), (3, ay, c)] + _grouped((3, a, cy, dx), (1, b, cx, by)))
    l2 = _sum_of_products([
        (2, cx.d_dy()), (-1, by.d_dy()), (-3, dx.d_dx()),
        (3, a, dy), (-3, b, dx)] + _grouped((-3, d, bx, ay), (-1, c, by, cx)))
    return LiouvillePair(l1, l2)


def _grouped(*rows):
    """The kernel terms s f (g - 2 h) of ``rows`` (s, f, g, h), each
    partner one ``__add__``, less those whose factor f is empty."""
    return [(s, f, g.__add__(h, -2)) for s, f, g, h in rows if f._num]


def is_linearizable(st):
    return first_nonzero(liouville(st)) is None


def c_star_action(lam, st):
    """The scaling action on normal forms (A(x), B(x), 0, 1).

    Equals the pullback along (x, y) -> (lam^2 x, lam y); stated
    directly so the weights are visible:  A -> lam^3 A(lam^2 x),
    B -> lam^2 B(lam^2 x).
    """
    lam = Fraction(lam)
    if lam == 0:
        raise ValueError("scale must be nonzero")
    if not (st.C.is_zero() and st.D.agree(Jet2.constant(1, st.order))
            and st.A.is_x_only() and st.B.is_x_only()):
        raise NotInNormalForm("expected (A(x), B(x), 0, 1)")
    sx = Jet2.monomial(1, 0, lam ** 2, st.order)
    a = compose1(st.A, sx).scale(lam ** 3)
    b = compose1(st.B, sx).scale(lam ** 2)
    return ProjectiveStructure(a, b, Jet2.zero(st.order),
                               Jet2.constant(1, st.order))


# --- normal forms ----------------------------------------------------------


def normalize_D1(st):
    """Bring an x-only structure with D(0) != 0 to the form (A, B, 0, 1).

    Returns ``(normalized, germ)`` with ``pullback(germ, st)`` equal to
    the normalized structure.  The reparametrization straightens D to 1,
    then a shift in y removes C.
    """
    if not st.is_x_only():
        raise NotInNormalForm("normalization needs x-only coefficients")
    if not _is_unit(st.D.constant_term):
        raise NotInNormalForm("D must not vanish at the origin")
    psi_inv = st.D.inverse().integrate_x()
    psi = comp_inverse(psi_inv)
    st1 = apply_x_reparam(st, psi)
    _ensure(st1.D.agree(Jet2.constant(1, st.order)), "D becomes 1")
    phi = st1.C.scale(Fraction(-1, 3)).integrate_x()
    st2 = apply_y_shift(st1, phi)
    _ensure(st2.C.is_zero(), "C is removed")
    result = ProjectiveStructure(st2.A, st2.B, Jet2.zero(st.order),
                                 Jet2.constant(1, st.order))
    germ = DiffeoGerm(psi, Jet2.variable("y", st.order) + phi)
    return result, germ


# --- geodesics ----------------------------------------------------------------


def eval_along(f, curve):
    """The univariate jet of x -> f(x, curve(x)).

    ``curve`` is an x-only jet through the origin, where ``f`` is a germ:
    a nonzero rational constant term raises ``NonZeroConstantTerm``.
    """
    return _all_along((f,), curve)[0]


def _all_along(fs, curve):
    """[eval_along(f, curve) for f in fs], for jets f of one order."""
    x = Jet2.variable("x", min(fs[0].order, curve.order))
    return _substitute_all(fs, x, curve)


def geodesic_solve(st, y0, p0):
    """The geodesic through the origin with slope p0, as an x-only jet.

    A height y0 other than 0 raises ``ValueError``: the coefficient jets
    are germs at the origin, and at another height they would be read as
    exact polynomials, with terms above their window taken for zero.  To
    follow the geodesic through (0, y0), expand the coefficients with y
    replaced by y + y0 and solve at height 0.  For a lower order, pass
    ``st.truncated(order)``.

    The coefficients of y are solved online (J. van der Hoeven,
    J. Symbolic Comput. 34 (2002)), degree by degree on the integer
    Taylor data of the rescaled ODE (``_geodesic_coeffs``).  The solver
    returns its Picard pass y -> p0 x + integral^2 of the right-hand side
    along them, once the online coefficients agree with it, so the window
    follows the jet rules.
    """
    if y0 != 0:
        raise ValueError("geodesic_solve starts at the origin, got height %s"
                         % (y0,))
    p0 = Fraction(p0)
    online = _geodesic_coeffs(st, p0, st.order)
    passed = (Jet2.variable("x", st.order).scale(p0)
              + _rhs_along(st, online).integrate_x().integrate_x())
    _ensure(passed.agree(online), "the geodesic solves its Picard pass")
    return passed


def _cauchy(f, g, n, lo=0):
    """sum f_a g_(n-a) over lo <= a <= n: coefficient n of the product of
    two series held as coefficient lists, from the terms known so far."""
    return sum(map(mul, f[lo:n + 1], g[n - lo::-1])) if lo <= n else 0


def _geodesic_coeffs(st, p0, order):
    """The geodesic y(0) = 0, y'(0) = p0 of the rational structure ``st``
    through degree ``order``, solved online, at eff ``order``.

    With delta the lcm of the slot denominators and b the denominator of
    p0, x = s X and y = R Y for s = delta b^2, R = delta b turn
    y'' = sum_k S_k(x, y) y'^k into Y'' = sum_k G_k Y'^k with
    G_k = sum z X^i Y^j and integer z = S_k,ij s^(i+2-k) R^(j+k-1).  The
    lists hold N! times the Taylor coefficients of Y, Y' = P, the powers
    Y^j and P^k and the G_k.  Coefficient n of each needs Y only through
    degree n + 1, and Y_(n+2) = (sum_k G_k P^k)_n / ((n+1)(n+2)).
    """
    top = math.factorial(order)
    den = math.lcm(*(f._den for f in st))
    s, r = den * p0.denominator ** 2, den * p0.denominator
    terms = [[(i, j, n * s ** (i + 2) * r ** (j + k) // (f._den * s ** k * r))
              for (i, j), n in f._num.items()] for k, f in enumerate(st)]
    ys = [0, top * p0.numerator][:order + 1]
    ypow = [[top] + [0] * order, ys]
    ypow += [[] for _ in range(max((j for t in terms for _, j, _ in t),
                                   default=1) - 1)]
    ppow = [None, [], [], []]
    gs = [[], [], [], []]
    for n in range(order - 1):
        ppow[1].append((n + 1) * ys[n + 1])
        for k in (2, 3):
            ppow[k].append(_cauchy(ppow[1], ppow[k - 1], n) // top)
        for j in range(2, len(ypow)):
            ypow[j].append(_cauchy(ys, ypow[j - 1], n, 1) // top)
        for g, t in zip(gs, terms):
            g.append(sum([z * ypow[j][n - i] for i, j, z in t if i <= n]))
        f = gs[0][n] * top + sum(_cauchy(gs[k], ppow[k], n) for k in (1, 2, 3))
        ys.append(f // (top * (n + 1) * (n + 2)))
    return Jet2._new({(i, 0): w * r * s ** (order - i)
                      for i, w in enumerate(ys) if w},
                     top * s ** order, order, order)


def geodesic_residual(st, curve):
    """y'' - (A + B y' + C y'^2 + D y'^3) along the curve; zero for geodesics."""
    return curve.d_dx().d_dx() - _rhs_along(st, curve)


def _rhs_along(st, curve):
    """A + B y' + C y'^2 + D y'^3 along the curve."""
    return _slope_cubic(*_all_along(tuple(st), curve), curve.d_dx())


def _slope_cubic(a, b, c, d, p):
    """a + b p + c p^2 + d p^3 for jets a, b, c, d and p: one kernel sum."""
    p2 = p * p
    return _sum_of_products([(1, a), (1, b, p), (1, c, p2), (1, d, p2 * p)])
