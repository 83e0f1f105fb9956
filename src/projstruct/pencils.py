"""Pencils of foliations and the flat structures they define.

A foliation germ is given by a 1-form P dx + Q dy (not both vanishing
at the origin); a pencil is the family omega_0 + z*omega_inf over
z in P^1, with the two generators independent at the origin.  A
structure is *flat* when its geodesics are exactly the leaves of the
members of such a pencil; :func:`structure_from_pencil` produces the
unique cubic equation with that property, and the z-value of a
geodesic (:func:`member_value_along`) is its first integral.

:func:`foliation_residual` is the residual s_x + s s_y - f(s) of the
slope field s = -P/Q, and the source of every failure detail.
:func:`is_geodesic` decides its vanishing without an inverse: Q is a
unit at the origin (after exchanging the axes for a vertical member),
so it tests the Q^3-cleared numerator

    N = P (P_y Q - P Q_y) - Q (P_x Q - P Q_x)
        - (((A Q - B P) Q + C P^2) Q - D P^3),

which multiplies the structure only by P and Q.  N answers only where
its window covers the residual's.  With e the least ``eff`` of P, Q and
A..D, a term of N below degree e means "not geodesic" (the residual is
known through degree e - 1), an empty N with ``eff >= U`` means "geodesic"
(U = min(min(P.eff, Q.eff + val P) - 1, A.eff) bounds the residual's
``eff`` by the ``Jet2`` rules), and otherwise the residual decides.
"""

from fractions import Fraction

from .errors import DegenerateWedge, VerticalAtOrigin
from .jets import Jet2, _is_unit, _sum_of_products, _sum_window
from .slopes import SlopePoly
from .structures import (ProjectiveStructure, _JetRecord, _all_along,
                         swap_axes)


class _Infinity:
    """Sentinel for the z = infinity member of a pencil."""

    _only = None

    def __new__(cls):
        if cls._only is None:
            cls._only = super().__new__(cls)
        return cls._only

    def __repr__(self):
        return "inf"


INF = _Infinity()


class Foliation(_JetRecord):
    """The foliation with tangent 1-form P dx + Q dy."""

    P: Jet2
    Q: Jet2

    def __post_init__(self):
        super().__post_init__()
        if not (_is_unit(self.P.constant_term) or _is_unit(self.Q.constant_term)):
            raise ValueError("form vanishes at the origin")

    def is_vertical_at_origin(self):
        return not _is_unit(self.Q.constant_term)

    def swapped(self):
        """The same foliation in coordinates with x and y exchanged."""
        return Foliation(self.Q.swap_vars(), self.P.swap_vars())


def slope(fol):
    """Leaf slope field -P/Q; the origin must not be vertical."""
    if fol.is_vertical_at_origin():
        raise VerticalAtOrigin("leaf through the origin is vertical")
    return -fol.P / fol.Q


def _upright(fol, st):
    """``(fol, st)``, with the axes exchanged when ``fol`` is vertical at
    the origin; exchanging them maps geodesics to geodesics."""
    if fol.is_vertical_at_origin():
        return fol.swapped(), swap_axes(st)
    return fol, st


def foliation_residual(fol, st):
    """Second-order residual of the leaves against a structure.

    Zero iff every leaf of the foliation is a geodesic of ``st``.
    Computed for the slope field s = -P/Q as s_x + s s_y - f(x, y, s).
    A foliation vertical at the origin is handled by exchanging the two
    coordinate axes, which maps geodesics to geodesics: the residual is
    then that of ``fol.swapped()`` against ``swap_axes(st)``.
    """
    fol, st = _upright(fol, st)
    s = slope(fol)
    s2 = s * s
    rhs = st.A + st.B * s + st.C * s2 + st.D * (s2 * s)
    return s.d_dx() + s * s.d_dy() - rhs


def _cleared_residual(fol, st):
    """Q^3 times ``foliation_residual(fol, st)`` for a foliation that is
    not vertical at the origin: the numerator

    N = P (P_y Q - P Q_y) - Q (P_x Q - P Q_x)
        - (((A Q - B P) Q + C P^2) Q - D P^3),

    evaluated as Q (P X1 - Q X2) + P (Q Q_x - P Z) with X1 = P_y + B Q
    - C P, X2 = P_x + A Q and Z = Q_y - D P, which multiplies each
    structure slot once, by P or Q.  Each of the six is one kernel sum.
    """
    p, q, (a, b, c, d) = fol.P, fol.Q, st
    one = Jet2.constant(1, p.order)
    x1 = _sum_of_products([(1, p.d_dy(), one), (1, b, q), (-1, c, p)])
    x2 = _sum_of_products([(1, p.d_dx(), one), (1, a, q)])
    z = _sum_of_products([(1, q.d_dy(), one), (-1, d, p)])
    i = _sum_of_products([(1, p, x1), (-1, q, x2)])
    w = _sum_of_products([(1, q, q.d_dx()), (-1, p, z)])
    return _sum_of_products([(1, q, i), (1, p, w)])


def is_geodesic(fol, st):
    """Are all leaves of the foliation geodesics of the structure?

    Tested on N = Q^3 times the residual (``_cleared_residual``) under
    the window rule of the module note; ``foliation_residual`` decides
    what N cannot.
    """
    fol, st = _upright(fol, st)
    p, q = fol
    num = _cleared_residual(fol, st)
    if num.is_zero():
        if num.eff >= min(min(p.eff, q.eff + p._val_bound()) - 1, st.A.eff):
            return True
    elif num._val_bound() < min(fol.eff, st.eff):
        return False
    return foliation_residual(fol, st).is_zero()


class Pencil(_JetRecord):
    omega0: Foliation
    omega_inf: Foliation

    def __post_init__(self):
        super().__post_init__()
        # the constant term of wedge(), read from the four constant terms
        # where the window of the wedge keeps it
        (p0, q0), (pi, qi) = self
        if (_sum_window([(1, p0, qi), (-1, q0, pi)])[1] < 0
                or not _is_unit(p0.constant_term * qi.constant_term
                                - q0.constant_term * pi.constant_term)):
            raise DegenerateWedge("generators proportional at the origin")

    def wedge(self):
        """Coefficient of dx ^ dy in omega0 ^ omega_inf."""
        (p0, q0), (pi, qi) = self
        return _sum_of_products([(1, p0, qi), (-1, q0, pi)])

    @classmethod
    def from_jets(cls, p0, q0, p_inf, q_inf):
        return cls(Foliation(p0, q0), Foliation(p_inf, q_inf))


def member(pencil, z):
    """The foliation omega_0 + z*omega_inf (z rational or INF)."""
    if z is INF:
        return pencil.omega_inf
    z = Fraction(z)
    return Foliation(pencil.omega0.P + pencil.omega_inf.P.scale(z),
                     pencil.omega0.Q + pencil.omega_inf.Q.scale(z))


def structure_from_pencil(pencil):
    """The unique structure whose geodesics are the leaves of the pencil.

    Along a curve with slope p, the member containing it has
    z = -(P0 + Q0 p)/(Pinf + Qinf p); requiring z' = 0 along solutions
    and eliminating z yields a right-hand side that is automatically
    cubic in p, divided by the pencil wedge.
    """
    (p0, q0), (pi, qi) = pencil
    r = SlopePoly([p0, q0])
    s = SlopePoly([pi, qi])
    # total x-derivative of R(x, y, p) holding the f-term apart:
    # R_x + R_y p with R = P + Q p
    dr = SlopePoly([p0.d_dx(), q0.d_dx() + p0.d_dy(), q0.d_dy()])
    ds = SlopePoly([pi.d_dx(), qi.d_dx() + pi.d_dy(), qi.d_dy()])
    top = dr * s - r * ds
    wedge = pencil.wedge()
    return ProjectiveStructure(*(top.coeff(k) / wedge for k in range(4)))


def member_value_along(pencil, curve):
    """The z-value of the pencil member tangent to an x-graph curve.

    For a geodesic of ``structure_from_pencil`` this jet is constant.
    The curve must pass through the origin (a nonzero rational constant
    term raises ``NonZeroConstantTerm``) with a slope at which the
    omega_inf pairing does not vanish.
    """
    yp = curve.d_dx()
    p0, q0, pi, qi = _all_along((*pencil.omega0, *pencil.omega_inf), curve)
    r = p0 + q0 * yp
    s = pi + qi * yp
    return -r / s


def lie_derivative_form(field, fol):
    """Lie derivative of the 1-form along the field, as a (dx, dy) pair.

    For v = a d/dx + b d/dy and omega = P dx + Q dy:
    L_v omega = (v(P) + P a_x + Q b_x) dx + (v(Q) + P a_y + Q b_y) dy.
    The result is returned as a plain pair of jets (it need not define a
    foliation: it can vanish).
    """
    p, q, a, b = fol.P, fol.Q, field.a, field.b
    return tuple(_sum_of_products([(1, a, w.d_dx()), (1, b, w.d_dy()),
                                   (1, p, u), (1, q, v)])
                 for w, u, v in ((p, a.d_dx(), b.d_dx()),
                                 (q, a.d_dy(), b.d_dy())))
