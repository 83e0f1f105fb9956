"""The verification registry: its catalog entries and ``run_case``/``run_all``.

Every entry re-derives, from scratch and in exact rational arithmetic,
the computational content of one catalog statement: that the listed
vector fields are symmetries, that their bracket tables close, that the
stabilized symmetry dimensions match, that each pencil of foliations
induces the stated cubic equation (with its members geodesic and the
pencil parameter a first integral), and that the squared first-order
flatness identities hold after normalization.

Cases that share a shape are data rows run by one of two runners: a
``_PencilEntry`` holds a flat pencil, an ``_AlgebraEntry`` a structure
with its symmetry fields, bracket table and symmetry dimension; the
stabilized and C-unit families of ``sec3.aff`` are two more
``_AlgebraEntry`` rows.  Every field is named once, with its formula, in
``_FIELDS``, or written as its own text row where one family reads it.
What differs between cases stays code: each row's ``extra`` checks, and
the batteries ``affine_family_checks`` (its exponential family, which
solves the alpha-ODE), ``flat_criteria_checks`` (a loop over two D-unit
rows) and ``exotic_sl2_check``; ``_algebra_checks`` builds every
symmetry and bracket check.  Each formula is expression text, parsed
once per process; each identity the paper displays is a row (name, text,
detail) whose text must vanish with its jets bound by name.  Every
"vanishes", in ``is_linearizable`` and ``is_geodesic`` too, is one
``jets.first_nonzero``; counts, ranks and rational ``==`` are not.

Statements that fail mechanically are reported with the
``paper-inconsistent`` verdict together with the computed value — never
silently corrected; measurements carrying no asserted expectation use
``recorded``.  Case ids (``thm31.*``, ``thm41.*``, ``sec3.aff``,
``remark.*``) are the stable vocabulary of the ``verify-paper``
command; rendering lives in :mod:`projstruct.reports`.

Working-order note: dimension counts and invariant-structure solves run
on jets of floor orders 8 and 9, above the degree 7 that each reads (the
order-7 count and the degree-6 solve).  Every structure that a dimension
check reads (the algebra runner's ``wide``, the exponential family's and
``remark.pi0``'s recentred one) and ``exotic_sl2_check``'s fields are
built at ``max(order, floor)`` or above, so that verdicts do not depend on
the report order.  The ``sec3.aff`` exponential family and
``flat_criteria_checks`` work three orders higher, which their formulas
spend (a''' in A; the normalization and B'), so that no identity holds
on an empty window.
"""

import functools
from fractions import Fraction

from .errors import (InadmissibleParameters, NonSquareConstant,
                     NonUnitDivisor, PreconditionViolated, UnknownCase)
from .expressions import expand, parse
from .fields import (VectorField, invariant_structures, lie_bracket, residual,
                     symmetry_dim)
from .jets import (DEFAULT_ORDER, Jet2, _is_unit, comp_inverse, compose1,
                   exp_series, first_nonzero)
from .linalg import rank
from .pencils import (INF, Foliation, Pencil, foliation_residual, is_geodesic,
                      lie_derivative_form, member, member_value_along,
                      structure_from_pencil)
from .records import Record
from .reports import (INCONSISTENT, PASS, CaseReport, CheckResult, failed,
                      leading_term, passed, recorded, zero_check)
from .structures import (DiffeoGerm, LiouvillePair, ProjectiveStructure,
                         c_star_action, geodesic_solve, liouville,
                         normalize_D1, pullback)

# Jet orders for the two linear-algebra solves (see module note).
_DIM_FLOOR = 8
_INV_FLOOR = 9

# The homogeneous model (0, 1/2, 0, e^{-2x}) with its three symmetries.
_HOMOGENEOUS = ("0", "1/2", "0", "exp(-2*x)")


# --- small builders --------------------------------------------------------

def _frac(env, key):
    return Fraction(env[key])


_parsed = functools.cache(parse)  # each text of this module, once


def _jet(text, env, order):
    return expand(_parsed(text), env, order)


def _structure(order, env, *texts):
    return ProjectiveStructure(*(_jet(t, env, order) for t in texts))


def _field(order, a, b, env=None):
    return VectorField(_jet(a, env, order), _jet(b, env, order))


def _nodal_cubic(a, b):
    return 27 * a ** 2 + 4 * b ** 3 - 12 * b ** 2 + 9 * b - 2


# --- shared check builders --------------------------------------------------

def _identity_check(row, env, order):
    """Pass when the text of ``row`` (name, text, detail) vanishes.  A row
    with a fourth part, a note, is an identity as the paper states it,
    paper-inconsistent with that note where its text does not vanish."""
    name, text, detail, *note = row
    jet = _jet(text, env, order)
    if not note:
        return zero_check(name, jet, detail)
    if (stated := first_nonzero(jet)) is None:
        return passed(name, detail + " = 0 at this sample")
    return CheckResult(name, INCONSISTENT, leading_term(stated[1]),
                       "%s does not vanish; %s" % (detail, *note))


def _algebra_checks(st, named, brackets, prefix="", more=()):
    """``prefix`` + "symmetry:" checks per ``named`` row (name, field[,
    detail]) of ``st``, then a "bracket:" check per ``brackets`` row (label,
    i, j, k): [F_i, F_j] = F_k, the F the named fields and then ``more``."""
    fields = [field for _, field, *_ in named] + list(more)
    return ([zero_check(prefix + "symmetry:" + name,
                        residual(field, st).coeffs, *detail)
             for name, field, *detail in named]
            + [_agree_check(prefix + "bracket:" + label,
                            lie_bracket(fields[i], fields[j]), fields[k])
               for label, i, j, k in brackets])


def _agree_check(name, got, want, detail=""):
    """Pass when the records ``got`` and ``want`` agree in each jet slot."""
    return zero_check(name, (g - w for g, w in zip(got, want)), detail,
                      got._fields)


def _dim_check(name, st, expected, detail=""):
    dims = symmetry_dim(st)
    where = "field orders %d/%d" % (dims.low_order, dims.high_order)
    if detail:
        where = "%s; %s" % (detail, where)
    if not dims.stabilized:
        return failed(name, "%d/%d" % (dims.dim_low, dims.dim_high),
                      "dimension did not stabilize (%s)" % where)
    if dims.value != expected:
        return failed(name, str(dims.value),
                      "measured %d, expected %d (%s)" % (dims.value, expected, where))
    return passed(name, "stabilized at %d (%s)" % (expected, where))


_MEMBER_SAMPLES = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2), INF)
_SLOPE_CANDIDATES = (Fraction(1, 5), Fraction(1, 2), Fraction(2),
                     Fraction(-1, 3), Fraction(3))


def _not_linearizable_check(pair, detail):
    """Pass when the obstruction ``pair`` does not vanish."""
    return (passed("not-linearizable", detail)
            if first_nonzero(pair) is not None else failed("not-linearizable"))


def _cubic_point_check(point, detail):
    """Pass when ``point`` (a, b) lies on the nodal cubic."""
    value = _nodal_cubic(*point)
    return (passed("cubic-point", detail) if value == 0
            else failed("cubic-point", str(value)))


def _first_integral_check(pen, st):
    qi = pen.omega_inf.Q.constant_term
    pi = pen.omega_inf.P.constant_term
    p0 = next(p for p in _SLOPE_CANDIDATES if pi + qi * p != 0)
    curve = geodesic_solve(st, Fraction(0), p0)
    z = member_value_along(pen, curve)
    return zero_check(
        "first-integral", z - Jet2.constant(z.constant_term, z.order),
        "z = %s stays constant along the geodesic y(0) = 0, y'(0) = %s"
        % (z.constant_term, p0))


def _lie_factor_check(name, field, pen, row0, rowi):
    parts = []
    for fol, (c0, ci), tag in ((pen.omega0, row0, "omega_0"),
                               (pen.omega_inf, rowi, "omega_inf")):
        dp, dq = lie_derivative_form(field, fol)
        ep = pen.omega0.P.scale(c0) + pen.omega_inf.P.scale(ci)
        eq = pen.omega0.Q.scale(c0) + pen.omega_inf.Q.scale(ci)
        factor = "%s*omega_0 + %s*omega_inf" % (c0, ci)
        check = zero_check(name, (dp - ep, dq - eq),
                           "L_v %s != %s" % (tag, factor))
        if check.verdict != PASS:
            return check
        parts.append("L_v %s = %s" % (tag, factor))
    return passed(name, "; ".join(parts))


# --- standalone verification ops ---------------------------------------------

def _curve_point(gamma):
    """The nodal curve's point (gamma (2 gamma^2 - 1), 2 - 3 gamma^2)."""
    return gamma * (2 * gamma * gamma - 1), 2 - 3 * gamma * gamma


def cubic_curve_residual(gamma):
    """27 a^2 + 4 b^3 - 12 b^2 + 9 b - 2 at the curve point for ``gamma``.

    The value is identically zero in gamma (a degree-6 identity).
    """
    return _nodal_cubic(*_curve_point(Fraction(gamma)))


# The quartic alpha-ODE: the exponential sub-battery's first identity row.
_ALPHA_ODE_ROW = (
    "exponential:ode-residual",
    "c^4*(alpha*d_dx(d_dx(alpha)) - d_dx(alpha)^2)"
    " - 3*c^2*(alpha*d_dx(d_dx(d_dx(alpha)))"
    " - d_dx(alpha)*d_dx(d_dx(alpha)))"
    " + d_dx(alpha)*d_dx(d_dx(d_dx(alpha)))"
    " - 3*d_dx(d_dx(alpha))^2"
    " + 2*alpha*d_dx(d_dx(d_dx(d_dx(alpha))))",
    "the Picard solution satisfies the quartic ODE")


def alpha_ode_solve(c, jet3, order=DEFAULT_ORDER):
    """Series solution of the quartic coefficient ODE

        c^4 (a a'' - a'^2) - 3 c^2 (a a''' - a' a'')
            + 2 a a'''' + a' a''' - 3 a''^2 = 0

    with prescribed 3-jet ``jet3 = (a(0), a'(0), a''(0), a'''(0))``;
    a(0) must be a unit.  The solution is closed form: for every cubic Q,
    a = e^(c^2 x/3) Q(z)^(-2/3) with z' = Q(z) solves the ODE, so
    (ln a)' = c^2/3 - (2/3) Q'(z).  z straightens the exponential
    symmetry: e^{cy}(alpha d_dx + beta d_dy) is e^{cY} d_dz for
    Y = y + h(x), h' = -(u - c^2)/(2c) and u = a'/a.  The 3-jet gives
    u0, u1, u2, the values at 0 of u, u' and u'', and Q = 1 + q1 z
    + q2 z^2 + q3 z^3 has q1 = (c^2 - 3 u0)/2, q2 = -3 u1/4 and
    q3 = -(3 u2/2 + 2 q1 q2)/6.  So z reverts the integral of 1/Q, and
    a = a(0) exp of the integral of c^2/3 - (2/3) Q'(z).  The form comes
    from two Darboux polynomials of the ODE with one cofactor (M. Prelle
    and M. Singer, Trans. AMS 279 (1983)).
    """
    c = Fraction(c)
    a0, a1, a2, a3 = (Fraction(v) for v in jet3)
    if a0 == 0:
        raise PreconditionViolated("alpha(0) must be a unit")
    u0 = a1 / a0
    u1 = a2 / a0 - u0 * u0
    u2 = a3 / a0 - 3 * u0 * u1 - u0 ** 3
    q1 = (c * c - 3 * u0) / 2
    q2 = -3 * u1 / 4
    q3 = -(3 * u2 / 2 + 2 * q1 * q2) / 6
    n = max(order, 1)  # at order 0, z has no linear term to revert
    q = Jet2.from_terms({(0, 0): 1, (1, 0): q1, (2, 0): q2, (3, 0): q3}, n)
    z = comp_inverse(q.inverse().integrate_x())
    log_a = (compose1(q.d_dx(), z).scale(Fraction(-2, 3))
             + c * c / 3).integrate_x()
    # a(0) at the working order refuses a negative one, and cuts order 1 to 0
    return Jet2.constant(a0, order) * exp_series(log_a)


# The exponential member (A, B, 0, 1) of a solution alpha of the quartic
# ODE, and the relations the paper displays for it.
_EXPONENTIAL_MEMBER = (
    "(d_dx(d_dx(d_dx(alpha))) - c^4*d_dx(alpha))/(4*c^3*alpha)",
    "-(3*d_dx(d_dx(alpha)) + c^4*alpha)/(4*c^2*alpha)", "0", "1")
_EXPONENTIAL_IDENTITIES = (
    ("exponential:A-prime-relation",
     "6*(B + c^2)*d_dx(A) - (27*c*A^2 + 9*A*d_dx(B)"
     " - 3*c*(B + c^2)*d_dx(B) + c*(4*B + c^2)*(B + c^2)^2)",
     "6 (B + c^2) A' equals the stated polynomial in (A, B, B')"),
    ("exponential:B-second-relation",
     "6*(B + c^2)*d_dx(d_dx(B)) + 27*c*A*(c*A - d_dx(B)) - 12*d_dx(B)^2"
     " - 9*c^2*(B + c^2)*d_dx(B) + c^2*(4*B + c^2)*(B + c^2)^2",
     "6 (B + c^2) B'' equals the stated polynomial in (A, B, B')"),
    ("exponential:alpha-log-derivative",
     "d_dx(alpha)*(B + c^2) + (3*c*A + d_dx(B))*alpha",
     "alpha'/alpha = -(3 c A + B')/(B + c^2)"),
)


def affine_family_checks(env, order=DEFAULT_ORDER):
    """Re-derive the two-parameter families with a 2-dimensional algebra.

    Three sub-batteries: the stabilized family
    (gamma0 (1+x)^{-3/2}, delta0 (1+x)^{-1}, 0, 1) with its radial
    symmetry; the exponential family built from the quartic alpha-ODE
    (symmetry e^{cy}(alpha d_dx + beta d_dy)); and the C-unit variant
    (alpha0 e^{-x}, 0, e^x, 0) with symmetry -d_dx + (y + c) d_dy.
    """
    why = _adm_sec3_aff(env, order)
    if why:
        raise InadmissibleParameters(why)
    checks = _STABILIZED_FAMILY(env, order, "stabilized:")
    c = _frac(env, "c")
    a_jet3 = (1, _frac(env, "a1"), _frac(env, "a2"), _frac(env, "a3"))

    def exponential_member(n):
        al = alpha_ode_solve(c, a_jet3, n)
        return al, _structure(n, {"alpha": al, "c": c}, *_EXPONENTIAL_MEMBER)

    n = order + 3  # the member's A spends three orders on alpha'''
    al, pi = exponential_member(n)
    bound = {"alpha": al, "c": c, "A": pi.A, "B": pi.B}
    Xn = _field(n, *_FIELDS["d_dy"])
    checks.append(_identity_check(_ALPHA_ODE_ROW, bound, n))
    vexp = _field(n, "exp(c*y)*alpha",
                  "exp(c*y)*(d_dx(alpha) - c^2*alpha)/(2*c)", bound)
    cv = VectorField(vexp.a.scale(c), vexp.b.scale(c))
    checks += _algebra_checks(
        pi, (("v", vexp, "v = e^{cy}(alpha d_dx + beta d_dy), "
                         "beta = (alpha' - c^2 alpha)/(2c)"), ("d_dy", Xn)),
        (("[d_dy,v]=c*v", 1, 0, 2),), "exponential:", (cv,))
    checks += [_identity_check(row, bound, n)
               for row in _EXPONENTIAL_IDENTITIES]
    wide = exponential_member(_DIM_FLOOR + 3)[1] if order < _DIM_FLOOR else pi
    checks.append(_dim_check("exponential:symmetry-dimension", wide, 2))
    return checks + _EXP_C_FAMILY(env, order, "exp-C:")


def ib_flattening_germ(st):
    """Flattening coordinate change for a structure (A, 0, C, 0), C a unit.

    The reparametrization psi = x + O(x^3) solves

        psi''' = (3/2) psi''^2/psi' + psi' psi'' q(psi) - 2 m(psi) psi'^3,

    q = C'/C and m = A C: for the Schwarzian S, S(psi) = psi'' q(psi)
    - 2 m(psi) psi'^2.  As S(chi o psi) = S(chi)(psi) psi'^2 + S(psi), the
    inverse chi of psi has S(chi) = q chi''/chi' + 2m, and chi' = v^-2
    (S(chi) = -2 v''/v) makes that linear: (v'/C)' = -A v, v(0) = 1,
    v'(0) = 0 (V. Ovsienko and S. Tabachnikov, *Projective Differential
    Geometry Old and New*, CUP 2005, ch. 1).  v is summed as the Neumann
    series 1 + int C int (-A v) through its first term that vanishes
    within its window, and psi reverts chi = int v^-2.  Only the x-only
    parts of A and C count.  A y-shift then removes the B-slot, leaving a
    structure of the form (0, 0, C2(x), 0).
    """
    order = st.order
    if order < 2:
        raise ValueError("ib_flattening_germ needs order >= 2, got %d" % order)
    a, c = (Jet2._new({(i, 0): n for (i, j), n in f._num.items() if not j},
                      f._den, f.order, f.eff) for f in (-st.A, st.C))
    if not _is_unit(c0 := c.constant_term):
        raise NonUnitDivisor("constant term %r is not invertible" % (c0,))
    v = term = Jet2.constant(1, order)
    while not term.is_zero():
        term = (c * (a * term).integrate_x()).integrate_x()
        v = v + term
    psi = comp_inverse((v * v).inverse().integrate_x())
    c1 = compose1(c, psi)
    b1 = psi.d_dx().d_dx() / psi.d_dx()
    phi = (-b1 / c1.scale(2)).integrate_x()
    return DiffeoGerm(psi, Jet2.variable("y", order) + phi)


# The D-unit pencil families normalized to (A, B, 0, 1), u = g' o psi for
# the first; its squared identity as stated has the coefficient 3, not 27.
_IA1_IDENTITIES = (
    ("ia1:normalized-B", "B + (u^2 - u + 1)/3",
     "B = -(u^2 - u + 1)/3 with u = g' o psi"),
    ("ia1:normalized-A", "A - d_dx(u)/3 - (u + 1)*(2*u - 1)*(u - 2)/27",
     "A = u'/3 + (u+1)(2u-1)(u-2)/27 with u = g' o psi"),
    ("ia1:squared-identity-as-stated",
     "3*(4*B + 1)*A^2 + (4*B^2 + 5*B - 3*d_dx(B) + 1)^2",
     "3 (4B+1) A^2 + (4B^2 + 5B - 3B' + 1)^2",
     "the leading coefficient must be 27"),
    ("ia1:squared-identity-corrected",
     "27*(4*B + 1)*A^2 + (4*B^2 + 5*B - 3*d_dx(B) + 1)^2",
     "27 (4B+1) A^2 + (4B^2 + 5B - 3B' + 1)^2 = 0"),
)
_IA2_IDENTITIES = (
    ("ia2:normalized-B", "B + d_dx(g)^2/3", "B = -g'^2/3 after normalization"),
    ("ia2:normalized-A", "A - 2*d_dx(g)^3/27 - d_dx(d_dx(g))/3",
     "A = 2 g'^3/27 + g''/3 after normalization"),
    ("ia2:squared-identity", "108*B*A^2 + (4*B^2 - 3*d_dx(B))^2",
     "108 B A^2 + (4B^2 - 3B')^2 = 0"),
)
# One row per family: the case of its pencil, the sample key of g, whether
# its texts read u, its identity rows and its root check (``_root_check``).
_D_UNIT_ROWS = (
    ("thm41.i.a.1", "g1", True, _IA1_IDENTITIES,
     ("ia1:root-reconstruction", "sqrt(-3*(4*B + 1))", "2*u - 1",
      "f' = (1 +- sqrt(-3(4B+1)))/2 satisfies B = f' - (1+f')^2/3")),
    ("thm41.i.a.2", "g2", False, _IA2_IDENTITIES,
     ("ia2:root-reconstruction", "sqrt(-3*B)", "d_dx(g)",
      "sqrt(-3B) = +- g'")),
)


def _root_check(row, env, order):
    """Pass when root - w or root + w vanishes, for the texts of ``row``
    (name, root, w, detail); recorded when the root is not rational."""
    name, root, want, detail = row
    try:
        root, want = _jet(root, env, order), _jet(want, env, order)
    except NonSquareConstant:
        return recorded(name, "identity verified, root not rational")
    if first_nonzero(root - want) and first_nonzero(root + want):
        return failed(name, leading_term(root - want))
    return passed(name, detail)


def flat_criteria_checks(env, order=DEFAULT_ORDER):
    """Squared first-order flatness identities after normalization.

    The structures induced by the two D-unit pencil families are
    normalized to (A, B, 0, 1) and the squared criteria are evaluated.
    The 3-coefficient variant of the first identity does not vanish
    (its computed obstruction is reported; the coefficient must be 27);
    when a discriminant's constant term is a rational square the slope
    root is reconstructed and checked against the generating function.
    The C-unit family is flattened outright and its pencil rebuilt.
    """
    why = _adm_remark_flat(env, order)
    if why:
        raise InadmissibleParameters(why)
    # The squared identities spend three orders: B' and the normalization.
    order += 3
    checks = []
    for case_id, key, reads_u, rows, root_row in _D_UNIT_ROWS:
        g = {"g": env[key]}
        pen = CASES[case_id].runner.pencil(g, order)
        nf, germ = normalize_D1(structure_from_pencil(pen))
        bound = {**g, "A": nf.A, "B": nf.B}
        if reads_u:
            bound["u"] = compose1(_jet("d_dx(g)", g, order), germ.u)
        checks += [_identity_check(row, bound, order) for row in rows]
        checks.append(_root_check(root_row, bound, order))

    stc = _structure(order, env, "a_ib", "0", "exp(x)", "0")
    flat = pullback(ib_flattening_germ(stc), stc)
    checks.append(zero_check(
        "ib:reduction-to-C-only", (flat.A, flat.B, flat.D),
        "the psi''' equation and a y-shift empty the A, B, D slots"))
    zero, one = Jet2.zero(order), Jet2.constant(1, order)
    pen3 = Pencil(Foliation(one, flat.C.integrate_x()), Foliation(zero, one))
    checks.append(_agree_check(
        "ib:pencil-roundtrip", structure_from_pencil(pen3), flat,
        "the pencil dx + (int C) dy, dy regenerates the flattened structure"))
    return checks


def exotic_sl2_check(c1, c2, order=DEFAULT_ORDER):
    """Checks for the twisted sl2 triple with parameters (c1, c2).

    X = d_dy, Y = d_dx + y d_dy and
    Z = (y + c1 e^x) d_dx + (y^2/2 + c2 e^{2x}) d_dy close to the same
    bracket table for every (c1, c2).  For (0, 0) the structures they
    preserve form a one-parameter family containing the homogeneous
    model; for any twisted triple the preserved structure is unique and
    flat, so the twist realizes no new geometry.
    """
    c1, c2 = Fraction(c1), Fraction(c2)
    w = max(order, _INV_FLOOR)
    env = {"c1": c1, "c2": c2}
    X = _field(w, *_FIELDS["d_dy"])
    Y = _field(w, *_FIELDS["d_dx+y*d_dy"])
    Z = _field(w, "y + c1 * exp(x)", "y^2/2 + c2 * exp(2*x)", env)
    checks = _algebra_checks(None, (), _SL2_BRACKETS, more=(X, Y, Z))
    inv = invariant_structures([X, Y, Z], degree=6)
    if not inv.consistent:
        checks.append(failed("invariant-dimension", "0",
                             "no structure is preserved by the triple"))
        return checks
    dim, untwisted = inv.dimension, (c1, c2) == (0, 0)
    want, shown, why = (
        (1, "a one-parameter family is preserved", "expected dimension 1")
        if untwisted else (0, "the preserved structure is an isolated point",
                           "expected an isolated invariant structure"))
    checks.append(passed("invariant-dimension", shown) if dim == want
                  else failed("invariant-dimension", str(dim), why))
    if untwisted:
        model = _structure(w, None, *_HOMOGENEOUS)
        checks.append(passed("contains-homogeneous-model",
                             "(0, 1/2, 0, e^{-2x}) lies in the family")
                      if inv.contains(model) else
                      failed("contains-homogeneous-model"))
    elif dim == 0:
        checks.append(zero_check(
            "unique-structure-linearizable",
            liouville(ProjectiveStructure(*inv.particular)),
            "the single preserved structure is flat; the twisted "
            "triple realizes no new geometry"))
    return checks


# --- the catalogue rows ----------------------------------------------------

# Every named symmetry field: check name -> (d/dx, d/dy) coefficients.
_FIELDS = {
    "d_dx": ("1", "0"),
    "d_dy": ("0", "1"),
    "x*d_dx": ("x", "0"),
    "y*d_dx": ("y", "0"),
    "x*d_dy": ("0", "x"),
    "y*d_dy": ("0", "y"),
    "x*(x*d_dx+y*d_dy)": ("x^2", "x*y"),
    "y*(x*d_dx+y*d_dy)": ("x*y", "y^2"),
    "d_dx+y*d_dy": ("1", "y"),
    "y*d_dx+y^2/2*d_dy": ("y", "y^2/2"),
    "-x/2*d_dx+y/2*d_dy": ("-x/2", "y/2"),
    "-y/2*d_dx": ("-y/2", "0"),
}


def _no_extra(*_):
    return []


class _AlgebraEntry(Record):
    """One symmetry-algebra case as data; calling it runs the case.

    The structure ``quadruple`` is expression text in the sample's
    environment; each of ``fields`` names a symmetry in ``_FIELDS`` or is
    its own row (name, a, b, detail) of text in that environment, and
    each ``brackets`` row (label, i, j, k) states [F_i, F_j] = F_k.  Then
    come ``extra(env, order, st, fields, wide)``, where ``wide`` is the
    structure at the dimension floor, and last the check that the
    symmetry dimension is ``dim`` (None: ``extra`` states it).  The
    symmetry, bracket and dimension checks are named after ``prefix``.
    """

    quadruple: tuple
    fields: tuple
    brackets: tuple = ()
    dim: object = None
    extra: object = _no_extra

    def __call__(self, env, order, prefix=""):
        st = _structure(order, env, *self.quadruple)
        wide = (st if order >= _DIM_FLOOR
                else _structure(_DIM_FLOOR, env, *self.quadruple))
        named = [(row, _field(order, *_FIELDS[row])) if isinstance(row, str)
                 else (row[0], _field(order, row[1], row[2], env), row[3])
                 for row in self.fields]
        checks = _algebra_checks(st, named, self.brackets, prefix)
        checks += self.extra(env, order, st, [f for _, f, *_ in named], wide)
        if self.dim is not None:
            checks.append(_dim_check(prefix + "symmetry-dimension", wide,
                                     self.dim))
        return checks


class _PencilEntry(Record):
    """One flat-pencil case as data; calling it runs the case.

    Pencil ``forms`` (P0, Q0, Pinf, Qinf), induced ``quadruple`` and
    Lie-factor rows are expression text in the sample's environment.
    ``symmetries`` rows (name, row0, row_inf) name their field in
    ``_FIELDS``; row0 = (a, b) states L_v omega_0 = a*omega_0 +
    b*omega_inf, and row_inf likewise for omega_inf.  The checks every
    pencil shares come first, then ``extra(env, order)``.
    """

    forms: tuple
    quadruple: tuple
    symmetries: tuple
    extra: object = _no_extra

    def pencil(self, env, order):
        return Pencil.from_jets(*(_jet(t, env, order) for t in self.forms))

    def __call__(self, env, order):
        def row(texts):
            return tuple(_jet(t, env, order).constant_term for t in texts)

        pen = self.pencil(env, order)
        # a Pencil with a wedge that is not a unit is refused at construction
        checks = [passed("wedge-unit",
                         "wedge leading term %s" % leading_term(pen.wedge()))]
        st = structure_from_pencil(pen)
        checks.append(_agree_check(
            "derived-structure", st, _structure(order, env, *self.quadruple),
            "the pencil induces the listed coefficient quadruple"))
        bad = [z for z in _MEMBER_SAMPLES
               if not is_geodesic(member(pen, z), st)]
        if bad:
            res = foliation_residual(member(pen, bad[0]), st)
            checks.append(failed("members-geodesic", leading_term(res),
                                 "failing members z in {%s}"
                                 % ", ".join(str(z) for z in bad)))
        else:
            checks.append(passed("members-geodesic",
                                 "z in {0, 1, -1, 2, inf}"))
        checks.append(_first_integral_check(pen, st))
        for name, r0, ri in self.symmetries:
            field = _field(order, *_FIELDS[name])
            checks.append(_lie_factor_check("pencil-symmetry:%s" % name,
                                            field, pen, row(r0), row(ri)))
            checks += _algebra_checks(st, [(name, field)], ())
        return checks + self.extra(env, order)


_SL2_BRACKETS = (("[X,Y]=X", 0, 1, 0), ("[X,Z]=Y", 0, 2, 1),
                 ("[Y,Z]=Z", 1, 2, 2))
_ZERO_ROW = ("0", "0")

# sec3.aff's stabilized and C-unit families (see ``affine_family_checks``).
_STABILIZED_FAMILY = _AlgebraEntry(
    ("gamma0 * (1 + x)^(-3/2)", "delta0 * (1 + x)^(-1)", "0", "1"),
    ("d_dy", ("v", "2 * (1 + x)", "y + beta0",
              "v = 2(1+x) d_dx + (y + beta0) d_dy")),
    (("[d_dy,v]=d_dy", 0, 1, 0),), 2)
_EXP_C_FAMILY = _AlgebraEntry(
    ("ib_alpha0 * exp(-x)", "0", "exp(x)", "0"),
    (("v", "-1", "y + ib_c", "v = -d_dx + (y + ib_c) d_dy"), "d_dy"),
    (("[d_dy,v]=d_dy", 1, 0, 1),), 2)


# --- what differs between rows ---------------------------------------------

def _thm31_ia_extra(env, order, st, fields, wide):
    want = LiouvillePair(st.A.d_dx().scale(-3), st.B.d_dx().scale(-3))
    checks = [_agree_check("liouville-map", liouville(st), want,
                           "(L1, L2) = (-3A', -3B')")]
    for lam in (Fraction(2), Fraction(1, 3)):
        germ = DiffeoGerm(*(_jet(t, {"lam": lam}, order)
                            for t in ("lam^2*x", "lam*y")))
        checks.append(_agree_check(
            "scaling-action:lambda=%s" % lam, pullback(germ, st),
            c_star_action(lam, st),
            "pullback along (lam^2 x, lam y) realizes the weighted scaling"))
    return checks


def _adm_thm31_ib(env, order):
    if first_nonzero(_jet("d_dx(A*exp(x))", env, order)) is None:
        return ("A e^x is constant, so the structure gains a second "
                "symmetry (exponential family)")
    return None


def _thm31_ib_extra(env, order, st, fields, wide):
    pair = liouville(st)
    want = LiouvillePair(-st.C, _jet("2*exp(2*x)", None, order))
    return [
        _agree_check("liouville-computed", pair, want,
                     "the computed pair is (-e^x, 2 e^{2x}) for every A"),
        CheckResult(
            "liouville-as-displayed", INCONSISTENT, leading_term(pair.L1),
            "displayed pairs (0, 2 e^{2x}) and (-e^{-x}, -2 e^{-2x}) "
            "disagree with each other and with the computed "
            "(-e^x, 2 e^{2x})"),
        _not_linearizable_check(
            pair, "the pair never vanishes, so no member is flat")]


def _adm_thm31_iia(env, order):
    a, b = _frac(env, "alpha"), _frac(env, "beta")
    if (a, b) == (0, 2):
        return "(alpha, beta) = (0, 2) is the flat member (see thm41.iv)"
    if (a, b) == (0, Fraction(1, 2)):
        return ("(alpha, beta) = (0, 1/2) is the three-symmetry model "
                "(see thm31.iii)")
    return None


def _thm31_iia_extra(env, order, st, fields, wide):
    value = _nodal_cubic(_frac(env, "alpha"), _frac(env, "beta"))
    on_curve = value == 0
    checks = [recorded(
        "cubic-locus",
        "27 a^2 + 4 b^3 - 12 b^2 + 9 b - 2 = %s%s"
        % (value, "; the member lies on the nodal curve and carries a "
                  "flat pencil" if on_curve else ""))]
    if on_curve:
        dims = symmetry_dim(wide)
        checks.append(recorded(
            "symmetry-dimension",
            "measured %s/%s on the nodal curve (recorded, not asserted)"
            % (dims.dim_low, dims.dim_high)))
    else:
        checks.append(_dim_check("symmetry-dimension", wide, 2))
    return checks


_JET2_MONOS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def _thm31_iv_extra(env, order, st, fields, wide):
    rows = [[part.coeff(i, j) for part in (f.a, f.b) for (i, j) in _JET2_MONOS]
            for f in fields]
    got = rank(rows, 2 * len(_JET2_MONOS))
    return [passed("fields-independent", "the eight 2-jets have rank 8")
            if got == 8 else failed("fields-independent", str(got))]


_CUBIC_POINTS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
                 Fraction(-1, 2), Fraction(2), Fraction(1, 3))


def _cubic_identity_check():
    bad = [g for g in _CUBIC_POINTS if cubic_curve_residual(g) != 0]
    if bad:
        return failed("cubic-identity", str(cubic_curve_residual(bad[0])),
                      "nonzero at gamma = %s" % bad[0])
    return passed("cubic-identity",
                  "a degree-6 polynomial vanishing at 7 points vanishes "
                  "identically")


def _adm_thm41_iia(env, order):
    if _frac(env, "gamma") == 0:
        return "gamma = 0 induces the flat excluded member (see thm41.iv)"
    return None


def _thm41_iia_extra(env, order):
    point = _curve_point(_frac(env, "gamma"))
    return [_cubic_point_check(
                point, "(a, b) = (%s, %s) lies on the nodal curve" % point),
            _cubic_identity_check()]


def _adm_thm41_iib1(env, order):
    if _frac(env, "lam") == 0:
        return ("lam = 0 makes the two generating forms proportional "
                "(degenerate wedge)")
    return None


def _thm41_iii_extra(env, order, st, fields, wide):
    family = CASES["thm31.ii.a"].runner.quadruple
    return [
        _cubic_point_check((Fraction(0), Fraction(1, 2)),
                           "the limit values (a, b) = (0, 1/2) satisfy the "
                           "nodal cubic equation"),
        _agree_check(
            "limit-structure", st,
            _structure(order, {"alpha": "0", "beta": "1/2"}, *family),
            "the exponential-family expressions at (0, 1/2) give the "
            "three-symmetry model"),
        recorded("no-rational-pencil",
                 "the curve parameter solves 2 gamma^2 = 1, which has no "
                 "rational root; the member is reached only through the "
                 "limit values (0, 1/2) on the nodal curve")]


def _thm41_iv_extra(env, order):
    gamma0, family = {"gamma": "0"}, CASES["thm41.ii.a"].runner
    pen0 = family.pencil(gamma0, order)
    want0 = _structure(order, gamma0, *family.quadruple)
    return [_agree_check(
                "gamma-zero-pencil", structure_from_pencil(pen0), want0,
                "the gamma = 0 exponential pencil induces the excluded "
                "(0, 2) member"),
            zero_check("excluded-member-flat", liouville(want0),
                       "(0, 2, 0, e^{-2x}) has a vanishing obstruction pair")]


def _adm_sec3_aff(env, order):
    c = _frac(env, "c")
    if c == 0:
        return "c = 0 collapses the exponential symmetry"
    if _frac(env, "a2") == c ** 4:
        return ("alpha''(0) = c^4 makes B(0) + c^2 = 0, excluded by the "
                "nondegeneracy hypothesis")
    return None


def _adm_remark_flat(env, order):
    if _jet("g1", env, order).constant_term == 0:
        return "g(0) = 0 makes the induced D-slot vanish at the origin"
    return None


def _run_remark_exotic(env, order):
    return exotic_sl2_check(env["c1"], env["c2"], order)


def _remark_pi0_extra(env, order, st, fields, wide):
    vanish = all(f.a.constant_term == 0 and f.b.constant_term == 0
                 for f in fields)
    shifted = ("-(y + 1)^3", "3*x*(y + 1)^2", "-3*x^2*(y + 1)", "x^3")
    return [
        passed("algebra-singular-at-origin",
               "all three fields vanish at the origin")
        if vanish else failed("algebra-singular-at-origin"),
        _not_linearizable_check(liouville(st),
                                "the obstruction pair is nonzero"),
        _dim_check("symmetry-dimension", wide, 3),
        _dim_check("symmetry-dimension-shifted",
                   _structure(max(order, _DIM_FLOOR), None, *shifted), 3,
                   "recentered at (0, 1), away from the singular point")]


# --- the registry ------------------------------------------------------------

class CaseRecord(Record):
    """One catalog entry: id, title, sanctioned samples and a runner.

    ``samples`` is a tuple of parameter environments (string values);
    the first entry is the default.  ``admissible`` maps an environment
    to a refusal message, or None when the parameters are fine.
    """

    id: str
    title: str
    samples: tuple
    runner: object
    admissible: object = None

    def check_admissible(self, env, order):
        if self.admissible is None:
            return
        why = self.admissible(env, order)
        if why:
            raise InadmissibleParameters("%s: %s" % (self.id, why))


_RECORDS = (
    CaseRecord(
        "thm31.i.a",
        "normal form (A(x), B(x), 0, 1): one vertical translation symmetry",
        ({"A": "x", "B": "0"},
         {"A": "1 + x", "B": "x^2"},
         {"A": "x - x^2/2", "B": "1/3 + x"}),
        _AlgebraEntry(("A", "B", "0", "1"), ("d_dy",), (), 1,
                      _thm31_ia_extra)),
    CaseRecord(
        "thm31.i.b",
        "normal form (A(x), 0, e^x, 0): one symmetry, never flat",
        ({"A": "x"}, {"A": "1 - x/3"}, {"A": "x^2/2"}),
        _AlgebraEntry(("A", "0", "exp(x)", "0"), ("d_dy",), (), 1,
                      _thm31_ib_extra),
        _adm_thm31_ib),
    CaseRecord(
        "thm31.ii.a",
        "normal form (a e^x, b, 0, e^{-2x}): affine symmetry pair",
        ({"alpha": "1", "beta": "0"},
         {"alpha": "2", "beta": "-1"},
         {"alpha": "-1/2", "beta": "1/3"},
         {"alpha": "1", "beta": "-1"}),
        _AlgebraEntry(("alpha * exp(x)", "beta", "0", "exp(-2*x)"),
                      ("d_dy", "d_dx+y*d_dy"), _SL2_BRACKETS[:1], None,
                      _thm31_iia_extra),
        _adm_thm31_iia),
    CaseRecord(
        "thm31.ii.b",
        "normal form (a e^x, 0, e^{-x}, 0): affine symmetry pair",
        ({"alpha": "1"}, {"alpha": "-2"}, {"alpha": "1/3"}),
        _AlgebraEntry(("alpha * exp(x)", "0", "exp(-x)", "0"),
                      ("d_dy", "d_dx+y*d_dy"), _SL2_BRACKETS[:1], 2)),
    CaseRecord(
        "thm31.iii",
        "homogeneous model (0, 1/2, 0, e^{-2x}): three-dimensional algebra",
        ({},),
        _AlgebraEntry(_HOMOGENEOUS,
                      ("d_dy", "d_dx+y*d_dy", "y*d_dx+y^2/2*d_dy"),
                      _SL2_BRACKETS, 3)),
    CaseRecord(
        "thm31.iv",
        "trivial equation y'' = 0: full eight-dimensional algebra",
        ({},),
        _AlgebraEntry(("0", "0", "0", "0"),
                      ("d_dx", "d_dy", "x*d_dx", "y*d_dx", "x*d_dy", "y*d_dy",
                       "x*(x*d_dx+y*d_dy)", "y*(x*d_dx+y*d_dy)"),
                      (), 8, _thm31_iv_extra)),
    CaseRecord(
        "thm41.i.a.1",
        "pencil e^y(dx + g dy), dy inducing (0, 0, 1 + g', g)",
        ({"g": "1"}, {"g": "1 + x"}, {"g": "2 - x/2 + x^2"}),
        _PencilEntry(("exp(y)", "g*exp(y)", "0", "1"),
                     ("0", "0", "1 + d_dx(g)", "g"),
                     (("d_dy", ("1", "0"), _ZERO_ROW),))),
    CaseRecord(
        "thm41.i.a.2",
        "pencil -(dx + (g + y) dy), dy inducing (0, 0, g', 1)",
        ({"g": "x"}, {"g": "1 + x"}, {"g": "x^2/2 - x"}),
        _PencilEntry(("-1", "-(g + y)", "0", "1"),
                     ("0", "0", "d_dx(g)", "1"),
                     (("d_dy", ("0", "-1"), _ZERO_ROW),))),
    CaseRecord(
        "thm41.i.b",
        "pencil dx + g dy, dy inducing (0, 0, g', 0)",
        ({"g": "x^2"}, {"g": "x"}, {"g": "1 + x"}),
        _PencilEntry(("1", "g", "0", "1"),
                     ("0", "0", "d_dx(g)", "0"),
                     (("d_dy", _ZERO_ROW, _ZERO_ROW),))),
    CaseRecord(
        "thm41.ii.a",
        "exponential pencil over the nodal cubic "
        "27 a^2 + 4 b^3 - 12 b^2 + 9 b - 2 = 0",
        ({"gamma": "1"}, {"gamma": "1/2"}, {"gamma": "-2"}),
        _PencilEntry(
            ("exp(x) * (gamma*y + (2*gamma^2 - 1)*exp(x))",
             "-(y + 2*gamma*exp(x))", "-gamma*exp(x)", "1"),
            ("gamma*(2*gamma^2 - 1)*exp(x)", "2 - 3*gamma^2", "0",
             "exp(-2*x)"),
            (("d_dy", ("0", "-1"), _ZERO_ROW),
             ("d_dx+y*d_dy", ("2", "0"), ("0", "1"))),
            _thm41_iia_extra),
        _adm_thm41_iia),
    CaseRecord(
        "thm41.ii.b.1",
        "exponential pencil pair with weight parameter lam (lam != 0)",
        ({"lam": "3"}, {"lam": "1"}, {"lam": "-1/2"}),
        _PencilEntry(
            ("-((1 - lam)/2) * exp((1 + lam)*x)", "exp(lam*x)",
             "-((1 + lam)/2) * exp(x)", "1"),
            ("((1 - lam^2)/4) * exp(x)", "0", "exp(-x)", "0"),
            (("d_dy", _ZERO_ROW, _ZERO_ROW),
             ("d_dx+y*d_dy", ("1 + lam", "0"), ("0", "1")))),
        _adm_thm41_iib1),
    CaseRecord(
        "thm41.ii.b.2",
        "resonant pencil whose z = 0 member passes through the vertical "
        "direction",
        ({},),
        _PencilEntry(("(1 - x/2) * exp(x)", "x", "-exp(x)/2", "1"),
                     ("exp(x)/4", "0", "exp(-x)", "0"),
                     (("d_dy", _ZERO_ROW, _ZERO_ROW),
                      ("d_dx+y*d_dy", ("1", "1"), ("0", "1"))))),
    CaseRecord(
        "thm41.iii",
        "three-symmetry model: on the nodal cubic, but with no rational "
        "pencil",
        ({},),
        _AlgebraEntry(_HOMOGENEOUS, (), (), 3, _thm41_iii_extra)),
    CaseRecord(
        "thm41.iv",
        "coordinate pencil dx, dy for the trivial structure; gamma = 0 "
        "limit of the exponential pencils",
        ({},),
        _PencilEntry(("1", "0", "0", "1"), ("0", "0", "0", "0"),
                     (("d_dy", _ZERO_ROW, _ZERO_ROW),
                      ("d_dx+y*d_dy", _ZERO_ROW, ("0", "1"))),
                     _thm41_iv_extra)),
    CaseRecord(
        "sec3.aff",
        "two-parameter families with a two-dimensional affine symmetry "
        "algebra, via the quartic alpha-ODE",
        ({"gamma0": "1", "delta0": "1", "beta0": "0", "c": "1",
          "a1": "1/2", "a2": "2", "a3": "1/3", "ib_alpha0": "1",
          "ib_c": "1"},
         {"gamma0": "2", "delta0": "-1", "beta0": "1", "c": "2",
          "a1": "1", "a2": "0", "a3": "-1/2", "ib_alpha0": "-2",
          "ib_c": "0"},
         {"gamma0": "1/2", "delta0": "1/3", "beta0": "-1", "c": "-1",
          "a1": "0", "a2": "3", "a3": "1", "ib_alpha0": "1/3",
          "ib_c": "-1"}),
        affine_family_checks, _adm_sec3_aff),
    CaseRecord(
        "remark.exotic-sl2",
        "twisted sl2 triples preserve only flat structures",
        ({"c1": "0", "c2": "0"}, {"c1": "1", "c2": "0"},
         {"c1": "0", "c2": "1"}, {"c1": "1", "c2": "1"}),
        _run_remark_exotic),
    CaseRecord(
        "remark.pi0",
        "cubic equation y'' = (x y' - y)^3: three symmetries, all "
        "vanishing at the origin",
        ({},),
        _AlgebraEntry(("-y^3", "3*x*y^2", "-3*x^2*y", "x^3"),
                      ("x*d_dy", "-x/2*d_dx+y/2*d_dy", "-y/2*d_dx"),
                      (("[T1,T2]=T1", 0, 1, 0), ("[T1,T3]=T2", 0, 2, 1),
                       ("[T2,T3]=T3", 1, 2, 2)),
                      None, _remark_pi0_extra)),
    CaseRecord(
        "remark.flat",
        "squared flatness criteria and root reconstructions after "
        "normalization",
        ({"g1": "1", "g2": "x", "a_ib": "x"},
         {"g1": "1 + x", "g2": "x^2/2 - x", "a_ib": "1 - x/3"},
         {"g1": "2 - x/2 + x^2", "g2": "1 + x", "a_ib": "x^2/2"}),
        flat_criteria_checks, _adm_remark_flat),
)


CASES = {record.id: record for record in _RECORDS}


# --- the driver --------------------------------------------------------------

def list_cases():
    """(id, title, parameter names) for every case, sorted by id."""
    return [(cid, CASES[cid].title, tuple(sorted(CASES[cid].samples[0])))
            for cid in sorted(CASES)]


def run_case(case_id, params=None, order=DEFAULT_ORDER):
    """Reports for one case.

    Without ``params`` every sanctioned sample runs; with ``params``
    the given values (strings, rationals or expression text) are merged
    over the default sample and that single environment runs.
    Inadmissible parameter values raise
    :class:`~projstruct.errors.InadmissibleParameters`, and a working
    order below 2 raises ``ValueError`` before any case runs.
    """
    if order < 2:
        raise ValueError("the working order must be at least 2, got %d"
                         % order)
    record = CASES.get(case_id)
    if record is None:
        raise UnknownCase("unknown case id %r; known ids: %s"
                          % (case_id, ", ".join(sorted(CASES))))
    if params is None:
        envs = [dict(sample) for sample in record.samples]
    else:
        env = dict(record.samples[0])
        unknown = sorted(set(params) - set(env))
        if unknown:
            raise InadmissibleParameters(
                "%s does not take parameter(s) %s; it takes %s"
                % (case_id, ", ".join(unknown),
                   ", ".join(sorted(env)) or "none"))
        env.update({key: str(value) for key, value in params.items()})
        envs = [env]
    reports = []
    for env in envs:
        record.check_admissible(env, order)
        checks = record.runner(env, order)
        reports.append(CaseReport(case_id, record.title, dict(env), order,
                                  tuple(checks)))
    return reports


def run_all(order=DEFAULT_ORDER):
    """Reports for every case at every sanctioned sample, ordered by id."""
    reports = []
    for case_id in sorted(CASES):
        reports.extend(run_case(case_id, None, order))
    return reports
