"""The verification registry: its catalog entries and ``run_case``/``run_all``.

Every entry re-derives, from scratch and in exact rational arithmetic,
the computational content of one catalog statement: that the listed
vector fields are symmetries, that their bracket tables close, that the
stabilized symmetry dimensions match, that each pencil of foliations
induces the stated cubic equation (with its members geodesic and the
pencil parameter a first integral), and that the squared first-order
flatness identities hold after normalization.

Cases that share a shape are data rows of ``_RECORDS``: a
``_PencilEntry`` holds a flat pencil, an ``_AlgebraEntry`` a structure
with its named symmetry fields, bracket table and symmetry dimension.
Every field is named once, with its formula, in ``_FIELDS``.  What
differs between cases stays code: each row's ``extra`` checks, and the
batteries ``affine_family_checks``, ``flat_criteria_checks`` and
``exotic_sl2_check``.

Statements that fail mechanically are reported with the
``paper-inconsistent`` verdict together with the computed value — never
silently corrected; measurements carrying no asserted expectation use
``recorded``.  Case ids (``thm31.*``, ``thm41.*``, ``sec3.aff``,
``remark.*``) are the stable vocabulary of the ``verify-paper``
command; rendering lives in :mod:`projstruct.reports`.

Working-order note: dimension counts and invariant-structure solves
need jets of a minimum order to cut their linear systems (8 and 9
respectively); :func:`_dim_structure` (for every dimension check) and
``exotic_sl2_check`` build those jets at ``max(order, floor)`` (the
``sec3.aff`` exponential member three orders higher) so that verdicts do
not depend on the report order.
"""

import math
from fractions import Fraction

from .errors import (InadmissibleParameters, NonSquareConstant,
                     PreconditionViolated, UnknownCase, _ensure)
from .expressions import expand
from .fields import (VectorField, invariant_structures, lie_bracket, residual,
                     symmetry_dim)
from .jets import (DEFAULT_ORDER, Jet2, _cauchy, compose1, exp_series,
                   sqrt_series)
from .linalg import rank
from .pencils import (INF, Foliation, Pencil, foliation_residual, is_geodesic,
                      lie_derivative_form, member, member_value_along,
                      structure_from_pencil)
from .records import Record
from .reports import (INCONSISTENT, CaseReport, CheckResult, failed,
                      leading_term, passed, recorded, slope_leading_term,
                      zero_check)
from .structures import (DiffeoGerm, LiouvillePair, ProjectiveStructure,
                         c_star_action, geodesic_solve, is_linearizable,
                         liouville, normalize_D1, pullback)

# Minimum jet orders for the two linear-algebra solves (see module note).
_DIM_FLOOR = 8
_INV_FLOOR = 9

# The homogeneous model (0, 1/2, 0, e^{-2x}) with its three symmetries.
_HOMOGENEOUS = ("0", "1/2", "0", "exp(-2*x)")


# --- small builders --------------------------------------------------------

def _frac(env, key):
    return Fraction(env[key])


def _structure(order, env, a, b, c, d):
    return ProjectiveStructure(expand(a, env, order), expand(b, env, order),
                               expand(c, env, order), expand(d, env, order))


def _dim_structure(order, env, *texts, st=None):
    """The structure at the dimension floor; ``st``, the same texts
    expanded at ``order``, is reused when ``order`` is already there."""
    if st is not None and order >= _DIM_FLOOR:
        return st
    return _structure(max(order, _DIM_FLOOR), env, *texts)


def _field(order, a, b, env=None):
    return VectorField(expand(a, env, order), expand(b, env, order))


def _nodal_cubic(a, b):
    return 27 * a ** 2 + 4 * b ** 3 - 12 * b ** 2 + 9 * b - 2


# --- shared check builders --------------------------------------------------

def _symmetry_check(name, field, st, detail=""):
    res = residual(field, st)
    if res.is_zero():
        return passed(name, detail)
    return failed(name, slope_leading_term(res), detail)


def _agree_check(name, got, want, detail=""):
    """Pass when the records ``got`` and ``want`` agree in each jet slot.

    A failure reports the leading term of the first slot that differs,
    and names that slot when there is no ``detail``.
    """
    for slot, g, w in zip(got._fields, got, want):
        diff = g - w
        if not diff.is_zero():
            return failed(name, leading_term(diff),
                          detail or ("%s-slot differs" % slot))
    return passed(name, detail)


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


def _first_integral_check(pen, st):
    qi = pen.omega_inf.Q.constant_term
    pi = pen.omega_inf.P.constant_term
    p0 = next(p for p in _SLOPE_CANDIDATES if pi + qi * p != 0)
    curve = geodesic_solve(st, Fraction(0), p0)
    z = member_value_along(pen, curve)
    dev = z - Jet2.constant(z.constant_term, z.order)
    return zero_check(
        "first-integral", dev,
        "z = %s stays constant along the geodesic y(0) = 0, y'(0) = %s"
        % (z.constant_term, p0))


def _lie_factor_check(name, field, pen, row0, rowi):
    parts = []
    for fol, (c0, ci), tag in ((pen.omega0, row0, "omega_0"),
                               (pen.omega_inf, rowi, "omega_inf")):
        dp, dq = lie_derivative_form(field, fol)
        ep = pen.omega0.P.scale(c0) + pen.omega_inf.P.scale(ci)
        eq = pen.omega0.Q.scale(c0) + pen.omega_inf.Q.scale(ci)
        for got, want in ((dp, ep), (dq, eq)):
            diff = got - want
            if not diff.is_zero():
                return failed(name, leading_term(diff),
                              "L_v %s != %s*omega_0 + %s*omega_inf"
                              % (tag, c0, ci))
        parts.append("L_v %s = %s*omega_0 + %s*omega_inf" % (tag, c0, ci))
    return passed(name, "; ".join(parts))


def _pencil_battery(pen, want, symmetries):
    """Checks shared by every pencil entry.

    ``symmetries`` lists (name, field, (row0, row_inf)) where
    row0 = (a, b) states L_v omega_0 = a*omega_0 + b*omega_inf and
    row_inf likewise for omega_inf.
    """
    checks = []
    wedge = pen.wedge()
    if wedge.constant_term != 0:
        checks.append(passed("wedge-unit",
                             "wedge leading term %s" % leading_term(wedge)))
    else:
        checks.append(failed("wedge-unit", leading_term(wedge)))
    st = structure_from_pencil(pen)
    checks.append(_agree_check(
        "derived-structure", st, want,
        "the pencil induces the listed coefficient quadruple"))
    bad = [z for z in _MEMBER_SAMPLES if not is_geodesic(member(pen, z), st)]
    if bad:
        res = foliation_residual(member(pen, bad[0]), st)
        checks.append(failed("members-geodesic", leading_term(res),
                             "failing members z in {%s}"
                             % ", ".join(str(z) for z in bad)))
    else:
        checks.append(passed("members-geodesic", "z in {0, 1, -1, 2, inf}"))
    checks.append(_first_integral_check(pen, st))
    for name, field, (row0, rowi) in symmetries:
        checks.append(_lie_factor_check("pencil-symmetry:%s" % name,
                                        field, pen, row0, rowi))
        checks.append(_symmetry_check("symmetry:%s" % name, field, st))
    return checks


# --- standalone verification ops ---------------------------------------------

def cubic_curve_residual(gamma):
    """27 a^2 + 4 b^3 - 12 b^2 + 9 b - 2 at the curve point for ``gamma``.

    The point is (a, b) = (gamma (2 gamma^2 - 1), 2 - 3 gamma^2); the
    value is identically zero in gamma (a degree-6 identity).
    """
    g = Fraction(gamma)
    return _nodal_cubic(g * (2 * g * g - 1), 2 - 3 * g * g)


def alpha_ode_solve(c, jet3, order=DEFAULT_ORDER):
    """Series solution of the quartic coefficient ODE

        c^4 (a a'' - a'^2) - 3 c^2 (a a''' - a' a'')
            + 2 a a'''' + a' a''' - 3 a''^2 = 0

    with prescribed 3-jet ``jet3 = (a(0), a'(0), a''(0), a'''(0))``;
    a(0) must be a unit.  The coefficients are solved online (J. van der
    Hoeven, J. Symbolic Comput. 34 (2002)), degree by degree on the
    integer Taylor data of the rescaled ODE (``_alpha_coeffs``), and one
    Picard pass of the integrated form,
    a = (3-jet) + integral^4 of -lower(a)/(2a), at full order must return
    them unchanged.
    """
    c = Fraction(c)
    jet3 = tuple(Fraction(v) for v in jet3)
    a0, a1, a2, a3 = jet3
    if a0 == 0:
        raise PreconditionViolated("alpha(0) must be a unit")
    base = Jet2.from_terms({(0, 0): a0, (1, 0): a1,
                            (2, 0): a2 / 2, (3, 0): a3 / 6}, order)
    al = _alpha_coeffs(c, jet3, order)
    d4 = -(_alpha_ode_lower(c, al) / al.scale(2))
    _ensure(base + d4.integrate_x().integrate_x().integrate_x().integrate_x()
            == al, "alpha solves its Picard pass")
    return al


def _alpha_coeffs(c, jet3, order):
    """The alpha-ODE solution with 3-jet ``jet3`` through degree
    ``order``, solved online, at eff ``order``.

    x = s X and a = a(0) al, for s = 4 den(c)^2 L with L the lcm of the
    denominators of a^(m)(0)/a(0), turn the ODE into
    2 al al'''' = -(k^2 (al al'' - al'^2) - 3k (al al''' - al' al'')
    + al' al''' - 3 al''^2) with k = c^2 s a multiple of 4.  Then al(0)
    is 1 and every later derivative of al at 0 is an even integer, so
    the right side halves exactly.  The lists hold N! times the Taylor
    coefficients of al and its derivatives; coefficient n of the right
    side needs al through degree n + 3, and fixes al_(n+4).
    """
    top = math.factorial(order)
    ratios = [v / jet3[0] for v in jet3]
    s = 4 * c.denominator ** 2 * math.lcm(*(v.denominator for v in ratios))
    k = c.numerator ** 2 * (s // c.denominator ** 2)
    al = [top // math.factorial(i) * (s ** i * v.numerator // v.denominator)
          for i, v in enumerate(ratios)][:order + 1]
    d1, d2, d3, d4 = [], [], [], []
    for n in range(order - 3):
        d1.append((n + 1) * al[n + 1])
        d2.append((n + 1) * (n + 2) * al[n + 2])
        d3.append((n + 1) * (n + 2) * (n + 3) * al[n + 3])
        lower = (k * k * (_cauchy(al, d2, n) - _cauchy(d1, d1, n))
                 - 3 * k * (_cauchy(al, d3, n) - _cauchy(d1, d2, n))
                 + _cauchy(d1, d3, n) - 3 * _cauchy(d2, d2, n)) // top
        d4.append(-(lower // 2) - _cauchy(al, d4, n, 1) // top)
        al.append(d4[n] // ((n + 1) * (n + 2) * (n + 3) * (n + 4)))
    a0 = jet3[0]
    return Jet2._new({(i, 0): a0.numerator * w * s ** (order - i)
                      for i, w in enumerate(al) if w},
                     a0.denominator * top * s ** order, order, order)


def _alpha_ode_lower(c, al):
    """The left side of the quartic alpha-ODE without its 2 a a'''' term."""
    d1 = al.d_dx()
    d2 = d1.d_dx()
    d3 = d2.d_dx()
    return ((al * d2 - d1 * d1).scale(c ** 4)
            - (al * d3 - d1 * d2).scale(3 * c * c)
            + d1 * d3 - (d2 * d2).scale(3))


def _alpha_ode_residual(c, al):
    c = Fraction(c)
    d4 = al.d_dx().d_dx().d_dx().d_dx()
    return _alpha_ode_lower(c, al) + (al * d4).scale(2)


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
    checks = []
    X = _field(order, *_FIELDS["d_dy"])

    stab = ("gamma0 * (1 + x)^(-3/2)", "delta0 * (1 + x)^(-1)", "0", "1")
    st = _structure(order, env, *stab)
    v = _field(order, "2 * (1 + x)", "y + beta0", env)
    checks.append(_symmetry_check("stabilized:symmetry:d_dy", X, st))
    checks.append(_symmetry_check(
        "stabilized:symmetry:v", v, st,
        "v = 2(1+x) d_dx + (y + beta0) d_dy"))
    checks.append(_agree_check("stabilized:bracket:[d_dy,v]=d_dy",
                               lie_bracket(X, v), X))
    checks.append(_dim_check("stabilized:symmetry-dimension",
                             _dim_structure(order, env, *stab, st=st), 2))

    c = _frac(env, "c")
    a_jet3 = (1, _frac(env, "a1"), _frac(env, "a2"), _frac(env, "a3"))

    def exponential_member(n):
        al = alpha_ode_solve(c, a_jet3, n)
        d1 = al.d_dx()
        A = ((d1.d_dx().d_dx() - d1.scale(c ** 4)) / al
             ).scale(Fraction(1, 4) / c ** 3)
        B = (-(d1.d_dx().scale(3) + al.scale(c ** 4)) / al
             ).scale(Fraction(1, 4) / c ** 2)
        pi = ProjectiveStructure(A, B, Jet2.zero(n), Jet2.constant(1, n))
        return al, pi

    al, pi = exponential_member(order)
    d1 = al.d_dx()
    checks.append(zero_check("exponential:ode-residual",
                             _alpha_ode_residual(c, al),
                             "the Picard solution satisfies the quartic ODE"))
    beta = (d1 - al.scale(c * c)).scale(Fraction(1, 2) / c)
    ecy = exp_series(Jet2.variable("y", order).scale(c))
    vexp = VectorField(ecy * al, ecy * beta)
    checks.append(_symmetry_check(
        "exponential:symmetry:v", vexp, pi,
        "v = e^{cy}(alpha d_dx + beta d_dy), beta = (alpha' - c^2 alpha)/(2c)"))
    checks.append(_symmetry_check("exponential:symmetry:d_dy", X, pi))
    cv = VectorField(vexp.a.scale(c), vexp.b.scale(c))
    checks.append(_agree_check("exponential:bracket:[d_dy,v]=c*v",
                               lie_bracket(X, vexp), cv))
    A, B = pi.A, pi.B
    Bp = B.d_dx()
    denom = B + Jet2.constant(c * c, order)
    fourB = B.scale(4) + Jet2.constant(c * c, order)
    rhs_a = ((A * A).scale(27 * c) + A * Bp.scale(9)
             - denom * Bp.scale(3 * c) + (fourB * denom * denom).scale(c))
    checks.append(zero_check(
        "exponential:A-prime-relation", A.d_dx() * denom.scale(6) - rhs_a,
        "6 (B + c^2) A' equals the stated polynomial in (A, B, B')"))
    rhs_b = ((A * (A.scale(c) - Bp)).scale(27 * c) - (Bp * Bp).scale(12)
             - denom * Bp.scale(9 * c * c)
             + (fourB * denom * denom).scale(c * c))
    checks.append(zero_check(
        "exponential:B-second-relation", Bp.d_dx() * denom.scale(6) + rhs_b,
        "6 (B + c^2) B'' equals the stated polynomial in (A, B, B')"))
    checks.append(zero_check(
        "exponential:alpha-log-derivative",
        d1 * denom + (A.scale(3 * c) + Bp) * al,
        "alpha'/alpha = -(3 c A + B')/(B + c^2)"))
    # A = (a''' - c^4 a')/(4 c^3 a) spends three effective orders on the
    # third derivative, so the dimension count needs jets three higher.
    checks.append(_dim_check("exponential:symmetry-dimension",
                             exponential_member(max(order, _DIM_FLOOR) + 3)[1],
                             2))

    expc = ("ib_alpha0 * exp(-x)", "0", "exp(x)", "0")
    stb = _structure(order, env, *expc)
    vb = _field(order, "-1", "y + ib_c", env)
    checks.append(_symmetry_check("exp-C:symmetry:v", vb, stb,
                                  "v = -d_dx + (y + ib_c) d_dy"))
    checks.append(_symmetry_check("exp-C:symmetry:d_dy", X, stb))
    checks.append(_agree_check("exp-C:bracket:[d_dy,v]=d_dy",
                               lie_bracket(X, vb), X))
    checks.append(_dim_check("exp-C:symmetry-dimension",
                             _dim_structure(order, env, *expc, st=stb), 2))
    return checks


def ib_flattening_germ(st):
    """Flattening coordinate change for a structure (A, 0, C, 0), C a unit.

    The reparametrization psi = x + O(x^3) solves

        psi''' = (3/2) psi''^2/psi' + psi' psi'' (C'/C) o psi
                 - 2 (A C) o psi * psi'^3,

    online (J. van der Hoeven, J. Symbolic Comput. 34 (2002)), degree by
    degree on the integer Taylor data of the rescaled ODE
    (``_flattening_coeffs``); one Picard pass,
    psi = x + integral^3 of the right side, at full order must return it
    unchanged.  The subsequent y-shift removes the B-slot, leaving a
    structure of the form (0, 0, C2(x), 0).
    """
    order = st.order
    if order < 2:
        raise ValueError("ib_flattening_germ needs order >= 2, got %d" % order)
    q = st.C.d_dx() / st.C
    m = st.A * st.C
    psi = _flattening_coeffs(q, m, order)
    # The pass keeps degree e + v + 3 of q o psi (window e), which
    # multiplies psi' psi'' with psi'' vanishing to order v, and e + 3 of
    # m o psi.
    v = min((i for (i, _) in psi._num if i > 1), default=order + 2) - 2
    eff = min(order, q.eff + v + 3, m.eff + 3)
    if eff < order:
        psi = psi._window(order, eff)
    d1 = psi.d_dx()
    d2 = d1.d_dx()
    rhs = ((d2 * d2 / d1).scale(Fraction(3, 2))
           + d1 * d2 * compose1(q, psi)
           - (compose1(m, psi) * d1 ** 3).scale(2))
    _ensure(Jet2.variable("x", order)
            + rhs.integrate_x().integrate_x().integrate_x() == psi,
            "psi solves its Picard pass")
    c1 = compose1(st.C, psi)
    b1 = psi.d_dx().d_dx() / psi.d_dx()
    phi = (-b1 / c1.scale(2)).integrate_x()
    return DiffeoGerm(psi, Jet2.variable("y", order) + phi)


def _flattening_coeffs(q, m, order):
    """The psi = x + O(x^3) with psi''' = (3/2) psi''^2/psi'
    + psi' psi'' q(psi) - 2 psi'^3 m(psi) through degree ``order``,
    solved online, at eff ``order``; as in ``compose1``, only the x-only
    terms of q and m count.

    x = s X and psi = s P, for s the lcm of the denominators of q and m,
    turn it into P''' = (3/2) P''^2/P' + P' P'' Q(P) - P'^3 M(P) with
    integer Q_i = s^(i+1) q_i and M_i = 2 s^(i+2) m_i.  Every derivative
    of P at 0 is an integer and P''^2 has even ones, so with P'(0) = 1
    the quotient and the halving are exact.  The lists hold N! times the
    Taylor coefficients; coefficient n of the right side needs P through
    degree n + 2, and fixes P_(n+3).
    """
    top = math.factorial(order)
    s = math.lcm(q._den, m._den)
    qs = [(i, n * s ** (i + 1) // q._den) for (i, j), n in q._num.items()
          if not j]
    ms = [(i, 2 * n * s ** (i + 2) // m._den) for (i, j), n in m._num.items()
          if not j]
    ps = [0, top, 0][:order + 1]
    pw = [[top] + [0] * order, ps]
    pw += [[] for _ in range(max((i for i, _ in qs + ms), default=1) - 1)]
    d1, d2, quo, d12, p2, p3, qc, mc = ([] for _ in range(8))
    for n in range(order - 2):
        d1.append((n + 1) * ps[n + 1])
        d2.append((n + 1) * (n + 2) * ps[n + 2])
        for i in range(2, len(pw)):
            pw[i].append(_cauchy(ps, pw[i - 1], n, 1) // top)
        qc.append(sum([z * pw[i][n] for i, z in qs]))
        mc.append(sum([z * pw[i][n] for i, z in ms]))
        quo.append((_cauchy(d2, d2, n) - _cauchy(d1, quo, n, 1)) // top)
        d12.append(_cauchy(d1, d2, n) // top)
        p2.append(_cauchy(d1, d1, n) // top)
        p3.append(_cauchy(d1, p2, n) // top)
        f = 3 * quo[n] // 2 + (_cauchy(d12, qc, n) - _cauchy(p3, mc, n)) // top
        ps.append(f // ((n + 1) * (n + 2) * (n + 3)))
    return Jet2._new({(i, 0): w * s ** (order + 1 - i)
                      for i, w in enumerate(ps) if w},
                     top * s ** order, order, order)


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
    checks = []
    zero, one = Jet2.zero(order), Jet2.constant(1, order)
    two = Jet2.constant(2, order)

    env1 = {"g": env["g1"]}
    g = expand("g", env1, order)
    pen = CASES["thm41.i.a.1"].runner.pencil(env1, order)
    nf, germ = normalize_D1(structure_from_pencil(pen))
    A, B = nf.A, nf.B
    u = compose1(g.d_dx(), germ.u)
    checks.append(zero_check(
        "ia1:normalized-B", B + (u * u - u + one).scale(Fraction(1, 3)),
        "B = -(u^2 - u + 1)/3 with u = g' o psi"))
    checks.append(zero_check(
        "ia1:normalized-A",
        A - u.d_dx().scale(Fraction(1, 3))
        - ((u + one) * (u.scale(2) - one) * (u - two)).scale(Fraction(1, 27)),
        "A = u'/3 + (u+1)(2u-1)(u-2)/27 with u = g' o psi"))
    S = (B * B).scale(4) + B.scale(5) - B.d_dx().scale(3) + one
    fourB1 = B.scale(4) + one
    stated = (fourB1 * A * A).scale(3) + S * S
    if stated.is_zero():
        checks.append(passed(
            "ia1:squared-identity-as-stated",
            "3 (4B+1) A^2 + (4B^2 + 5B - 3B' + 1)^2 = 0 at this sample"))
    else:
        checks.append(CheckResult(
            "ia1:squared-identity-as-stated", INCONSISTENT,
            leading_term(stated),
            "3 (4B+1) A^2 + (4B^2 + 5B - 3B' + 1)^2 does not vanish; "
            "the leading coefficient must be 27"))
    checks.append(zero_check(
        "ia1:squared-identity-corrected", (fourB1 * A * A).scale(27) + S * S,
        "27 (4B+1) A^2 + (4B^2 + 5B - 3B' + 1)^2 = 0"))
    try:
        root = sqrt_series(fourB1.scale(-3))
    except NonSquareConstant:
        checks.append(recorded("ia1:root-reconstruction",
                               "identity verified, root not rational"))
    else:
        ok = False
        for sign in (1, -1):
            fp = (one + root.scale(sign)).scale(Fraction(1, 2))
            rel = fp - ((one + fp) * (one + fp)).scale(Fraction(1, 3)) - B
            ok = ok or rel.is_zero()
        checks.append(passed(
            "ia1:root-reconstruction",
            "f' = (1 +- sqrt(-3(4B+1)))/2 satisfies B = f' - (1+f')^2/3")
            if ok else failed("ia1:root-reconstruction"))

    env2 = {"g": env["g2"]}
    g2 = expand("g", env2, order)
    pen2 = CASES["thm41.i.a.2"].runner.pencil(env2, order)
    nf2, _ = normalize_D1(structure_from_pencil(pen2))
    A2, B2 = nf2.A, nf2.B
    gp = g2.d_dx()
    checks.append(zero_check(
        "ia2:normalized-B", B2 + (gp * gp).scale(Fraction(1, 3)),
        "B = -g'^2/3 after normalization"))
    checks.append(zero_check(
        "ia2:normalized-A",
        A2 - (gp ** 3).scale(Fraction(2, 27)) - gp.d_dx().scale(Fraction(1, 3)),
        "A = 2 g'^3/27 + g''/3 after normalization"))
    S2 = (B2 * B2).scale(4) - B2.d_dx().scale(3)
    checks.append(zero_check("ia2:squared-identity",
                             (B2 * A2 * A2).scale(108) + S2 * S2,
                             "108 B A^2 + (4B^2 - 3B')^2 = 0"))
    try:
        root2 = sqrt_series(B2.scale(-3))
    except NonSquareConstant:
        checks.append(recorded("ia2:root-reconstruction",
                               "identity verified, root not rational"))
    else:
        ok = root2.agree(gp) or root2.agree(-gp)
        checks.append(passed("ia2:root-reconstruction", "sqrt(-3B) = +- g'")
                      if ok else failed("ia2:root-reconstruction",
                                        leading_term(root2 - gp)))

    ab = expand("a", {"a": env["a_ib"]}, order)
    stc = ProjectiveStructure(ab, zero, exp_series(Jet2.variable("x", order)),
                              zero)
    flat = pullback(ib_flattening_germ(stc), stc)
    off = next((j for j in (flat.A, flat.B, flat.D) if not j.is_zero()), None)
    checks.append(passed(
        "ib:reduction-to-C-only",
        "the psi''' equation and a y-shift empty the A, B, D slots")
        if off is None else failed("ib:reduction-to-C-only", leading_term(off)))
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
    checks = [
        _agree_check("bracket:[X,Y]=X", lie_bracket(X, Y), X),
        _agree_check("bracket:[X,Z]=Y", lie_bracket(X, Z), Y),
        _agree_check("bracket:[Y,Z]=Z", lie_bracket(Y, Z), Z),
    ]
    inv = invariant_structures([X, Y, Z], degree=6)
    if not inv.consistent:
        checks.append(failed("invariant-dimension", "0",
                             "no structure is preserved by the triple"))
        return checks
    dim = inv.dimension
    if (c1, c2) == (0, 0):
        checks.append(passed("invariant-dimension",
                             "a one-parameter family is preserved")
                      if dim == 1 else
                      failed("invariant-dimension", str(dim),
                             "expected dimension 1"))
        model = _structure(w, None, *_HOMOGENEOUS)
        checks.append(passed("contains-homogeneous-model",
                             "(0, 1/2, 0, e^{-2x}) lies in the family")
                      if inv.contains(model) else
                      failed("contains-homogeneous-model"))
    else:
        checks.append(passed("invariant-dimension",
                             "the preserved structure is an isolated point")
                      if dim == 0 else
                      failed("invariant-dimension", str(dim),
                             "expected an isolated invariant structure"))
        if dim == 0:
            pair = liouville(ProjectiveStructure(*inv.particular))
            bad = pair.L1 if not pair.L1.is_zero() else pair.L2
            checks.append(passed(
                "unique-structure-linearizable",
                "the single preserved structure is flat; the twisted "
                "triple realizes no new geometry")
                if pair.is_zero() else
                failed("unique-structure-linearizable", leading_term(bad)))
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
    environment; ``fields`` names its symmetries in ``_FIELDS``, and each
    ``brackets`` row (label, i, j, k) states [F_i, F_j] = F_k.  Then come
    ``extra(env, order, st, fields, wide)``, where ``wide`` is the
    structure at the dimension floor, and last the check that the
    symmetry dimension is ``dim`` (None: ``extra`` states it).
    """

    quadruple: tuple
    fields: tuple
    brackets: tuple = ()
    dim: object = None
    extra: object = _no_extra

    def __call__(self, env, order):
        st = _structure(order, env, *self.quadruple)
        wide = _dim_structure(order, env, *self.quadruple, st=st)
        fields = [_field(order, *_FIELDS[name]) for name in self.fields]
        checks = [_symmetry_check("symmetry:" + name, field, st)
                  for name, field in zip(self.fields, fields)]
        checks += [_agree_check("bracket:" + label,
                                lie_bracket(fields[i], fields[j]), fields[k])
                   for label, i, j, k in self.brackets]
        checks += self.extra(env, order, st, fields, wide)
        if self.dim is not None:
            checks.append(_dim_check("symmetry-dimension", wide, self.dim))
        return checks


class _PencilEntry(Record):
    """One flat-pencil case as data; calling it runs the case.

    Pencil ``forms`` (P0, Q0, Pinf, Qinf), induced ``quadruple`` and
    Lie-factor rows are expression text in the sample's environment; a
    quadruple slot needing g' is a function of the expanded ``g``.
    ``symmetries`` rows (name, row0, row_inf) name their field in
    ``_FIELDS``; ``extra`` gives the checks that follow
    :func:`_pencil_battery`.
    """

    forms: tuple
    quadruple: tuple
    symmetries: tuple
    extra: object = _no_extra

    def pencil(self, env, order):
        return Pencil.from_jets(*(expand(t, env, order) for t in self.forms))

    def __call__(self, env, order):
        def jet(slot):
            if callable(slot):
                return slot(expand("g", env, order))
            return expand(slot, env, order)

        def row(texts):
            return tuple(expand(t, env, order).constant_term for t in texts)

        syms = [(name, _field(order, *_FIELDS[name]), (row(r0), row(ri)))
                for name, r0, ri in self.symmetries]
        want = ProjectiveStructure(*map(jet, self.quadruple))
        return (_pencil_battery(self.pencil(env, order), want, syms)
                + self.extra(env, order))


_SL2_BRACKETS = (("[X,Y]=X", 0, 1, 0), ("[X,Z]=Y", 0, 2, 1),
                 ("[Y,Z]=Z", 1, 2, 2))
_ZERO_ROW = ("0", "0")


# --- what differs between rows ---------------------------------------------

def _thm31_ia_extra(env, order, st, fields, wide):
    want = LiouvillePair(st.A.d_dx().scale(-3), st.B.d_dx().scale(-3))
    checks = [_agree_check("liouville-map", liouville(st), want,
                           "(L1, L2) = (-3A', -3B')")]
    for lam in (Fraction(2), Fraction(1, 3)):
        germ = DiffeoGerm(Jet2.variable("x", order).scale(lam * lam),
                          Jet2.variable("y", order).scale(lam))
        checks.append(_agree_check(
            "scaling-action:lambda=%s" % lam, pullback(germ, st),
            c_star_action(lam, st),
            "pullback along (lam^2 x, lam y) realizes the weighted scaling"))
    return checks


def _adm_thm31_ib(env, order):
    prod = expand("A", env, order) * expand("exp(x)", None, order)
    if prod.d_dx().is_zero():
        return ("A e^x is constant, so the structure gains a second "
                "symmetry (exponential family)")
    return None


def _thm31_ib_extra(env, order, st, fields, wide):
    pair = liouville(st)
    want = LiouvillePair(-st.C, expand("exp(2*x)", None, order).scale(2))
    return [
        _agree_check("liouville-computed", pair, want,
                     "the computed pair is (-e^x, 2 e^{2x}) for every A"),
        CheckResult(
            "liouville-as-displayed", INCONSISTENT, leading_term(pair.L1),
            "displayed pairs (0, 2 e^{2x}) and (-e^{-x}, -2 e^{-2x}) "
            "disagree with each other and with the computed "
            "(-e^x, 2 e^{2x})"),
        passed("not-linearizable",
               "the pair never vanishes, so no member is flat")
        if not pair.is_zero() else failed("not-linearizable")]


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
    gm = _frac(env, "gamma")
    value = cubic_curve_residual(gm)
    return [passed("cubic-point",
                   "(a, b) = (%s, %s) lies on the nodal curve"
                   % (gm * (2 * gm * gm - 1), 2 - 3 * gm * gm))
            if value == 0 else failed("cubic-point", str(value)),
            _cubic_identity_check()]


def _adm_thm41_iib1(env, order):
    if _frac(env, "lam") == 0:
        return ("lam = 0 makes the two generating forms proportional "
                "(degenerate wedge)")
    return None


def _thm41_iii_extra(env, order, st, fields, wide):
    value = _nodal_cubic(Fraction(0), Fraction(1, 2))
    family = CASES["thm31.ii.a"].runner.quadruple
    return [
        passed("cubic-point",
               "the limit values (a, b) = (0, 1/2) satisfy the nodal "
               "cubic equation")
        if value == 0 else failed("cubic-point", str(value)),
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
            passed("excluded-member-flat",
                   "(0, 2, 0, e^{-2x}) has a vanishing obstruction pair")
            if is_linearizable(want0) else failed("excluded-member-flat")]


def _adm_sec3_aff(env, order):
    c = _frac(env, "c")
    if c == 0:
        return "c = 0 collapses the exponential symmetry"
    if _frac(env, "a2") == c ** 4:
        return ("alpha''(0) = c^4 makes B(0) + c^2 = 0, excluded by the "
                "nondegeneracy hypothesis")
    return None


def _adm_remark_flat(env, order):
    if expand("g", {"g": env["g1"]}, order).constant_term == 0:
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
        passed("not-linearizable", "the obstruction pair is nonzero")
        if not is_linearizable(st) else failed("not-linearizable"),
        _dim_check("symmetry-dimension", wide, 3),
        _dim_check("symmetry-dimension-shifted",
                   _dim_structure(order, None, *shifted), 3,
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
                     ("0", "0", lambda g: 1 + g.d_dx(), "g"),
                     (("d_dy", ("1", "0"), _ZERO_ROW),))),
    CaseRecord(
        "thm41.i.a.2",
        "pencil -(dx + (g + y) dy), dy inducing (0, 0, g', 1)",
        ({"g": "x"}, {"g": "1 + x"}, {"g": "x^2/2 - x"}),
        _PencilEntry(("-1", "-(g + y)", "0", "1"),
                     ("0", "0", lambda g: g.d_dx(), "1"),
                     (("d_dy", ("0", "-1"), _ZERO_ROW),))),
    CaseRecord(
        "thm41.i.b",
        "pencil dx + g dy, dy inducing (0, 0, g', 0)",
        ({"g": "x^2"}, {"g": "x"}, {"g": "1 + x"}),
        _PencilEntry(("1", "g", "0", "1"),
                     ("0", "0", lambda g: g.d_dx(), "0"),
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
