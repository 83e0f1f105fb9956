from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

import projstruct
from projstruct.duals import EPS
from projstruct.errors import (DegenerateWedge, NonZeroConstantTerm,
                               VerticalAtOrigin)
from projstruct.expressions import expand
from projstruct.fields import VectorField
from projstruct.jets import Jet2, _is_unit
from projstruct import pencils
from projstruct.pencils import (
    INF,
    Foliation,
    Pencil,
    foliation_residual,
    is_geodesic,
    lie_derivative_form,
    member,
    member_value_along,
    slope,
    structure_from_pencil,
    _cleared_residual,
    _upright,
)
from projstruct.slopes import SlopePoly
from projstruct.structures import (ProjectiveStructure, geodesic_solve,
                                   swap_axes)

from conftest import (PROP_ORDER, REDRAWN, assert_same_jets,
                      assert_same_structure, assert_window_holds,
                      bench_workloads, cut_windows, jets, nonzero_fractions,
                      rational_or_dual_jets, redrawn, reference_sub,
                      slope_product, small_fractions, structures, windowed,
                      windowed_or_dual)

N = 10


def jexp(text, order=N):
    return expand(text, None, order)


def F(p, q, order=N):
    return Foliation(jexp(p, order), jexp(q, order))


def S(a, b, c, d, order=N):
    return ProjectiveStructure(jexp(a, order), jexp(b, order),
                               jexp(c, order), jexp(d, order))


# --- foliations ---------------------------------------------------------------


def test_slope_is_minus_p_over_q():
    assert slope(F("x - y", "1 + x")).agree(jexp("(y - x) / (1 + x)"))


def test_slope_rejects_vertical_leaf():
    with pytest.raises(VerticalAtOrigin):
        slope(F("1", "x"))


def test_foliation_must_not_vanish_at_origin():
    with pytest.raises(ValueError):
        Foliation(jexp("x"), jexp("y"))


def test_swapped_exchanges_the_axes():
    fol = F("1 - x/2", "x + y^2")
    back = fol.swapped().swapped()
    assert back.P.agree(fol.P) and back.Q.agree(fol.Q)
    assert fol.swapped().P.agree(jexp("y + x^2"))


def test_horizontal_lines_are_geodesics_of_the_trivial_structure():
    assert is_geodesic(F("0", "1"), S("0", "0", "0", "0"))


def test_vertical_lines_are_geodesics_via_the_swap():
    fol = F("1", "0")
    assert fol.is_vertical_at_origin()
    assert is_geodesic(fol, S("0", "0", "0", "0"))
    assert not is_geodesic(fol, S("0", "0", "0", "x"))


@settings(max_examples=25, deadline=None)
@given(jets(unit_constant=True, max_terms=2),
       jets(zero_constant=True, max_terms=2), structures(max_terms=2))
def test_vertical_foliation_residual_is_the_swapped_one(p, q, stq):
    fol = Foliation(p, q)
    assert fol.is_vertical_at_origin()
    res = foliation_residual(fol, stq)
    assert res.agree(foliation_residual(fol.swapped(), swap_axes(stq)))
    assert is_geodesic(fol, stq) == res.is_zero()


@settings(REDRAWN, max_examples=20)
@given(hs.data(), hs.integers(1, PROP_ORDER), hs.booleans())
def test_foliation_residual_keeps_its_window_when_the_inputs_are_redrawn(
        data, order, vertical):
    # a vertical foliation (Q(0) = 0) takes the swapped route
    p, q = (data.draw(windowed_or_dual(order, min_eff=1,
                                       constant=nonzero_fractions))
            for _ in range(2))
    fol = Foliation(p, q - q.constant_term if vertical else q)
    stq = ProjectiveStructure(*(data.draw(windowed_or_dual(order))
                                for _ in range(4)))
    full = [r.map(lambda f: data.draw(redrawn(f))) for r in (fol, stq)]
    assert_window_holds(foliation_residual(fol, stq),
                        foliation_residual(*full))


def reference_foliation_residual(fol, st):
    """``foliation_residual`` as the seven jet operations it chained before
    its slope cubic was the one kernel sum it shares with ``_rhs_along``."""
    fol, st = _upright(fol, st)
    s = slope(fol)
    s2 = s * s
    rhs = st.A + st.B * s + st.C * s2 + st.D * (s2 * s)
    return s.d_dx() + s * s.d_dy() - rhs


@hs.composite
def windowed_foliations(draw):
    """A foliation and a structure over the rationals or the duals, of
    orders 0 to PROP_ORDER, each jet cut to a window from -1 (from 0 for
    the unit of the form) to its order; half of them vertical."""
    order = draw(hs.integers(0, PROP_ORDER))
    vertical = draw(hs.booleans())
    unit = draw(rational_or_dual_jets(order, unit_constant=True))
    assume(unit.eff >= 0)
    unit = unit.truncated(eff=draw(hs.integers(0, order)))
    other, *slots = (
        f.truncated(eff=draw(hs.integers(-1, order))) for f in
        [draw(rational_or_dual_jets(order, zero_constant=vertical))]
        + [draw(rational_or_dual_jets(order)) for _ in range(4)])
    fol = Foliation(unit, other) if vertical else Foliation(other, unit)
    return fol, ProjectiveStructure(*slots)


@settings(deadline=None, max_examples=100)
@given(windowed_foliations())
def test_foliation_residual_is_the_reference_in_short_windows(case):
    assert_same_jets([foliation_residual(*case)],
                     [reference_foliation_residual(*case)])


def test_foliation_residual_is_the_reference_on_every_registry_member(
        registry_traffic):
    # is_geodesic's fallback and every members-geodesic failure detail
    # read foliation_residual: here on each member a pass decides
    calls, _ = registry_traffic
    assert len(calls["is_geodesic"]) == 170
    for fol, stq, _ in calls["is_geodesic"]:
        assert_same_jets([foliation_residual(fol, stq)],
                         [reference_foliation_residual(fol, stq)])


def test_deep_jets_foliation_residual_is_the_reference(deep_traffic):
    assert len(deep_traffic["is_geodesic"]) == 12
    for fol, stq in deep_traffic["is_geodesic"]:
        assert_same_jets([foliation_residual(fol, stq)],
                         [reference_foliation_residual(fol, stq)])


def test_parabolas_fail_against_the_trivial_structure():
    # leaves of dy - 2x dx are y = x^2 + c; residual s_x + s s_y = 2
    fol = F("-2*x", "1")
    res = foliation_residual(fol, S("0", "0", "0", "0"))
    assert res.agree(jexp("2"))
    assert not is_geodesic(fol, S("0", "0", "0", "0"))


# --- pencils ------------------------------------------------------------------


def test_wedge_and_members():
    pen = Pencil(F("exp(y)", "(1 + x) * exp(y)"), F("0", "1"))
    assert pen.wedge().agree(jexp("exp(y)"))
    assert member(pen, 0).agree(pen.omega0)
    assert member(pen, INF).agree(pen.omega_inf)
    two = member(pen, Fraction(2))
    assert two.P.agree(jexp("exp(y)"))
    assert two.Q.agree(jexp("(1 + x) * exp(y) + 2"))


def test_proportional_generators_are_rejected():
    with pytest.raises(DegenerateWedge):
        Pencil(F("1", "2"), F("1 + x", "2 + x^2"))


def reference_wedge(pencil):
    """``Pencil.wedge`` as two products, a negation and a sum."""
    (p0, q0), (pi, qi) = pencil
    return reference_sub(p0 * qi, q0 * pi)


def _accepted(p0, q0, pi, qi):
    try:
        Pencil.from_jets(p0, q0, pi, qi)
    except DegenerateWedge as err:
        assert str(err) == "generators proportional at the origin"
        return False
    return True


# (p0, q0, p_inf, q_inf) as (constant term, eff); a jet of eff -1 keeps
# no term
_SHORT_PENCILS = [
    ((1, 0), (0, 0), (0, 0), (1, 0)),
    ((1, 0), (2, 0), (1, 0), (2, 0)),
    ((2, 0), (3, 0), (1, 0), (1, 0)),
    ((1, 0), (0, -1), (0, 0), (1, 0)),
    ((1, 0), (0, -1), (1, 0), (1, 0)),
    ((1, 0), (0, -1), (0, -1), (1, 0)),
    ((0, -1), (1, 0), (1, 0), (0, 0)),
    ((0, 0), (1, 0), (1, 0), (0, -1)),
]


@pytest.mark.parametrize("parts", _SHORT_PENCILS)
def test_a_pencil_of_short_windows_is_judged_by_its_wedge(parts):
    # accepted exactly when the wedge jet has a unit constant term, which
    # an empty window against a constant term leaves unknown
    p0, q0, pi, qi = (Jet2.from_terms({(0, 0): c}, 4, eff)
                      for c, eff in parts)
    assert _accepted(p0, q0, pi, qi) \
        == _is_unit(reference_wedge(((p0, q0), (pi, qi))).constant_term)


_PENCIL_JETS = rational_or_dual_jets(max_degree=2)


@settings(deadline=None, max_examples=150)
@given(hs.lists(_PENCIL_JETS, min_size=4, max_size=4),
       hs.lists(hs.integers(-1, 2), min_size=4, max_size=4))
def test_pencils_are_refused_as_their_wedge_jet_decides(parts, windows):
    p0, q0, pi, qi = (f.truncated(eff=e) for f, e in zip(parts, windows))
    try:
        Foliation(p0, q0), Foliation(pi, qi)
    except ValueError:
        return
    assert _accepted(p0, q0, pi, qi) \
        == _is_unit(reference_wedge(((p0, q0), (pi, qi))).constant_term)


@settings(deadline=None, max_examples=100)
@given(hs.lists(_PENCIL_JETS, min_size=4, max_size=4),
       hs.lists(hs.integers(-1, PROP_ORDER), min_size=4, max_size=4))
def test_wedge_is_the_reference_in_short_windows(parts, windows):
    # any four jets, empty ones included: wedge reads only the two pairs
    p0, q0, pi, qi = (f.truncated(eff=e) for f, e in zip(parts, windows))
    pairs = ((p0, q0), (pi, qi))
    assert_same_jets([Pencil.wedge(pairs)], [reference_wedge(pairs)])


def test_a_real_wedge_of_dual_generators_is_stored_as_a_rational_jet():
    # 1/2 * 1 - eps * eps at eff 0: the kernel and the two-product form
    # both store it as the rational jet 1 over 2
    half, one = Jet2.constant(Fraction(1, 2), 4), Jet2.constant(1, 4)
    eps = Jet2({(0, 0): EPS}, 4, 0)
    pairs = ((half, eps), (eps, one))
    for w in (Pencil.wedge(pairs), reference_wedge(pairs)):
        assert (w.order, w.eff, w._num, w._den) == (4, 0, {(0, 0): 1}, 2)


def test_structure_from_graph_pencil():
    # members y' = z solved by lines: the trivial structure
    pen = Pencil(F("1", "0"), F("0", "1"))
    assert structure_from_pencil(pen).agree(S("0", "0", "0", "0"))


def test_structure_from_pencil_with_unit_slot():
    # omega_0 = dx + g dy, omega_inf = dy gives (0, 0, g', 0)
    pen = Pencil(F("1", "x^2"), F("0", "1"))
    assert structure_from_pencil(pen).agree(S("0", "0", "2*x", "0"))


def test_structure_from_exponential_pencil():
    # omega_0 = exp(y)(dx + g dy), omega_inf = dy gives (0, 0, 1 + g', g)
    g = "1 + x"
    pen = Pencil(F("exp(y)", "(" + g + ") * exp(y)"), F("0", "1"))
    assert structure_from_pencil(pen).agree(S("0", "0", "2", g))


def test_structure_from_affine_pencil():
    # omega_0 = -(dx + (g + y) dy), omega_inf = dy gives (0, 0, g', 1)
    pen = Pencil(F("-1", "-(x + y)"), F("0", "1"))
    assert structure_from_pencil(pen).agree(S("0", "0", "1", "1"))


def test_structure_from_twisted_exponential_pencil():
    pen = Pencil(F("exp(x) * (y + exp(x))", "-(y + 2*exp(x))"),
                 F("-exp(x)", "1"))
    assert pen.wedge().agree(jexp("-exp(2*x)"))
    assert structure_from_pencil(pen).agree(
        S("exp(x)", "-1", "0", "exp(-2*x)"))


def test_structure_from_resonant_pencil():
    # the pencil whose z = 0 member is vertical at the origin
    pen = Pencil(F("(1 - x/2) * exp(x)", "x"), F("-exp(x)/2", "1"))
    assert structure_from_pencil(pen).agree(
        S("exp(x)/4", "0", "exp(-x)", "0"))


def test_all_members_are_geodesic_foliations():
    pen = Pencil(F("(1 - x/2) * exp(x)", "x"), F("-exp(x)/2", "1"))
    stq = structure_from_pencil(pen)
    for z in (Fraction(0), Fraction(1), Fraction(-1), Fraction(2, 3), INF):
        assert is_geodesic(member(pen, z), stq)


def test_member_value_is_a_first_integral():
    pen = Pencil(F("exp(x) * (y + exp(x))", "-(y + 2*exp(x))"),
                 F("-exp(x)", "1"))
    stq = structure_from_pencil(pen)
    curve = geodesic_solve(stq, 0, Fraction(1, 5))
    z = member_value_along(pen, curve)
    assert (z - Jet2.constant(z.constant_term, z.order)).is_zero()
    # and a non-geodesic curve is not inside a single member
    bent = curve + Jet2.monomial(2, 0, Fraction(1, 7), curve.order)
    zb = member_value_along(pen, bent)
    assert not (zb - Jet2.constant(zb.constant_term, zb.order)).is_zero()
    # nor is a curve off the origin read at all
    with pytest.raises(NonZeroConstantTerm):
        member_value_along(pen, curve + Fraction(1, 3))


@hs.composite
def pencils_and_curves(draw):
    """A pencil with windows of at least 0 and a curve through the origin
    with a window of at least 1, at a slope where the omega_inf pairing
    does not vanish, of orders 1 to PROP_ORDER."""
    order = draw(hs.integers(1, PROP_ORDER))
    p0, q0, pi, qi = (draw(windowed(order, constant=nonzero_fractions))
                      for _ in range(4))
    curve = draw(windowed(order, x_only=True, low=1, min_eff=1))
    c = [f.constant_term for f in (p0, q0, pi, qi)]
    assume(c[0] * c[3] != c[1] * c[2] and c[2] + c[3] * curve.coeff(1, 0))
    return Pencil.from_jets(p0, q0, pi, qi), curve


@settings(REDRAWN, max_examples=50)
@given(hs.data(), pencils_and_curves())
def test_member_value_keeps_its_window_when_the_inputs_are_redrawn(data,
                                                                  case):
    pen, curve = case
    full = (pen.map(lambda fol: fol.map(lambda f: data.draw(redrawn(f)))),
            data.draw(redrawn(curve, x_only=True)))
    assert_window_holds(member_value_along(pen, curve),
                        member_value_along(*full))


@settings(REDRAWN, max_examples=15)
@given(hs.data(), hs.integers(1, PROP_ORDER))
def test_lie_derivative_form_keeps_its_window_when_the_inputs_are_redrawn(
        data, order):
    field = VectorField(*(data.draw(windowed_or_dual(order, min_eff=1))
                          for _ in range(2)))
    fol = Foliation(data.draw(windowed_or_dual(order, min_eff=1,
                                               constant=nonzero_fractions)),
                    data.draw(windowed_or_dual(order, min_eff=1)))
    full = [r.map(lambda f: data.draw(redrawn(f))) for r in (field, fol)]
    for got, want in zip(lie_derivative_form(field, fol),
                         lie_derivative_form(*full)):
        assert_window_holds(got, want)


@hs.composite
def short_pencils(draw):
    """A pencil over the rationals or the duals, of orders 1 to PROP_ORDER,
    each jet known through degree 1 at least, with a unit wedge."""
    order = draw(hs.integers(1, PROP_ORDER))
    p0, q0, pi, qi = (draw(windowed_or_dual(order, min_eff=1,
                                            constant=nonzero_fractions))
                      for _ in range(4))
    assume(_is_unit(p0.constant_term * qi.constant_term
                    - q0.constant_term * pi.constant_term))
    return Pencil.from_jets(p0, q0, pi, qi)


@settings(REDRAWN, max_examples=15)
@given(hs.data(), short_pencils())
def test_structure_from_pencil_keeps_its_window_when_the_pencil_is_redrawn(
        data, pen):
    full = pen.map(lambda fol: fol.map(lambda f: data.draw(redrawn(f))))
    for got, want in zip(structure_from_pencil(pen),
                         structure_from_pencil(full)):
        assert_window_holds(got, want)


@settings(max_examples=25, deadline=None)
@given(p0=jets(order=PROP_ORDER, max_degree=2),
       q1=jets(order=PROP_ORDER, max_degree=2),
       pi=jets(order=PROP_ORDER, unit_constant=True, max_degree=2),
       z=small_fractions)
def test_pencil_members_solve_the_pencil_structure(p0, q1, pi, z):
    one = Jet2.constant(Fraction(1), PROP_ORDER)
    pen = Pencil(Foliation(p0, one + q1 * q1), Foliation(pi, Jet2.zero(PROP_ORDER)))
    stq = structure_from_pencil(pen)
    assert is_geodesic(member(pen, z), stq)
    assert is_geodesic(member(pen, INF), stq)


# --- the slope kernel ----------------------------------------------------------


def reference_structure_from_pencil(pencil):
    """``structure_from_pencil`` with the slope products of the reference
    ``slope_product``, a ``Jet2`` product and sum per term."""
    (p0, q0), (pi, qi) = pencil
    dr = SlopePoly([p0.d_dx(), q0.d_dx() + p0.d_dy(), q0.d_dy()])
    ds = SlopePoly([pi.d_dx(), qi.d_dx() + pi.d_dy(), qi.d_dy()])
    top = (slope_product(dr, SlopePoly([pi, qi]))
           - slope_product(SlopePoly([p0, q0]), ds))
    wedge = reference_wedge(pencil)
    return ProjectiveStructure(*(top.coeff(k) / wedge for k in range(4)))


def test_structure_from_pencil_is_the_reference_on_every_registry_call(
        registry_traffic):
    calls, passes = registry_traffic
    assert {order: p["structure_from_pencil"] for order, p in passes.items()} \
        == {12: 27, 8: 27}
    for pen, _ in calls["structure_from_pencil"]:
        assert_same_structure(structure_from_pencil(pen),
                              reference_structure_from_pencil(pen))
        assert_same_structure([pen.wedge()], [reference_wedge(pen)])


def test_a_structure_from_pencil_call_keeps_its_jet_traffic(registry_traffic):
    # a call builds 27 jets: 8 derivatives and 2 sums, 4 slots of each
    # slope product, 4 differences, the wedge and 4 quotients (34 with a
    # negation per difference and 4 jets for the wedge, 50 with a jet per
    # term and per sum)
    calls, _ = registry_traffic
    assert {n for *_, n in calls["structure_from_pencil"]} == {27}


@pytest.mark.parametrize("order", (16, 20))
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_deep_jets_pencils_induce_the_reference(seed, order):
    workloads = bench_workloads()
    for index in (0, 1):
        pen = workloads.deep_inputs(projstruct, seed, index, order)["pencil"]
        assert_same_structure(structure_from_pencil(pen),
                              reference_structure_from_pencil(pen))
        assert_same_structure([pen.wedge()], [reference_wedge(pen)])


@hs.composite
def windowed_pencils(draw):
    """Pencils of orders 2 to PROP_ORDER whose four jets are each cut to a
    random window that keeps at least the constant term."""
    order = draw(hs.integers(2, PROP_ORDER))
    units = [draw(jets(order=order, unit_constant=True)) for _ in range(2)]
    tails = [draw(jets(order=order, zero_constant=True)) for _ in range(2)]
    p0, q0, pi, qi = (f.truncated(eff=draw(hs.integers(0, order)))
                      for f in (units[0], tails[0], tails[1], units[1]))
    return Pencil.from_jets(p0, q0, pi, qi)


@settings(deadline=None, max_examples=60)
@given(windowed_pencils())
def test_structure_from_pencil_is_the_reference_in_short_windows(pen):
    assert_same_structure(structure_from_pencil(pen),
                          reference_structure_from_pencil(pen))


@hs.composite
def one_order_slope_polys(draw):
    """Two slope polynomials of degree 0 to 3 whose coefficients share one
    order and each have a random window."""
    order = draw(hs.integers(0, PROP_ORDER))

    def poly():
        return SlopePoly([
            draw(jets(order=order)).truncated(eff=draw(hs.integers(-1, order)))
            for _ in range(draw(hs.integers(1, 4)))])
    return poly(), poly()


@settings(deadline=None, max_examples=80)
@given(one_order_slope_polys())
def test_slope_products_of_one_order_are_the_reference(factors):
    f, g = factors
    got, want = f * g, slope_product(f, g)
    assert len(got.coeffs) == len(want.coeffs)
    assert_same_structure(got.coeffs, want.coeffs)


def test_a_slope_product_slot_takes_the_least_order_of_its_own_terms():
    # The reference gives every slot the least order of all coefficients,
    # the kernel the least order of the slot's own products.  The two
    # rules part only for factors of several orders, which no caller
    # builds: a Pencil's jets, and so their derivatives, share one order.
    f = SlopePoly([Jet2.variable("x", 4), Jet2.variable("y", 8)])
    g = SlopePoly([Jet2.constant(1, 8)])
    assert [c.order for c in (f * g).coeffs] == [4, 8]
    assert [c.order for c in slope_product(f, g).coeffs] == [4, 4]
    with pytest.raises(ValueError, match="parts must share one order"):
        Pencil.from_jets(*f.coeffs, *g.coeffs, Jet2.constant(1, 8))


# --- the cleared numerator ---------------------------------------------------


def reference_cleared_residual(fol, st):
    """``_cleared_residual`` as nested ``Jet2`` products, sums and
    two-jet differences, the form it had before each of its six parts was
    one kernel sum."""
    p, q, (a, b, c, d) = fol.P, fol.Q, st
    return (q * reference_sub(p * reference_sub(p.d_dy() + b * q, c * p),
                              q * (p.d_dx() + a * q))
            + p * reference_sub(q * q.d_dx(),
                                p * reference_sub(q.d_dy(), d * p)))


def test_cleared_residual_is_the_reference_on_every_registry_call(
        registry_traffic):
    calls, passes = registry_traffic
    assert {order: p["is_geodesic"] for order, p in passes.items()} \
        == {12: 85, 8: 85}
    for fol, st, _ in calls["is_geodesic"]:
        up = _upright(fol, st)
        assert_same_structure([_cleared_residual(*up)],
                              [reference_cleared_residual(*up)])


def test_an_is_geodesic_call_keeps_its_jet_traffic(registry_traffic):
    # an upright member costs 10 jets: 4 derivatives and the 6 kernel sums
    # of the cleared numerator (25 with a jet per operator); a member
    # vertical at the origin 10 more for the exchanged axes
    calls, _ = registry_traffic
    assert Counter(n for *_, n in calls["is_geodesic"]) \
        == {10: 140, 20: 30}


def test_deep_jets_members_clear_the_reference_residual(deep_traffic):
    assert len(deep_traffic["is_geodesic"]) == 12
    for fol, st in deep_traffic["is_geodesic"]:
        up = _upright(fol, st)
        assert_same_structure([_cleared_residual(*up)],
                              [reference_cleared_residual(*up)])


@hs.composite
def windowed_members(draw):
    """A foliation and a structure of orders 1 to PROP_ORDER over the
    rationals or the duals, some jets cut to a random window, empty ones
    included: the numerator needs no unit Q, so P or Q may be empty."""
    order = draw(hs.integers(1, PROP_ORDER))
    unit = draw(rational_or_dual_jets(order, unit_constant=True))
    if not _is_unit(unit.constant_term):
        unit = Jet2.constant(1, order)
    parts = [unit, draw(rational_or_dual_jets(order))]
    if draw(hs.booleans()):
        parts.reverse()
    order = draw(hs.integers(1, PROP_ORDER))
    parts += [draw(rational_or_dual_jets(order)) for _ in range(4)]
    p, q, *slots = draw(cut_windows(parts))
    if not (_is_unit(p.constant_term) or _is_unit(q.constant_term)):
        p, q = parts[:2]
    return Foliation(p, q), ProjectiveStructure(*slots)


@settings(deadline=None, max_examples=100)
@given(windowed_members())
def test_cleared_residual_is_the_reference_in_short_windows(case):
    assert_same_jets([_cleared_residual(*case)],
                     [reference_cleared_residual(*case)])


def _window(eff, jet):
    return jet if eff is None else jet.truncated(eff=eff)


@settings(max_examples=60, deadline=None)
@given(p0=jets(zero_constant=True, max_degree=2),
       q0=jets(zero_constant=True, max_degree=2),
       pi=jets(zero_constant=True, max_degree=2),
       qi=jets(zero_constant=True, max_degree=2),
       c0=nonzero_fractions, ci=nonzero_fractions,
       z=hs.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 2), INF]),
       bend=hs.one_of(hs.none(), structures(max_terms=2)),
       windows=hs.one_of(hs.none(), hs.lists(
           hs.one_of(hs.none(), hs.integers(PROP_ORDER - 3, PROP_ORDER)),
           min_size=6, max_size=6)))
def test_cleared_numerator_decides_like_the_residual(p0, q0, pi, qi, c0, ci,
                                                     z, bend, windows):
    # omega_0 is vertical at the origin, so the member z = 0 is too;
    # windows cut P, Q, A, B, C, D to the listed eff (None: uncut)
    one = Jet2.constant(1, PROP_ORDER)
    pen = Pencil(Foliation(one.scale(c0) + p0, q0),
                 Foliation(pi, one.scale(ci) + qi))
    stq = structure_from_pencil(pen)
    if bend is not None:
        stq = ProjectiveStructure(*(a + b for a, b in zip(stq, bend)))
    fol = member(pen, z)
    assert fol.is_vertical_at_origin() == (z == 0)
    if windows is not None:
        fol = Foliation(_window(windows[0], fol.P), _window(windows[1], fol.Q))
        stq = ProjectiveStructure(*map(_window, windows[2:], stq))
    res = foliation_residual(fol, stq)
    assert is_geodesic(fol, stq) == res.is_zero()
    if bend is None:
        assert res.is_zero()
    if windows is None:
        assert _cleared_residual(*_upright(fol, stq)).eff == res.eff


@hs.composite
def short_structure_windows(draw):
    """A pencil member and its structure, optionally bent, with P and Q
    cut to random windows and every structure slot cut below P's."""
    order = PROP_ORDER
    one = Jet2.constant(1, order)
    p0, q0, pi, qi = (draw(jets(zero_constant=True, max_degree=2))
                      for _ in range(4))
    c0, ci = draw(nonzero_fractions), draw(nonzero_fractions)
    pen = Pencil(Foliation(one.scale(c0) + p0, q0),
                 Foliation(pi, one.scale(ci) + qi))
    stq = structure_from_pencil(pen)
    bend = draw(hs.one_of(hs.none(), structures(max_terms=2)))
    if bend is not None:
        stq = ProjectiveStructure(*(a + b for a, b in zip(stq, bend)))
    fol = member(pen, draw(hs.sampled_from([0, 1, Fraction(-1, 2), INF])))
    pe, qe = (draw(hs.integers(order - 3, order)) for _ in range(2))
    return (Foliation(fol.P.truncated(eff=pe), fol.Q.truncated(eff=qe)),
            ProjectiveStructure(*(f.truncated(eff=pe - draw(hs.integers(1, 3)))
                                  for f in stq)))


@settings(max_examples=60, deadline=None)
@given(short_structure_windows())
def test_short_structure_windows_keep_the_residual_within_its_bound(case):
    fol, stq = case
    res = foliation_residual(fol, stq)
    up, (a, *_) = _upright(fol, stq)
    bound = min(min(up.P.eff, up.Q.eff + up.P._val_bound()) - 1, a.eff)
    assert bound >= res.eff
    assert is_geodesic(fol, stq) == res.is_zero()


def test_a_short_structure_window_needs_no_residual(monkeypatch):
    # horizontal leaves against y'' = 0 known through degree 2: N = -A Q^3
    # is empty through degree 2, and the residual -A is known no further
    calls = []

    def counting(*args):
        calls.append(args)
        return foliation_residual(*args)

    monkeypatch.setattr(pencils, "foliation_residual", counting)
    stq = S("0", "0", "0", "0").map(lambda f: f.truncated(eff=2))
    assert is_geodesic(F("0", "1"), stq)
    assert calls == []


def test_dense_members_are_tested_without_an_inverse(monkeypatch):
    order = 16

    def dense(const):   # every monomial of degree <= 3
        return Jet2.from_terms({(i, j): Fraction(i - 2 * j + 1, 1 + i + j)
                                for i in range(4) for j in range(4 - i)
                                if i + j} | {(0, 0): const}, order)

    pen = Pencil.from_jets(dense(1), dense(0), dense(0), dense(1))
    stq = structure_from_pencil(pen)
    calls = {"inverse": 0, "residual": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Jet2, "inverse", counting("inverse", Jet2.inverse))
    monkeypatch.setattr(pencils, "foliation_residual",
                        counting("residual", foliation_residual))
    for z in (INF, Fraction(-3, 4)):
        assert is_geodesic(member(pen, z), stq)
    assert calls == {"inverse": 0, "residual": 0}


# --- Lie derivatives of forms -------------------------------------------------


def test_lie_derivative_of_coordinate_forms():
    v = VectorField(jexp("x*y"), jexp("y - x^2"))
    dp, dq = lie_derivative_form(v, F("1", "0"))
    assert dp.agree(jexp("y")) and dq.agree(jexp("x"))
    dp, dq = lie_derivative_form(v, F("0", "1"))
    assert dp.agree(jexp("-2*x")) and dq.agree(jexp("1"))


def test_lie_derivative_is_a_derivation_over_scaling():
    v = VectorField(jexp("1 + y"), jexp("x"))
    f = jexp("1 + x^2 * y")
    fol = F("y - 1", "1 + x")
    dp, dq = lie_derivative_form(v, fol)
    sp, sq = lie_derivative_form(v, Foliation(f * fol.P, f * fol.Q))
    vf = v.apply(f)
    assert sp.agree(vf * fol.P + f * dp)
    assert sq.agree(vf * fol.Q + f * dq)


def test_vertical_translation_fixes_the_graph_pencil_projectively():
    # d/dy sends omega_0 = exp(y)(dx + g dy) to itself, omega_inf = dy to 0
    g = "1 - x"
    pen = Pencil(F("exp(y)", "(" + g + ") * exp(y)"), F("0", "1"))
    dp, dq = lie_derivative_form(VectorField(jexp("0"), jexp("1")),
                                 pen.omega0)
    assert dp.agree(pen.omega0.P) and dq.agree(pen.omega0.Q)
    dp, dq = lie_derivative_form(VectorField(jexp("0"), jexp("1")),
                                 pen.omega_inf)
    assert dp.is_zero() and dq.is_zero()
