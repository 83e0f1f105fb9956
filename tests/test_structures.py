from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from projstruct.duals import EPS, DualRational
from projstruct.errors import (DegenerateJacobian, NonZeroConstantTerm,
                               NotInNormalForm)
from projstruct.cases import _FIELDS, CASES, _field, _structure
from projstruct.fields import VectorField, residual, symmetry_dim
from projstruct.jets import (Jet2, _graded_solve, _is_unit, _sum_of_products,
                             comp_inverse, compose1, exp_series, substitute)
from projstruct.pencils import Foliation, Pencil, structure_from_pencil
from projstruct.slopes import SlopePoly
from projstruct.structures import (
    DiffeoGerm,
    LiouvillePair,
    ProjectiveStructure,
    apply_x_reparam,
    apply_y_scale,
    apply_y_shift,
    c_star_action,
    eval_along,
    geodesic_residual,
    geodesic_solve,
    is_linearizable,
    liouville,
    normalize_D1,
    pullback,
    swap_axes,
    _all_along,
    _rhs_along,
)

from conftest import (
    PROP_ORDER,
    REDRAWN,
    _strip_linear,
    assert_same_jets,
    assert_same_structure,
    assert_window_holds,
    bench_workloads,
    cut_windows,
    diffeo_germs,
    jets,
    nonzero_fractions,
    rational_or_dual_jets,
    redrawn,
    reference_liouville,
    reference_substitute_all,
    slope_product,
    slope_sum,
    slope_times,
    small_fractions,
    structures,
    univariate_germs,
    windowed,
    windowed_or_dual,
)

N = 10


def S(a, b, c, d, order=N):
    from projstruct.expressions import expand
    return ProjectiveStructure(expand(a, None, order), expand(b, None, order),
                               expand(c, None, order), expand(d, None, order))


def jexp(text, order=N):
    from projstruct.expressions import expand
    return expand(text, None, order)


# --- records -----------------------------------------------------------------

# Valid parts of each record at a given order.
_RECORD_PARTS = {
    ProjectiveStructure: lambda n: [Jet2.zero(n)] * 4,
    DiffeoGerm: lambda n: [Jet2.variable("x", n), Jet2.variable("y", n)],
    LiouvillePair: lambda n: [Jet2.zero(n)] * 2,
    VectorField: lambda n: [Jet2.zero(n)] * 2,
    Foliation: lambda n: [Jet2.constant(1, n), Jet2.zero(n)],
    Pencil: lambda n: [Foliation(Jet2.constant(1, n), Jet2.zero(n)),
                       Foliation(Jet2.zero(n), Jet2.constant(1, n))],
}


@pytest.mark.parametrize("record", _RECORD_PARTS, ids=lambda r: r.__name__)
def test_record_parts_of_two_orders_are_refused(record):
    parts = _RECORD_PARTS[record]
    assert record(*parts(4)).order == 4
    with pytest.raises(ValueError, match="parts must share one order"):
        record(*parts(3)[:1], *parts(4)[1:])


# --- pullback ----------------------------------------------------------------


def reference_pullback(germ, stq):
    """``pullback`` as ``SlopePoly`` products and sums, the form it had
    before it summed each coefficient through ``_sum_of_products``, on
    the substitution of ``reference_substitute_all``, which has no slice
    path for a linear germ."""
    u, v = germ.u, germ.v
    ux, uy = u.d_dx(), u.d_dy()
    vx, vy = v.d_dx(), v.d_dy()
    dn = SlopePoly([ux, uy])                       # dX/dx as a slope poly
    nn = SlopePoly([vx, vy])                       # dY/dx
    q2 = SlopePoly([ux.d_dx(), 2 * ux.d_dy(), uy.d_dy()])
    p2 = SlopePoly([vx.d_dx(), 2 * vx.d_dy(), vy.d_dy()])
    jac = ux * vy - uy * vx
    if not _is_unit(jac.constant_term):
        raise DegenerateJacobian("Jacobian vanishes at the origin")
    a, b, c, d = reference_substitute_all(stq, u, v)
    dn2 = slope_product(dn, dn)
    dn3 = slope_product(dn2, dn)
    nn2 = slope_product(nn, nn)
    nn3 = slope_product(nn2, nn)
    total = (slope_sum(slope_times(dn3, a),
                       slope_times(slope_product(nn, dn2), b),
                       slope_times(slope_product(nn2, dn), c),
                       slope_times(nn3, d))
             - (slope_product(p2, dn) - slope_product(nn, q2)))
    assert len(total.coeffs) <= 4   # pullback stays cubic in the slope
    return ProjectiveStructure(*(total.coeff(k) / jac for k in range(4)))


def test_pullback_is_the_reference_on_every_registry_call(registry_traffic):
    calls, passes = registry_traffic
    assert {order: p["pullback"] for order, p in passes.items()} \
        == {12: 9, 8: 9}
    for germ, stq, _ in calls["pullback"]:
        assert_same_structure(pullback(germ, stq),
                              reference_pullback(germ, stq))


def test_a_pullback_call_keeps_its_jet_traffic(registry_traffic):
    # outside _substitute_all a call builds 29 jets: 4 first and 6 second
    # derivatives, the Jacobian, 6 squares, the 4 coefficients of the
    # linear factors a dn + b nn and c dn + d nn, 4 slots and 4 quotients
    # (41 with the 16 cubic coefficients, 152 as SlopePoly products).  A
    # linear germ, as in thm31.i.a's six scaling-action calls, mixes each
    # slot from the substituted structure by constants and builds no
    # linear factor: 25.  No registry structure is known less far than
    # its pullback's slots, so no call forms a cubic coefficient
    calls, _ = registry_traffic
    assert {n for *_, n in calls["pullback"]} == {25, 29}
    assert sum(n == 25 for *_, n in calls["pullback"]) == 12   # 2 passes


def test_deep_jets_pullbacks_are_the_reference(deep_traffic):
    calls = deep_traffic["pullback"]
    assert len(calls) == 30
    for germ, stq in calls:
        assert_same_structure(pullback(germ, stq),
                              reference_pullback(germ, stq))


@st.composite
def windowed_pullbacks(draw):
    """A germ and a structure of orders 2 to PROP_ORDER, often different,
    each jet cut to a random window: a germ component keeps at least its
    linear part, a structure slot loses up to its top three degrees."""
    order = draw(st.integers(2, PROP_ORDER))
    germ = draw(diffeo_germs(order))
    # low-degree tails give the second derivatives something to carry
    tails = [_strip_linear(draw(jets(order=order, zero_constant=True,
                                     max_degree=3))) for _ in range(2)]
    germ = DiffeoGerm(*((f + t).truncated(eff=draw(st.integers(1, order)))
                        for f, t in zip((germ.u, germ.v), tails)))
    order = draw(st.integers(2, PROP_ORDER))
    stq = draw(structures(order=order, max_terms=4))
    return germ, ProjectiveStructure(
        *(f.truncated(eff=draw(st.integers(order - 3, order))) for f in stq))


@settings(deadline=None, max_examples=60)
@given(windowed_pullbacks())
def test_pullback_is_the_reference_in_short_windows(inputs):
    assert_same_structure(pullback(*inputs), reference_pullback(*inputs))


@settings(deadline=None, max_examples=30)
@given(jets(max_terms=3), jets(max_terms=3), structures())
def test_pullback_is_the_reference_over_the_duals(a, b, stq):
    # the germ (x + eps a, y + eps b) of the residual's sign oracle
    def moved(name, jet):
        return Jet2.variable(name, jet.order) + Jet2(
            {k: DualRational(0, c) for k, c in jet.coeffs.items()}, jet.order)
    germ = DiffeoGerm(moved("x", a), moved("y", b))
    assert_same_structure(pullback(germ, stq), reference_pullback(germ, stq))


def _moved(name, jet):
    """The coordinate ``name`` plus eps times ``jet``, over the duals."""
    return Jet2.variable(name, jet.order) + Jet2(
        {k: DualRational(0, c) for k, c in jet.coeffs.items()}, jet.order)


@st.composite
def pullbacks_with_empty_slots(draw):
    """A germ over the rationals, or (x + eps a, y + eps b) over the duals,
    and a structure over the rationals or the duals, every slot cut to a
    random window, empty ones included."""
    order = draw(st.integers(1, PROP_ORDER))
    if draw(st.booleans()):
        germ = draw(diffeo_germs(order))
    else:
        a, b = (draw(jets(order=order, max_terms=3)) for _ in range(2))
        germ = DiffeoGerm(_moved("x", a), _moved("y", b))
    slots = (draw(rational_or_dual_jets(order)) for _ in range(4))
    return germ, ProjectiveStructure(
        *(f.truncated(eff=draw(st.integers(-1, order))) for f in slots))


_X6, _Y6 = Jet2.variable("x", 6), Jet2.variable("y", 6)
_X2, _Y2 = Jet2.variable("x", 2), Jet2.variable("y", 2)


# (x + 2y, y - x), and a germ with that linear part and cubic terms
_LINEAR6 = DiffeoGerm(_X6 + _Y6.scale(2), _Y6 - _X6)
_CUBIC6 = DiffeoGerm(_X6 + _Y6.scale(2) + _X6 * _X6 * _X6,
                     _Y6 - _X6 + _Y6 * _Y6 * _Y6)
# C = x y, known through the order or through degree 3 alone
_C_FULL = ProjectiveStructure(Jet2.constant(1, 6), Jet2.zero(6), _X6 * _Y6,
                              Jet2.zero(6))
_C_TO_3 = ProjectiveStructure(*_C_FULL[:2], _C_FULL.C.truncated(eff=3),
                              _C_FULL.D)


@settings(deadline=None, max_examples=80)
@given(pullbacks_with_empty_slots())
# The p coefficient of dn nn^2 vanishes at the origin for this linear part,
# so C, known through degree 3, does not bound slot B: its window is 4, as
# summed by the 16 cubic coefficients; C in the linear factors alone would
# give 3.  The linear germ mixes the slots by constants; the germ with
# cubic terms takes the grouped path, where the coefficient is a jet of
# valuation 1.
@example((_LINEAR6, _C_TO_3))
@example((_CUBIC6, _C_TO_3))
# Over the duals v_x^2 = eps^2 vanishes, which the 16 cubic coefficients
# see and the linear factors alone do not: slot B keeps degree 0.
@example((DiffeoGerm(_X2 + EPS, _Y2 + _X2 * EPS),
          ProjectiveStructure(*(Jet2.zero(2, e) for e in (0, 1, 1, 0)))))
def test_pullback_is_the_reference_with_empty_slots(inputs):
    assert_same_jets(pullback(*inputs), reference_pullback(*inputs))


def _kernel_sums(monkeypatch, germ):
    """The ``_sum_of_products`` calls of ``pullback(germ, .)`` on C = x y
    known through the order, and on C known through degree 3 alone."""
    calls = []

    def counting(terms, cap=None):
        calls.append(cap)
        return _sum_of_products(terms, cap)

    monkeypatch.setattr("projstruct.structures._sum_of_products", counting)
    pullback(germ, _C_FULL)
    full = len(calls)
    pullback(germ, _C_TO_3)
    return full, len(calls) - full


def test_pullback_computes_cubic_coefficients_only_for_short_slots(
        monkeypatch):
    # a structure known through the working order needs none of the 16
    # cubic coefficients for its windows; a slot known less far than the
    # rest of a result slot needs its own coefficient there, one per slot.
    # The germ has cubic terms, so it takes the grouped path: the
    # Jacobian, 4 linear factors and 4 slots
    assert _kernel_sums(monkeypatch, _CUBIC6) == (9, 9 + 4)


def test_a_linear_pullback_computes_cubic_coefficients_only_for_short_slots(
        monkeypatch):
    # a linear germ sums the Jacobian alone and mixes each slot by
    # constants; a short structure slot still takes one cubic coefficient
    # per result slot for its windows
    assert _kernel_sums(monkeypatch, _LINEAR6) == (1, 1 + 4)


@st.composite
def linear_pullbacks(draw):
    """A linear germ over the rationals, integer or fractional
    coefficients, zero at times, each component at its own eff (1 to the
    order), and a structure over the rationals or the duals at another
    order at times, every slot cut to a random window, empty ones
    included."""
    order = draw(st.integers(1, PROP_ORDER))
    a, b, c, d = (draw(st.one_of(st.integers(-3, 3), small_fractions))
                  for _ in range(4))
    if a * d - b * c == 0:
        a = d = 1 + abs(b) + abs(c)   # force a unit determinant
    germ = DiffeoGerm(*(Jet2({(1, 0): p, (0, 1): q}, order,
                             draw(st.integers(1, order)))
                        for p, q in ((a, b), (c, d))))
    order = draw(st.integers(1, PROP_ORDER))
    slots = (draw(rational_or_dual_jets(order, max_terms=8))
             for _ in range(4))
    return germ, ProjectiveStructure(
        *(f.truncated(eff=draw(st.integers(-1, order))) for f in slots))


@settings(deadline=None, max_examples=80)
@given(linear_pullbacks())
@example((_LINEAR6, _C_TO_3))
def test_a_linear_pullback_is_the_reference(inputs):
    # a rational linear germ mixes the substituted slots by the constants
    # of its 16 cubic coefficients, one _lincomb per slot, in the windows
    # of _cubic_windows: the reference's order, eff and stored terms
    from projstruct import structures as structures_module

    mixed, lincomb = [], structures_module._lincomb

    def mixing(*args):
        mixed.append(args)
        return lincomb(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structures_module, "_lincomb", mixing)
        got = pullback(*inputs)
    assert len(mixed) == 4
    assert_same_jets(got, reference_pullback(*inputs))


def test_pullback_along_identity():
    stq = S("x*y", "1 + x", "y^2", "3")
    identity = DiffeoGerm(Jet2.variable("x", N), Jet2.variable("y", N))
    assert pullback(identity, stq).agree(stq)


def test_pullback_rejects_singular_linear_part():
    with pytest.raises(DegenerateJacobian):
        DiffeoGerm(Jet2.variable("x", N) + Jet2.variable("y", N),
                   Jet2.variable("x", N) + Jet2.variable("y", N))


def test_pullback_rejects_moving_origin():
    with pytest.raises(DegenerateJacobian):
        DiffeoGerm(Jet2.constant(1, N) + Jet2.variable("x", N),
                   Jet2.variable("y", N))


@settings(deadline=None, max_examples=40)
@given(diffeo_germs(), diffeo_germs(), structures())
def test_pullback_functoriality(g1, g2, stq):
    lhs = pullback(g1.compose(g2), stq)
    rhs = pullback(g2, pullback(g1, stq))
    assert lhs.agree(rhs)


@settings(deadline=None, max_examples=25)
@given(diffeo_germs(), structures(max_terms=2))
def test_pullback_geodesic_correspondence(germ, stq):
    """The defining property: solutions correspond under the germ."""
    back = pullback(germ, stq)
    # geodesic of the pulled-back structure through the origin
    curve = geodesic_solve(back, 0, Fraction(1, 2))
    assert geodesic_residual(back, curve).is_zero()
    # push it forward and check it solves the original equation
    xs = eval_along(germ.u, curve)
    ys = eval_along(germ.v, curve)
    if xs.coeff(1, 0) == 0:
        return  # image curve is vertical; graph form does not apply
    graph = compose1(ys, comp_inverse(xs))
    assert geodesic_residual(stq, graph).is_zero()


# --- closed-form laws against the generic pullback ---------------------------


@settings(deadline=None, max_examples=30)
@given(univariate_germs(), structures())
def test_x_reparam_matches_pullback(psi, stq):
    germ = DiffeoGerm(psi, Jet2.variable("y", psi.order))
    assert apply_x_reparam(stq, psi).agree(pullback(germ, stq))


@settings(deadline=None, max_examples=30)
@given(jets(x_only=True, zero_constant=True), structures())
def test_y_shift_matches_pullback(phi, stq):
    germ = DiffeoGerm(Jet2.variable("x", phi.order),
                      Jet2.variable("y", phi.order) + phi)
    assert apply_y_shift(stq, phi).agree(pullback(germ, stq))


@settings(deadline=None, max_examples=30)
@given(nonzero_fractions, structures())
def test_y_scale_matches_pullback(a0, stq):
    order = stq.order
    germ = DiffeoGerm(Jet2.variable("x", order),
                      Jet2.variable("y", order).scale(a0))
    assert apply_y_scale(stq, a0).agree(pullback(germ, stq))


# --- window honesty of the laws that divide -------------------------------------


@st.composite
def short_germs(draw, order):
    """A germ of ``order`` known through degree 2 at least: a unimodular
    linear part plus a rational tail, or (x + eps a, y + eps b) for a and b
    vanishing at the origin."""
    if draw(st.booleans()):
        u, v = (draw(windowed(order, low=1, min_eff=2)) for _ in range(2))
        return DiffeoGerm(*(_strip_linear(f) + lin for f, lin in (
            (u, Jet2({(1, 0): 1, (0, 1): 2}, order)),
            (v, Jet2({(1, 0): 1, (0, 1): 3}, order)))))
    a, b = (draw(windowed(order, low=1, min_eff=2)) for _ in range(2))
    return DiffeoGerm(*(Jet2.variable(name, order) + f.scale(EPS)
                        for name, f in (("x", a), ("y", b))))


@settings(REDRAWN, max_examples=15)
@given(st.data(), st.integers(2, PROP_ORDER))
def test_pullback_keeps_its_window_when_the_inputs_are_redrawn(data, order):
    germ = data.draw(short_germs(order))
    stq = ProjectiveStructure(*(data.draw(windowed_or_dual(order))
                                for _ in range(4)))
    full = (germ.map(lambda f: data.draw(redrawn(f))),
            stq.map(lambda f: data.draw(redrawn(f))))
    for got, want in zip(pullback(germ, stq), pullback(*full)):
        assert_window_holds(got, want)


@settings(REDRAWN, max_examples=15)
@given(st.data(), st.integers(2, PROP_ORDER))
def test_x_reparam_keeps_its_window_when_the_inputs_are_redrawn(data, order):
    psi = data.draw(windowed_or_dual(order, x_only=True, low=2, min_eff=2)) \
        + Jet2.monomial(1, 0, data.draw(nonzero_fractions), order)
    stq = ProjectiveStructure(*(data.draw(windowed_or_dual(order))
                                for _ in range(4)))
    full = (stq.map(lambda f: data.draw(redrawn(f))),
            data.draw(redrawn(psi, x_only=True)))
    for got, want in zip(apply_x_reparam(stq, psi), apply_x_reparam(*full)):
        assert_window_holds(got, want)


@settings(REDRAWN, max_examples=20)
@given(st.data(), st.integers(2, PROP_ORDER))
def test_liouville_keeps_its_window_when_the_structure_is_redrawn(data,
                                                                  order):
    stq = ProjectiveStructure(*(data.draw(windowed_or_dual(order, min_eff=2))
                                for _ in range(4)))
    full = stq.map(lambda f: data.draw(redrawn(f)))
    for got, want in zip(liouville(stq), liouville(full)):
        assert_window_holds(got, want)


@settings(REDRAWN, max_examples=15)
@given(st.data(), st.integers(2, PROP_ORDER))
def test_a_y_shift_keeps_its_window_when_the_inputs_are_redrawn(data, order):
    phi = data.draw(windowed_or_dual(order, x_only=True, low=1, min_eff=2))
    stq = ProjectiveStructure(*(data.draw(windowed_or_dual(order))
                                for _ in range(4)))
    full = (stq.map(lambda f: data.draw(redrawn(f))),
            data.draw(redrawn(phi, x_only=True)))
    for got, want in zip(apply_y_shift(stq, phi), apply_y_shift(*full)):
        assert_window_holds(got, want)


@settings(REDRAWN, max_examples=15)
@given(st.data(), st.integers(1, PROP_ORDER), nonzero_fractions)
def test_a_y_scale_keeps_its_window_when_the_structure_is_redrawn(data, order,
                                                                  a0):
    stq = ProjectiveStructure(*(data.draw(windowed_or_dual(order))
                                for _ in range(4)))
    full = stq.map(lambda f: data.draw(redrawn(f)))
    for got, want in zip(apply_y_scale(stq, a0), apply_y_scale(full, a0)):
        assert_window_holds(got, want)


@settings(REDRAWN, max_examples=15)
@given(st.data(), st.integers(3, PROP_ORDER))
def test_normalize_D1_keeps_its_window_when_the_structure_is_redrawn(data,
                                                                     order):
    slots = [data.draw(windowed_or_dual(order, x_only=True, min_eff=3))
             for _ in range(3)]
    slots.append(data.draw(windowed_or_dual(order, x_only=True, min_eff=3,
                                            constant=nonzero_fractions)))
    stq = ProjectiveStructure(*slots)
    full = stq.map(lambda f: data.draw(redrawn(f, x_only=True)))
    (out, germ), (out_full, germ_full) = normalize_D1(stq), normalize_D1(full)
    for got, want in zip((*out, *germ), (*out_full, *germ_full)):
        assert_window_holds(got, want)


def test_each_law_divides_in_one_graded_solve(monkeypatch):
    # pullback and structure_from_pencil divide four slots in one packed
    # pass (jets._quotients); apply_x_reparam divides its two quotients
    # with `/`, one solve each, since a packed pair of two costs more than
    # it saves
    calls = []

    def counting(*args):
        calls.append(args)
        return _graded_solve(*args)

    monkeypatch.setattr("projstruct.jets._graded_solve", counting)
    stq = S("x*y + 1", "2*y - x", "x^2 + y", "1/3 + x")
    pen = Pencil.from_jets(jexp("1 + x*y"), jexp("y^2"), jexp("x"),
                           jexp("2 - y"))
    for call, solves in (
            (lambda: pullback(DiffeoGerm(jexp("x + y^2"),
                                         jexp("y - x^3 + x*y")), stq), 1),
            (lambda: structure_from_pencil(pen), 1),
            (lambda: apply_x_reparam(stq, jexp("2*x + x^3")), 2)):
        calls.clear()
        call()
        assert len(calls) == solves


def test_x_reparam_law_values():
    # (x, y) -> (psi(x), y) turns D by 1/psi' and feeds the Schwarz-like
    # correction into B
    stq = S("0", "0", "0", "1")
    psi = jexp("x + x^2")
    out = apply_x_reparam(stq, psi)
    assert out.C.is_zero()
    assert out.A.is_zero()
    assert out.B.agree(jexp("2/(1 + 2*x)"))
    assert out.D.agree(jexp("1/(1 + 2*x)"))


# --- liouville invariants ------------------------------------------------------


def test_liouville_of_normal_form():
    stq = S("x^2", "3*x", "0", "1")
    lp = liouville(stq)
    assert lp.L1.agree(jexp("-6*x"))
    assert lp.L2.agree(jexp("-9"))


def test_liouville_vanishes_for_constant_C():
    stq = S("x + x^2", "1 - x", "5", "0")
    assert is_linearizable(stq)


def test_liouville_of_exponential_model():
    stq = S("x - 1", "0", "exp(x)", "0")
    lp = liouville(stq)
    assert lp.L1.agree(jexp("-exp(x)"))
    assert lp.L2.agree(jexp("2*exp(2*x)"))
    assert not is_linearizable(stq)


@st.composite
def liouville_inputs(draw):
    """Structures whose four slots differ in eff (-1 up to the order) and
    in valuation, each x-only or not, sparse or dense, rational or dual.
    A slot is known to the order two times in three, so that the sum keeps
    a window long enough to hold its products."""
    order = draw(st.integers(0, 8) | st.integers(5, 8))
    return ProjectiveStructure(*(draw(windowed_or_dual(
        order, x_only=draw(st.booleans()), low=draw(st.integers(0, 2)),
        min_eff=draw(st.sampled_from((-1, order, order))))) for _ in range(4)))


@settings(REDRAWN, max_examples=50)
@given(liouville_inputs())
# slots at eff -1, 0 and 1 beside a dense one
@example(ProjectiveStructure(
    Jet2({(0, 0): 1, (0, 1): 2}, 6, -1), Jet2({(1, 0): 3}, 6, 0),
    Jet2({(0, 0): -1, (1, 0): 1, (0, 1): 1}, 6, 1),
    Jet2({(i, j): i - j + 1 for i in range(7) for j in range(7 - i)}, 6)))
# x-only a and b with c and d of valuation 2 and 3
@example(ProjectiveStructure(
    Jet2({(i, 0): i + 1 for i in range(7)}, 6), Jet2({(1, 0): -2}, 6, 4),
    Jet2({(2, 0): 1, (1, 1): -3}, 6), Jet2({(0, 3): 5, (2, 1): 1}, 6, 5)))
# every product live through the window
@example(ProjectiveStructure(
    Jet2({(0, 0): 1, (0, 1): 2, (1, 1): -1}, 6),
    Jet2({(1, 0): 1, (0, 2): 3}, 6),
    Jet2({(0, 0): -2, (1, 0): 1, (0, 1): 1}, 6),
    Jet2({(0, 1): 1, (2, 0): Fraction(1, 2)}, 6)))
# a normal form (A(x), B(x), 0, 1): c is empty and its product left out
@example(ProjectiveStructure(
    Jet2({(i, 0): i - 2 for i in range(7)}, 6), Jet2({(1, 0): 3}, 6),
    Jet2.zero(6), Jet2.constant(1, 6)))
# an empty a known only to degree 1 beside full slots
@example(ProjectiveStructure(
    Jet2.zero(6, 1), Jet2({(0, 1): 1, (2, 0): 2}, 6),
    Jet2({(0, 0): 1, (1, 1): -1}, 6), Jet2({(0, 2): 3, (1, 0): 1}, 6)))
# d empty and known to degree 0 under constant a and c: the empty partner
# c_y - 2 d_x of a still sets L1's window
@example(ProjectiveStructure(
    Jet2.constant(1, 6), Jet2({(1, 0): 1}, 6), Jet2.constant(2, 6),
    Jet2.zero(6, 0)))
def test_liouville_is_the_reference(stq):
    # the eight grouped products give the ten-product sum exactly: the same
    # order, eff, numerators and denominator
    assert_same_jets(liouville(stq), reference_liouville(stq))


def test_liouville_is_the_reference_on_every_registry_call(monkeypatch):
    from projstruct import cases, run_all, structures

    seen = []

    def recording(stq):
        out = liouville(stq)
        seen.append((stq, out))
        return out

    for module in (cases, structures):
        monkeypatch.setattr(module, "liouville", recording)
    run_all(order=12)
    assert len(seen) == 11
    for stq, got in seen:
        assert_same_jets(got, reference_liouville(stq))


def test_deep_jets_liouville_is_the_reference(monkeypatch):
    # the pulled-back flat structures of seeds 1-3, rounds 0-1, orders 16
    # and 20: dense slots of valuation 0
    import projstruct

    workloads = bench_workloads()
    seen = []

    def recording(stq):
        out = liouville(stq)
        seen.append((stq, out))
        return out

    monkeypatch.setattr(projstruct, "liouville", recording)
    for seed in (1, 2, 3):
        for index in (0, 1):
            for order in (16, 20):
                for op in workloads.deep_round(projstruct, seed, index, order):
                    assert op.gate(op.call())
                    if op.kind == "liouville":
                        break
    assert len(seen) == 12
    for stq, got in seen:
        assert_same_jets(got, reference_liouville(stq))


@settings(deadline=None, max_examples=30)
@given(diffeo_germs())
def test_linearizability_is_invariant(germ):
    # pull the trivial equation back through an arbitrary germ: the
    # obstruction pair must still vanish
    flat = ProjectiveStructure.zero(germ.order)
    assert is_linearizable(pullback(germ, flat))


@settings(deadline=None, max_examples=20)
@given(diffeo_germs())
def test_nonlinearizable_stays_nonlinearizable(germ):
    stq = ProjectiveStructure.zero(germ.order)
    stq = ProjectiveStructure(stq.A, stq.B,
                              exp_series(Jet2.variable("x", germ.order)),
                              stq.D)
    assert not is_linearizable(pullback(germ, stq))


@st.composite
def general_germs(draw, order=8):
    """Germs (u, v) whose every first and second derivative is nonzero at
    the origin, u_y and v_x included, with a sparse tail above."""
    parts = []
    for _ in range(2):
        tail = draw(jets(order=order, max_terms=2))
        terms = {k: c for k, c in tail.coeffs.items() if sum(k) > 2}
        for k in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
            terms[k] = draw(nonzero_fractions)
        parts.append(Jet2(terms, order))
    u, v = parts
    assume(u.coeff(1, 0) * v.coeff(0, 1) != u.coeff(0, 1) * v.coeff(1, 0))
    return DiffeoGerm(u, v)


@settings(deadline=None, max_examples=20)
@given(general_germs(), structures(order=8))
def test_liouville_pair_is_a_relative_invariant(germ, stq):
    """Liouville's law: for g = (u, v) with Jacobian J,
    L1' = J (L1 o g u_x + L2 o g v_x) and L2' = J (L1 o g u_y + L2 o g v_y)
    (R. Liouville, J. Ecole Polytechnique 59, 1889), through the common
    window, which must not be empty."""
    u, v = germ
    ux, uy, vx, vy = u.d_dx(), u.d_dy(), v.d_dx(), v.d_dy()
    jac = ux * vy - uy * vx
    l1, l2 = (substitute(f, u, v) for f in liouville(stq))
    got = liouville(pullback(germ, stq))
    want = (jac * (l1 * ux + l2 * vx), jac * (l1 * uy + l2 * vy))
    for lhs, rhs in zip(got, want):
        assert min(lhs.eff, rhs.eff) >= 0
        assert lhs.agree(rhs)


@pytest.mark.parametrize("case_id, dim", [
    ("thm31.iii", 3), ("thm31.iv", 8), ("thm31.ii.b", 2), ("thm41.iv", 8),
    ("thm31.i.b", 1)])
@settings(deadline=None, max_examples=5)
@given(germ=general_germs(order=14))
def test_symmetry_dimension_is_a_point_invariant(case_id, dim, germ):
    """The symmetry algebra of a structure and of its pullback through a
    general germ (u_y, v_x and every second derivative nonzero) have the
    same dimension, that of the catalogue row."""
    record = CASES[case_id]
    stq = _structure(14, record.samples[0], *record.runner.quadruple)
    dims = symmetry_dim(stq)
    assert (dims.stabilized, dims.value) == (True, dim)
    assert symmetry_dim(pullback(germ, stq)) == dims


@pytest.mark.parametrize("case_id", ["thm31.iii", "thm31.ii.b"])
@settings(deadline=None, max_examples=4)
@given(germ=general_germs(order=10))
def test_named_symmetries_transport_to_the_pullback(case_id, germ):
    """The transport law: a symmetry w of st gives the symmetry
    (Dg)^{-1} (w o g) of pullback(g, st), for g = (u, v) general (u_y,
    v_x and every second derivative nonzero); its residual vanishes
    through a window that is not empty.  Each named field of the row, on
    each of its samples."""
    record = CASES[case_id]
    u, v = germ
    ux, uy, vx, vy = u.d_dx(), u.d_dy(), v.d_dx(), v.d_dy()
    jac = ux * vy - uy * vx
    for env in record.samples:
        back = pullback(germ, _structure(10, env, *record.runner.quadruple))
        for name in record.runner.fields:
            a, b = (substitute(f, u, v) for f in _field(10, *_FIELDS[name]))
            moved = VectorField((vy * a - uy * b) / jac,
                                (ux * b - vx * a) / jac)
            res = residual(moved, back)
            assert min(f.eff for f in res.coeffs) >= 0
            assert res.is_zero(), (env, name)


# --- swap ------------------------------------------------------------------------


def test_swap_axes_formula_and_involution():
    stq = S("x*y", "1 + x", "y^2", "3")
    sw = swap_axes(stq)
    assert sw.A.agree(jexp("-3"))
    assert sw.B.agree(-jexp("x^2"))
    assert sw.C.agree(-(jexp("1 + y")))
    assert sw.D.agree(-jexp("x*y").swap_vars())
    assert swap_axes(sw).agree(stq)


def test_swap_axes_geodesics_are_inverse_graphs():
    stq = S("1", "x", "y", "0")
    curve = geodesic_solve(stq, 0, 2)
    inverse_graph = comp_inverse(curve)
    assert geodesic_residual(swap_axes(stq), inverse_graph).is_zero()


# --- scaling action ----------------------------------------------------------------


@pytest.mark.parametrize("lam", [Fraction(2), Fraction(1, 3)])
def test_c_star_action_matches_pullback(lam):
    stq = S("x - x^2", "1 + 3*x", "0", "1")
    germ = DiffeoGerm(Jet2.monomial(1, 0, lam ** 2, N),
                      Jet2.monomial(0, 1, lam, N))
    assert c_star_action(lam, stq).agree(pullback(germ, stq))


def test_c_star_action_requires_normal_form():
    with pytest.raises(NotInNormalForm):
        c_star_action(2, S("0", "0", "1", "1"))


# --- normalizations -----------------------------------------------------------------


def test_normalize_D1_cubic_example():
    c = Fraction(3, 2)
    stq = S("0", "0", "3/2", "1")
    out, germ = normalize_D1(stq)
    assert out.A.agree(Jet2.constant(2 * c ** 3 / 27, N))
    assert out.B.agree(Jet2.constant(-c ** 2 / 3, N))
    assert out.C.is_zero()
    assert out.D.agree(Jet2.constant(1, N))
    assert pullback(germ, stq).agree(out)


@settings(deadline=None, max_examples=15)
@given(jets(x_only=True, order=8), jets(x_only=True, order=8),
       jets(x_only=True, order=8, max_terms=2), nonzero_fractions)
def test_normalize_D1_roundtrip(a, b, c, d0):
    stq = ProjectiveStructure(a, b, c, Jet2.constant(d0, 8) + Jet2.monomial(1, 0, 1, 8))
    out, germ = normalize_D1(stq)
    assert out.C.is_zero()
    assert out.D.agree(Jet2.constant(1, 8))
    assert pullback(germ, stq).agree(out)


def test_normalize_D1_rejects_vanishing_D():
    with pytest.raises(NotInNormalForm):
        normalize_D1(S("0", "0", "1", "x"))


# --- geodesics ------------------------------------------------------------------------


def reference_rhs_along(stq, curve):
    """``_rhs_along`` as ``Jet2`` products and sums, the form it had
    before it was one kernel sum."""
    yp = curve.d_dx()
    yp2 = yp * yp
    a, b, c, d = _all_along(tuple(stq), curve)
    return a + b * yp + c * yp2 + d * (yp2 * yp)


def test_rhs_along_is_the_reference_on_every_registry_call(registry_traffic):
    # a call builds 4 jets outside _substitute_all: y', y'^2, y'^3 and
    # the sum (5 while it recentred the curve at its constant term, 11
    # with a jet per operator)
    calls, passes = registry_traffic
    assert {order: p["rhs_along"] for order, p in passes.items()} \
        == {12: 17, 8: 17}
    assert {n for *_, n in calls["rhs_along"]} == {4}
    for stq, curve, _ in calls["rhs_along"]:
        assert_same_structure([_rhs_along(stq, curve)],
                              [reference_rhs_along(stq, curve)])


def test_deep_jets_rhs_along_is_the_reference(deep_traffic):
    calls = deep_traffic["rhs_along"]
    assert len(calls) == 12
    for stq, curve in calls:
        assert_same_structure([_rhs_along(stq, curve)],
                              [reference_rhs_along(stq, curve)])


@st.composite
def windowed_curves(draw):
    """A structure over the rationals or the duals and an x-graph curve
    through the origin, of orders 0 to PROP_ORDER, some jets cut to a
    random window, empty ones included."""
    order = draw(st.integers(0, PROP_ORDER))
    slots = [draw(rational_or_dual_jets(order)) for _ in range(4)]
    order = draw(st.integers(0, PROP_ORDER))
    *slots, curve = draw(cut_windows(
        slots + [draw(jets(order=order, x_only=True, zero_constant=True))]))
    return ProjectiveStructure(*slots), curve


@settings(deadline=None, max_examples=80)
@given(windowed_curves())
def test_rhs_along_is_the_reference_in_short_windows(case):
    assert_same_jets([_rhs_along(*case)], [reference_rhs_along(*case)])


def test_a_curve_off_the_origin_is_refused():
    stq = S("x*y + 1", "2*y - x", "x^2 + y", "1/3 + x")
    curve = jexp("1/2 - 3*x")
    with pytest.raises(NonZeroConstantTerm):
        _rhs_along(stq, curve)
    with pytest.raises(NonZeroConstantTerm):
        eval_along(Jet2.variable("y", N), curve)


@st.composite
def short_curves(draw):
    """A rational structure with windows of at least 0 and a curve through
    the origin with a window of at least 1, of orders 1 to PROP_ORDER."""
    order = draw(st.integers(1, PROP_ORDER))
    stq = ProjectiveStructure(*(draw(windowed(order)) for _ in range(4)))
    return stq, draw(windowed(order, x_only=True, low=1, min_eff=1))


@settings(REDRAWN, max_examples=50)
@given(st.data(), short_curves())
def test_rhs_along_keeps_its_window_when_the_inputs_are_redrawn(data, case):
    stq, curve = case
    full = (stq.map(lambda f: data.draw(redrawn(f))),
            data.draw(redrawn(curve, x_only=True)))
    assert_window_holds(_rhs_along(stq, curve), _rhs_along(*full))
    assert_window_holds(eval_along(stq.A, curve),
                        eval_along(full[0].A, full[1]))


def test_geodesics_of_trivial_structure_are_lines():
    flat = ProjectiveStructure.zero(N)
    curve = geodesic_solve(flat, 0, Fraction(-3))
    assert curve.agree(jexp("-3*x"))


def test_geodesic_of_y_driven_equation_is_sinh():
    # y'' = y with y(0) = 0, y'(0) = 1
    stq = ProjectiveStructure(Jet2.variable("y", N), Jet2.zero(N),
                              Jet2.zero(N), Jet2.zero(N))
    curve = geodesic_solve(stq, 0, 1)
    for k in range(N + 1):
        expected = Fraction(1, __import__("math").factorial(k)) if k % 2 else 0
        assert curve.coeff(k, 0) == expected


@settings(deadline=None, max_examples=25)
@given(structures(max_terms=2), nonzero_fractions)
def test_geodesic_solver_satisfies_equation(stq, p0):
    curve = geodesic_solve(stq, 0, p0)
    assert curve.coeff(0, 0) == 0
    assert curve.coeff(1, 0) == p0
    assert geodesic_residual(stq, curve).is_zero()
