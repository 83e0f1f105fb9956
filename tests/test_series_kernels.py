"""The one-pass series kernels against the iterations they replace.

Each reference below is an iteration the package used before: Newton
for ``inverse`` and ``sqrt_series``, the power sum for ``exp_series``,
Picard iteration for ``comp_inverse``, ``geodesic_solve`` and the
normal-form ODE solvers, each run at full order until it stops
changing.  The references fail loudly instead of stopping at a cap.  The
kernels must return a result ``==`` the reference: same ``order``, same
``eff``, same coefficients.

The online ODE solver ``geodesic_solve`` fixes its coefficients degree
by degree, on integers (J. van der Hoeven, "Relax, but don't be too
lazy", J. Symbolic Comput. 34 (2002)), and runs one Picard pass at full
order along them.  It returns that pass once the online coefficients
agree with it, so the window follows the jet rules.
``ib_flattening_germ`` solves the linear form of its third-order ODE,
and ``alpha_ode_solve`` the closed form of the quartic alpha-ODE, so the
Picard iteration of each ODE here is an independent oracle for them;
since ``alpha_ode_solve`` no longer checks itself, a property also
passes the ODE's registry row on its result.  The second reference of
all three is the Picard staircase the solvers replaced, in which pass t
runs at truncation t and fixes the degree-t coefficient; it is checked
on every call of a registry pass and on the deep-jets inputs of the
benchmark, at orders 12 to 20.
"""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import projstruct
from projstruct import cases, run_all, structures
from projstruct.cases import alpha_ode_solve, ib_flattening_germ
from projstruct.duals import EPS, DualRational
from projstruct.errors import (NonUnitDivisor, PreconditionViolated,
                               ProjstructError)
from projstruct.jets import (
    Jet2,
    comp_inverse,
    compose1,
    exp_series,
    sqrt_series,
)
from projstruct.reports import PASS
from projstruct.structures import ProjectiveStructure, _rhs_along, geodesic_solve

from conftest import (
    REDRAWN,
    alpha_ode_lower,
    assert_window_holds,
    bench_workloads,
    nonzero_fractions,
    redrawn,
    small_fractions,
    windowed,
    windowed_or_dual,
)


def fixed_point(step, start, passes):
    z = start
    for _ in range(passes):
        nz = step(z)
        if nz == z:
            return z
        z = nz
    raise AssertionError("reference iteration did not settle")


def reference_inverse(u):
    z0 = Jet2.constant(1 / u.constant_term, u.order, u.eff)
    return fixed_point(lambda z: z * (2 - u * z), z0,
                       u.order.bit_length() + 3)


def reference_sqrt(u):
    r0 = Fraction(*(int(q ** 0.5) for q in (u.constant_term.numerator,
                                            u.constant_term.denominator)))
    return fixed_point(lambda r: (r + u / r).scale(Fraction(1, 2)),
                       Jet2.constant(r0, u.order, u.eff),
                       u.order.bit_length() + 3)


def reference_exp(u):
    acc = Jet2.constant(1, u.order)
    term = Jet2.constant(1, u.order)
    for k in range(1, u.order + 1):
        term = (term * u).scale(Fraction(1, k))
        acc = acc + term
    return Jet2(acc.coeffs, u.order, min(acc.eff, u.eff))


def reference_comp_inverse(u):
    x = Jet2.variable("x", u.order)
    u1 = u.coeff(1, 0)
    tail = u - x.scale(u1)
    return fixed_point(lambda v: (x - compose1(tail, v)).scale(1 / u1),
                       x.scale(1 / u1), u.order + 3)


def reference_geodesic(stq, p0):
    order = stq.order
    base = Jet2.variable("x", order).scale(p0)
    return fixed_point(
        lambda y: base + _rhs_along(stq, y).integrate_x().integrate_x(),
        base, order + 3)


def reference_alpha(c, jet3, order):
    a0, a1, a2, a3 = (Fraction(v) for v in jet3)
    base = Jet2({(0, 0): a0, (1, 0): a1,
                 (2, 0): a2 / 2, (3, 0): a3 / 6}, order)

    def step(al):
        d4 = -(alpha_ode_lower(Fraction(c), al) / al.scale(2))
        return base + (d4.integrate_x().integrate_x()
                       .integrate_x().integrate_x())
    return fixed_point(step, base, order + 3)


def reference_flattening_psi(stq):
    x = Jet2.variable("x", stq.order)
    q = stq.C.d_dx() / stq.C
    m = stq.A * stq.C

    def step(psi):
        d1 = psi.d_dx()
        d2 = d1.d_dx()
        rhs = ((d2 * d2 / d1).scale(Fraction(3, 2))
               + d1 * d2 * compose1(q, psi)
               - (compose1(m, psi) * d1 ** 3).scale(2))
        return x + rhs.integrate_x().integrate_x().integrate_x()
    return fixed_point(step, x, stq.order + 3)


# --- inputs: sparse or dense, with a window that may end below the order ----


orders = st.integers(0, 7)


@st.composite
def units(draw):
    return draw(windowed(draw(orders), constant=nonzero_fractions))


@st.composite
def squares(draw):
    c0 = st.sampled_from([1, 4, Fraction(9, 4), Fraction(1, 16)])
    return draw(windowed(draw(orders), low=1,
                         constant=c0.map(Fraction)))


@st.composite
def exp_arguments(draw):
    return draw(windowed(draw(orders), low=1))


@st.composite
def reversible(draw):
    order = draw(st.integers(1, 7))
    tail = draw(windowed(order, x_only=True, low=2, min_eff=1))
    lin = Jet2.monomial(1, 0, draw(nonzero_fractions), order)
    return Jet2((lin + Jet2(tail.coeffs, order)).coeffs, order, tail.eff)


@st.composite
def structures_at(draw, x_only=False, low=0):
    order = draw(st.integers(low, 6))
    return ProjectiveStructure(*(draw(windowed(order, x_only=x_only))
                                 for _ in range(4)))


def ib_of(a, c):
    zero = Jet2.zero(a.order)
    return ProjectiveStructure(a, zero, c, zero)


@st.composite
def ib_slots(draw, x_only=st.booleans()):
    """(A, C) of a structure (A, 0, C, 0) with C a unit, in windows."""
    order, x_only = draw(st.integers(2, 9)), draw(x_only)
    return (draw(windowed(order, x_only=x_only)),
            draw(windowed(order, x_only=x_only, constant=nonzero_fractions)))


# --- the kernels ----------------------------------------------------------------


@settings(deadline=None, max_examples=50)
@given(units())
@example(Jet2({(0, 0): 2, (1, 0): 1}, 6, 3))
def test_inverse_matches_newton(u):
    assert u.inverse() == reference_inverse(u)


def test_inverse_over_duals_matches_newton():
    u = Jet2({(0, 0): DualRational(2, 1), (1, 0): EPS,
              (0, 1): DualRational(Fraction(1, 3), -2),
              (2, 1): DualRational(-1, Fraction(1, 2))}, 6, 5)
    inv = u.inverse()
    assert inv == reference_inverse(u)
    assert (u * inv).agree(Jet2.constant(1, 6))


@settings(deadline=None, max_examples=50)
@given(squares())
def test_sqrt_series_matches_newton(u):
    assert sqrt_series(u) == reference_sqrt(u)


def test_sqrt_series_over_duals_matches_newton():
    u = Jet2({(0, 0): Fraction(9, 4), (1, 0): DualRational(1, 2), (0, 1): EPS,
              (1, 1): DualRational(Fraction(-1, 3), 1)}, 6, 5)
    r = sqrt_series(u)
    assert r == reference_sqrt(u)
    assert (r * r).agree(u)
    assert r._den == 1


@settings(deadline=None, max_examples=50)
@given(exp_arguments())
def test_exp_series_matches_the_power_sum(u):
    assert exp_series(u) == reference_exp(u)


def test_exp_series_over_duals_matches_the_power_sum():
    u = Jet2({(1, 0): DualRational(1, 2), (0, 1): EPS,
              (1, 1): DualRational(Fraction(-1, 3), 1)}, 6, 5)
    assert exp_series(u) == reference_exp(u)


@settings(REDRAWN, max_examples=30)
@given(st.data(), st.integers(1, 7))
def test_exp_series_keeps_its_window_when_its_argument_is_redrawn(data,
                                                                  order):
    u = data.draw(windowed_or_dual(order, low=1))
    assert_window_holds(exp_series(u), exp_series(data.draw(redrawn(u))))


@settings(REDRAWN, max_examples=30)
@given(st.data(), squares())
def test_sqrt_series_keeps_its_window_when_its_argument_is_redrawn(data, u):
    assert_window_holds(sqrt_series(u), sqrt_series(data.draw(redrawn(u))))


@settings(deadline=None)
@given(reversible())
@example(Jet2({(1, 0): 1, (2, 0): 1}, 7, 7))
def test_comp_inverse_matches_picard(u):
    assert comp_inverse(u) == reference_comp_inverse(u)


def test_comp_inverse_over_duals_matches_picard():
    u = Jet2({(1, 0): DualRational(2, 1), (2, 0): EPS,
              (3, 0): DualRational(Fraction(-1, 2), 3),
              (5, 0): DualRational(1, 1)}, 7, 6)
    v = comp_inverse(u)
    assert v == reference_comp_inverse(u)
    assert compose1(u, v).agree(Jet2.variable("x", 7))


@settings(deadline=None, max_examples=60)
@given(structures_at(), small_fractions, st.integers(0, 6))
def test_geodesic_solve_matches_picard(stq, p0, order):
    # a lower order is the structure truncated to it
    stq = stq.truncated(order)
    assert geodesic_solve(stq, 0, p0) == reference_geodesic(stq, p0)


@settings(deadline=None, max_examples=30)
@given(structures_at(), nonzero_fractions, small_fractions)
def test_geodesic_solve_refuses_a_nonzero_height(stq, y0, p0):
    with pytest.raises(ValueError, match="starts at the origin"):
        geodesic_solve(stq, y0, p0)


@settings(REDRAWN, max_examples=30)
@given(st.data(), structures_at(), small_fractions)
def test_geodesic_solve_keeps_its_window_when_the_structure_is_redrawn(
        data, stq, p0):
    full = stq.map(lambda f: data.draw(redrawn(f)))
    assert_window_holds(geodesic_solve(stq, 0, p0),
                        geodesic_solve(full, 0, p0))


alpha_jets = st.tuples(nonzero_fractions, small_fractions, small_fractions,
                       small_fractions)


@settings(deadline=None, max_examples=30)
@given(st.sampled_from([0, 1, 2, -1, Fraction(1, 2)]), alpha_jets,
       st.integers(0, 12))
# a(0) = -3/2 is negative and no rational square: alpha is a(0) times an
# exponential, and no root of a(0) is taken
@example(0, (Fraction(-3, 2), 1, Fraction(-1, 3), 2), 12)
def test_alpha_ode_solve_matches_picard(c, jet3, order):
    assert (alpha_ode_solve(c, jet3, order)
            == reference_alpha(c, jet3, order))


@settings(deadline=None, max_examples=20)
@given(small_fractions, alpha_jets, st.integers(4, 16))
@example(0, (Fraction(2), Fraction(1, 2), -1, Fraction(1, 3)), 16)
def test_alpha_ode_solve_passes_the_ode_row_with_its_three_jet(c, jet3,
                                                                order):
    # the certificate the solver ran before: the registry's row of the
    # quartic vanishes on the result, and the result keeps its 3-jet
    al = alpha_ode_solve(c, jet3, order)
    assert cases._identity_check(cases._ALPHA_ODE_ROW,
                                 {"alpha": al, "c": Fraction(c)},
                                 order).verdict == PASS
    assert (al.order, al.eff) == (order, order)
    assert [al.coeff(k, 0) * factorial(k) for k in range(4)] == list(jet3)


@settings(deadline=None, max_examples=30)
@given(structures_at(x_only=True, low=2), nonzero_fractions)
def test_ib_flattening_psi_matches_picard(stq, c0):
    zero = Jet2.zero(stq.order)
    stq = ProjectiveStructure(stq.A, zero, stq.C - stq.C.constant_term + c0,
                              zero)
    assert ib_flattening_germ(stq).u == reference_flattening_psi(stq)


@settings(REDRAWN, max_examples=40)
@given(st.data(), windowed(9, x_only=True),
       windowed(9, x_only=True, constant=nonzero_fractions))
def test_ib_flattening_germ_keeps_its_window_when_the_structure_is_redrawn(
        data, a, c):
    zero = Jet2.zero(9)
    germ = ib_flattening_germ(ProjectiveStructure(a, zero, c, zero))
    full = ib_flattening_germ(ProjectiveStructure(
        data.draw(redrawn(a, x_only=True)), zero,
        data.draw(redrawn(c, x_only=True)), zero))
    assert_window_holds(germ.u, full.u)
    assert_window_holds(germ.v, full.v)


@settings(deadline=None, max_examples=40)
@given(ib_slots())
# the Picard solution reads C'/C and A C in y as well: eff 7, not 10
@example((Jet2({(0, 1): Fraction(-3, 2)}, 10),
          Jet2({(0, 0): Fraction(-1, 4)}, 10, 3)))
def test_ib_flattening_psi_is_the_picard_solution_through_its_window(slots):
    # the linear route may know more than the third-order ODE's Picard
    # solution, never less, and agrees with it through that solution's eff
    assert_window_holds(reference_flattening_psi(ib_of(*slots)),
                        ib_flattening_germ(ib_of(*slots)).u)


@settings(deadline=None, max_examples=30)
@given(ib_slots(x_only=st.just(False)))
def test_a_bivariate_structure_gives_the_germ_of_its_x_only_parts(slots):
    at_y0 = [Jet2({k: v for k, v in f.coeffs.items() if not k[1]},
                  f.order, f.eff) for f in slots]
    assert (ib_flattening_germ(ib_of(*slots))
            == ib_flattening_germ(ib_of(*at_y0)))


def test_ib_flattening_germ_refuses_a_c_vanishing_at_the_origin():
    x, y = Jet2.variable("x", 6), Jet2.variable("y", 6)
    with pytest.raises(NonUnitDivisor,
                       match="^constant term 0 is not invertible$"):
        ib_flattening_germ(ib_of(Jet2.constant(1, 6), x * x + y))


# --- the Picard staircase the ODE solvers climbed before ------------------------


def staircase(step, y, first):
    order = y.order
    for t in range(min(first, order), order + 1):
        y = step(y._window(t, y.eff))
    assert step(y) == y
    return y


def staircase_geodesic(stq, p0):
    base = Jet2.variable("x", stq.order).scale(Fraction(p0))

    def step(y):
        t = y.order
        rhs = _rhs_along(stq.truncated(t), y)
        return base.truncated(t) + rhs.integrate_x().integrate_x()
    return staircase(step, base, 2)


def staircase_alpha(c, jet3, order):
    c = Fraction(c)
    a0, a1, a2, a3 = (Fraction(v) for v in jet3)
    base = Jet2({(0, 0): a0, (1, 0): a1,
                 (2, 0): a2 / 2, (3, 0): a3 / 6}, order)

    def step(al):
        d4 = -(alpha_ode_lower(c, al) / al.scale(2))
        return base.truncated(al.order) + (d4.integrate_x().integrate_x()
                                           .integrate_x().integrate_x())
    return staircase(step, base, 4)


def staircase_flattening_psi(stq):
    q = stq.C.d_dx() / stq.C
    m = stq.A * stq.C

    def step(psi):
        t = psi.order
        d1 = psi.d_dx()
        d2 = d1.d_dx()
        rhs = ((d2 * d2 / d1).scale(Fraction(3, 2))
               + d1 * d2 * compose1(q.truncated(t), psi)
               - (compose1(m.truncated(t), psi) * d1 ** 3).scale(2))
        return (Jet2.variable("x", t)
                + rhs.integrate_x().integrate_x().integrate_x())
    return staircase(step, Jet2.variable("x", stq.order), 3)


# --- registry scale: every solver call of a pass, and the deep-jets inputs ------


@pytest.fixture(scope="module")
def registry_calls():
    """The arguments of every ODE solver call of ``run_all(12)``."""
    calls = {"geodesic_solve": [], "alpha_ode_solve": [],
             "ib_flattening_germ": []}
    originals = {name: getattr(cases, name) for name in calls}

    def recording(name):
        def wrapper(*args):
            calls[name].append(args)
            return originals[name](*args)
        return wrapper

    for name in calls:
        setattr(cases, name, recording(name))
    try:
        run_all(12)
    finally:
        for name, original in originals.items():
            setattr(cases, name, original)
    return calls


def test_a_registry_pass_calls_each_ode_solver_as_counted(registry_calls):
    assert {name: len(args) for name, args in registry_calls.items()} == {
        "geodesic_solve": 17, "alpha_ode_solve": 3, "ib_flattening_germ": 3}
    # each sec3.aff sample solves once, three orders up, and its dimension
    # check reuses that member (6 calls at orders 12 and 15 before)
    assert {args[2] for args in registry_calls["alpha_ode_solve"]} == {15}


def test_registry_geodesics_match_the_staircase(registry_calls):
    for stq, y0, p0 in registry_calls["geodesic_solve"]:
        assert y0 == 0
        assert geodesic_solve(stq, 0, p0) == staircase_geodesic(stq, p0)


def test_registry_alpha_solutions_match_the_staircase(registry_calls):
    for args in registry_calls["alpha_ode_solve"]:
        assert alpha_ode_solve(*args) == staircase_alpha(*args)


def test_registry_flattening_germs_match_the_staircase(registry_calls):
    for (stq,) in registry_calls["ib_flattening_germ"]:
        assert ib_flattening_germ(stq).u == staircase_flattening_psi(stq)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_deep_jets_geodesics_match_the_staircase(seed):
    workloads = bench_workloads()
    for order in workloads.DEEP_ORDERS:
        inp = workloads.deep_inputs(projstruct, seed, 0, order)
        stq, p0 = inp["st"], inp["p0"]
        assert geodesic_solve(stq, 0, p0) == staircase_geodesic(stq, p0)


# --- the certificate: one full-order Picard pass, and it bites ------------------


def sample_structure(order):
    x = Jet2.variable("x", order)
    y = Jet2.variable("y", order)
    one = Jet2.constant(1, order)
    return ProjectiveStructure(x * y + one, y.scale(2) - x, x * x + y,
                               one.scale(Fraction(1, 3)) + x)


def ib_structure(order):
    x = Jet2.variable("x", order)
    return ProjectiveStructure(Jet2.constant(1, order) + x * x,
                               Jet2.zero(order), exp_series(x),
                               Jet2.zero(order))


def count_calls(monkeypatch, module, name):
    original = getattr(module, name)
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(module, name, counting)
    return calls


def test_each_solver_runs_one_full_order_picard_pass(monkeypatch):
    rhs = count_calls(monkeypatch, structures, "_rhs_along")
    geodesic_solve(sample_structure(12), 0, Fraction(1, 2))
    assert [args[1].order for args in rhs] == [12]


def test_the_alpha_solve_reverts_once_and_exponentiates_once(monkeypatch):
    # no Picard pass of the ODE's text: z reverts int 1/Q, and alpha is
    # a(0) times the exponential of int c^2/3 - (2/3) Q'(z)
    reverted = count_calls(monkeypatch, cases, "comp_inverse")
    exponentiated = count_calls(monkeypatch, cases, "exp_series")
    expanded = count_calls(monkeypatch, cases, "expand")
    alpha_ode_solve(2, (1, Fraction(1, 3), -1, 2), 12)
    assert [args[0].order for args in reverted] == [12]
    assert [args[0].order for args in exponentiated] == [12]
    assert expanded == []


def test_the_flattening_germ_reverts_once_and_composes_once(monkeypatch):
    # no Picard pass: psi reverts chi = int v^-2, then C o psi is the one
    # composition, for the y-shift
    reverted = count_calls(monkeypatch, cases, "comp_inverse")
    composed = count_calls(monkeypatch, cases, "compose1")
    ib_flattening_germ(ib_structure(12))
    assert [args[0].order for args in reverted] == [12]
    assert [args[1].order for args in composed] == [12]


def one_wrong_coefficient(kernel):
    def wrong(*args):
        jet = kernel(*args)
        return jet + Jet2.monomial(jet.eff, 0, Fraction(1, 7), jet.order)
    return wrong


@pytest.mark.parametrize("module, kernel, solve, what", [
    (structures, "_geodesic_coeffs",
     lambda: geodesic_solve(sample_structure(12), 0, Fraction(1, 2)),
     "the geodesic solves its Picard pass"),
])
def test_a_wrong_online_coefficient_fails_the_certificate(
        monkeypatch, module, kernel, solve, what):
    solve()
    monkeypatch.setattr(module, kernel,
                        one_wrong_coefficient(getattr(module, kernel)))
    with pytest.raises(ProjstructError, match=what):
        solve()


# --- edge windows ---------------------------------------------------------------


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_low_orders_match_the_staircase(order):
    stq = sample_structure(order)
    for p0 in (Fraction(1, 2), 0, 3):
        assert geodesic_solve(stq, 0, p0) == staircase_geodesic(stq, p0)
    jet3 = (Fraction(-3, 2), 1, Fraction(2, 5), -1)
    assert alpha_ode_solve(3, jet3, order) == staircase_alpha(3, jet3, order)
    stb = ib_structure(order)
    if order < 2:   # the order is refused before any division
        with pytest.raises(ValueError,
                           match="^ib_flattening_germ needs order >= 2, got %d$"
                           % order):
            ib_flattening_germ(stb)
    else:
        assert ib_flattening_germ(stb).u == staircase_flattening_psi(stb)


def test_bad_orders_and_a_vanishing_alpha_are_refused():
    with pytest.raises(ValueError):
        alpha_ode_solve(1, (1, 0, 0, 0), -1)
    with pytest.raises(PreconditionViolated):
        alpha_ode_solve(1, (0, 1, 1, 1), 12)


def test_a_slope_with_a_large_denominator_matches_the_staircase():
    stq = sample_structure(12)
    p0 = Fraction(-7, 10 ** 12 + 39)
    assert geodesic_solve(stq, 0, p0) == staircase_geodesic(stq, p0)


@pytest.mark.parametrize("effs, p0", [
    ((9, 3, 9, 9), Fraction(1, 2)),     # window 3 + 2 through B y'
    ((9, 3, 9, 9), 0),                  # y' = O(x): 3 + 2 + 1
    ((9, 9, 1, 9), 0),                  # C y'^2: 1 + 2 + 2
    ((9, 9, 9, 0), 0),                  # D y'^3: 0 + 2 + 3
    ((4, 9, 9, 9), Fraction(1, 2)),     # A alone: 4 + 2
])
def test_structure_windows_below_the_order_match_the_staircase(effs, p0):
    stq = ProjectiveStructure(*(f._window(9, e)
                                for f, e in zip(sample_structure(9), effs)))
    got = geodesic_solve(stq, 0, p0)
    assert got.eff < 9
    assert got == staircase_geodesic(stq, p0)


@pytest.mark.parametrize("eff_a, eff_c", [(3, 9), (9, 2), (2, 1)])
def test_flattening_windows_below_the_order_match_the_staircase(eff_a, eff_c):
    stb = ib_structure(9)
    stb = ProjectiveStructure(stb.A._window(9, eff_a), stb.B,
                              stb.C._window(9, eff_c), stb.D)
    got = ib_flattening_germ(stb).u
    assert got.eff < 9
    assert got == staircase_flattening_psi(stb)


def test_a_geodesic_off_the_origin_is_refused(monkeypatch):
    # Read as exact polynomials, the order-6 jets of A = y^6 gave the
    # geodesic through (0, 1) as 1 + x^2/2 + x^4/4 + 7 x^6/40 at eff 6,
    # and the order-5 jets gave 1; the height is refused before any work.
    solves = count_calls(monkeypatch, structures, "_geodesic_coeffs")
    zero = Jet2.zero(6)
    stq = ProjectiveStructure(Jet2.monomial(0, 6, 1, 6), zero, zero, zero)
    for y0 in (1, Fraction(-2, 3)):
        with pytest.raises(ValueError,
                           match="^geodesic_solve starts at the origin, "
                           "got height %s$" % y0):
            geodesic_solve(stq, y0, 0)
    assert solves == []
    assert geodesic_solve(stq, 0, 0) == Jet2.zero(6)
