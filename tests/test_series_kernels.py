"""The one-pass series kernels against the fixed-point loops they replace.

Each reference below is the iteration the package used before: Newton
for ``inverse`` and ``sqrt_series``, the power sum for ``exp_series``,
Picard iteration for ``comp_inverse``, ``geodesic_solve`` and the
normal-form ODE solvers, each run at full order until it stops
changing.  The references fail loudly instead of stopping at a cap.  The
kernels must return a result ``==`` the reference: same ``order``, same
``eff``, same coefficients.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from projstruct.cases import _alpha_ode_lower, alpha_ode_solve, ib_flattening_germ
from projstruct.duals import EPS, DualRational
from projstruct.jets import (
    Jet2,
    comp_inverse,
    compose1,
    exp_series,
    sqrt_series,
)
from projstruct.structures import ProjectiveStructure, _rhs_along, geodesic_solve

from conftest import nonzero_fractions, small_fractions


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


def reference_geodesic(stq, y0, p0):
    order = stq.order
    base = Jet2.constant(y0, order) + Jet2.variable("x", order).scale(p0)
    return fixed_point(
        lambda y: base + _rhs_along(stq, y).integrate_x().integrate_x(),
        base, order + 3)


def reference_alpha(c, jet3, order):
    a0, a1, a2, a3 = (Fraction(v) for v in jet3)
    base = Jet2.from_terms({(0, 0): a0, (1, 0): a1,
                            (2, 0): a2 / 2, (3, 0): a3 / 6}, order)

    def step(al):
        d4 = -(_alpha_ode_lower(Fraction(c), al) / al.scale(2))
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


@st.composite
def windowed(draw, order, x_only=False, low=0, min_eff=0, constant=None):
    """A jet at ``order`` with eff in [min_eff, order], sparse or dense."""
    eff = draw(st.integers(min(min_eff, order), order))
    keys = [(i, j) for i in range(order + 1) for j in range(order + 1 - i)
            if i + j >= low and not (x_only and j)]
    if keys and not draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(keys), max_size=4, unique=True))
    coeffs = {k: draw(small_fractions) for k in keys}
    if constant is not None:
        coeffs[(0, 0)] = draw(constant)
    return Jet2(coeffs, order, eff)


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


# --- the kernels ----------------------------------------------------------------


@settings(deadline=None, max_examples=50)
@given(units())
@example(Jet2.from_terms({(0, 0): 2, (1, 0): 1}, 6, 3))
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


@settings(deadline=None, max_examples=50)
@given(exp_arguments())
def test_exp_series_matches_the_power_sum(u):
    assert exp_series(u) == reference_exp(u)


def test_exp_series_over_duals_matches_the_power_sum():
    u = Jet2({(1, 0): DualRational(1, 2), (0, 1): EPS,
              (1, 1): DualRational(Fraction(-1, 3), 1)}, 6, 5)
    assert exp_series(u) == reference_exp(u)


@settings(deadline=None)
@given(reversible())
@example(Jet2.from_terms({(1, 0): 1, (2, 0): 1}, 7, 7))
def test_comp_inverse_matches_picard(u):
    assert comp_inverse(u) == reference_comp_inverse(u)


def test_comp_inverse_over_duals_matches_picard():
    u = Jet2({(1, 0): DualRational(2, 1), (2, 0): EPS,
              (3, 0): DualRational(Fraction(-1, 2), 3),
              (5, 0): DualRational(1, 1)}, 7, 6)
    v = comp_inverse(u)
    assert v == reference_comp_inverse(u)
    assert compose1(u, v).agree(Jet2.variable("x", 7))


@settings(deadline=None, max_examples=30)
@given(structures_at(), nonzero_fractions, small_fractions)
def test_geodesic_solve_matches_picard(stq, y0, p0):
    assert geodesic_solve(stq, y0, p0) == reference_geodesic(stq, y0, p0)


@settings(deadline=None, max_examples=30)
@given(structures_at(), nonzero_fractions, small_fractions,
       st.integers(0, 6))
def test_geodesic_solve_at_a_lower_order_matches_picard(stq, y0, p0, order):
    order = min(order, stq.order)
    assert (geodesic_solve(stq, y0, p0, order)
            == reference_geodesic(stq.truncated(order), y0, p0))


@settings(deadline=None, max_examples=30)
@given(st.sampled_from([1, 2, -1, Fraction(1, 2)]),
       st.tuples(nonzero_fractions, small_fractions, small_fractions,
                 small_fractions),
       st.integers(0, 9))
def test_alpha_ode_solve_matches_picard(c, jet3, order):
    assert (alpha_ode_solve(c, jet3, order)
            == reference_alpha(c, jet3, order))


@settings(deadline=None, max_examples=30)
@given(structures_at(x_only=True, low=2), nonzero_fractions)
def test_ib_flattening_psi_matches_picard(stq, c0):
    zero = Jet2.zero(stq.order)
    stq = ProjectiveStructure(stq.A, zero, stq.C - stq.C.constant_term + c0,
                              zero)
    assert ib_flattening_germ(stq).u == reference_flattening_psi(stq)
