import cProfile
import math
import pstats
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from projstruct.duals import EPS, DualRational, as_dual
from projstruct.errors import (
    NonSquareConstant,
    NonUnitDivisor,
    NonZeroConstantTerm,
    NotInvertible,
)
from projstruct.jets import (
    Jet2,
    comp_inverse,
    compose1,
    exp_series,
    format_jet,
    sqrt_series,
    substitute,
)

from conftest import dual_jets, jets, small_fractions, univariate_germs


def J(terms, order=8, eff=None):
    return Jet2.from_terms(terms, order, eff)


X = Jet2.variable("x", 8)
Y = Jet2.variable("y", 8)


# --- construction and equality ------------------------------------------


def test_zero_coefficients_are_dropped():
    u = J({(1, 0): 0, (0, 1): 2})
    assert (1, 0) not in u.coeffs
    assert u.coeff(0, 1) == 2


def test_agree_ignores_coefficients_beyond_common_eff():
    u = J({(1, 0): 1, (5, 0): 7}, eff=8)
    v = J({(1, 0): 1}, eff=3)
    assert u.agree(v)
    assert not u.agree(v + Jet2.monomial(2, 0, 1, 8))


def test_strict_equality_sees_eff():
    u = J({(1, 0): 1}, eff=8)
    v = J({(1, 0): 1}, eff=3)
    assert u != v
    assert u.agree(v)


# --- arithmetic -----------------------------------------------------------


def test_product_of_polynomials():
    u = (1 + X + Y) * (1 - X + Y)
    assert u.coeff(0, 0) == 1
    assert u.coeff(1, 0) == 0
    assert u.coeff(2, 0) == -1
    assert u.coeff(0, 2) == 1
    assert u.coeff(0, 1) == 2


def test_truncation_at_order():
    u = (X + Y) ** 9
    assert u.is_zero()
    assert u.eff == 8


def test_division_requires_unit():
    with pytest.raises(NonUnitDivisor):
        (1 + X) / X


def test_geometric_series_inverse():
    inv = (1 - X).inverse()
    for k in range(9):
        assert inv.coeff(k, 0) == 1


def test_division_by_scalar():
    assert (X / 2).coeff(1, 0) == Fraction(1, 2)
    assert (2 / (1 + X)).coeff(1, 0) == -2


@given(jets(), jets(), jets())
def test_ring_axioms(u, v, w):
    assert (u + v).agree(v + u)
    assert ((u + v) + w).agree(u + (v + w))
    assert (u * v).agree(v * u)
    assert ((u * v) * w).agree(u * (v * w))
    assert (u * (v + w)).agree(u * v + u * w)


# Denominators are pairwise coprime (or 1), so the lcm of a factor's
# denominators is their full product.
_coprime_fractions = st.builds(Fraction, st.integers(-30, 30),
                               st.sampled_from([1, 2, 3, 5, 7, 11, 13]))


@st.composite
def product_factors(draw):
    """Jets of any order/eff, sparse or dense, over int or Fraction."""
    order = draw(st.integers(0, 7))
    eff = draw(st.integers(-1, order))
    keys = [(i, j) for i in range(order + 1) for j in range(order + 1 - i)]
    if draw(st.booleans()):
        chosen = keys
    else:
        chosen = draw(st.lists(st.sampled_from(keys), max_size=3, unique=True))
    values = st.integers(-9, 9) if draw(st.booleans()) else _coprime_fractions
    return Jet2({k: draw(values) for k in chosen}, order, eff)


def _reference_product(u, v):
    """(order, eff, coeffs) of u*v by the plain double loop over Fractions."""
    def val_bound(w):
        return min((i + j for (i, j) in w.coeffs), default=w.eff + 1)
    order = min(u.order, v.order)
    eff = min(order, u.eff + val_bound(v), v.eff + val_bound(u))
    out = {}
    for (i1, j1), c1 in u.coeffs.items():
        for (i2, j2), c2 in v.coeffs.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return order, eff, {k: c for k, c in out.items()
                        if k[0] + k[1] <= eff and c != 0}


@settings(deadline=None)
@given(product_factors(), product_factors())
@example(Jet2({(0, 0): 1, (1, 0): 1}, 3), Jet2({(0, 0): 1, (1, 0): -1}, 3))
def test_product_matches_the_reference_double_loop(u, v):
    w = u * v
    assert (w.order, w.eff, w.coeffs) == _reference_product(u, v)
    for (i, j), c in w.coeffs.items():
        assert i + j <= w.eff
        assert c != 0


def test_product_over_dual_coefficients():
    # (U + eps U')(V + eps V') = UV + eps (U V' + U' V); the eps^2 term
    # at x y cancels and must not be stored
    u = Jet2({(0, 0): 1 + EPS, (0, 1): EPS, (1, 0): DualRational(2, -1)}, 4)
    v = Jet2({(0, 0): DualRational(2), (1, 0): EPS, (2, 1): DualRational(-1, 3)}, 4)
    assert (u * v).coeffs == {
        (0, 0): DualRational(2, 2),
        (0, 1): DualRational(0, 2),
        (1, 0): DualRational(4, -1),
        (2, 0): DualRational(0, 2),
        (2, 1): DualRational(-1, 2),
        (2, 2): DualRational(0, -1),
        (3, 1): DualRational(-2, 7),
    }
    assert (u * v).coeffs == (v * u).coeffs
    assert (Jet2({(0, 1): EPS}, 4) * Jet2({(1, 0): EPS}, 4)).coeffs == {}


# --- the stored form ----------------------------------------------------------


def assert_canonical(w):
    """Integer numerators over one positive denominator, content 1, no
    zero term and no term above eff."""
    assert isinstance(w._den, int) and w._den > 0
    assert math.gcd(w._den, *w._num.values()) == 1
    for (i, j), n in w._num.items():
        assert isinstance(n, int) and n != 0 and i + j <= w.eff


def _clean(coeffs, eff):
    return {(i, j): c for (i, j), c in coeffs.items() if i + j <= eff and c != 0}


def _ref_sum(u, v, sign):
    out = dict(u.coeffs)
    for k, c in v.coeffs.items():
        out[k] = out.get(k, 0) + sign * c
    return _clean(out, min(u.eff, v.eff))


def _ref_mul(a, b, top):
    """Product of two coefficient dicts through degree ``top``."""
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            if i1 + j1 + i2 + j2 <= top:
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + c1 * c2
    return _clean(out, top)


def _ref_inverse(u):
    """z_k = -(sum over e != 0 of u_e z_(k-e)) / u_0, degree by degree."""
    c0 = u.coeffs[(0, 0)]
    z = {}
    for d in range(u.eff + 1):
        for i in range(d + 1):
            s = sum(c * z.get((i - a, d - i - b), 0)
                    for (a, b), c in u.coeffs.items() if (a, b) != (0, 0))
            z[(i, d - i)] = (1 if d == 0 else -s) / c0
    return _clean(z, u.eff)


def _ref_exp(u):
    """The power sum of exp(u) for u without constant term."""
    out = term = {(0, 0): Fraction(1)}
    for k in range(1, u.eff + 1):
        term = {key: c / k for key, c in _ref_mul(term, u.coeffs, u.eff).items()}
        out = {key: out.get(key, 0) + term.get(key, 0) for key in out.keys() | term}
    return _clean(out, u.eff)


def _ref_substitute(f, u, v, top):
    """sum f_ij u^i v^j through degree ``top``."""
    out = {}
    for (i, j), c in f.coeffs.items():
        t = {(0, 0): Fraction(1)}
        for g in [u] * i + [v] * j:
            t = _ref_mul(t, g.coeffs, top)
        for k, x in t.items():
            out[k] = out.get(k, 0) + c * x
    return _clean(out, top)


@settings(deadline=None, max_examples=60)
@given(product_factors(), product_factors(), _coprime_fractions,
       st.integers(-1, 7))
def test_rational_storage_is_canonical_after_every_operation(u, v, c, top):
    p, q = (w - Jet2.constant(w.coeff(0, 0), w.order) for w in (u, v))
    unit = u if u.coeff(0, 0) else u + 1
    cs = u.coeffs
    cases = [
        (u + v, _ref_sum(u, v, 1)),
        (u - v, _ref_sum(u, v, -1)),
        (u * v, _reference_product(u, v)[2]),
        (u.scale(c), _clean({k: c * x for k, x in cs.items()}, u.eff)),
        (u.scale(-6), _clean({k: -6 * x for k, x in cs.items()}, u.eff)),
        (u.d_dx(), {(i - 1, j): i * x for (i, j), x in cs.items() if i}),
        (u.d_dy(), {(i, j - 1): j * x for (i, j), x in cs.items() if j}),
        (u.integrate_x(), _clean({(i + 1, j): x / (i + 1) for (i, j), x in cs.items()},
                                 min(u.eff + 1, u.order))),
        (u.truncated(eff=top), _clean(cs, min(top, u.eff))),
        (exp_series(p), _ref_exp(p)),
    ]
    if unit.eff >= 0:
        cases.append((unit.inverse(), _ref_inverse(unit)))
    w = substitute(u, p, q)
    cases.append((w, _ref_substitute(u, p, q, w.eff)))
    for got, want in cases:
        assert_canonical(got)
        assert got.coeffs == want


def assert_stored_form(w):
    """Canonical when every numerator is an int; values (here duals) are
    numerators over 1, with no zero term and no term above eff."""
    if all(type(n) is int for n in w._num.values()):
        assert_canonical(w)
        return
    assert w._den == 1
    for (i, j), n in w._num.items():
        assert n != 0 and i + j <= w.eff


@settings(deadline=None, max_examples=60)
@given(dual_jets(), dual_jets(), dual_jets(zero_constant=True),
       dual_jets(zero_constant=True), _coprime_fractions, small_fractions,
       st.integers(-1, 7))
def test_dual_jets_keep_the_one_stored_form(u, v, p, q, c, e, top):
    d = DualRational(c, e)
    cs = u.coeffs
    unit = u - u.coeff(0, 0) + DualRational(1, e)
    p = p + e * EPS   # an infinitesimal base point costs one order
    uv = u * v
    cases = [
        (u + v, _ref_sum(u, v, 1)),
        (u - v, _ref_sum(u, v, -1)),
        (uv, _ref_mul(u.coeffs, v.coeffs, uv.eff)),
        (u.scale(-6), _clean({k: -6 * x for k, x in cs.items()}, u.eff)),
        (u.scale(c), _clean({k: c * x for k, x in cs.items()}, u.eff)),
        (u.scale(d), _clean({k: d * x for k, x in cs.items()}, u.eff)),
        (u.d_dx(), {(i - 1, j): i * x for (i, j), x in cs.items() if i}),
        (u.d_dy(), {(i, j - 1): j * x for (i, j), x in cs.items() if j}),
        (u.integrate_x(), _clean({(i + 1, j): x / (i + 1) for (i, j), x in cs.items()},
                                 min(u.eff + 1, u.order))),
        (u.truncated(eff=top), _clean(cs, min(top, u.eff))),
        (exp_series(q), _ref_exp(q)),
    ]
    if unit.eff >= 0:
        cases.append((unit.inverse(), _ref_inverse(unit)))
    w = substitute(u, p, q)
    assert w.eff == max(min(u.eff, p.eff, q.eff) - (e != 0), -1)
    cases.append((w, _ref_substitute(u, p, q, w.eff)))
    for got, want in cases:
        assert_stored_form(got)
        assert got.coeffs == want


def test_equal_jets_hash_alike_however_built():
    y = Jet2.variable("y", 5)
    from_ints = Jet2({(0, 0): 2, (2, 0): -2, (0, 1): 6}, 5)
    from_fractions = Jet2.from_terms(
        {(0, 0): Fraction(4, 2), (2, 0): Fraction(-2), (0, 1): Fraction(18, 3)}, 5)
    as_product = (Jet2({(0, 0): Fraction(1, 3), (1, 0): Fraction(1, 3)}, 5)
                  * Jet2({(0, 0): 6, (1, 0): -6}, 5) + y.scale(6))
    as_scale = Jet2.from_terms({(0, 0): Fraction(1, 2), (2, 0): Fraction(-1, 2),
                                (0, 1): Fraction(3, 2)}, 5).scale(4)
    built = [from_ints, from_fractions, as_product, as_scale]
    assert all(w == from_ints for w in built)
    assert len({hash(w) for w in built}) == 1
    assert from_ints._den == 1 and from_ints.coeffs[(0, 1)] == 6


def test_real_dual_jets_hash_as_their_rational_form():
    dual = Jet2({(0, 0): DualRational(1)}, 3)
    assert dual == Jet2.constant(1, 3)
    assert hash(dual) == hash(Jet2.constant(1, 3))
    assert len({dual, Jet2.constant(1, 3)}) == 1
    half = Jet2({(0, 0): DualRational(Fraction(1, 2)), (1, 1): Fraction(-3, 4)}, 5)
    assert hash(half) == hash(J({(0, 0): Fraction(1, 2), (1, 1): Fraction(-3, 4)}, 5))
    for c in (1, Fraction(-2, 3)):
        assert DualRational(c) == c and hash(DualRational(c)) == hash(c)
    assert Jet2({(0, 0): 1 + EPS}, 3) != Jet2.constant(1, 3)


def _all_dual(u):
    return Jet2({k: DualRational(c) for k, c in u.coeffs.items()}, u.order, u.eff)


def test_mixed_rational_and_dual_operands_read_values():
    r = J({(0, 0): Fraction(1, 2), (1, 0): Fraction(-2, 3), (0, 2): 3}, 6)
    d = Jet2({(0, 0): 1 + EPS, (0, 1): DualRational(Fraction(1, 5), -2),
              (2, 0): EPS}, 6, 5)
    one = Jet2({(1, 1): DualRational(2, 1)}, 6)
    x = Jet2.variable("x", 6) + EPS
    y = Jet2.variable("y", 6)
    rd = _all_dual(r)
    for got, want in [(r * d, rd * d), (d * r, d * rd), (r * one, rd * one),
                      (r + d, rd + d), (d - r, d - rd), (r.scale(EPS), rd.scale(EPS)),
                      (substitute(r, x, y), substitute(rd, x, y)),
                      (substitute(d, r - Fraction(1, 2), y),
                       substitute(d, rd - Fraction(1, 2), y))]:
        assert (got.order, got.eff) == (want.order, want.eff)
        assert got.coeffs == want.coeffs
    assert (r * d).coeff(0, 0) == DualRational(Fraction(1, 2), Fraction(1, 2))


def test_empty_and_one_term_factors():
    u = Jet2({(0, 0): Fraction(1, 2), (1, 1): 3, (2, 0): Fraction(-2, 3)}, 6, 5)
    for f in (Jet2.zero(6), Jet2.zero(6, 2), Jet2.monomial(1, 0, Fraction(-3, 4), 6),
              Jet2.monomial(0, 0, 6, 6, 4)):
        for a, b in ((u, f), (f, u)):
            w = a * b
            assert (w.order, w.eff, w.coeffs) == _reference_product(a, b)
            assert_canonical(w)


def test_rational_operations_build_no_fraction():
    keys = [(i, j) for i in range(7) for j in range(7 - i)]
    u = Jet2({k: Fraction(n % 7 - 3, n % 5 + 1) for n, k in enumerate(keys)}, 6)
    v = Jet2({k: Fraction(n % 4 - 1, n % 3 + 2) for n, k in enumerate(keys)}, 6, 5)
    p, q = (w - Jet2.constant(w.coeff(0, 0), 6) for w in (u, v))
    m, c = Jet2.monomial(1, 1, Fraction(2, 3), 6), Fraction(-5, 7)
    profile = cProfile.Profile()
    profile.enable()
    (u + v, u - v, 3 + u, u * v, u * m, u.scale(c), 2 * u, u.inverse(),
     u.d_dx(), u.integrate_x(), substitute(u, p, q), exp_series(p))
    profile.disable()
    assert [f for f in pstats.Stats(profile).stats
            if f[0].endswith("fractions.py") and f[2] == "__new__"] == []


@given(jets(unit_constant=True))
def test_inverse_is_two_sided(u):
    assert (u * u.inverse()).agree(Jet2.constant(1, u.order))
    assert (u.inverse() * u).agree(Jet2.constant(1, u.order))


@given(jets(), jets())
def test_pow_matches_repeated_product(u, v):
    assert (u ** 3).agree(u * u * u)
    assert ((u + v) ** 2).agree(u * u + 2 * u * v + v * v)


@settings(deadline=None)
@given(product_factors())
def test_pow_is_the_repeated_product(u):
    power = Jet2.constant(1, u.order)
    for n in range(6):
        assert u ** n == power
        power = power * u


# --- calculus -------------------------------------------------------------


def test_derivatives_of_monomial():
    m = Jet2.monomial(3, 2, Fraction(1, 2), 8)
    assert m.d_dx().coeff(2, 2) == Fraction(3, 2)
    assert m.d_dy().coeff(3, 1) == 1


def test_derivative_lowers_eff_and_integral_restores_it():
    u = J({(2, 0): 1}, eff=8)
    du = u.d_dx()
    assert du.eff == 7
    assert du.integrate_x().eff == 8
    assert du.integrate_x().agree(u)


@given(jets(), jets())
def test_leibniz_rule(u, v):
    lhs = (u * v).d_dx()
    rhs = u.d_dx() * v + u * v.d_dx()
    assert lhs.agree(rhs)


@given(jets())
def test_mixed_partials_commute(u):
    assert u.d_dx().d_dy().agree(u.d_dy().d_dx())


@given(jets())
def test_integrate_then_differentiate(u):
    assert u.integrate_x().d_dx().agree(u)


# --- reshaping ------------------------------------------------------------


def test_swap_vars_is_an_involution():
    u = J({(2, 1): 3, (0, 2): -1})
    assert u.swap_vars().swap_vars() == u
    assert u.swap_vars().coeff(1, 2) == 3


def test_shift_y_recenter():
    u = Y * Y
    s = u.shift_y(Fraction(1, 2))
    assert s.coeff(0, 0) == Fraction(1, 4)
    assert s.coeff(0, 1) == 1
    assert s.coeff(0, 2) == 1


@given(jets(max_degree=3), jets(max_degree=3), small_fractions)
def test_shift_y_is_a_ring_map_on_exact_polynomials(u, v, y0):
    # shift_y reads the stored coefficients as an exact polynomial, so
    # the product must not overflow the truncation order here
    assert (u * v).shift_y(y0).agree(u.shift_y(y0) * v.shift_y(y0))
    assert (u + v).shift_y(y0).agree(u.shift_y(y0) + v.shift_y(y0))


# --- substitution ----------------------------------------------------------


def test_substitute_rejects_nonzero_constant():
    with pytest.raises(NonZeroConstantTerm):
        substitute(X, Jet2.constant(1, 8), Y)


def test_substitute_linear_change():
    f = X * Y
    g = substitute(f, X + Y, X - Y)
    assert g.coeff(2, 0) == 1
    assert g.coeff(0, 2) == -1
    assert g.coeff(1, 1) == 0


@given(jets(), jets(zero_constant=True), jets(zero_constant=True))
def test_substitute_is_a_ring_map(f, u, v):
    lhs = substitute(f * f, u, v)
    rhs = substitute(f, u, v) * substitute(f, u, v)
    assert lhs.agree(rhs)


@given(jets(), jets(zero_constant=True), jets(zero_constant=True))
def test_substitute_chain_rule(f, u, v):
    # d/dx f(u, v) = f_x(u,v) u_x + f_y(u,v) v_x
    lhs = substitute(f, u, v).d_dx()
    rhs = substitute(f.d_dx(), u, v) * u.d_dx() + substitute(f.d_dy(), u, v) * v.d_dx()
    assert lhs.agree(rhs)


def test_substitute_at_dual_point_differentiates():
    # f(x + eps, y) = f + eps f_x, and one order of trust is spent
    f = Jet2.from_terms({(2, 0): 1, (1, 1): 3}, 6)
    shifted = substitute(f, Jet2.constant(EPS, 6) + Jet2.variable("x", 6),
                         Jet2.variable("y", 6))
    assert shifted.eff == 5
    fx = f.d_dx()
    keys = set(shifted.coeffs) | set(f.coeffs) | set(fx.coeffs)
    for (i, j) in keys:
        if i + j > shifted.eff:
            continue
        c = as_dual(shifted.coeff(i, j))
        assert c.re == f.coeff(i, j)
        assert c.ep == fx.coeff(i, j)


# --- compositional inverse --------------------------------------------------


def test_comp_inverse_catalan_tail():
    u = X + X * X
    v = comp_inverse(u)
    expected = {1: 1, 2: -1, 3: 2, 4: -5, 5: 14, 6: -42, 7: 132, 8: -429}
    for k, c in expected.items():
        assert v.coeff(k, 0) == c


def test_comp_inverse_requires_unit_slope():
    with pytest.raises(NotInvertible):
        comp_inverse(X * X)
    with pytest.raises(NotInvertible):
        comp_inverse(1 + X)
    with pytest.raises(NotInvertible):
        comp_inverse(X + Y)


@settings(deadline=None)
@given(univariate_germs())
def test_comp_inverse_round_trip(u):
    v = comp_inverse(u)
    x = Jet2.variable("x", u.order)
    assert compose1(u, v).agree(x)
    assert compose1(v, u).agree(x)


# --- exp and sqrt -----------------------------------------------------------


def test_exp_series_values():
    e = exp_series(X)
    assert e.coeff(0, 0) == 1
    assert e.coeff(3, 0) == Fraction(1, 6)
    assert e.coeff(8, 0) == Fraction(1, 40320)


def test_exp_requires_zero_constant():
    with pytest.raises(NonZeroConstantTerm):
        exp_series(1 + X)


@given(jets(zero_constant=True), jets(zero_constant=True))
def test_exp_turns_sums_into_products(u, v):
    assert exp_series(u + v).agree(exp_series(u) * exp_series(v))


@given(jets(zero_constant=True))
def test_exp_solves_its_ode(u):
    e = exp_series(u)
    assert e.d_dx().agree(u.d_dx() * e)


def test_sqrt_series_values():
    r = sqrt_series(1 + X)
    assert r.coeff(0, 0) == 1
    assert r.coeff(1, 0) == Fraction(1, 2)
    assert r.coeff(2, 0) == Fraction(-1, 8)


def test_sqrt_rejects_non_squares():
    with pytest.raises(NonSquareConstant):
        sqrt_series(2 + X)
    with pytest.raises(NonSquareConstant):
        sqrt_series(X)
    with pytest.raises(NonSquareConstant):
        sqrt_series(Jet2.constant(-1, 8))


def test_sqrt_series_of_integer_coefficients():
    # the constant of a jet built from ints reads as a rational square
    r = sqrt_series(Jet2({(0, 0): 4, (1, 0): 4}, 6))
    assert r == sqrt_series(Jet2.from_terms({(0, 0): 4, (1, 0): 4}, 6))
    assert (r.coeff(0, 0), r.coeff(1, 0), r.coeff(2, 0)) == (2, 1, Fraction(-1, 4))


@given(jets(zero_constant=True), st.sampled_from([1, 4, Fraction(9, 4), Fraction(1, 16)]))
def test_sqrt_squares_back(u, c0):
    v = u + Jet2.constant(c0, u.order)
    r = sqrt_series(v)
    assert (r * r).agree(v)


# --- effective order bookkeeping ---------------------------------------------


def test_mul_eff_uses_valuations():
    # x has full trust; differentiating (x^2) and multiplying by x^3
    # keeps the product trustworthy beyond the naive min of the effs.
    u = Jet2.monomial(2, 0, 1, 8).d_dx()   # eff 7
    v = Jet2.monomial(3, 0, 1, 8)          # valuation 3
    assert (u * v).eff == 8


def test_add_eff_is_min():
    u = J({(1, 0): 1}, eff=5)
    v = J({(0, 1): 1}, eff=7)
    assert (u + v).eff == 5


# --- dual coefficients --------------------------------------------------------


def test_dual_arithmetic():
    a = DualRational(2, 3)
    assert (a * a) == DualRational(4, 12)
    assert (1 / a) == DualRational(Fraction(1, 2), Fraction(-3, 4))
    assert EPS * EPS == 0
    assert a - 2 == 3 * EPS


def test_jets_over_duals():
    u = Jet2.from_terms({(0, 0): 1 + EPS, (1, 0): EPS}, 4)
    inv = u.inverse()
    assert inv.coeff(0, 0) == 1 - EPS
    assert inv.coeff(1, 0) == -EPS


# --- printing -----------------------------------------------------------------


def test_format_jet_ordering_and_shape():
    u = J({(0, 0): Fraction(-1, 2), (2, 1): 3, (0, 2): 1, (1, 0): 2})
    assert format_jet(u) == "-1/2 + 2 * x + 1 * y^2 + 3 * x^2 y"


def test_format_zero():
    assert format_jet(Jet2.zero(4)) == "0"
