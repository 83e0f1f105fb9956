import cProfile
import math
import pstats
import timeit
from collections import Counter
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
    _is_unit,
    _lincomb,
    _product,
    _quotients,
    _substitute_all,
    _sum_of_products,
    comp_inverse,
    compose1,
    exp_series,
    first_nonzero,
    format_jet,
    sqrt_series,
    substitute,
)
from projstruct.structures import ProjectiveStructure

from conftest import (
    PROP_ORDER,
    REDRAWN,
    assert_same_jets,
    assert_window_holds,
    assert_same_structure,
    cut_windows,
    dense_jets,
    dual_jets,
    jets,
    keeping_jets,
    nonzero_fractions,
    packed_box_sums,
    rational_or_dual_jets,
    redrawn,
    reference_agree,
    reference_sub,
    reference_substitute_all,
    small_fractions,
    univariate_germs,
    windowed,
    windowed_or_dual,
)


def J(terms, order=8, eff=None):
    return Jet2(terms, order, eff)


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


def test_a_float_coefficient_is_refused():
    # it once became a float numerator: 0.5 * x, past the "no floats" rule
    with pytest.raises(TypeError, match="jet coefficient"):
        Jet2({(0, 0): 0.5}, 3)
    with pytest.raises(TypeError, match="jet coefficient"):
        Jet2({(2, 0): 1.5}, 1)   # above the window too


def test_a_text_coefficient_is_read_as_a_fraction():
    # it once stayed a str and broke the first sum with a bare TypeError
    half = Jet2({(0, 0): "1/2"}, 3)
    assert half + Jet2.constant(1, 3) == Jet2.constant(Fraction(3, 2), 3)
    assert half == Jet2({(0, 0): Fraction(1, 2)}, 3)


@pytest.mark.parametrize("key", [(-1, 2), (0, -1), (1, 2, 3), (1,),
                                 (1.0, 0), (True, 0), "xy", 3])
def test_a_key_that_is_no_pair_of_naturals_is_refused(key):
    # (-1, 2) once printed as y^2, and its product with x^2 + y held
    # x^3 y^3, degree 6 at order 4
    with pytest.raises(ValueError, match="not a pair of ints >= 0"):
        Jet2({key: 1, (1, 1): 2}, 4)
    with pytest.raises(ValueError, match="not a pair of ints >= 0"):
        Jet2({key: 1}, 4)


@pytest.mark.parametrize("order", [-1, -5])
def test_truncated_refuses_a_negative_order(order):
    # the cut once made a jet of order -1, and the integral of a jet of
    # order -5 had eff -5, below the -1 floor of every other path
    with pytest.raises(ValueError, match="jet order must be >= 0"):
        Jet2.variable("x", 4).truncated(order=order)
    with pytest.raises(ValueError, match="jet order must be >= 0"):
        Jet2.zero(3).truncated(order)
    assert Jet2.zero(3).truncated(0).order == 0


@settings(deadline=None, max_examples=150)
@given(st.integers(0, PROP_ORDER).flatmap(
           lambda n: st.tuples(rational_or_dual_jets(order=n),
                               rational_or_dual_jets(order=n),
                               st.integers(-1, n), st.integers(-1, n),
                               st.integers(-1, n))),
       rational_or_dual_jets(), small_fractions)
@example((X, X + Jet2.monomial(3, 0, 1, 8), 8, 2, 3), X + EPS, Fraction(0))
def test_agree_is_the_reference(same_order, other, c):
    # over int, Fraction and dual coefficients, with windows from -1 to
    # the order: pairs that differ only above a window, pairs of two
    # orders, a jet against itself and against scalars
    u, v, eu, ev, top = same_order
    u, v = u.truncated(eff=eu), v.truncated(eff=ev)
    w = u + v.truncated(eff=-1) + Jet2.monomial(top, 0, 1, u.order) \
        if top >= 0 else u
    for f, g in ((u, v), (v, u), (u, u), (u, w), (w, u), (u, other),
                 (other, v), (u, c), (u, 0), (u, u.constant_term)):
        assert f.agree(g) == reference_agree(f, g)


def test_agree_is_the_reference_on_every_registry_call(registry_traffic):
    # 29 a pass: 17 geodesic solves, 6 normalize_D1 and 6 c_star_action
    # calls, each building its difference jet
    calls, passes = registry_traffic
    assert {order: p["agree"] for order, p in passes.items()} \
        == {12: 29, 8: 29}
    assert {n for *_, n in calls["agree"]} == {1}
    for f, g, _ in calls["agree"]:
        assert f.agree(g) is reference_agree(f, g) is True


def test_deep_jets_agree_is_the_reference(deep_traffic):
    # the 12 geodesic solves and the workload's own gates
    calls = deep_traffic["agree"]
    assert len(calls) == 84
    assert Counter(f.agree(g) for f, g in calls) == {True: 84}
    for f, g in calls:
        assert f.agree(g) == reference_agree(f, g)


def _reference_first_nonzero(parts):
    return next(((k, j) for k, j in enumerate(parts) if not j.is_zero()),
                None)


@given(st.lists(st.one_of(rational_or_dual_jets(), st.just(Jet2.zero(
    PROP_ORDER))), min_size=4, max_size=4).flatmap(cut_windows))
def test_first_nonzero_is_the_first_part_that_does_not_vanish(parts):
    # one jet, a record, a residual-like list and a generator
    record = ProjectiveStructure(*parts)
    assert first_nonzero(parts[0]) == _reference_first_nonzero(parts[:1])
    assert first_nonzero(record) == _reference_first_nonzero(record)
    assert first_nonzero(parts[1:]) == _reference_first_nonzero(parts[1:])
    assert first_nonzero(iter(parts)) == _reference_first_nonzero(parts)


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
    from_fractions = Jet2(
        {(0, 0): Fraction(4, 2), (2, 0): Fraction(-2), (0, 1): Fraction(18, 3)}, 5)
    as_product = (Jet2({(0, 0): Fraction(1, 3), (1, 0): Fraction(1, 3)}, 5)
                  * Jet2({(0, 0): 6, (1, 0): -6}, 5) + y.scale(6))
    as_scale = Jet2({(0, 0): Fraction(1, 2), (2, 0): Fraction(-1, 2),
                     (0, 1): Fraction(3, 2)}, 5).scale(4)
    built = [from_ints, from_fractions, as_product, as_scale]
    assert all(w == from_ints for w in built)
    assert len({hash(w) for w in built}) == 1
    assert from_ints._den == 1 and from_ints.coeffs[(0, 1)] == 6


def test_real_dual_jets_hash_as_their_rational_form():
    # they are stored in it, as int numerators: the one stored form holds
    # for dual jets too
    dual = Jet2({(0, 0): DualRational(1)}, 3)
    assert dual == Jet2.constant(1, 3)
    assert hash(dual) == hash(Jet2.constant(1, 3))
    assert len({dual, Jet2.constant(1, 3)}) == 1
    half = Jet2({(0, 0): DualRational(Fraction(1, 2)), (1, 1): Fraction(-3, 4)}, 5)
    cancelled = Jet2({(0, 0): 1 + EPS}, 3) - Jet2({(0, 0): EPS}, 3)
    for jet, num, den in [(dual, {(0, 0): 1}, 1), (cancelled, {(0, 0): 1}, 1),
                          (half, {(0, 0): 2, (1, 1): -3}, 4)]:
        assert (jet._num, jet._den) == (num, den)
        assert all(type(n) is int for n in jet._num.values())
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


# --- quotients -----------------------------------------------------------------


def _val_bound(u):
    return min((i + j for (i, j) in u.coeffs), default=u.eff + 1)


def _ref_quotient(a, b):
    """(order, eff, coeffs) of a / b: the reference inverse of b times a,
    in the window a * (1/b) has."""
    order = min(a.order, b.order)
    eff = min(order, a.eff, b.eff + _val_bound(a))
    return order, eff, _ref_mul(a.coeffs, _ref_inverse(b), eff)


def _rational_or_dual(**kwargs):
    return st.one_of(jets(**kwargs), dual_jets(**kwargs))


@settings(deadline=None, max_examples=60)
@given(_rational_or_dual(), _rational_or_dual(unit_constant=True),
       st.integers(-1, PROP_ORDER), st.integers(-1, PROP_ORDER))
@example(Jet2.zero(6), Jet2({(0, 0): 2, (1, 0): 1}, 6), 6, 6)
@example(Jet2({(2, 1): 3, (3, 0): Fraction(1, 2)}, 6),
         Jet2({(0, 0): -3, (0, 1): 1}, 6), 6, 2)
@example(Jet2.variable("x", 6), Jet2.constant(1, 6), 6, -1)
def test_quotient_window_and_values(a, b, ea, eb):
    a, b = a.truncated(eff=ea), b.truncated(eff=eb)
    if b.eff < 0:
        # an empty divisor has no unit constant term
        with pytest.raises(NonUnitDivisor) as err:
            a / b
        assert str(err.value) == "constant term 0 is not invertible"
        return
    q = a / b
    assert (q.order, q.eff, q.coeffs) == _ref_quotient(a, b)
    assert_stored_form(q)
    assert q == a * b.inverse()
    assert b.inverse() == Jet2.constant(1, b.order) / b


def test_non_unit_divisors_keep_their_message():
    for divisor, shown in [(X, "0"), (X + EPS, "DualRational(0, 1)")]:
        for dividend in (1 + X, Jet2.zero(8)):
            with pytest.raises(NonUnitDivisor) as err:
                dividend / divisor
            assert str(err.value) == "constant term %s is not invertible" % shown
        with pytest.raises(NonUnitDivisor) as err:
            divisor.inverse()
        assert str(err.value) == "constant term %s is not invertible" % shown


# --- several numerators over one divisor -------------------------------------

_WIDE_INTS = st.integers(-2 ** 256, 2 ** 256)
_WIDE = st.one_of(_WIDE_INTS, st.builds(Fraction, _WIDE_INTS,
                                        st.integers(1, 2 ** 64)))


@st.composite
def wide_jets(draw, dual=False, constant=None):
    """A jet of order 0 to 8 with coefficients up to 2^256, dense or sparse,
    of valuation 0 to 3, at a random window, empty ones included; over the
    duals when ``dual``; with a constant term drawn from ``constant`` when
    given."""
    order = draw(st.integers(0, 8))
    low = 0 if constant is not None else draw(st.integers(0, 3))
    keys = [(i, j) for i in range(order + 1) for j in range(order + 1 - i)
            if i + j >= low]
    if keys and draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(keys), max_size=5, unique=True))
    value = st.builds(DualRational, _WIDE, _WIDE) if dual else _WIDE
    coeffs = {k: draw(value) for k in keys}
    if constant is not None:
        coeffs[(0, 0)] = draw(constant)
    return Jet2(coeffs, order, draw(st.integers(-1, order)))


@st.composite
def quotient_groups(draw):
    """(nums, b): one to five numerators and a divisor with a constant term
    of any sign and size, all over the rationals or, one time in three,
    each over the rationals or the duals."""
    mixed = draw(st.integers(0, 2)) == 0

    def jet(**kwargs):
        return draw(wide_jets(dual=mixed and draw(st.booleans()), **kwargs))

    b = jet(constant=_WIDE.filter(bool))
    return [jet() for _ in range(draw(st.integers(1, 5)))], b


_X3 = Jet2.variable("x", 3)


@settings(deadline=None, max_examples=150)
@given(quotient_groups())
# a negative constant term above 1 and wide values: the slots carry signs
@example(([Jet2({(0, 0): 2 ** 200, (1, 0): -3}, 3), _X3,
           Jet2({(0, 1): -(2 ** 255)}, 5, 2)],
          Jet2({(0, 0): -7, (1, 0): 2 ** 130, (0, 1): -1}, 3, 2)))
# one numerator with an empty window beside one without
@example(([_X3.truncated(eff=-1), _X3], Jet2({(0, 0): 3}, 3)))
def test_quotients_are_the_quotients_one_by_one(group):
    nums, b = group
    try:
        want = [a / b for a in nums]
    except NonUnitDivisor as err:
        with pytest.raises(NonUnitDivisor) as got:
            _quotients(nums, b)
        assert str(got.value) == str(err)
        return
    assert _quotients(nums, b) == want


@st.composite
def constant_divisor_groups(draw):
    """(nums, b): one or four numerators, each rational or dual at a window
    from -1 up to the order, over a divisor whose only term is its constant
    c, of either sign and any denominator, rational or, one time in two,
    dual with a nonzero eps part."""
    order = draw(st.integers(0, 8))
    c = draw(nonzero_fractions)
    if draw(st.booleans()):
        c = DualRational(c, draw(nonzero_fractions))
    b = Jet2({(0, 0): c}, order, draw(st.integers(0, order)))
    return [draw(windowed_or_dual(order, low=draw(st.integers(0, 2)),
                                  min_eff=-1))
            for _ in range(draw(st.sampled_from((1, 4))))], b


@settings(deadline=None, max_examples=60)
@given(constant_divisor_groups())
# c < 0 over a denominator > 1, four numerators, one with an empty window
@example(([Jet2({(0, 0): 3, (1, 1): Fraction(-5, 2)}, 4),
           Jet2.variable("x", 4), Jet2({(2, 0): 1}, 4, -1),
           Jet2({(0, 1): 7}, 4, 0)],
          Jet2({(0, 0): Fraction(-3, 4)}, 4)))
# a dual constant divisor
@example(([Jet2({(0, 0): 1, (1, 0): 2}, 3)], Jet2({(0, 0): 2 + EPS}, 3)))
def test_a_constant_divisor_scales_integer_numerators(group):
    # rational numerators over a rational constant take no graded pass; a
    # dual constant still does, and every quotient is the reference
    from projstruct import jets as jets_module

    nums, b = group
    solves, graded_solve = [], jets_module._graded_solve

    def counting(*args):
        solves.append(args)
        return graded_solve(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jets_module, "_graded_solve", counting)
        got = _quotients(nums, b)
    if all(type(n) is int for f in (b, *nums) for n in f._num.values()):
        assert not solves
    if type(b.constant_term) is DualRational:
        assert len(solves) == len(nums)
    for a, q in zip(nums, got):
        assert (q.order, q.eff, q.coeffs) == _ref_quotient(a, b)
        assert_stored_form(q)


def test_workload_quotient_groups_are_the_quotients_one_by_one(
        quotient_traffic):
    # every group of several numerators in run_all(12), deep-jets seeds
    # 1-3 rounds 0-1 and documents seeds 1-3 rounds 0-9
    _, groups = quotient_traffic
    assert len(groups) > 100
    assert any(list(b._num) == [(0, 0)] for _, b, _ in groups)
    for nums, b, got in groups:
        assert got == [a / b for a in nums]


def test_a_registry_pass_and_a_deep_round_keep_their_graded_solves(
        quotient_traffic):
    # pullback and structure_from_pencil each divide in one graded solve,
    # apply_x_reparam in two; four solves a call would move these counts.
    # 240 while each of the 3 flattening germs divided by C and by psi'
    # in its Picard pass, where it now inverts v^2 and divides in the 3
    # Newton steps of its reversion; 246 while each of the 3 alpha-ODE
    # solves divided once in its Picard pass, where it now inverts Q,
    # divides in the 3 Newton steps of its reversion and takes one
    # exp_series, itself one graded solve; 258 and 42 while a divisor
    # with a constant term alone took a graded pass too: it now scales;
    # 209 and 40 while comp_inverse divided in each Newton step of its
    # reversion: it now divides nowhere
    solves, _ = quotient_traffic
    assert solves["registry"] == 186
    assert {solves[("deep-jets", seed, 0)] for seed in (1, 2, 3)} == {24}


@settings(deadline=None, max_examples=30)
@given(dense_jets(), dense_jets())
def test_dense_high_order_products_match_the_reference(u, v):
    w = u * v
    assert (w.order, w.eff, w.coeffs) == _reference_product(u, v)
    assert_canonical(w)


@settings(deadline=None, max_examples=20)
@given(dense_jets(), dense_jets(unit_constant=True))
def test_dense_high_order_quotients_match_the_reference(a, b):
    q = a / b
    assert (q.order, q.eff, q.coeffs) == _ref_quotient(a, b)
    assert_canonical(q)


def test_a_short_product_does_not_pay_for_the_working_order():
    # the sums of a product live in its exponent box, never in a list
    # sized by the working order: two 3-term jets cost about as much at
    # order 400 as at order 20
    def best(order):
        u = Jet2({(0, 0): 1, (1, 0): 2, (0, 1): 3}, order)
        return min(timeit.repeat(lambda: u * u, number=2000, repeat=5))
    assert best(400) / best(20) < 5
    p = Jet2({(0, 0): 1, (5, 0): 1}, 400)
    assert (p * p).coeffs == _ref_mul(p.coeffs, p.coeffs, 400)
    # nor do the slices of a packed product: two dense degree-8 jets of
    # 45 terms each take the packed path, whose ints span the product's
    # top degree 16, not the working order
    dense = {(i, j): (3 * i + 5 * j) % 7 - 3 or 1
             for i in range(9) for j in range(9 - i)}

    def best_dense(order):
        u = Jet2(dense, order)
        return min(timeit.repeat(lambda: u * u, number=50, repeat=5))
    assert best_dense(400) / best_dense(20) < 5
    q = Jet2(dense, 400)
    with packed_box_sums() as packed:
        qq = q * q
    assert packed and qq.coeffs == _ref_mul(q.coeffs, q.coeffs, 400)


def _ref_box_sum(products, eff):
    """sum s a b over ``products`` (s, a, b) of numerator dicts through
    degree ``eff``, by the plain double loop of each product."""
    out = {}
    for s, a, b in products:
        for k, c in _ref_mul(a, b, eff).items():
            out[k] = out.get(k, 0) + s * c
    return {k: c for k, c in out.items() if c}


def test_every_packed_workload_product_is_the_loop_product(
        registry_traffic, deep_traffic):
    # the _box_sum calls that take the packed path: none in a registry
    # pass, whose products are sparse, short or x-only, and 144 in the
    # deep-jets rounds of seeds 1-3, round 0; each is the plain double
    # loop, its keys in the box order of the loop kernel
    calls, passes = registry_traffic
    assert {order: p["packed"] for order, p in passes.items()} \
        == {12: 0, 8: 0}
    assert len(deep_traffic["packed"]) == 144
    for products, eff, out, _ in calls["packed"] + deep_traffic["packed"]:
        assert out == _ref_box_sum(products, eff)
        assert list(out) == sorted(out)


_HUGE = 2 ** 2100


def _wide(top):
    """Integers n e + r, n and r in -9..9 and e one of 1, 2^64 and ``top``:
    up to as wide as ``top``, each drawn from a few bytes."""
    return st.builds(lambda n, e, r: n * e + r, st.integers(-9, 9),
                     st.sampled_from([1, 2 ** 64, top]), st.integers(-9, 9))


@st.composite
def packed_products(draw):
    """(dense, looped, eff) for ``_box_sum``: one or two products that
    take the packed path, of dense integer factors of top degree 7-10
    with up to top-degree holes, numerators of either sign up to 2100
    bits or all one value (where the slot bound is nearest to tight), and
    weights up to 2^400 as the lcm scaling of ``_sum_of_products`` makes
    them; up to two looped products (a lone factor against 1, a sparse
    factor); and eff from -1 to past the top degrees."""
    def factor():
        top = draw(st.integers(7, 10))
        keys = [(i, d - i) for d in range(top + 1) for i in range(d + 1)]
        holes = draw(st.sets(st.sampled_from(keys), max_size=top))
        keys = [k for k in keys if k not in holes]
        if draw(st.booleans()):
            return dict.fromkeys(keys, draw(st.sampled_from(
                [1, -1, 7, _HUGE, -_HUGE, _HUGE - 1])))
        return {k: n or 1 for k, n in zip(keys, draw(st.lists(
            _wide(_HUGE), min_size=len(keys), max_size=len(keys))))}

    weights = st.one_of(st.sampled_from([1, -1, 3]), _wide(2 ** 400))
    dense = [(draw(weights), factor(), factor())
             for _ in range(draw(st.integers(1, 2)))]
    looped = []
    if draw(st.booleans()):
        looped.append((draw(weights), factor(), {(0, 0): 1}))
    if draw(st.booleans()):
        looped.append((draw(weights), factor(),
                       {(0, 0): 2, (1, 1): -_HUGE, (3, 0): 5}))
    return dense, looped, draw(st.integers(-1, 22))


@settings(deadline=None, max_examples=60)
@given(packed_products())
def test_packed_products_are_the_double_loop(inputs):
    # every dense product of two integer factors takes the packed path,
    # and the sum is the plain double loop, its keys in box order
    from projstruct import jets as jets_module

    dense, looped, eff = inputs
    products = dense + looped
    with packed_box_sums() as calls:
        out = jets_module._box_sum(products, eff)
    assert [[p[:3] for p in packed] for *_, packed in calls] == [dense]
    assert out == _ref_box_sum(products, eff)
    assert list(out) == sorted(out)


def test_a_dense_dual_product_stays_on_the_loop():
    # criterion 14's path: dual values never take the packed path, and
    # the product is the one of its real and eps parts over the
    # rationals, whose dense products do take it
    def dense(shift):
        return Jet2({(i, j): (3 * i + 5 * j + shift) % 11 - 5 or 1
                     for i in range(9) for j in range(9 - i)}, 16)

    a, b, c, d = (dense(k) for k in range(4))
    u = Jet2({k: DualRational(a.coeff(*k), b.coeff(*k)) for k in a.coeffs},
             16)
    v = Jet2({k: DualRational(c.coeff(*k), d.coeff(*k)) for k in c.coeffs},
             16)
    with packed_box_sums() as packed:
        w = u * v
    assert not packed
    with packed_box_sums() as packed:
        re, ep = a * c, a * d + b * c
    assert len(packed) == 3
    assert (w.order, w.eff) == (re.order, re.eff) == (ep.order, ep.eff)
    assert w.coeffs == {k: DualRational(re.coeff(*k), ep.coeff(*k))
                        for k in set(re.coeffs) | set(ep.coeffs)}


# --- the numerator kernels -------------------------------------------------

_KERNEL_KEYS = [(i, j) for i in range(6) for j in range(6 - i)]
_KERNEL_VALUES = {
    "int": st.integers(-9, 9).filter(bool),
    "fraction": nonzero_fractions,
    "dual": st.builds(DualRational, small_fractions, small_fractions)
    .filter(bool),
}
_KERNEL_VALUES["mixed"] = st.one_of(*_KERNEL_VALUES.values())


def numerators(kind):
    """Numerator dicts of no, one or up to five nonzero values of a kind."""
    return st.sampled_from([0, 1, 5]).flatmap(lambda size: st.dictionaries(
        st.sampled_from(_KERNEL_KEYS), _KERNEL_VALUES[kind], max_size=size))


@st.composite
def lincomb_parts(draw):
    """(parts, eff) for ``_lincomb``; the parts sometimes cancel in full."""
    kind = draw(st.sampled_from(sorted(_KERNEL_VALUES)))
    parts = draw(st.lists(st.tuples(st.integers(-3, 3), numerators(kind),
                                    st.integers(1, 12)), max_size=4))
    if draw(st.booleans()):
        parts += [(-s, num, d) for s, num, d in parts]
    return parts, draw(st.integers(-1, 8))


@settings(deadline=None, max_examples=200)
@given(lincomb_parts())
@example(([], 3))
@example(([(1, {(0, 0): 2}, 3), (-2, {(0, 0): 1}, 3)], 4))
@example(([(1, {(1, 0): EPS}, 1), (1, {(1, 0): -EPS}, 1)], 2))
@example(([(2, {(0, 0): 1, (2, 1): 5}, 4)], -1))
def test_lincomb_is_the_fraction_sum(inputs):
    parts, eff = inputs
    num, den = _lincomb(parts, eff)
    want = {}
    for s, n, d in parts:
        for k, c in n.items():
            want[k] = want.get(k, 0) + s * c * Fraction(1, d)
    assert den == math.lcm(*[d for _, _, d in parts])
    assert {k: c * Fraction(1, den) for k, c in num.items()} \
        == _clean(want, eff)
    for (i, j), c in num.items():
        assert i + j <= eff and not c == 0


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(sorted(_KERNEL_VALUES)).flatmap(
    lambda kind: st.tuples(numerators(kind), numerators(kind))),
    st.integers(-1, 10))
@example(({}, {(0, 0): 1}), 3)
@example(({(1, 0): 2}, {(0, 0): 3, (0, 1): Fraction(1, 2)}), 1)
@example(({(0, 0): EPS, (1, 0): 1}, {(0, 1): EPS}), 4)
@example(({(0, 0): EPS, (1, 0): EPS}, {(0, 0): EPS, (0, 1): 1}), 4)
@example(({(0, 0): 1, (1, 0): 1}, {(0, 0): 1, (1, 0): -1}), -1)
def test_product_is_the_fraction_double_loop(factors, eff):
    a, b = factors
    got = _product(a, b, eff)
    assert got == _ref_mul(a, b, eff)
    assert all(not c == 0 for c in got.values())


# --- sums of products ------------------------------------------------------


def naive_sum_of_products(terms):
    """sum c f g as ``Jet2`` products, scales and sums, one at a time."""
    out = None
    for c, f, g in terms:
        p = (f * g).scale(c)
        out = p if out is None else out + p
    return out


_SUM_FACTORS = st.one_of(product_factors(), dual_jets())


@settings(deadline=None, max_examples=150)
@given(st.lists(st.tuples(small_fractions, _SUM_FACTORS, _SUM_FACTORS),
                min_size=1, max_size=4))
@example([(1, Jet2.zero(5), Jet2.variable("x", 5))])
@example([(Fraction(-1, 2), Jet2({(0, 0): 3, (1, 2): 1}, 7, 2),
           Jet2.zero(7, 1))])
@example([(2, Jet2({(0, 1): 1}, 6), Jet2({(1, 0): Fraction(1, 3)}, 6)),
          (-2, Jet2({(1, 0): Fraction(1, 3)}, 6), Jet2({(0, 1): 1}, 6))])
@example([(1, Jet2({(0, 1): EPS}, 4), Jet2({(1, 0): EPS, (0, 0): 1}, 4)),
          (3, Jet2({(0, 0): Fraction(1, 2)}, 4), Jet2({(2, 1): 5}, 4, 2))])
def test_sum_of_products_is_the_naive_sum(terms):
    # over int, Fraction and dual coefficients, with empty and one-term
    # factors and short windows: the same order, eff and values as adding
    # the products one by one, in the one stored form
    got, want = _sum_of_products(terms), naive_sum_of_products(terms)
    assert (got.order, got.eff, got.coeffs) == (want.order, want.eff,
                                                want.coeffs)
    assert got == want
    assert_stored_form(got)


def test_a_short_sum_of_products_does_not_pay_for_the_working_order():
    # the sums live in the box of the factors' exponents, as a product's
    # do: two 3-term products cost about as much at order 400 as at 12
    def best(order):
        u = Jet2({(0, 0): 1, (1, 0): 2, (0, 1): 3}, order)
        v = Jet2({(0, 0): 2, (2, 0): Fraction(1, 3), (0, 1): -1}, order)
        terms = [(1, u, v), (Fraction(-1, 2), v, v)]
        return min(timeit.repeat(lambda: _sum_of_products(terms),
                                 number=2000, repeat=5))
    assert best(400) / best(12) < 5


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
    f = Jet2({(2, 0): 1, (1, 1): 3}, 6)
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


def test_substitution_is_the_reference_on_every_registry_call(
        substitution_traffic):
    # 279 while remark.flat ran at --order 3 itself (33 calls there, 39
    # at its working order 6); 285 while each flattening germ composed
    # q, m and C with psi, where it now substitutes in each Newton step of
    # its reversion (3 at orders 15 and 11, 2 at 6) and composes C alone;
    # 291 while alpha_ode_solve solved online, where it now substitutes in
    # each Newton step of its reversion and composes Q' once (12 solves,
    # at orders 15, 11 and 6); 336 while comp_inverse substituted in each
    # Newton step: it now substitutes nowhere
    calls = [c for order in (12, 8, 3) for c in substitution_traffic[order]]
    assert len(calls) == 231
    for fs, u, v, out, _ in calls:
        assert_same_jets(out, reference_substitute_all(fs, u, v))


def test_deep_jets_substitutions_are_the_reference(deep_traffic):
    # 120 while comp_inverse substituted in each Newton step of the
    # comp_inverse op and of normalize_D1 (four steps each, at orders 16
    # and 20): it now substitutes nowhere
    calls = deep_traffic["substitute_all"]
    assert len(calls) == 72
    for fs, u, v, out, _ in calls:
        assert_same_jets(out, reference_substitute_all(fs, u, v))


def test_workload_substitutions_by_a_linear_germ_take_the_slice_path(
        substitution_traffic, deep_traffic):
    # u and v with terms of degree 1 alone and rational f take the slice
    # path, and only they.  Per run_all(12) pass: thm31.i.a's six
    # scaling-action pullbacks, the 13 x-only compositions by c x (12 in
    # c_star_action), normalize_D1's 4 reparametrizations by a linear psi
    # and 4 shifts by a linear phi, and 2 evaluations along a line.  Per
    # deep-jets order: the pullback by the linear germ g2 and the two
    # substitutions into g2, 18 over seeds 1-3, round 0
    registry = substitution_traffic[12]
    deep = deep_traffic["substitute_all"]
    assert sum(c[4] for c in registry) == 29
    assert sum(c[4] for c in deep) == 18
    for fs, u, v, out, sliced in registry + deep:
        linear = all(i + j == 1 and type(n) is int for g in (u, v)
                     for (i, j), n in g._num.items()) and all(
            type(n) is int for f in fs for n in f._num.values())
        assert sliced == linear
        if sliced:
            assert_same_jets(out, reference_substitute_all(fs, u, v))


_SHAPES = {"pure": lambda i, j: not (i and j), "mixed": lambda i, j: i and j,
           "none": lambda i, j: False, "any": lambda i, j: True}


@st.composite
def substitution_inputs(draw):
    """(fs, u, v): one to three jets f with only pure powers, only mixed
    terms, no terms or any, and u, v with a zero or nilpotent dual
    constant term, or exactly zero; windows short at random."""
    order = draw(st.integers(1, PROP_ORDER))
    fs = []
    for f in draw(st.lists(rational_or_dual_jets(order=order, max_terms=6),
                           min_size=1, max_size=3)):
        keep = _SHAPES[draw(st.sampled_from(sorted(_SHAPES)))]
        fs.append(Jet2({k: c for k, c in f.coeffs.items() if keep(*k)},
                       f.order, f.eff))
    inner = []
    for _ in range(2):
        g = draw(st.one_of(st.just(Jet2.zero(order)), rational_or_dual_jets(
            order=order, zero_constant=True)))
        e = draw(st.sampled_from([0, 0, 1, Fraction(-1, 2)]))
        inner.append(g + e * EPS if e else g)
    *fs, u, v = draw(cut_windows([*fs, *inner]))
    return fs, u, v


@settings(deadline=None, max_examples=40)
@given(substitution_inputs())
@example(([Jet2({(0, 0): 1, (2, 0): 3, (0, 3): -1}, 6, 4)],
          Jet2.variable("x", 6) + EPS, Jet2.zero(6)))
@example(([Jet2({(1, 1): 2, (2, 1): 1}, 5), Jet2.zero(5, -1)],
          Jet2.variable("y", 5).truncated(eff=2), Jet2.variable("x", 5)))
# the same with u and v not linear, which keeps the powers
@example(([Jet2({(1, 1): 2, (2, 1): 1}, 5), Jet2.zero(5, -1)],
          Jet2({(0, 1): 1, (0, 2): -1}, 5, 2), Jet2({(1, 0): 1, (3, 0): 2}, 5)))
def test_substitution_is_the_reference(inputs):
    # pure powers read u^i and v^j as they are; the reference builds
    # u^i * 1 and 1 * v^j: the same order, eff, numerators and denominator
    fs, u, v = inputs
    assert_same_jets(_substitute_all(fs, u, v),
                     reference_substitute_all(fs, u, v))


@st.composite
def linear_substitution_inputs(draw):
    """(fs, u, v): u and v with terms of degree 1 alone, integer or
    fractional coefficients, zero at times, each at its own order and eff
    (1 to that order); one to three f of one order, of each ``_SHAPES``
    shape, sparse or dense, cut to a window from -1 to the order, with
    terms above the common order when u or v has a lower one.  One f in
    three is dual, and one u or v in six has a dual coefficient: those
    stay on the generic path."""
    order = draw(st.integers(0, PROP_ORDER))
    fs = []
    for _ in range(draw(st.integers(1, 3))):
        f = draw(windowed_or_dual(order))
        keep = _SHAPES[draw(st.sampled_from(sorted(_SHAPES)))]
        fs.append(Jet2({k: c for k, c in f.coeffs.items() if keep(*k)},
                       order, draw(st.integers(-1, order))))
    inner = []
    for _ in range(2):
        g_order = draw(st.integers(1, PROP_ORDER))
        coeffs = {k: draw(st.one_of(st.integers(-3, 3), small_fractions))
                  for k in ((1, 0), (0, 1))}
        if not draw(st.integers(0, 5)):
            coeffs[(1, 0)] = DualRational(coeffs[(1, 0)],
                                          draw(nonzero_fractions))
        inner.append(Jet2(coeffs, g_order, draw(st.integers(1, g_order))))
    return fs, *inner


@settings(deadline=None, max_examples=80)
@given(linear_substitution_inputs())
@example(([Jet2({(1, 0): 1}, 3)], Jet2.variable("x", 3), Jet2.zero(3)))
@example(([Jet2({(i, j): 1 for i in range(5) for j in range(5 - i)}, 4)],
          Jet2({(1, 0): -1, (0, 1): -1}, 4), Jet2({(1, 0): 1, (0, 1): -1}, 4)))
def test_substitution_by_a_linear_germ_is_the_reference(inputs):
    # the slice path, taken for rational f and u, v with degree-1 terms
    # alone, gives the generic path's order, eff, numerators and
    # denominator; the examples fill their slots to the bound exactly
    from projstruct import jets as jets_module

    fs, u, v = inputs
    sliced, substitute_linear = [], jets_module._substitute_linear

    def slicing(*args):
        sliced.append(args)
        return substitute_linear(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jets_module, "_substitute_linear", slicing)
        got = _substitute_all(fs, u, v)
    assert_same_jets(got, reference_substitute_all(fs, u, v))
    assert bool(sliced) == all(type(n) is int for f in (*fs, u, v)
                               for n in f._num.values())


def test_substitution_builds_no_jet_for_a_mixed_power():
    # Jet2._new calls at order 12.  A substitution builds the windows of u
    # and v, their powers from the square on and its results; comp_inverse
    # builds its one result, with no substitution.  With a product per pure
    # power too, the three were 28, 78 and 19; with the first powers built
    # as 1 * u and 1 * v, 15, 53 and 12; with a jet per mixed power u^i v^j
    # (three for the cubic), 14, 50 and 10; 14, 50 and 7 while comp_inverse
    # substituted into its current inverse in each of three Newton steps
    # and added their windows, differences and quotients
    x, y = Jet2.variable("x", 12), Jet2.variable("y", 12)
    dense = Jet2({(i, 0): i + 1 for i in range(13)}, 12)    # 13 terms
    germ = Jet2({(i, 0): i for i in range(1, 13)}, 12)
    cubic = Jet2({(i, j): 1 for i in range(4) for j in range(4 - i)}, 12)
    u, v = x + y * y, y + x * y
    for run, built in [(lambda: compose1(dense, germ), 14),
                       (lambda: comp_inverse(germ), 1),
                       (lambda: substitute(cubic, u, v), 7)]:
        with keeping_jets(init=False) as kept:
            run()
        assert len(kept) == built


# --- compositional inverse --------------------------------------------------


def test_comp_inverse_catalan_tail():
    u = X + X * X
    v = comp_inverse(u)
    expected = {1: 1, 2: -1, 3: 2, 4: -5, 5: 14, 6: -42, 7: 132, 8: -429}
    for k, c in expected.items():
        assert v.coeff(k, 0) == c


def test_comp_inverse_neither_substitutes_nor_divides():
    # one online pass: no substitution, no quotient and no graded solve
    from projstruct import jets as jets_module

    def refused(*args):
        raise AssertionError("comp_inverse reached a kernel it must not")

    u = Jet2({(i, 0): Fraction(i, i + 2) for i in range(1, 17)}, 16)
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_substitute_all", "_quotients", "_graded_solve"):
            mp.setattr(jets_module, name, refused)
        v = comp_inverse(u)
    assert compose1(u, v).agree(Jet2.variable("x", 16))


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
    assert r == sqrt_series(Jet2({(0, 0): 4, (1, 0): 4}, 6))
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


def assert_valuation(jet):
    # the cached valuation, on the first read and on the second
    want = min(map(sum, jet._num), default=jet.eff + 1)
    assert jet._val_bound() == want
    assert jet._val_bound() == want


def test_every_jet_of_a_registry_pass_and_a_deep_round_reads_its_valuation(
        built_jets):
    assert len(built_jets) > 10000
    for jet in built_jets:
        assert_valuation(jet)


def test_every_jet_of_a_registry_pass_and_a_deep_round_stores_ints(
        built_jets):
    # the AST guard test_the_package_computes_without_floats sees float
    # literals and calls, not an int / int made at run time: a float
    # numerator or denominator would show here
    for jet in built_jets:
        assert type(jet._den) is int
        assert all(type(n) is int for n in jet._num.values())


@settings(deadline=None, max_examples=60)
@given(rational_or_dual_jets(), rational_or_dual_jets(zero_constant=True),
       st.integers(0, PROP_ORDER + 2), st.integers(-1, PROP_ORDER + 2))
@example(Jet2.zero(6, -1), Jet2.zero(6), 6, 4)
@example(Jet2.monomial(3, 0, 1, 6), Jet2.variable("y", 6), 6, 1)
def test_the_cached_valuation_is_the_least_degree(u, v, order, eff):
    # the valuations of u and v are read before anything is derived from
    # them, so a result that carried one over would be seen
    for f in (u, v):
        assert_valuation(f)
    derived = [u._window(order, eff), u.truncated(eff=eff),
               v._window(order, eff), u + v, u - v, u * v, -u, u.scale(3),
               u.d_dx(), u.d_dy(), u.integrate_x(), u.swap_vars(),
               substitute(u, v, v)]
    if _is_unit(u.constant_term):
        derived.append(v / u)
    for f in derived:
        assert_valuation(f)


def test_add_eff_is_min():
    u = J({(1, 0): 1}, eff=5)
    v = J({(0, 1): 1}, eff=7)
    assert (u + v).eff == 5


@settings(deadline=None, max_examples=150)
@given(st.integers(0, PROP_ORDER).flatmap(lambda n: _rational_or_dual(order=n)),
       st.integers(0, PROP_ORDER).flatmap(lambda n: _rational_or_dual(order=n)),
       st.integers(-1, PROP_ORDER), st.integers(-1, PROP_ORDER),
       small_fractions)
@example(Jet2.zero(6, -1), Jet2.variable("x", 4), -1, 4, Fraction(0))
@example(X + EPS, X, 8, 8, Fraction(1))
def test_sub_is_the_reference(u, v, eu, ev, c):
    # over int, Fraction and dual coefficients, at two orders, with empty
    # windows and full cancellation, and against scalars on either side
    u, v = u.truncated(eff=eu), v.truncated(eff=ev)
    for f, g in ((u, v), (v, u), (u, u), (u, c), (u, 3)):
        assert_same_structure([f - g], [reference_sub(f, g)])
    assert_same_structure([c - u],
                          [reference_sub(Jet2.constant(c, u.order), u)])


def test_sub_is_the_reference_on_every_registry_call(registry_traffic):
    calls, _ = registry_traffic
    assert len(calls["sub"]) > 1000
    for f, g, n in calls["sub"]:
        assert n == 1
        assert_same_structure([f - g], [reference_sub(f, g)])


# --- window honesty: terms above an input's eff never reach the result's ------
#
# Every other window rests on these kernels.  Each property redraws the
# terms of the inputs above their eff and asserts that no coefficient of
# the result through its eff moves (``conftest.assert_window_holds``).

window_orders = st.integers(1, PROP_ORDER)


@settings(REDRAWN, max_examples=40)
@given(st.data(), window_orders)
def test_a_product_keeps_its_window_when_the_factors_are_redrawn(data, order):
    u, v = (data.draw(windowed(order, low=data.draw(st.integers(0, 2))))
            for _ in range(2))
    assert_window_holds(u * v, data.draw(redrawn(u)) * data.draw(redrawn(v)))


@settings(REDRAWN, max_examples=30)
@given(st.data(), window_orders, st.lists(small_fractions, min_size=1,
                                          max_size=3))
def test_a_sum_of_products_keeps_its_window_when_the_factors_are_redrawn(
        data, order, weights):
    terms = [(c, data.draw(windowed(order, low=data.draw(st.integers(0, 2)))),
              data.draw(windowed(order))) for c in weights]
    full = [(c, data.draw(redrawn(f)), data.draw(redrawn(g)))
            for c, f, g in terms]
    assert_window_holds(_sum_of_products(terms), _sum_of_products(full))


@settings(REDRAWN, max_examples=30)
@given(st.data(), window_orders)
def test_a_quotient_keeps_its_window_when_its_terms_are_redrawn(data, order):
    a = data.draw(windowed(order, low=data.draw(st.integers(0, 2))))
    b = data.draw(windowed(order, constant=nonzero_fractions))
    assert_window_holds(a / b, data.draw(redrawn(a)) / data.draw(redrawn(b)))


@settings(REDRAWN, max_examples=20)
@given(st.data(), window_orders)
def test_an_inverse_keeps_its_window_when_its_terms_are_redrawn(data, order):
    b = data.draw(windowed_or_dual(order, constant=nonzero_fractions))
    assert_window_holds(b.inverse(), data.draw(redrawn(b)).inverse())


@settings(REDRAWN, max_examples=30)
@given(st.data(), window_orders)
def test_a_substitution_keeps_its_window_when_its_terms_are_redrawn(data,
                                                                     order):
    f = data.draw(windowed(order))
    u, v = (data.draw(windowed(order, low=1, min_eff=1)) for _ in range(2))
    assert_window_holds(substitute(f, u, v),
                        substitute(*(data.draw(redrawn(g)) for g in (f, u, v))))


@settings(REDRAWN, max_examples=30)
@given(st.data(), window_orders)
def test_a_composition_keeps_its_window_when_its_terms_are_redrawn(data,
                                                                    order):
    f = data.draw(windowed(order, x_only=True))
    g = data.draw(windowed(order, x_only=True, low=1, min_eff=1))
    assert_window_holds(compose1(f, g), compose1(
        *(data.draw(redrawn(h, x_only=True)) for h in (f, g))))


@settings(REDRAWN, max_examples=30)
@given(st.data(), window_orders, nonzero_fractions)
def test_a_reversion_keeps_its_window_when_its_terms_are_redrawn(data, order,
                                                                  u1):
    u = (Jet2.monomial(1, 0, u1, order)
         + data.draw(windowed(order, x_only=True, low=2, min_eff=1)))
    assert_window_holds(comp_inverse(u),
                        comp_inverse(data.draw(redrawn(u, x_only=True))))


@settings(REDRAWN, max_examples=30)
@given(st.data(), window_orders)
def test_a_sum_and_a_difference_keep_their_window_when_the_terms_are_redrawn(
        data, order):
    f, g = (data.draw(windowed_or_dual(order)) for _ in range(2))
    rf, rg = (data.draw(redrawn(h)) for h in (f, g))
    assert_window_holds(f + g, rf + rg)
    assert_window_holds(f - g, rf - rg)


# --- dual coefficients --------------------------------------------------------


def test_dual_arithmetic():
    a = DualRational(2, 3)
    assert (a * a) == DualRational(4, 12)
    assert (1 / a) == DualRational(Fraction(1, 2), Fraction(-3, 4))
    assert EPS * EPS == 0
    assert a - 2 == 3 * EPS


def test_jets_over_duals():
    u = Jet2({(0, 0): 1 + EPS, (1, 0): EPS}, 4)
    inv = u.inverse()
    assert inv.coeff(0, 0) == 1 - EPS
    assert inv.coeff(1, 0) == -EPS


# --- printing -----------------------------------------------------------------


def test_format_jet_ordering_and_shape():
    u = J({(0, 0): Fraction(-1, 2), (2, 1): 3, (0, 2): 1, (1, 0): 2})
    assert format_jet(u) == "-1/2 + 2 * x + 1 * y^2 + 3 * x^2 y"


def test_format_zero():
    assert format_jet(Jet2.zero(4)) == "0"
