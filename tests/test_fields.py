from fractions import Fraction

import os
import subprocess
import sys
from collections import Counter
from math import gcd, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from projstruct import cases, linalg
from projstruct.duals import DualRational, as_dual
from projstruct.expressions import expand
from projstruct.fields import (
    InvariantStructures,
    VectorField,
    _former,
    _TERMS,
    _graded_kernel,
    _monomials,
    _reads,
    _symbol,
    invariant_structures,
    is_symmetry,
    lie_bracket,
    residual,
    symmetry_dim,
)
from projstruct.jets import Jet2
from projstruct.linalg import _int_row, nullspace, rank, solve_affine
from projstruct.slopes import SlopePoly
from projstruct.structures import DiffeoGerm, ProjectiveStructure, pullback

from conftest import (PROP_ORDER, REDRAWN, assert_window_holds, jets,
                      redrawn, reference_nullspace, reference_solve_affine,
                      slope_product, slope_sum, slope_times, structures,
                      windowed_or_dual)

N = 8


def jexp(text, order=N):
    return expand(text, None, order)


def F(a, b, order=N):
    return VectorField(jexp(a, order), jexp(b, order))


def S(a, b, c, d, order=N):
    return ProjectiveStructure(jexp(a, order), jexp(b, order),
                               jexp(c, order), jexp(d, order))


def dual_jet(re, ep):
    keys = set(re.coeffs) | set(ep.coeffs)
    terms = {k: DualRational(Fraction(re.coeff(*k)), Fraction(ep.coeff(*k)))
             for k in keys}
    return Jet2(terms, re.order, min(re.eff, ep.eff))


def eps_part(jet):
    return Jet2({k: as_dual(c).ep for k, c in jet.coeffs.items()},
                jet.order, jet.eff)


def re_part(jet):
    return Jet2({k: as_dual(c).re for k, c in jet.coeffs.items()},
                jet.order, jet.eff)


def reference_residual(field, st):
    """The residual as four ``SlopePoly`` products, the form ``residual``
    had before it summed ``_TERMS``.  The closed-form tests read this one,
    so the table is never checked against itself."""
    a, b = field.a, field.b
    ax, ay = a.d_dx(), a.d_dy()
    bx, by = b.d_dx(), b.d_dy()
    f = SlopePoly(list(st))
    # first prolongation of the flow acting on the slope
    eta = SlopePoly([bx, by - ax, -ay])
    # variation of the denominator weight
    lead = SlopePoly([by - 2 * ax, -3 * ay])
    out = slope_sum(slope_times(SlopePoly([c.d_dx() for c in st]), a),
                    slope_times(SlopePoly([c.d_dy() for c in st]), b),
                    slope_product(eta, SlopePoly([st.B, 2 * st.C, 3 * st.D])))
    out = out - slope_product(lead, f)
    assert out.coeff(4).is_zero()   # slope degree 4 cancels
    # second prolongation: the structure-independent part
    inhom = SlopePoly([bx.d_dx(), 2 * bx.d_dy() - ax.d_dx(),
                       by.d_dy() - 2 * ax.d_dy(), -ay.d_dy()])
    return SlopePoly([out.coeff(k) for k in range(4)]) - inhom


def assert_same_residual(got, want):
    # slot by slot: the same order, eff, numerators and denominator
    assert len(got.coeffs) == len(want.coeffs) == 4
    for g, w in zip(got.coeffs, want.coeffs):
        assert (g.order, g.eff, g._num, g._den) \
            == (w.order, w.eff, w._num, w._den)


# --- the sign convention, pinned by the dual-number pullback ------------------


@settings(deadline=None, max_examples=30)
@given(jets(max_terms=2), jets(max_terms=2), structures(max_terms=2))
def test_residual_is_first_order_pullback(a, b, stq):
    order = stq.order
    v = VectorField(a, b)
    germ = DiffeoGerm(dual_jet(Jet2.variable("x", order), a),
                      dual_jet(Jet2.variable("y", order), b))
    moved = pullback(germ, stq)
    res = residual(v, stq)
    for k, (orig, new) in enumerate(zip(stq, moved)):
        assert re_part(new).agree(orig)
        assert eps_part(new).agree(res.coeff(k))


@settings(deadline=None, max_examples=60)
@given(jets(max_terms=3), jets(max_terms=3), structures(max_terms=4),
       hs.integers(-1, PROP_ORDER), hs.integers(-1, PROP_ORDER))
def test_residual_is_the_reference_in_its_window(a, b, stq, ef, es):
    # the two agree exactly on their common window, and have the same
    # window when the structure is known as far as the field
    field = VectorField(a.truncated(eff=ef), b.truncated(eff=ef))
    stq = stq.truncated(eff=es)
    got, want = residual(field, stq), reference_residual(field, stq)
    for g, w in zip(got.coeffs, want.coeffs):
        e = min(g.eff, w.eff)
        assert g.truncated(eff=e) == w.truncated(eff=e)
    if stq.eff >= ef:
        assert_same_residual(got, want)


def test_a_structure_known_less_far_than_the_field_can_move_a_window():
    # Both windows are sound, and they differ only when the structure is
    # known to a lower degree than the field.  Slot 0 of the reference
    # groups (b_y - 2 a_x) A, which vanishes to a higher order than a_x A
    # here, so the reference keeps one more degree.
    unknown = ProjectiveStructure.zero(6).truncated(eff=-1)
    field = VectorField(jexp("2*x*y - 2*x^3", 6).truncated(eff=3),
                        jexp("2*y^2 + x^3", 6).truncated(eff=3))
    got, want = residual(field, unknown), reference_residual(field, unknown)
    assert (got.coeff(0).eff, want.coeff(0).eff) == (0, 1)
    # Slot 1 of the reference holds (b_y - a_x) B - (b_y - 2 a_x) B, whose
    # b_y B terms cancel in _TERMS, so the closed form keeps one more.
    field = VectorField(Jet2.zero(6), jexp("2*y - x^2*y^2", 6))
    got, want = residual(field, unknown), reference_residual(field, unknown)
    assert (got.coeff(1).eff, want.coeff(1).eff) == (0, -1)


def windowed_fields(order, min_eff):
    return hs.builds(VectorField, *(windowed_or_dual(order, min_eff=min_eff)
                                    for _ in range(2)))


@settings(REDRAWN, max_examples=15)
@given(hs.data(), hs.integers(2, PROP_ORDER))
def test_residual_keeps_its_window_when_the_inputs_are_redrawn(data, order):
    # a field known through degree 2 at least and a structure through 1
    # leave every slot a window
    field = data.draw(windowed_fields(order, 2))
    stq = ProjectiveStructure(*(data.draw(windowed_or_dual(order, min_eff=1))
                                for _ in range(4)))
    full = (field.map(lambda f: data.draw(redrawn(f))),
            stq.map(lambda f: data.draw(redrawn(f))))
    for got, want in zip(residual(field, stq).coeffs, residual(*full).coeffs):
        assert_window_holds(got, want)


def test_residual_is_the_reference_on_every_registry_call(registry_traffic):
    calls, passes = registry_traffic
    assert {order: p["residual"] for order, p in passes.items()} \
        == {12: 77, 8: 77}
    for field, st, _ in calls["residual"]:
        assert_same_residual(residual(field, st),
                             reference_residual(field, st))


def test_a_registry_pass_keeps_its_jet_traffic(registry_traffic):
    # the jets built per residual call (its 18 derivatives and 4 slots;
    # 103 as SlopePoly products) and per pass, so per-product overhead
    # cannot come back unseen; the per-call pins of pullback,
    # structure_from_pencil, is_geodesic and _rhs_along are in
    # test_structures.py and test_pencils.py.  The pass totals count
    # expand's one _new per expression value, where a lone literal or
    # coordinate used to go through __init__, which this fixture does not
    # count.  They were 12178 and 11922 while a difference of jets built a
    # negation and a sum, and the cleared residual, the wedge, the cubic
    # of pullback and _rhs_along built a jet per operator; then 9813 and
    # 9557 while substitution built u^i * 1 and 1 * v^j for pure powers,
    # 9310 and 9170 while it built the first powers as 1 * u and 1 * v,
    # and 9226 and 9086 while each of the 17 geodesics, the _rhs_along of
    # its Picard pass and its member_value_along built a jet to recentre;
    # then 9175 and 9035 while the catalogue's identities were hand-written
    # jet arithmetic, which scaled a jet where a text multiplies it by a
    # constant jet, and while sec3.aff's exponential sub-battery and
    # remark.flat ran at the report order rather than three orders above;
    # then 9463 and 9323 while a text multiplied a jet by a constant jet
    # instead of scaling it; then 9272 and 9132 while each of the 17
    # geodesic solves cut the structure's four slots to its order; then
    # 9204 and 9064 while the quartic alpha-ODE was hand-written jet
    # arithmetic, which built alpha's derivatives once and reused them,
    # where its text re-derives them in each term (28 jets per sample);
    # then 9288 and 9148 while a power f^n multiplied f into the constant
    # jet 1, one product more than f * f ... * f; then 9216 and 9076 while
    # the flattening germ solved its third-order ODE online: the Neumann
    # series for v (five jets a term) and the reversion of int v^-2 build
    # about 47 jets more per germ than that solver and its Picard pass;
    # then 9358 and 9193 while alpha_ode_solve solved the quartic online
    # and ran a Picard pass of its text: the closed form reverts int 1/Q,
    # whose Newton steps substitute and divide, composes Q' and takes one
    # exp_series, 28 jets more per sample; then 9442 and 9265 while the ia2
    # root reconstruction compared sqrt(-3B) with g' and -g' through agree,
    # which built only -g', and that for one sample of three: the
    # differences root -+ g' that first_nonzero decides are one jet more
    # per remark.flat sample; then 9445 and 9268 while the ia1 root
    # reconstruction expanded f - (1 + f)^2/3 - B for f = (1 + r)/2, true of
    # either sign by construction: u - (1 +- r)/2, which compares the root
    # with u = g' o psi, is 16 jets fewer per pass for its 5 candidates;
    # then 9429 and 9252 while Jet2.agree cross-multiplied coefficients:
    # it now builds the difference jet, 29 per pass (17 geodesic solves, 6
    # normalize_D1 and 6 c_star_action calls), and the ia1 root check
    # builds 6 fewer, as 2u - 1 -+ r in place of u - (1 +- r)/2; then 9452
    # and 9275 while sec3.aff's stabilized and C-unit families were written
    # by hand and shared one d_dy: as rows, each expands its own, 2 jets
    # more per sample; then 9458 and 9281 while _substitute_all built a jet
    # for each mixed product u^i v^j and liouville formed (a c) and (b d):
    # substitution now keeps their numerators, 65 and 41 jets fewer per
    # pass, and liouville forms no partner for an empty factor, 15 fewer;
    # then 9378 and 9225 while comp_inverse ran Newton reversion, whose
    # steps built windows, differences and quotients: the online
    # reversion builds its one result, 534 and 502 jets fewer per pass for
    # its 12 calls
    calls, passes = registry_traffic
    assert {n for *_, n in calls["residual"]} == {22}
    assert {order: p["jets"] for order, p in passes.items()} \
        == {12: 8844, 8: 8723}


def test_residual_of_x_translation_shifts_coefficients():
    stq = S("exp(x)", "0", "0", "0")
    res = residual(F("1", "0"), stq)
    assert res.coeff(0).agree(jexp("exp(x)"))
    for k in (1, 2, 3):
        assert res.coeff(k).is_zero()


def test_residual_of_y_dilation_weights_slots():
    stq = S("x", "1 + x", "x^2", "2")
    res = residual(F("0", "y"), stq)
    assert res.coeff(0).agree(jexp("-x"))
    assert res.coeff(1).is_zero()
    assert res.coeff(2).agree(jexp("x^2"))
    assert res.coeff(3).agree(jexp("4"))


# --- symmetries ----------------------------------------------------------------


SL3_FIELDS = [("1", "0"), ("0", "1"), ("x", "0"), ("y", "0"), ("0", "x"),
              ("0", "y"), ("x^2", "x*y"), ("x*y", "y^2")]


@pytest.mark.parametrize("a,b", SL3_FIELDS)
def test_projective_algebra_preserves_trivial_structure(a, b):
    flat = ProjectiveStructure.zero(N)
    assert is_symmetry(F(a, b), flat)


def test_parabolic_field_is_not_a_symmetry_of_flat():
    flat = ProjectiveStructure.zero(N)
    res = residual(F("0", "x^2"), flat)
    assert res.coeff(0).agree(jexp("-2"))
    assert not is_symmetry(F("0", "x^2"), flat)


def test_translation_symmetry_of_x_independent_structure():
    stq = S("y", "0", "y^2", "1")
    assert is_symmetry(F("1", "0"), stq)
    assert not is_symmetry(F("0", "1"), stq)


# --- brackets --------------------------------------------------------------------


def test_bracket_example():
    x_affine = F("1", "y")
    assert lie_bracket(F("0", "1"), x_affine).agree(F("0", "1"))


@settings(deadline=None, max_examples=25)
@given(jets(max_terms=2), jets(max_terms=2), jets(max_terms=2),
       jets(max_terms=2), jets(max_terms=2), jets(max_terms=2))
def test_bracket_is_antisymmetric_and_jacobi(a1, b1, a2, b2, a3, b3):
    u, v, w = VectorField(a1, b1), VectorField(a2, b2), VectorField(a3, b3)
    zero = VectorField.zero(a1.order)
    s = lie_bracket(u, v)
    t = lie_bracket(v, u)
    assert VectorField(s.a + t.a, s.b + t.b).agree(zero)
    jac1 = lie_bracket(u, lie_bracket(v, w))
    jac2 = lie_bracket(v, lie_bracket(w, u))
    jac3 = lie_bracket(w, lie_bracket(u, v))
    total = VectorField(jac1.a + jac2.a + jac3.a, jac1.b + jac2.b + jac3.b)
    assert total.agree(zero)


@settings(REDRAWN, max_examples=15)
@given(hs.data(), hs.integers(1, PROP_ORDER))
def test_a_bracket_keeps_its_window_when_the_fields_are_redrawn(data, order):
    v, w = (data.draw(windowed_fields(order, 1)) for _ in range(2))
    full = [f.map(lambda g: data.draw(redrawn(g))) for f in (v, w)]
    for got, want in zip(lie_bracket(v, w), lie_bracket(*full)):
        assert_window_holds(got, want)


# --- symmetry dimensions ------------------------------------------------------------


def test_trivial_structure_has_the_full_algebra():
    flat = ProjectiveStructure.zero(N)
    report = symmetry_dim(flat, order=6)
    assert report.stabilized
    assert report.value == 8


def test_generic_normal_form_keeps_one_symmetry():
    stq = S("x", "0", "0", "1")
    report = symmetry_dim(stq, order=6)
    assert report.stabilized
    assert report.value == 1


def monomial_field(slot, i, j, order):
    m, z = Jet2.monomial(i, j, 1, order), Jet2.zero(order)
    return VectorField(m, z) if slot == 0 else VectorField(z, m)


def reference_dim(stq, n):
    """The order-n count solved on its own, column by column from
    ``reference_residual``: the polynomial fields of degree <= n, the residual
    coefficients of degree <= n - 2, the kernel projected to 2-jets."""
    monos = [(i, d - i) for d in range(n + 1) for i in range(d, -1, -1)]
    keys = [(k, p, d - p) for k in range(4) for d in range(n - 1)
            for p in range(d + 1)]
    columns = []
    for slot in range(2):
        for (i, j) in monos:
            res = reference_residual(monomial_field(slot, i, j, n),
                                     stq.truncated(n))
            columns.append([res.coeff(k).coeff(p, q) for k, p, q in keys])
    basis = nullspace([list(row) for row in zip(*columns)], len(columns))
    proj = [c for c, (i, j) in enumerate(monos + monos) if i + j <= 2]
    return rank([[v[c] for c in proj] for v in basis], len(proj))


@hs.composite
def order_and_structure(draw):
    n = draw(hs.integers(2, 6))
    return n, ProjectiveStructure(*(draw(jets(order=n + 1, max_terms=5))
                                    for _ in range(4)))


@settings(deadline=None, max_examples=25)
@given(order_and_structure())
def test_symmetry_dim_matches_per_order_solves(case):
    n, stq = case
    report = symmetry_dim(stq, order=n)
    assert (report.low_order, report.high_order) == (n, n + 1)
    assert report.dim_low == reference_dim(stq, n)
    assert report.dim_high == reference_dim(stq, n + 1)


@pytest.mark.parametrize("texts,n,dims", [
    (("0", "0", "0", "0"), 6, (8, 8)),
    (("x", "0", "0", "1"), 4, (6, 2)),
    (("0", "0", "exp(-x)", "0"), 6, (2, 2)),
    (("x^2", "y", "0", "1"), 5, (4, 0)),
    (("x^2", "y", "0", "1"), 6, (0, 0)),
])
def test_symmetry_dim_matches_per_order_solves_on_examples(texts, n, dims):
    stq = S(*texts)
    report = symmetry_dim(stq, order=n)
    assert (report.dim_low, report.dim_high) == dims
    assert dims == (reference_dim(stq, n), reference_dim(stq, n + 1))


def test_symmetry_dim_reads_the_structure_through_its_order():
    # the order-(n + 1) system reads the structure through degree n: A = x,
    # D = 1 known through eff 7 gives the count it gives through eff 9
    full = S("x", "0", "0", "1", order=9)
    got = symmetry_dim(full)
    assert (got.dim_low, got.dim_high) == (1, 1)
    for short in (full.map(lambda f: f.truncated(eff=7)),
                  S("x", "0", "0", "1", order=7)):
        assert symmetry_dim(short) == got
    # the window counts, not only the nominal order
    for short in (full.map(lambda f: f.truncated(eff=6)),
                  S("x", "0", "0", "1", order=6)):
        with pytest.raises(ValueError, match="need eff >= 7$"):
            symmetry_dim(short)


def test_symmetry_dim_needs_the_structure_through_degree_n_and_no_further():
    # at n = 7, 26 of the 32 one-term structures of degree 7 move the count
    # off the flat one, though they agree with it through degree 6, and no
    # one-term structure of degree 8 moves it: eff 7 is needed and enough
    flat = symmetry_dim(ProjectiveStructure.zero(9))
    assert (flat.dim_low, flat.dim_high) == (8, 8)
    moved = 0
    for slot in range(4):
        for i in range(8):
            st = monomial_structure(slot, i, 7 - i, 9)
            if symmetry_dim(st) != flat:
                moved += 1
                with pytest.raises(ValueError, match="need eff >= 7$"):
                    symmetry_dim(st.map(lambda f: f.truncated(eff=6)))
        for i in range(9):
            st = monomial_structure(slot, i, 8 - i, 9)
            assert symmetry_dim(st) == flat
            assert symmetry_dim(st.map(lambda f: f.truncated(eff=7))) == flat
    assert moved == 26
    assert symmetry_dim(monomial_structure(2, 7, 0, 9)).dim_high == 7


@pytest.mark.parametrize("order", [1, 0, -1])
def test_symmetry_dim_rejects_orders_below_two(order):
    # A = x, D = 1 has a 1-dimensional algebra; below order 2 there is no
    # residual row to count it with
    with pytest.raises(ValueError, match="order >= 2, got %d$" % order):
        symmetry_dim(S("x", "0", "0", "1"), order)


@hs.composite
def short_jets(draw, order, min_eff, max_degree):
    """A jet of at most one term, of degree <= ``max_degree``, known through
    ``min_eff`` or a random eff up to ``order``: sparse structures and
    fields keep some symmetry for a redraw to break."""
    eff = hs.one_of(hs.just(min_eff), hs.integers(min_eff, order))
    return draw(jets(order=order, max_terms=1, max_degree=max_degree)
                ).truncated(eff=draw(eff))


@settings(REDRAWN, max_examples=50)
@given(hs.data(), hs.integers(2, 5))
def test_symmetry_dim_keeps_its_answer_when_the_structure_is_redrawn(data,
                                                                     n):
    # a count that is reported reads nothing above the structure's eff;
    # one slot in two examples may be known too briefly to count at all
    order, least = n + 3, data.draw(hs.sampled_from([n - 1, n]))
    stq = ProjectiveStructure(*(data.draw(short_jets(order, least, 2))
                                for _ in range(4)))
    try:
        got = symmetry_dim(stq, n)
    except ValueError:
        assert stq.eff < n
        return
    assert symmetry_dim(stq.map(lambda f: data.draw(redrawn(f))), n) == got


def test_symmetry_dim_grows_the_kernel_in_small_systems(monkeypatch):
    heights = []

    def recording(rows, ncols):
        heights.append(len(rows))
        return nullspace(rows, ncols)

    monkeypatch.setattr("projstruct.fields.nullspace", recording)
    report = symmetry_dim(S("x", "0", "0", "1"), 7)
    assert (report.dim_low, report.dim_high) == (1, 1)
    # one solve per residual degree d: the 4 rows of degree 0, then the
    # 2 d - 2 compatibility rows of the constant symbol S_d
    assert heights == [4, 0, 2, 4, 6, 8, 10]


def symmetry_kernels(stq, n, check=None):
    """The steps of symmetry_dim(stq, n), solved as it solves them; each
    step's rows also go to ``check(ext, basis, d, L)``."""
    (L,), rows = _former(0, n + 1, [(*stq, Jet2.constant(1, n + 1))])

    def checked(basis, d):
        ext = rows(basis, d)
        if check:
            check(ext, basis, d, L)
        return ext
    return list(_graded_kernel(checked, _reads(0, n + 1)[1], L=L))


def assert_two_jets_fix_every_kernel(stq, n):
    # each kernel vector is fixed by its 2-jet part (unknowns 0 to 11),
    # so the rank that symmetry_dim reports is the kernel's size
    kernels = symmetry_kernels(stq, n)
    assert len(kernels) == n
    for K in kernels:
        assert rank([[v.get(u, 0) for u in range(12)] for v in K], 12) \
            == len(K)


@settings(deadline=None, max_examples=25)
@given(order_and_structure())
def test_two_jets_fix_every_kernel_step(case):
    assert_two_jets_fix_every_kernel(case[1], case[0])


def test_two_jets_fix_every_kernel_step_of_the_registry(monkeypatch):
    calls = []

    def recording(stq, order=7):
        calls.append((stq, order))
        return symmetry_dim(stq, order)

    monkeypatch.setattr(cases, "symmetry_dim", recording)
    cases.run_all(order=8)
    assert calls
    for stq, n in calls:
        assert_two_jets_fix_every_kernel(stq, n)


def assert_primitive_steps(kernels):
    # every step's kernel vectors are {unknown: entry} with nonzero
    # integer entries and no common factor
    for K in kernels:
        for v in K:
            assert v and all(type(e) is int and e != 0 for e in v.values())
            assert gcd(*v.values()) == 1


def assert_integer_rows(ext, *_):
    assert all(type(e) is int for row in ext for e in row)


@settings(deadline=None, max_examples=25)
@given(order_and_structure())
def test_graded_kernel_steps_are_primitive_integer_vectors(case):
    n, stq = case
    assert_primitive_steps(symmetry_kernels(stq, n, assert_integer_rows))


def test_graded_kernel_steps_of_the_registry_are_primitive(monkeypatch):
    solves = []

    def checking(rows, joins, one=False, L=1):
        solves.append(one)

        def checked(basis, d):
            ext = rows(basis, d)
            assert_integer_rows(ext, basis, d, L)
            return ext
        kernels = list(_graded_kernel(checked, joins, one, L))
        assert_primitive_steps(kernels)
        yield from kernels

    monkeypatch.setattr("projstruct.fields._graded_kernel", checking)
    cases.run_all(order=12)
    # the 27 symmetry_dim and the 4 invariant_structures calls of a pass
    assert (solves.count(False), solves.count(True)) == (27, 4)


def tuples_all_the_way(obj):
    return not isinstance(obj, (list, dict, set)) and (
        not isinstance(obj, tuple) or all(map(tuples_all_the_way, obj)))


def test_the_read_plan_is_built_on_first_use_once_per_order():
    src = os.path.dirname(os.path.dirname(cases.__file__))
    probe = ("import projstruct, projstruct.cli; "
             "print(projstruct.fields._reads.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out == "0\n"
    _reads.cache_clear()
    assert symmetry_dim(S("x", "0", "0", "1"), 6).value == 1
    assert symmetry_dim(S("0", "0", "exp(-x)", "0"), 6).value == 2
    assert _reads.cache_info().currsize == 1
    # a later call reads the same plan, which no caller can change
    assert tuples_all_the_way(_reads(0, 7))
    assert tuples_all_the_way(_reads(1, 6))


def reference_reads(side, order):
    """``fields._reads`` as it was while it weighed every term of
    ``_TERMS`` against every unknown before it tested the term's slot."""
    top = order - 2 + side
    if side:
        unknowns = [(s, i, j) for s in range(4) for i, j in _monomials(order)]
    else:
        unknowns = [(f, i, j) for i, j in _monomials(order)[::-1]
                    for f in range(2)]
    steps = [max(i + j - 2 + side, 0) for _, i, j in unknowns]
    unknowns = [(4, 0, 0)] * side + sorted(
        unknowns, key=lambda u: max(u[1] + u[2] - 2 + side, 0))
    reads = {}
    for q, (u, i, j) in enumerate(unknowns):
        for k, c, *parts in _TERMS:
            (slot, dx, dy), known = parts[side], parts[1 - side]
            w, sh = c * perm(i, dx) * perm(j, dy), i + j - dx - dy
            if slot == u and w and sh <= top:
                reads.setdefault(known, [[] for _ in range(top + 1)])[
                    sh].append((q, k, w, i - dx))
    return (tuple(unknowns), tuple(map(steps.count, range(top + 1))),
            tuple((known, tuple(map(tuple, by_shift)))
                  for known, by_shift in reads.items()))


@pytest.mark.parametrize("side, order", [(0, 8), (1, 9), (0, 9), (1, 5),
                                         (0, 3)])
def test_the_read_plan_is_the_reference(side, order):
    # the terms indexed by their slot give the plan that weighing every
    # term against every unknown gave, in the same order
    assert _reads(side, order) == reference_reads(side, order)


def former_traffic(side, order, blocks, basis, d):
    """The multiply-adds one call of a ``_former`` row function makes: per
    read of ``_reads`` at shift d - t, one per term of degree t of its
    known derivative and basis vector with an entry on its unknown, the
    count the former's innermost loop makes."""
    top = order - 2 + side
    live = Counter(u for v in basis for u in v)
    count = 0
    for jets in blocks:
        for (s, dx, dy), plan in _reads(side, order)[2]:
            degrees = Counter(i + j - dx - dy for i, j in jets[s].coeffs
                              if i >= dx and j >= dy
                              and i + j <= top + 1 + side)
            count += sum(n * live[u] for t, n in degrees.items() if t <= d
                         for u, *_ in plan[d - t])
    return count


def test_a_registry_pass_keeps_its_former_traffic(monkeypatch):
    # the row entries (multiply-adds) that the former makes in one
    # run_all(order=12), per solve: no row that the solve never reads,
    # such as a new field's symbol row, can come back unseen
    traffic = [0, 0]

    def counting(side, order, blocks):
        scales, rows = _former(side, order, blocks)

        def counted(basis, d):
            traffic[side] += former_traffic(side, order, blocks, basis, d)
            return rows(basis, d)
        return scales, counted

    monkeypatch.setattr("projstruct.fields._former", counting)
    cases.run_all(order=12)
    # symmetry_dim, then invariant_structures
    assert traffic == [11025, 1407]


def test_a_registry_pass_keeps_its_solve_traffic(monkeypatch):
    # the linalg calls and cells (rows x columns) of one run_all(order=12),
    # counted on every module binding as bench/tracer.py counts them, so a
    # change to how the systems are built cannot move work into or out of
    # the solvers unseen
    traffic = {}

    def counting(name):
        solve = getattr(linalg, name)

        def wrapper(rows, *args):
            ncols = args[0] if args and name != "solve_affine" else None
            if rows and ncols is None:
                ncols = len(rows[0])
            calls, cells = traffic.get(name, (0, 0))
            traffic[name] = (calls + 1, cells + len(rows) * (ncols or 0))
            return solve(rows, *args)
        return wrapper

    for module in (sys.modules["projstruct.fields"], cases):
        for key, value in list(vars(module).items()):
            for name in ("nullspace", "rank", "solve_affine"):
                if value is getattr(linalg, name):
                    monkeypatch.setattr(module, key, counting(name))
    cases.run_all(order=12)
    assert traffic == {"nullspace": (189, 3824), "rank": (57, 1824),
                       "solve_affine": (24, 21936)}


def test_registry_kernels_are_the_reference_kernels_as_primitive_integers(
        monkeypatch):
    # every nullspace and solve_affine call that fields makes in run_all(12)
    # and run_all(8), against the Fraction-valued solves they replaced
    calls = []

    def recording(solve):
        def wrapper(rows, arg):
            rows = [list(r) for r in rows]
            got = solve(rows, arg)
            calls.append((solve, rows, arg, got))
            return got
        return wrapper

    for solve in (nullspace, solve_affine):
        monkeypatch.setattr("projstruct.fields." + solve.__name__,
                            recording(solve))
    for order in (12, 8):
        cases.run_all(order=order)
    assert {call[0] for call in calls} == {nullspace, solve_affine}
    for solve, rows, arg, got in calls:
        if solve is nullspace:
            assert got == [_int_row(v) for v in reference_nullspace(rows, arg)]
            continue
        consistent, particular, basis = reference_solve_affine(rows, arg)
        assert got == (consistent, particular,
                       [_int_row(v) for v in basis])


def test_a_registry_pass_normalises_few_fraction_rows(monkeypatch):
    # the kernels reach fields as primitive integers, so only the 24
    # affine particulars that _graded_kernel scales and the 11 Fraction
    # rows that rank receives in run_all(12) go through _int_row with
    # Fraction entries (30 while the five zero particulars reused their
    # basis vector unscaled, 872 while nullspace returned Fractions)
    rows = []
    int_row = linalg._int_row

    def counting(row):
        rows.append(any(isinstance(v, Fraction) for v in row))
        return int_row(row)

    monkeypatch.setattr(linalg, "_int_row", counting)
    monkeypatch.setattr("projstruct.fields._int_row", counting)
    cases.run_all(order=12)
    assert sum(rows) == 35


@pytest.mark.parametrize("d", range(1, 13))
def test_constant_symbol_is_injective_with_its_cokernel(d):
    # S_d, column by column from ``reference_residual``: the fields of
    # degree d + 2 against the zero structure, read at residual degree d
    flat = ProjectiveStructure.zero(d + 2)
    cols = [reference_residual(monomial_field(f, i, d + 2 - i, d + 2), flat)
            for i in range(d + 3) for f in range(2)]
    symbol = [[col.coeff(k).coeff(p, d - p) for col in cols]
              for k in range(4) for p in range(d + 1)]
    n = 2 * (d + 3)
    assert rank(symbol, n) == n
    scale, rows = _symbol(d)

    def times_symbol(terms):
        return [sum(v * symbol[r][j] for r, v in terms) for j in range(n)]

    # W_d is the first n rows over ``scale``, C_d the rest
    left, coker = rows[:n], rows[n:]
    assert len(coker) == 2 * d - 2
    assert all(times_symbol(row) == [0] * n for row in coker)
    assert [times_symbol(row) for row in left] \
        == [[scale * (i == j) for j in range(n)] for i in range(n)]


def degree_rows(res, d):
    """The degree-d coefficients of a residual, in the former's row order
    (slot k, then x^p y^(d - p))."""
    return [res.coeff(k).coeff(p, d - p) for k in range(4)
            for p in range(d + 1)]


def unit_columns(rows, unknowns, d):
    """The former's degree-d rows with every unknown a unit column: the
    table of every unknown's rows, which the solves never build."""
    ext = rows([{u: 1} for u in range(len(unknowns))], d)
    assert all(type(e) is int for row in ext for e in row)
    return list(zip(*ext))


@settings(deadline=None, max_examples=30)
@given(structures(max_terms=4), hs.integers(2, PROP_ORDER))
def test_the_former_forms_scaled_residual_rows(stq, order):
    unknowns, joins, _ = _reads(0, order)
    assert len(unknowns) == (order + 1) * (order + 2)
    steps = [max(i + j - 2, 0) for _, i, j in unknowns]
    assert steps == sorted(steps)
    assert list(joins) == [steps.count(d) for d in range(order - 1)]
    (scale,), rows = _former(0, order, [(*stq, Jet2.constant(1, order))])
    res = [reference_residual(monomial_field(slot, i, j, stq.order), stq)
           for slot, i, j in unknowns]
    # through degree order - 2, each degree d on its 4 (d + 1) rows
    for d in range(order - 1):
        cols = unit_columns(rows, unknowns, d)
        assert len(cols) == len(unknowns)
        for col, r in zip(cols, res):
            assert [Fraction(e, scale) for e in col] == degree_rows(r, d)


def basis_field(v, unknowns, order):
    """The field sum_u v_u x^i y^j d/dx (f = 0) or d/dy (f = 1) over the
    unknowns u = (f, i, j) of ``_reads(0, ...)``."""
    parts = [{}, {}]
    for u, e in v.items():
        f, i, j = unknowns[u]
        parts[f][i, j] = e
    return VectorField(*(Jet2(t, order) for t in parts))


@settings(deadline=None, max_examples=20)
@given(order_and_structure())
def test_each_steps_rows_are_scaled_residuals_of_its_basis_fields(case):
    # symmetry_dim's rows X K at step d: L times the degree-d residual of
    # each basis field (at step 0, of each new field as a unit vector)
    n, stq = case
    unknowns, steps = _reads(0, n + 1)[0], []

    def check(ext, basis, d, L):
        assert len(ext) == 4 * (d + 1)
        assert all(len(row) == len(basis) for row in ext)
        for c, v in enumerate(basis):
            res = reference_residual(basis_field(v, unknowns, stq.order), stq)
            assert [row[c] for row in ext] \
                == [L * e for e in degree_rows(res, d)]
        steps.append(d)

    symmetry_kernels(stq, n, check)
    assert steps == list(range(n))


# --- invariant structures -----------------------------------------------------------


def test_structures_preserved_by_vertical_translation():
    order = 7
    dy = VectorField(Jet2.zero(order), Jet2.constant(1, order))
    sol = invariant_structures([dy], degree=4)
    assert sol.consistent
    # exactly the x-only quadruples of degree <= 4
    assert sol.dimension == 4 * 5
    assert sol.contains(S("x^4 - x", "1", "x^2", "3 - x^3", order=7))
    assert not sol.contains(S("y", "0", "0", "0", order=7))


def test_structures_preserved_by_affine_pair():
    order = 7
    dy = VectorField(Jet2.zero(order), Jet2.constant(1, order))
    xy = VectorField(Jet2.constant(1, order), Jet2.variable("y", order))
    sol = invariant_structures([dy, xy], degree=4)
    assert sol.consistent
    assert sol.dimension == 4
    assert sol.contains(S("exp(x)", "0", "0", "0", order=7))
    assert sol.contains(S("0", "1", "0", "0", order=7))
    assert sol.contains(S("0", "0", "exp(-x)", "0", order=7))
    assert sol.contains(S("0", "0", "0", "exp(-2*x)", order=7))
    assert not sol.contains(S("0", "x", "0", "0", order=7))


@pytest.mark.parametrize("degree", [0, -1])
def test_invariant_structures_rejects_degrees_below_one(degree):
    dy = VectorField(Jet2.zero(5), Jet2.constant(1, 5))
    with pytest.raises(ValueError, match="degree >= 1, got %d$" % degree):
        invariant_structures([dy], degree)


def test_invariant_structures_refuses_a_short_window():
    # the nominal order suffices (7 >= degree + 1), but coefficients past
    # eff = 2 would be read as zero and give a wrong, confident space
    v = VectorField(jexp("1 + x^3", order=7), Jet2.variable("y", 7))
    assert invariant_structures([v], degree=4).consistent
    short = VectorField(v.a.truncated(eff=2), v.b.truncated(eff=2))
    with pytest.raises(ValueError, match="too short"):
        invariant_structures([short], degree=4)
    with pytest.raises(ValueError, match="too short"):
        invariant_structures([v, short], degree=4)


def monomial_structure(slot, i, j, order):
    jets = [Jet2.zero(order)] * 4
    jets[slot] = Jet2.monomial(i, j, 1, order)
    return ProjectiveStructure(*jets)


def structure_monomials(degree):
    return [(i, d - i) for d in range(degree + 1) for i in range(d, -1, -1)]


@settings(deadline=None, max_examples=30)
@given(jets(max_terms=4), jets(max_terms=4), hs.integers(1, PROP_ORDER - 3))
def test_the_former_forms_scaled_structure_rows(a, b, degree):
    field = VectorField(a, b)
    unknowns, joins, _ = _reads(1, degree)
    monos = structure_monomials(degree)
    # the residual of the zero structure first, then slot by slot
    assert sorted(unknowns) == [(slot, i, j) for slot in range(4)
                                for i, j in sorted(monos)] + [(4, 0, 0)]
    assert unknowns[0] == (4, 0, 0)
    steps = [max(i + j - 1, 0) for _, i, j in unknowns[1:]]
    assert steps == sorted(steps)
    assert list(joins) == [steps.count(d) for d in range(degree)]
    (scale,), rows = _former(1, degree, [(a, b)])
    base = reference_residual(field, ProjectiveStructure.zero(a.order))
    # the residual of the zero structure, whose negation is the right-hand
    # side of invariant_structures, then each monomial's linear part
    wants = [base] + [reference_residual(
        field, monomial_structure(slot, i, j, a.order)) - base
        for slot, i, j in unknowns[1:]]
    for d in range(degree):
        for col, want in zip(unit_columns(rows, unknowns, d), wants):
            assert [Fraction(e, scale) for e in col] == degree_rows(want, d)


def basis_structure(v, unknowns, order):
    """The structure sum_u v_u x^i y^j in slot s over the unknowns
    u = (s, i, j) of ``_reads(1, ...)``, and the entry of the constant."""
    slots = [{} for _ in range(4)]
    for u, e in v.items():
        s, i, j = unknowns[u]
        if s < 4:
            slots[s][i, j] = e
    return (ProjectiveStructure(*(Jet2(t, order) for t in slots)),
            v.get(0, 0))


@hs.composite
def fields_and_degree(draw):
    degree = draw(hs.integers(1, 4))
    order = degree + 3
    fields = [VectorField(draw(jets(order=order, max_terms=3)),
                          draw(jets(order=order, max_terms=3)))
              for _ in range(draw(hs.integers(1, 3)))]
    return fields, degree


@settings(deadline=None, max_examples=20)
@given(fields_and_degree())
def test_each_steps_rows_are_scaled_residuals_of_its_basis_structures(case):
    # invariant_structures' rows at step d, per field f: L_f times the
    # degree-d residual of each basis structure, less (1 - the constant's
    # entry) times the residual of the zero structure
    vfs, degree = case
    order = vfs[0].a.order
    unknowns, joins, _ = _reads(1, degree)
    scales, rows = _former(1, degree, [(v.a, v.b) for v in vfs])
    bases = [reference_residual(v, ProjectiveStructure.zero(order))
             for v in vfs]
    steps = []

    def checked(basis, d):
        ext = rows(basis, d)
        h = 4 * (d + 1)
        assert len(ext) == h * len(vfs)
        for c, v in enumerate(basis):
            st, one = basis_structure(v, unknowns, order)
            for f, (field, base, L) in enumerate(zip(vfs, bases, scales)):
                res = reference_residual(field, st)
                assert [row[c] for row in ext[h * f:h * (f + 1)]] == [
                    L * (e + (one - 1) * z) for e, z in
                    zip(degree_rows(res, d), degree_rows(base, d))]
        steps.append(d)
        return ext

    for _ in _graded_kernel(checked, joins, one=True):
        pass
    assert steps == list(range(len(steps))) and steps


def reference_invariant_structures(fields, degree):
    """The affine system built one basis structure at a time from
    ``reference_residual``."""
    order = min(f.order for f in fields)
    monos = structure_monomials(degree)
    rows, rhs = [], []
    for field in fields:
        base = reference_residual(field, ProjectiveStructure.zero(order))
        cols = [reference_residual(field, monomial_structure(slot, i, j, order))
                - base
                for slot in range(4) for (i, j) in monos]
        for k in range(4):
            for (p, q) in structure_monomials(degree - 1):
                rows.append([col.coeff(k).coeff(p, q) for col in cols])
                rhs.append(-base.coeff(k).coeff(p, q))
    consistent, particular, basis = solve_affine(rows, rhs)
    if not consistent:
        return InvariantStructures(False, degree, None, ())

    def structure(vec):
        return ProjectiveStructure(*(
            Jet2({m: vec[s * len(monos) + n]
                  for n, m in enumerate(monos)}, degree)
            for s in range(4)))

    return InvariantStructures(True, degree, structure(particular),
                               tuple(structure(unit_on_free_column(v))
                                     for v in basis))


def unit_on_free_column(vec):
    """A ``solve_affine`` kernel vector scaled to 1 on its free column, its
    last nonzero entry (pivots are taken column by column)."""
    last = next(e for e in reversed(vec) if e)
    return [Fraction(e, last) for e in vec]


@settings(deadline=None, max_examples=25)
@given(fields_and_degree())
def test_invariant_structures_matches_the_per_basis_reference(case):
    fields, degree = case
    assert (invariant_structures(fields, degree)
            == reference_invariant_structures(fields, degree))


def sl2_triple(c1, c2, order=9):
    """The sl2 triple of ``remark.exotic-sl2``; (0, 0) is untwisted."""
    return [F("0", "1", order), F("1", "y", order),
            F("y + %s * exp(x)" % c1, "y^2/2 + %s * exp(2*x)" % c2, order)]


def one_shot_invariant_structures(fields, degree):
    """Every field's rows of every degree, each unknown a unit column in
    slot order and the constant last, in one ``solve_affine``: the whole
    system at once."""
    monos = structure_monomials(degree)
    unknowns = _reads(1, degree)[0]
    order = [unknowns.index((slot, i, j)) for slot in range(4)
             for i, j in monos] + [unknowns.index((4, 0, 0))]
    rows, rhs = [], []
    form = _former(1, degree, [(field.a, field.b) for field in fields])[1]
    for d in range(degree):
        for row in form([{u: 1} for u in range(len(unknowns))], d):
            row = [row[c] for c in order]
            rows.append(row[:-1])
            rhs.append(-row[-1])
    consistent, particular, basis = solve_affine(rows, rhs)
    if not consistent:
        return InvariantStructures(False, degree, None, ())

    def structure(vec):
        return ProjectiveStructure(*(
            Jet2(dict(zip(monos, vec[s * len(monos):])), degree)
            for s in range(4)))

    return InvariantStructures(True, degree, structure(particular),
                               tuple(structure(unit_on_free_column(v))
                                     for v in basis))


@pytest.mark.parametrize("c1,c2,dim", [(0, 0, 1), (1, 1, 0)])
def test_graded_invariant_structures_equal_the_one_shot_solve(c1, c2, dim):
    fields = sl2_triple(c1, c2)
    got = invariant_structures(fields, 6)
    assert got.dimension == dim
    assert got == one_shot_invariant_structures(fields, 6)


def test_contains_refuses_a_structure_known_below_the_degree():
    # the model (0, 1/2, 0, e^{-2x}) lies in the family; its terms above
    # eff = 3 are unknown, so the degree-6 test cannot read them as zero
    inv = invariant_structures(sl2_triple(0, 0), 6)
    model = S("0", "1/2", "0", "exp(-2*x)", 9)
    assert inv.contains(model)
    assert inv.contains(model.truncated(eff=6))
    for short in (model.truncated(eff=3), model.truncated(order=3),
                  model.truncated(eff=5)):
        with pytest.raises(ValueError, match="need eff >= 6$"):
            inv.contains(short)


@settings(REDRAWN, max_examples=50)
@given(hs.data(), hs.integers(1, 3), hs.integers(1, 2))
def test_invariant_structures_keep_their_answer_when_the_fields_are_redrawn(
        data, degree, count):
    # an affine family that is reported reads nothing above the fields'
    # eff; in half the examples a field may be known too briefly to solve
    order = degree + 5
    least = data.draw(hs.sampled_from([degree, degree + 1]))
    fields = [VectorField(*(data.draw(short_jets(order, least, 3))
                            for _ in range(2)))
              for _ in range(count)]
    try:
        got = invariant_structures(fields, degree)
    except ValueError:
        assert min(f.eff for f in fields) < degree + 1
        return
    full = [f.map(lambda g: data.draw(redrawn(g))) for f in fields]
    assert invariant_structures(full, degree) == got


def test_invariant_structures_need_the_fields_through_degree_plus_one():
    # each of the 14 one-term changes of degree 6 to a component of d_dy
    # moves the degree-5 family of (d_dy, d_dx + y d_dy), and none of the
    # 16 of degree 7 does: field eff 6 is needed and enough
    X, Y = F("0", "1", 9), F("1", "y", 9)
    family = invariant_structures([X, Y], 5)
    assert family.dimension == 4
    for degree in (6, 7):
        for i in range(degree + 1):
            for k in range(2):
                term = Jet2.monomial(i, degree - i, 1, 9)
                Xm = VectorField(*(f + term if c == k else f
                                   for c, f in enumerate(X)))
                cut = Xm.map(lambda f: f.truncated(eff=degree - 1))
                if degree == 6:
                    assert invariant_structures([Xm, Y], 5) != family
                    with pytest.raises(ValueError, match="need eff >= 6$"):
                        invariant_structures([cut, Y], 5)
                else:
                    assert invariant_structures([Xm, Y], 5) == family
                    assert invariant_structures([cut, Y], 5) == family


def test_invariant_structures_solves_one_degree_at_a_time(monkeypatch):
    heights = []

    def recording(solve):
        def wrapper(rows, *args):
            heights.append(len(rows))
            return solve(rows, *args)
        return wrapper

    monkeypatch.setattr("projstruct.fields.solve_affine",
                        recording(solve_affine))
    monkeypatch.setattr("projstruct.fields.nullspace", recording(nullspace))
    assert invariant_structures(sl2_triple(0, 0), 6).dimension == 1
    # one solve per residual degree d, on the 4 (d + 1) rows of each field
    assert heights == [12 * (d + 1) for d in range(6)]
