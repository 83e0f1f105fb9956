from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from projstruct.duals import DualRational, as_dual
from projstruct.expressions import expand
from projstruct.fields import (
    InvariantStructures,
    VectorField,
    _monomial_columns,
    _structure_columns,
    _symbol,
    invariant_structures,
    is_symmetry,
    lie_bracket,
    residual,
    symmetry_dim,
)
from projstruct.jets import Jet2
from projstruct.linalg import nullspace, rank, solve_affine
from projstruct.structures import DiffeoGerm, ProjectiveStructure, pullback

from conftest import PROP_ORDER, jets, structures

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
    return Jet2.from_terms(terms, re.order, min(re.eff, ep.eff))


def eps_part(jet):
    return Jet2.from_terms({k: as_dual(c).ep for k, c in jet.coeffs.items()},
                           jet.order, jet.eff)


def re_part(jet):
    return Jet2.from_terms({k: as_dual(c).re for k, c in jet.coeffs.items()},
                           jet.order, jet.eff)


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
    ``residual``: the polynomial fields of degree <= n, the residual
    coefficients of degree <= n - 2, the kernel projected to 2-jets."""
    monos = [(i, d - i) for d in range(n + 1) for i in range(d, -1, -1)]
    keys = [(k, p, d - p) for k in range(4) for d in range(n - 1)
            for p in range(d + 1)]
    columns = []
    for slot in range(2):
        for (i, j) in monos:
            res = residual(monomial_field(slot, i, j, n), stq.truncated(n))
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


def test_symmetry_dim_refuses_short_jets_order_first():
    with pytest.raises(ValueError, match="too short for order 8$"):
        symmetry_dim(S("x", "0", "0", "1", order=7))
    with pytest.raises(ValueError, match="too short for order 7$"):
        symmetry_dim(S("x", "0", "0", "1", order=6))
    # the window counts, not only the nominal order
    short = S("x", "0", "0", "1", order=9).map(lambda f: f.truncated(eff=7))
    with pytest.raises(ValueError, match="too short for order 8$"):
        symmetry_dim(short)


@pytest.mark.parametrize("order", [1, 0, -1])
def test_symmetry_dim_rejects_orders_below_two(order):
    # A = x, D = 1 has a 1-dimensional algebra; below order 2 there is no
    # residual row to count it with
    with pytest.raises(ValueError, match="order >= 2, got %d$" % order):
        symmetry_dim(S("x", "0", "0", "1"), order)


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


@pytest.mark.parametrize("d", range(1, 13))
def test_constant_symbol_is_injective_with_its_cokernel(d):
    # S_d, column by column from ``residual``: the fields of degree d + 2
    # against the zero structure, read at residual degree d
    flat = ProjectiveStructure.zero(d + 2)
    cols = [residual(monomial_field(f, i, d + 2 - i, d + 2), flat)
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


@settings(deadline=None, max_examples=30)
@given(structures(max_terms=4), hs.integers(2, PROP_ORDER))
def test_closed_form_columns_are_scaled_residuals(stq, order):
    scale, columns = _monomial_columns(stq, order)
    assert len(columns) == (order + 1) * (order + 2)
    degrees = [i + j for (_, i, j) in columns]
    assert degrees == sorted(degrees, reverse=True)
    for (slot, i, j), col in columns.items():
        res = residual(monomial_field(slot, i, j, stq.order), stq)
        for k in range(4):
            for d in range(order - 1):
                for p in range(d + 1):
                    got = col.get((k, p, d - p), 0)
                    assert isinstance(got, int)
                    assert Fraction(got, scale) == res.coeff(k).coeff(p, d - p)
        assert all(p + q <= order - 2 for (_, p, q) in col)


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
    # the nominal order suffices (7 = degree + 3), but coefficients past
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
def test_structure_columns_are_scaled_residuals(a, b, degree):
    field = VectorField(a, b)
    scale, columns = _structure_columns(field, degree)
    monos = structure_monomials(degree)
    assert len(columns) == 4 * len(monos) + 1
    base = residual(field, ProjectiveStructure.zero(a.order))
    # the unknowns slot by slot, then the residual of the zero structure,
    # whose negation is the right-hand side of invariant_structures
    wants = [residual(field, monomial_structure(slot, i, j, a.order)) - base
             for slot in range(4) for (i, j) in monos] + [base]
    for col, want in zip(columns, wants):
        assert all(p + q <= degree - 1 for (_, p, q) in col)
        for k in range(4):
            for (p, q) in structure_monomials(degree - 1):
                got = col.get((k, p, q), 0)
                assert isinstance(got, int)
                assert Fraction(got, scale) == want.coeff(k).coeff(p, q)


def reference_invariant_structures(fields, degree):
    """The affine system built one basis structure at a time from
    ``residual``."""
    order = min(f.order for f in fields)
    monos = structure_monomials(degree)
    rows, rhs = [], []
    for field in fields:
        base = residual(field, ProjectiveStructure.zero(order))
        cols = [residual(field, monomial_structure(slot, i, j, order)) - base
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
            Jet2.from_terms({m: vec[s * len(monos) + n]
                             for n, m in enumerate(monos)}, degree)
            for s in range(4)))

    return InvariantStructures(True, degree, structure(particular),
                               tuple(structure(v) for v in basis))


@hs.composite
def fields_and_degree(draw):
    degree = draw(hs.integers(1, 4))
    order = degree + 3
    fields = [VectorField(draw(jets(order=order, max_terms=3)),
                          draw(jets(order=order, max_terms=3)))
              for _ in range(draw(hs.integers(1, 3)))]
    return fields, degree


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
    """Every field's ``_structure_columns`` rows stacked into one
    ``solve_affine``, the whole system at once."""
    monos = structure_monomials(degree)
    rows, rhs = [], []
    for field in fields:
        columns = _structure_columns(field, degree)[1]
        for k in range(4):
            for (p, q) in structure_monomials(degree - 1):
                row = [col.get((k, p, q), 0) for col in columns]
                rows.append(row[:-1])
                rhs.append(-row[-1])
    consistent, particular, basis = solve_affine(rows, rhs)
    if not consistent:
        return InvariantStructures(False, degree, None, ())

    def structure(vec):
        return ProjectiveStructure(*(
            Jet2.from_terms(dict(zip(monos, vec[s * len(monos):])), degree)
            for s in range(4)))

    return InvariantStructures(True, degree, structure(particular),
                               tuple(structure(v) for v in basis))


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
