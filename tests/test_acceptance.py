"""Acceptance battery: one test per shipped guarantee.

Every test here states one externally promised behaviour and checks it
in exact rational arithmetic — there are no tolerances anywhere.  The
random samples are drawn from a fixed seed so the battery is
deterministic.

One test (criterion 11) asserts a displayed squared-residual identity
verbatim with its weight-3 leading coefficient.  The computed residual
shows that coefficient must be 27, so the verbatim form fails and the
test stays red by design; the corrected identity is covered by the
registry case ``remark.flat`` and by test_verify.py.  See the project
decision ledger for the derivation.
"""

import json
import random
from fractions import Fraction

from projstruct.cli import dispatch
from projstruct.duals import DualRational, as_dual
from projstruct.expressions import expand
from projstruct.fields import (
    VectorField,
    invariant_structures,
    is_symmetry,
    residual,
    symmetry_dim,
)
from projstruct.jets import Jet2, compose1, exp_series
from projstruct.pencils import Foliation, Pencil, structure_from_pencil
from projstruct.reports import INCONSISTENT, PASS, RECORDED
from projstruct.structures import (
    DiffeoGerm,
    ProjectiveStructure,
    apply_x_reparam,
    apply_y_scale,
    apply_y_shift,
    c_star_action,
    is_linearizable,
    liouville,
    normalize_D1,
    pullback,
)
from projstruct import alpha_ode_solve, cubic_curve_residual, exotic_sl2_check

SEED = 20260815


def jexp(text, order):
    return expand(text, None, order)


def S(a, b, c, d, order):
    return ProjectiveStructure(jexp(a, order), jexp(b, order),
                               jexp(c, order), jexp(d, order))


def rand_frac(rng, lo=-9, hi=9, den=6):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def rand_xpoly(rng, order, deg=5):
    return Jet2.from_terms({(k, 0): rand_frac(rng) for k in range(deg + 1)},
                           order)


def rand_jet(rng, order, top=2):
    terms = {(rng.randint(0, top), rng.randint(0, top)): rand_frac(rng)
             for _ in range(3)}
    return Jet2.from_terms(terms, order)


def rand_germ(rng, order):
    a, b, c, d = (rand_frac(rng, -4, 4, 3) for _ in range(4))
    if a * d - b * c == 0:
        a, d = 1 + abs(b), 1 + abs(c)
    u = Jet2.from_terms({(1, 0): a, (0, 1): b,
                         (2, 0): rand_frac(rng, -4, 4, 3),
                         (1, 1): rand_frac(rng, -4, 4, 3)}, order)
    v = Jet2.from_terms({(1, 0): c, (0, 1): d,
                         (0, 2): rand_frac(rng, -4, 4, 3),
                         (2, 1): rand_frac(rng, -4, 4, 3)}, order)
    return DiffeoGerm(u, v)


def rand_structure(rng, order):
    return ProjectiveStructure(rand_jet(rng, order), rand_jet(rng, order),
                               rand_jet(rng, order), rand_jet(rng, order))


def checks_for(reports, case):
    out = {}
    for report in reports:
        if report.case == case:
            for check in report.checks:
                out.setdefault(check.name, []).append(check)
    assert out, "no reports for %s" % case
    return out


# -------------------------------------------------------------------------------


def test_criterion_01_liouville_of_the_cubic_normal_family():
    """liouville((A, B, 0, 1)) == (-3A', -3B') for x-only A, B."""
    rng = random.Random(SEED)
    order = 12
    zero, one = Jet2.zero(order), Jet2.constant(1, order)
    for _ in range(10):
        A, B = rand_xpoly(rng, order), rand_xpoly(rng, order)
        pair = liouville(ProjectiveStructure(A, B, zero, one))
        assert pair.L1.agree(A.d_dx().scale(-3))
        assert pair.L2.agree(B.d_dx().scale(-3))


def test_criterion_02_constant_c_family_is_flat():
    """liouville((A(x), B(x), c, 0)) == (0, 0) for constant c."""
    rng = random.Random(SEED + 1)
    order = 12
    zero = Jet2.zero(order)
    for _ in range(10):
        A, B = rand_xpoly(rng, order), rand_xpoly(rng, order)
        c = Jet2.constant(rand_frac(rng), order)
        pair = liouville(ProjectiveStructure(A, B, c, zero))
        assert pair.is_zero()


def test_criterion_03_exponential_C_family_invariants(reports12):
    """(A(x), 0, e^x, 0): computed pair is (-e^x, 2 e^{2x}) for every A,
    never linearizable, and the registry flags the conflicting displayed
    pairs as paper-inconsistent."""
    order = 12
    ex = exp_series(Jet2.variable("x", order))
    e2x = exp_series(Jet2.variable("x", order).scale(2))
    for text in ("x", "1 - x/3", "x^2/2"):
        st = S(text, "0", "exp(x)", "0", order)
        pair = liouville(st)
        assert pair.L1.agree(-ex)
        assert pair.L2.agree(e2x.scale(2))
        assert not is_linearizable(st)
    named = checks_for(reports12, "thm31.i.b")
    assert all(c.verdict == PASS for c in named["liouville-computed"])
    flagged = named["liouville-as-displayed"]
    assert len(flagged) == 3
    for check in flagged:
        assert check.verdict == "paper-inconsistent"
        assert "disagree" in check.detail


def test_criterion_04_pullback_laws_and_functoriality():
    """The three displayed coordinate-change laws agree with the general
    pullback; pullback is contravariantly functorial and preserves
    linearizability."""
    order = 10
    yv = Jet2.variable("y", order)
    xv = Jet2.variable("x", order)

    rng = random.Random(SEED + 2)
    for _ in range(10):
        st = rand_structure(rng, order)
        psi = Jet2.from_terms(
            {(1, 0): rand_frac(rng, -4, 4, 3) or 1,
             (2, 0): rand_frac(rng, -4, 4, 3),
             (3, 0): rand_frac(rng, -4, 4, 3)}, order)
        law = apply_x_reparam(st, psi)
        general = pullback(DiffeoGerm(psi, yv), st)
        assert all(p.agree(q) for p, q in zip(law, general))
    for _ in range(10):
        st = rand_structure(rng, order)
        phi = Jet2.from_terms({(k, 0): rand_frac(rng, -4, 4, 3)
                               for k in (1, 2, 3)}, order)
        law = apply_y_shift(st, phi)
        general = pullback(DiffeoGerm(xv, yv + phi), st)
        assert all(p.agree(q) for p, q in zip(law, general))
    for _ in range(10):
        st = rand_structure(rng, order)
        a0 = rand_frac(rng, 1, 9, 4)
        law = apply_y_scale(st, a0)
        general = pullback(DiffeoGerm(xv, yv.scale(a0)), st)
        assert all(p.agree(q) for p, q in zip(law, general))

    for k in range(20):
        g, h = rand_germ(rng, order), rand_germ(rng, order)
        if k % 2:
            st = rand_structure(rng, order)
        else:
            # a linearizable start: a coordinate change of a flat member
            flat = ProjectiveStructure(
                rand_xpoly(rng, order, deg=3), rand_xpoly(rng, order, deg=3),
                Jet2.constant(rand_frac(rng), order), Jet2.zero(order))
            st = pullback(rand_germ(rng, order), flat)
        composed = pullback(h.compose(g), st)
        staged = pullback(g, pullback(h, st))
        assert all(p.agree(q) for p, q in zip(composed, staged))
        assert is_linearizable(pullback(g, st)) == is_linearizable(st)


def test_criterion_05_weighted_scaling_action():
    """Pullback along (lam^2 x, lam y) of (A, B, 0, 1) is
    (lam^3 A(lam^2 x), lam^2 B(lam^2 x), 0, 1)."""
    rng = random.Random(SEED + 3)
    order = 12
    zero, one = Jet2.zero(order), Jet2.constant(1, order)
    for lam in (Fraction(2), Fraction(1, 3)):
        lx = Jet2.variable("x", order).scale(lam * lam)
        for _ in range(3):
            A, B = rand_xpoly(rng, order), rand_xpoly(rng, order)
            st = ProjectiveStructure(A, B, zero, one)
            germ = DiffeoGerm(lx, Jet2.variable("y", order).scale(lam))
            moved = pullback(germ, st)
            assert moved.A.agree(compose1(A, lx).scale(lam ** 3))
            assert moved.B.agree(compose1(B, lx).scale(lam ** 2))
            assert moved.C.is_zero()
            assert moved.D.agree(one)
            action = c_star_action(lam, st)
            assert all(p.agree(q) for p, q in zip(moved, action))


def test_criterion_06_catalogue_symmetries_and_brackets(reports12):
    """Every catalogued field is a symmetry of its normal form or pencil
    structure; the stated bracket relations close, the homogeneous model
    carries a three-dimensional algebra and the trivial structure an
    eight-dimensional one."""
    catalogue = [r for r in reports12
                 if r.case.startswith(("thm31.", "thm41."))]
    assert catalogue
    for report in catalogue:
        for check in report.checks:
            if (check.name.startswith(("symmetry:", "bracket:",
                                       "pencil-symmetry:"))
                    or check.name == "fields-independent"):
                assert check.verdict == PASS, (report.case, check.name)
    named = checks_for(reports12, "thm31.ii.a")
    assert all(c.verdict == PASS for c in named["bracket:[X,Y]=X"])
    named = checks_for(reports12, "thm31.iii")
    for bracket in ("bracket:[X,Y]=X", "bracket:[X,Z]=Y", "bracket:[Y,Z]=Z"):
        assert all(c.verdict == PASS for c in named[bracket])
    assert all(c.verdict == PASS for c in named["symmetry-dimension"])
    named = checks_for(reports12, "thm31.iv")
    assert all(c.verdict == PASS for c in named["fields-independent"])
    assert all(c.verdict == PASS for c in named["symmetry-dimension"])


def test_criterion_07_symmetry_dimension_spectrum():
    """Stabilized symmetry dimensions: 8 for the trivial structure, 3
    for the homogeneous model, 2 on both exponential families, 1 for a
    generic cubic normal form — all inside the classical spectrum
    {0, 1, 2, 3, 8}."""
    order = 12
    spectrum = {0, 1, 2, 3, 8}
    expected = {
        ("0", "0", "0", "0"): 8,
        ("0", "1/2", "0", "exp(-2*x)"): 3,
        ("exp(x)", "0", "0", "exp(-2*x)"): 2,
        ("exp(x)", "0", "exp(-x)", "0"): 2,
        ("x", "0", "0", "1"): 1,
    }
    for texts, want in expected.items():
        dims = symmetry_dim(S(*texts, order=order))
        assert dims.stabilized, texts
        assert dims.value == want, texts
        assert dims.value in spectrum


def test_criterion_08_invariant_structure_solves():
    """Structures preserved by d_dy are exactly the x-only quadruples;
    adding d_dx + y d_dy cuts them to the four-parameter family
    (a e^x, b, c e^{-x}, d e^{-2x})."""
    order = 9
    degree = 4
    dy = VectorField(Jet2.zero(order), Jet2.constant(1, order))
    sol = invariant_structures([dy], degree=degree)
    assert sol.consistent
    assert sol.dimension == 4 * (degree + 1)
    for basis_st in sol.basis:
        assert all(jet.is_x_only() for jet in basis_st)
    assert sol.contains(S("x^4 - 2*x", "1/3", "x^2", "5 - x^3", order))
    assert not sol.contains(S("y", "0", "0", "0", order))

    xy = VectorField(Jet2.constant(1, order), Jet2.variable("y", order))
    sol = invariant_structures([dy, xy], degree=6)
    assert sol.consistent
    assert sol.dimension == 4
    assert sol.contains(S("exp(x)", "0", "0", "0", order))
    assert sol.contains(S("0", "1", "0", "0", order))
    assert sol.contains(S("0", "0", "exp(-x)", "0", order))
    assert sol.contains(S("0", "0", "0", "exp(-2*x)", order))
    member = S("5/3 * exp(x)", "-2", "exp(-x)/4", "7 * exp(-2*x)", order)
    assert sol.contains(member)
    assert not sol.contains(S("exp(2*x)", "0", "0", "0", order))


def test_criterion_09_pencil_round_trips(reports12):
    """Every catalogued pencil reproduces its structure exactly, its
    members z in {0, 1, -1, 2, inf} are geodesic foliations, and the
    member value is a first integral along transverse geodesics."""
    counts = {"thm41.i.a.1": 3, "thm41.i.a.2": 3, "thm41.i.b": 3,
              "thm41.ii.a": 3, "thm41.ii.b.1": 3, "thm41.ii.b.2": 1,
              "thm41.iv": 1}
    for case, want in counts.items():
        reports = [r for r in reports12 if r.case == case]
        assert len(reports) == want, case
        named = checks_for(reports12, case)
        for name in ("wedge-unit", "derived-structure", "members-geodesic",
                     "first-integral"):
            assert len(named[name]) == want, (case, name)
            assert all(c.verdict == PASS for c in named[name]), (case, name)
    named = checks_for(reports12, "thm41.iii")
    assert all(c.verdict == PASS for c in named["limit-structure"])
    assert all(c.verdict == RECORDED for c in named["no-rational-pencil"])


def test_criterion_10_cubic_locus(reports12):
    """The parametrized locus satisfies the nodal cubic identically,
    gamma = 0 lands on the excluded flat point (0, 2), and the
    irrational-slope limit point (0, 1/2) carries the homogeneous
    model."""
    for gamma in (0, 1, -1, Fraction(1, 2), Fraction(-1, 2), 2,
                  Fraction(1, 3)):
        assert cubic_curve_residual(gamma) == 0
    gamma = Fraction(0)
    assert (gamma * (2 * gamma ** 2 - 1), 2 - 3 * gamma ** 2) == (0, 2)
    alpha, beta = Fraction(0), Fraction(1, 2)
    assert 27 * alpha ** 2 + 4 * beta ** 3 - 12 * beta ** 2 + 9 * beta - 2 == 0
    named = checks_for(reports12, "thm41.iii")
    assert all(c.verdict == PASS for c in named["cubic-point"])
    assert all(c.verdict == PASS for c in named["limit-structure"])
    named = checks_for(reports12, "thm41.iv")
    assert all(c.verdict == PASS for c in named["gamma-zero-pencil"])
    assert all(c.verdict == PASS for c in named["excluded-member-flat"])


def test_criterion_11_squared_flatness_identities_as_displayed():
    """After normalizing D to 1, the two displayed squared-residual
    identities

        3 (4B + 1) A^2 + (4B^2 + 5B - 3B' + 1)^2  = 0   (first family)
        108 B A^2 + (4B^2 - 3B')^2                = 0   (second family)

    hold on structures induced by the two exponential pencil families.

    The second identity holds exactly.  The first is stated verbatim
    with leading weight 3; the computed residual equals
    8 (2u - 1)^2 A^2 (so the weight must be 27), hence this test fails
    on every generic sample and is kept red deliberately.
    """
    rng = random.Random(SEED + 4)
    order = 12
    zero, one = Jet2.zero(order), Jet2.constant(1, order)
    yv = Jet2.variable("y", order)
    ey = exp_series(yv)

    # second family: omega_0 = -dx - (g + y) dy, omega_inf = dy
    for _ in range(3):
        g = Jet2.from_terms({(k, 0): rand_frac(rng, -4, 4, 3)
                             for k in (1, 2, 3)}, order)
        pen = Pencil(Foliation(-one, -(g + yv)), Foliation(zero, one))
        nf, _ = normalize_D1(structure_from_pencil(pen))
        A, B = nf.A, nf.B
        squared = (B * A * A).scale(108) + \
            ((B * B).scale(4) - B.d_dx().scale(3)) ** 2
        assert squared.is_zero()

    # first family: omega_0 = e^y (dx + g dy), omega_inf = dy
    for _ in range(3):
        g = Jet2.from_terms(
            {(0, 0): rand_frac(rng, 1, 6, 3),
             (1, 0): rand_frac(rng, -4, 4, 3),
             (2, 0): rand_frac(rng, -4, 4, 3)}, order)
        pen = Pencil(Foliation(ey, g * ey), Foliation(zero, one))
        nf, _ = normalize_D1(structure_from_pencil(pen))
        A, B = nf.A, nf.B
        S1 = (B * B).scale(4) + B.scale(5) - B.d_dx().scale(3) + one
        squared = ((B.scale(4) + one) * A * A).scale(3) + S1 * S1
        assert squared.is_zero(), \
            "displayed weight-3 identity leaves a residual"


def test_criterion_12_exponential_symmetry_family():
    """Extending an admissible 3-jet through the fourth-order
    coefficient law yields alpha with: the law satisfied identically,
    e^{cy} (alpha d_dx + beta d_dy) an exact symmetry of the derived
    structure, and alpha'(B + c^2) + (3cA + B') alpha == 0 — all at
    effective order >= 8."""
    rng = random.Random(SEED + 5)
    order = 12
    c = Fraction(1)
    ey = exp_series(Jet2.variable("y", order))
    for _ in range(5):
        a1 = rand_frac(rng, -4, 4, 3)
        a2 = rand_frac(rng, -4, 4, 3)
        if a2 == c ** 4:
            a2 += 1
        a3 = rand_frac(rng, -4, 4, 3)
        al = alpha_ode_solve(c, (Fraction(1), a1, a2, a3), order)

        d1 = al.d_dx()
        d2 = d1.d_dx()
        d3 = d2.d_dx()
        d4 = d3.d_dx()
        ode = ((al * d2 - d1 * d1).scale(c ** 4)
               - (al * d3 - d1 * d2).scale(3 * c * c)
               + (al * d4).scale(2) + d1 * d3 - (d2 * d2).scale(3))
        assert ode.eff >= 8
        assert ode.is_zero()

        A = (d3 - d1.scale(c ** 4)) / al.scale(4 * c ** 3)
        B = -(d2.scale(3) + al.scale(c ** 4)) / al.scale(4 * c * c)
        st = ProjectiveStructure(A, B, Jet2.zero(order),
                                 Jet2.constant(1, order))
        beta = (d1 - al.scale(c * c)).scale(Fraction(1, 2) / c)
        field = VectorField(ey * al, ey * beta)
        assert min(j.eff for j in st) >= 8
        assert is_symmetry(field, st)

        rel = d1 * (B + Jet2.constant(c * c, order)) \
            + (A.scale(3 * c) + B.d_dx()) * al
        assert rel.eff >= 8
        assert rel.is_zero()


def test_criterion_13_exotic_algebra_admits_no_new_structure():
    """The twisted realizations preserve no structure at all; the
    untwisted one preserves exactly the homogeneous model's line."""
    for c1, c2 in ((1, 0), (0, 1), (1, 1)):
        named = {c.name: c for c in exotic_sl2_check(c1, c2, order=9)}
        assert named["invariant-dimension"].verdict == PASS
        assert named["unique-structure-linearizable"].verdict == PASS
    named = {c.name: c for c in exotic_sl2_check(0, 0, order=9)}
    assert named["invariant-dimension"].verdict == PASS
    assert named["contains-homogeneous-model"].verdict == PASS


def test_criterion_14_dual_number_oracle():
    """residual(v, st) equals the epsilon-linear part of the pullback
    along id + eps v, slot by slot."""
    order = 8
    rng = random.Random(SEED + 6)

    def dual_jet(re, ep):
        keys = set(re.coeffs) | set(ep.coeffs)
        terms = {k: DualRational(Fraction(re.coeff(*k)),
                                 Fraction(ep.coeff(*k))) for k in keys}
        return Jet2.from_terms(terms, re.order, min(re.eff, ep.eff))

    def part(jet, which):
        return Jet2.from_terms(
            {k: getattr(as_dual(c), which) for k, c in jet.coeffs.items()},
            jet.order, jet.eff)

    for _ in range(20):
        a, b = rand_jet(rng, order), rand_jet(rng, order)
        st = rand_structure(rng, order)
        v = VectorField(a, b)
        germ = DiffeoGerm(dual_jet(Jet2.variable("x", order), a),
                          dual_jet(Jet2.variable("y", order), b))
        moved = pullback(germ, st)
        res = residual(v, st)
        for k, (orig, new) in enumerate(zip(st, moved)):
            assert part(new, "re").agree(orig)
            assert part(new, "ep").agree(res.coeff(k))


def test_criterion_15_report_output_is_byte_identical(capsys):
    """Two complete JSON verification runs produce identical bytes."""
    assert dispatch(["verify-paper", "--json"]) == 0
    first = capsys.readouterr().out
    assert dispatch(["verify-paper", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert len(payload) == 44
    assert [obj["case"] for obj in payload] == \
        sorted(obj["case"] for obj in payload)
