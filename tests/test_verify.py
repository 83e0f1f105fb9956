"""Case registry and verification driver.

Pins the registry manifest, the ``run_case``/``run_all`` semantics, the
determinism of the rendered output, and the standalone verification
operations (cubic locus, alpha-ODE solver, flattening germ, exotic
algebra scan).
"""

import hashlib
import json
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projstruct.errors import (
    InadmissibleParameters,
    NonSquareConstant,
    PreconditionViolated,
    UnknownCase,
)
from projstruct.expressions import expand, parse
from projstruct.jets import Jet2, first_nonzero
from projstruct.linalg import rank
from projstruct.reports import (FAIL, INCONSISTENT, PASS, RECORDED, failed,
                                leading_term, passed, recorded, render_json,
                                render_text)
from projstruct.structures import LiouvillePair, ProjectiveStructure, pullback
from projstruct import cases, fields, pencils, reports, structures
from projstruct.cases import _FIELDS, _AlgebraEntry, _PencilEntry
from projstruct import (
    CASES,
    alpha_ode_solve,
    affine_family_checks,
    cubic_curve_residual,
    exotic_sl2_check,
    flat_criteria_checks,
    ib_flattening_germ,
    list_cases,
    run_all,
    run_case,
)

from conftest import PROP_ORDER, alpha_ode_lower, rational_or_dual_jets

# The classified normal forms and the pencil catalogue carry these ids as
# their external contract; the remaining entries cover the affine family,
# the exotic algebra scan, the homogeneous cubic model and the flatness
# criteria.
NORMAL_FORM_IDS = (
    "thm31.i.a", "thm31.i.b", "thm31.ii.a", "thm31.ii.b",
    "thm31.iii", "thm31.iv",
)
PENCIL_IDS = (
    "thm41.i.a.1", "thm41.i.a.2", "thm41.i.b", "thm41.ii.a",
    "thm41.ii.b.1", "thm41.ii.b.2", "thm41.iii", "thm41.iv",
)
EXTRA_IDS = ("sec3.aff", "remark.exotic-sl2", "remark.pi0", "remark.flat")


def jexp(text, order=10):
    return expand(text, None, order)


# --- registry shape -----------------------------------------------------------


def test_registry_contains_exactly_the_manifest():
    want = set(NORMAL_FORM_IDS) | set(PENCIL_IDS) | set(EXTRA_IDS)
    assert set(CASES) == want


def test_every_case_has_at_least_one_sample():
    for record in CASES.values():
        assert record.samples, record.id
        for sample in record.samples:
            assert isinstance(sample, dict)


def test_list_cases_is_sorted_and_matches_registry():
    listed = list_cases()
    assert [cid for cid, _, _ in listed] == sorted(CASES)
    for cid, title, names in listed:
        assert title == CASES[cid].title
        assert names == tuple(sorted(CASES[cid].samples[0]))


def test_catalogue_rows_are_consistent():
    # list_cases reports samples[0]'s names and run_case merges over it,
    # so every sample binds the same names; every field is used by a row.
    used = set()
    for record in CASES.values():
        names = set(record.samples[0])
        assert all(set(sample) == names for sample in record.samples), \
            record.id
        if isinstance(record.runner, _AlgebraEntry):
            used.update(record.runner.fields)
        elif isinstance(record.runner, _PencilEntry):
            used.update(name for name, _, _ in record.runner.symmetries)
    assert used == set(_FIELDS)


def count_calls(monkeypatch, module, names):
    """Count the calls made through ``module``'s binding of each name."""
    calls = dict.fromkeys(names, 0)

    def counting(name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counting(name))
    return calls


def test_registry_calls_the_module_bindings_of_its_solvers(monkeypatch):
    # The benchmark's tracer rebinds these module globals; a row that held
    # the function objects from import time would hide its calls.
    calls = count_calls(monkeypatch, cases, ("symmetry_dim", "residual"))
    run_case("thm31.iii", order=8)
    assert calls == {"symmetry_dim": 1, "residual": 3}


def test_registry_reaches_both_linear_solvers_through_fields(monkeypatch):
    # The same holds one level down: the twisted sl2 triple is the only
    # registry input that reaches fields.solve_affine (one call per
    # residual degree), and symmetry_dim reaches fields.nullspace.
    calls = count_calls(monkeypatch, fields, ("solve_affine", "nullspace"))
    run_case("remark.exotic-sl2", {"c1": "1", "c2": "0"}, 8)
    assert calls == {"solve_affine": 6, "nullspace": 0}
    run_case("thm31.iii", order=8)
    assert calls == {"solve_affine": 6, "nullspace": 7}


# --- run_case dispatch --------------------------------------------------------


def test_run_case_unknown_id_lists_known_ids():
    with pytest.raises(UnknownCase) as err:
        run_case("thm31.nope", order=6)
    assert "thm31.i.a" in str(err.value)


@pytest.mark.parametrize("order", [1, 0, -1])
def test_run_case_and_run_all_reject_orders_below_two(order):
    message = "must be at least 2, got %d" % order
    with pytest.raises(ValueError, match=message):
        run_case("thm31.iv", None, order)
    with pytest.raises(ValueError, match=message):
        run_case("thm31.iii", None, order)
    with pytest.raises(ValueError, match=message):
        run_all(order)


def test_run_case_rejects_unknown_parameter_names():
    with pytest.raises(InadmissibleParameters):
        run_case("thm31.ii.a", {"omega": "1"}, order=6)
    with pytest.raises(InadmissibleParameters):
        run_case("thm31.iii", {"alpha": "1"}, order=6)


def test_run_case_rejects_inadmissible_values():
    # gamma = 0 degenerates the hyperbolic-pencil wedge.
    with pytest.raises(InadmissibleParameters):
        run_case("thm41.ii.a", {"gamma": "0"}, order=6)
    # (alpha, beta) on the excluded flat points of the cubic locus.
    with pytest.raises(InadmissibleParameters):
        run_case("thm31.ii.a", {"alpha": "0", "beta": "2"}, order=6)
    # A * e^x constant makes the translated coefficient degenerate.
    with pytest.raises(InadmissibleParameters):
        run_case("thm31.i.b", {"A": "exp(-x)"}, order=6)


def test_run_case_merges_params_over_default_sample():
    reports = run_case("thm41.ii.b.1", {"lam": "5"}, order=6)
    assert len(reports) == 1
    assert reports[0].params["lam"] == "5"
    assert reports[0].verdict == PASS


def test_run_case_without_params_runs_every_sample():
    record = CASES["thm31.ii.a"]
    reports = run_case("thm31.ii.a", order=6)
    assert len(reports) == len(record.samples)
    assert [r.params for r in reports] == [dict(s) for s in record.samples]


def test_report_metadata_keeps_requested_order():
    (report,) = run_case("thm31.iii", order=6)
    assert report.order == 6
    assert report.case == "thm31.iii"


# --- whole-registry verdicts ----------------------------------------------------


def test_full_run_passes_and_flags_only_the_documented_discrepancies(reports12):
    assert all(report.verdict == PASS for report in reports12)
    flagged = {(r.case, c.name)
               for r in reports12 for c in r.checks if c.verdict == INCONSISTENT}
    assert flagged == {
        ("thm31.i.b", "liouville-as-displayed"),
        ("remark.flat", "ia1:squared-identity-as-stated"),
    }
    assert not any(c.verdict == FAIL for r in reports12 for c in r.checks)


def test_verdicts_are_independent_of_working_order(reports12):
    low = {(r.case, str(sorted(r.params.items())), c.name): c.verdict
           for r in run_all(order=6) for c in r.checks}
    high = {(r.case, str(sorted(r.params.items())), c.name): c.verdict
            for r in reports12 for c in r.checks}
    assert low == high


# sha256 of `projstruct verify-paper [--json] --order N`; the order-12
# --json value is also the benchmark's pinned registry digest
PINNED_DIGESTS = [
    ("json", 12,
     "0f584240e9b65719c65c1d3f7667339441b4eabbce2cc53d520f6ff65a2eea91"),
    ("text", 12,
     "52bfdf2f66838b4b075f2275b43fa34e092954b86679049dc7387678d343121d"),
    ("json", 6,
     "997c89a16e153c4ff7e88d9d954ae45c6b8426b699c21982c9412d87215fd23b"),
    ("text", 6,
     "2188ad9e7fe8281d3973138935807c37deaf7205da0e1755440605509952265e"),
    ("json", 3,
     "ae321ccd00da1cceff5d58a609779ea8d299e3f8ba76d5e62e472adf09f3b9eb"),
    ("text", 3,
     "4f9b4ed2b0581cf962165a58b20d2efc2be06ba0fd006f54485c54a10070642b"),
]


@pytest.fixture(scope="module")
def reports_by_order(reports12):
    return {12: reports12, 6: run_all(order=6), 3: run_all(order=3)}


@pytest.mark.parametrize("form,order,digest", PINNED_DIGESTS,
                         ids=["%s-%d" % (f, o) for f, o, _ in PINNED_DIGESTS])
def test_full_run_json_matches_the_pinned_digest(reports_by_order, form,
                                                 order, digest):
    render = render_json if form == "json" else render_text
    text = render(reports_by_order[order])
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_render_json_is_deterministic_and_schema_stable():
    reports = run_all(order=6)
    text = render_json(reports)
    assert text == render_json(run_all(order=6))
    payload = json.loads(text)
    assert [obj["case"] for obj in payload] == sorted(obj["case"] for obj in payload)
    for obj in payload:
        assert set(obj) == {"case", "params", "order", "checks"}
        for check in obj["checks"]:
            assert set(check) == {"name", "verdict", "residual_leading_term"}
            assert check["verdict"] in (PASS, FAIL, INCONSISTENT, RECORDED)


@pytest.mark.parametrize("record,slot", [
    (ProjectiveStructure, "C"), (fields.VectorField, "b"),
    (LiouvillePair, "L2")], ids=lambda r: getattr(r, "__name__", r))
def test_agree_check_names_the_first_differing_slot(record, slot):
    names = list(record._fields)
    want = record.zero(4)
    # the named slot and every later one differ
    got = record(*(Jet2.variable("x", 4) if i >= names.index(slot)
                   else Jet2.zero(4) for i in range(len(names))))
    assert cases._agree_check("c", got, got) == cases.passed("c")
    result = cases._agree_check("c", got, want)
    assert (result.verdict, result.residual_leading_term, result.detail) == (
        FAIL, "1 * x", "%s-slot differs" % slot)
    assert cases._agree_check("c", got, want, "why").detail == "why"


# --- standalone operations ------------------------------------------------------


def test_cubic_curve_residual_vanishes_on_the_parametrized_locus():
    for gamma in (0, 1, -1, Fraction(1, 2), Fraction(-1, 2), 2, Fraction(1, 3)):
        assert cubic_curve_residual(gamma) == 0


def test_cubic_gamma_zero_gives_the_excluded_flat_point():
    gamma = Fraction(0)
    alpha = gamma * (2 * gamma ** 2 - 1)
    beta = 2 - 3 * gamma ** 2
    assert (alpha, beta) == (0, 2)
    assert cubic_curve_residual(gamma) == 0


def test_cubic_limit_point_lies_on_the_locus():
    alpha, beta = Fraction(0), Fraction(1, 2)
    assert 27 * alpha ** 2 + 4 * beta ** 3 - 12 * beta ** 2 + 9 * beta - 2 == 0


def test_alpha_ode_solve_requires_a_unit_constant_term():
    with pytest.raises(PreconditionViolated):
        alpha_ode_solve(Fraction(1), (0, 1, 1, 1), order=8)


def test_alpha_ode_solve_extends_the_jet_and_satisfies_the_ode():
    c = Fraction(1)
    jet3 = (Fraction(1), Fraction(1, 2), Fraction(2), Fraction(1, 3))
    al = alpha_ode_solve(c, jet3, order=12)
    assert al.coeff(0, 0) == 1
    assert al.coeff(1, 0) == Fraction(1, 2)
    assert al.coeff(2, 0) == 1          # a2 / 2!
    assert al.coeff(3, 0) == Fraction(1, 18)  # a3 / 3!
    a1 = al.d_dx()
    a2 = a1.d_dx()
    a3 = a2.d_dx()
    a4 = a3.d_dx()
    c2, c4 = c * c, c ** 4
    res = ((al * a2 - a1 * a1).scale(c4)
           - (al * a3 - a1 * a2).scale(3 * c2)
           + (al * a4).scale(2) + a1 * a3 - (a2 * a2).scale(3))
    assert res.is_zero()


def test_affine_family_checks_rejects_degenerate_parameters():
    base = dict(CASES["sec3.aff"].samples[0])
    dead = dict(base)
    dead["c"] = "0"
    with pytest.raises(InadmissibleParameters):
        affine_family_checks(dead, order=8)
    resonant = dict(base)
    resonant["a2"] = str(Fraction(base["c"]) ** 4)
    with pytest.raises(InadmissibleParameters):
        affine_family_checks(resonant, order=8)


def test_standalone_checks_refuse_with_the_registry_messages():
    for case_id, checks, params in (
            ("sec3.aff", affine_family_checks, {"c": "0"}),
            ("sec3.aff", affine_family_checks, {"c": "1", "a2": "1"}),
            ("remark.flat", flat_criteria_checks, {"g1": "x"})):
        env = dict(CASES[case_id].samples[0], **params)
        with pytest.raises(InadmissibleParameters) as direct:
            checks(env, order=6)
        with pytest.raises(InadmissibleParameters) as registry:
            run_case(case_id, params, order=6)
        assert str(registry.value) == "%s: %s" % (case_id, direct.value)


def test_flat_criteria_checks_rejects_non_unit_leading_slope():
    with pytest.raises(InadmissibleParameters):
        flat_criteria_checks({"g1": "x", "g2": "x", "a_ib": "0"}, order=8)


def test_flat_criteria_records_root_when_discriminant_is_not_a_unit_square():
    # g1' (0) == 1/2 with g1'' != 0 makes the first discriminant a
    # non-unit nonzero jet, and g2' (0) == 0 does the same for the
    # second; both roots are then out of reach of the exact square
    # root, while the identities themselves still hold.
    checks = flat_criteria_checks(
        {"g1": "1 + x/2 + x^2", "g2": "x^2", "a_ib": "x"}, order=8)
    byname = {c.name: c for c in checks}
    assert byname["ia1:root-reconstruction"].verdict == RECORDED
    assert byname["ia2:root-reconstruction"].verdict == RECORDED
    assert byname["ia1:squared-identity-corrected"].verdict == PASS
    assert byname["ia2:squared-identity"].verdict == PASS


def test_flat_criteria_reconstructs_a_double_root():
    # g1' constant at 1/2 collapses the discriminant to the zero jet;
    # f' = 1/2 is then an exact double root, and the doubled-root factor
    # makes even the weighted-3 variant of the identity hold.
    checks = flat_criteria_checks({"g1": "1 + x/2", "g2": "x", "a_ib": "0"},
                                  order=8)
    byname = {c.name: c for c in checks}
    assert byname["ia1:root-reconstruction"].verdict == PASS
    assert byname["ia1:squared-identity-as-stated"].verdict == PASS


def test_flat_criteria_flags_the_stated_identity_generically():
    checks = flat_criteria_checks({"g1": "1", "g2": "x", "a_ib": "0"}, order=8)
    byname = {c.name: c for c in checks}
    assert byname["ia1:squared-identity-as-stated"].verdict == INCONSISTENT
    assert byname["ia1:squared-identity-corrected"].verdict == PASS
    assert byname["ia1:root-reconstruction"].verdict == PASS
    assert byname["ia2:squared-identity"].verdict == PASS


@pytest.mark.parametrize("moved", ["root", "u"])
def test_flat_criteria_root_reconstruction_fails_off_the_root(monkeypatch,
                                                               moved):
    # the ia1 root r must give u = g' o psi as (1 + r)/2 or (1 - r)/2: with
    # x added to r, or to u, neither sign vanishes.  Moving u alone passed
    # while the check compared f - (1 + f)^2/3 with B for f = (1 +- r)/2,
    # which the square root makes hold whatever u is.
    def plus_x(jet):
        return jet + Jet2.variable("x", jet.order)

    expand_jet, compose1 = cases._jet, cases.compose1
    if moved == "root":
        monkeypatch.setattr(cases, "_jet", lambda text, env, order: (
            plus_x if text == "sqrt(-3*(4*B + 1))" else lambda j: j)(
                expand_jet(text, env, order)))
    else:
        monkeypatch.setattr(cases, "compose1",
                            lambda f, g: plus_x(compose1(f, g)))
    checks = flat_criteria_checks({"g1": "1", "g2": "x", "a_ib": "0"}, order=8)
    assert {c.name: c.verdict for c in checks}["ia1:root-reconstruction"] \
        == FAIL


# --- the root checks against their hand-written bodies --------------------------

_IA1_ROOT, _IA2_ROOT = (row[-1] for row in cases._D_UNIT_ROWS)


def _reference_ia1_root(u, r, order):
    # the ia1 check before the two families shared one: u - (1 + r)/2 or
    # u - (1 - r)/2 vanishes, and a failure shows the residual "0"
    ok = any(first_nonzero(cases._jet(text, {"u": u, "r": r}, order)) is None
             for text in ("u - (1 + r)/2", "u - (1 - r)/2"))
    return passed(_IA1_ROOT[0], _IA1_ROOT[3]) if ok else failed(_IA1_ROOT[0])


def _reference_ia2_root(r, g, order):
    # the ia2 check before the two families shared one
    gp = cases._jet("d_dx(g)", {"g": g}, order)
    miss = first_nonzero(r - gp) and first_nonzero(r + gp)
    return (passed(_IA2_ROOT[0], _IA2_ROOT[3]) if miss is None
            else failed(_IA2_ROOT[0], leading_term(r - gp)))


def _reference_root_check(row, bound, order):
    ia1 = row is _IA1_ROOT
    try:
        r = cases._jet(row[1], bound, order)
    except NonSquareConstant:
        return recorded(row[0], "identity verified, root not rational")
    return (_reference_ia1_root(bound["u"], r, order) if ia1
            else _reference_ia2_root(r, bound["g"], order))


def test_root_checks_are_the_reference_on_every_registry_call(
        registry_traffic):
    calls, passes = registry_traffic
    assert {order: p["root_check"] for order, p in passes.items()} \
        == {12: 6, 8: 6}
    for row, bound, order, _ in calls["root_check"]:
        got = cases._root_check(row, bound, order)
        assert got.verdict == PASS
        assert got == _reference_root_check(row, bound, order)


@st.composite
def root_pairs(draw):
    """(order, f, r): jets over the rationals or the duals at one order,
    each cut to a window from -1 to the order, and r the root to compare
    with w = 2f - 1 (ia1) or w = f' (ia2): +-w, +-w plus a term of a
    random degree, or a jet of its own."""
    order = draw(st.integers(0, PROP_ORDER))
    f = draw(rational_or_dual_jets(order))
    f = f.truncated(eff=draw(st.integers(-1, order)))
    ia1 = draw(st.booleans())
    w = f.scale(2) - 1 if ia1 else f.d_dx()
    kind = draw(st.sampled_from(("root", "near", "own")))
    r = draw(rational_or_dual_jets(order)) if kind == "own" \
        else w.scale(draw(st.sampled_from((1, -1))))
    if kind == "near":
        d = draw(st.integers(0, order))
        r = r + Jet2.monomial(d, 0, draw(st.sampled_from((1, -2))), order)
    return ia1, order, f, r.truncated(eff=draw(st.integers(-1, order)))


@settings(deadline=None, max_examples=150)
@given(root_pairs())
def test_root_checks_are_the_reference_in_short_windows(case):
    # the row's root text read as a bound root r, so that any r is drawn
    ia1, order, f, r = case
    name, _, want, detail = _IA1_ROOT if ia1 else _IA2_ROOT
    bound = {"u": f, "r": r} if ia1 else {"g": f, "r": r}
    got = cases._root_check((name, "r", want, detail), bound, order)
    ref = (_reference_ia1_root(f, r, order) if ia1
           else _reference_ia2_root(r, f, order))
    assert got.verdict == ref.verdict
    if ref.verdict == PASS or not ia1:
        assert got == ref
    else:
        assert got.residual_leading_term == leading_term(r - (f.scale(2) - 1))


def test_ib_flattening_germ_reduces_to_a_pure_quadratic_slot():
    order = 10
    st = ProjectiveStructure(jexp("x", order), jexp("0", order),
                             jexp("exp(x)", order), jexp("0", order))
    germ = ib_flattening_germ(st)
    flat = pullback(germ, st)
    assert flat.A.is_zero()
    assert flat.B.is_zero()
    assert flat.D.is_zero()
    assert not flat.C.is_zero()


def test_exotic_scan_finds_only_the_homogeneous_model_when_untwisted():
    byname = {c.name: c for c in exotic_sl2_check(0, 0, order=9)}
    assert byname["invariant-dimension"].verdict == PASS
    assert byname["contains-homogeneous-model"].verdict == PASS


def test_exotic_scan_twisted_realizations_admit_no_new_structure():
    for c1, c2 in ((1, 0), (0, 1), (1, 1)):
        byname = {c.name: c for c in exotic_sl2_check(c1, c2, order=9)}
        assert byname["invariant-dimension"].verdict == PASS
        assert byname["unique-structure-linearizable"].verdict == PASS


def members_geodesic_check(case_id="thm41.iv", order=8):
    [report] = run_case(case_id, order=order)
    return next(c for c in report.checks if c.name == "members-geodesic")


def test_members_geodesic_failure_reports_the_residual_leading_term(
        monkeypatch):
    is_geodesic = cases.is_geodesic
    seen = []

    def reject_the_second_member(fol, st):
        seen.append(fol)
        return len(seen) != 2 and is_geodesic(fol, st)

    monkeypatch.setattr(cases, "is_geodesic", reject_the_second_member)
    check = members_geodesic_check()
    # the member z = 1 is geodesic after all, so its residual is zero
    assert (check.verdict, check.residual_leading_term) == (FAIL, "0")
    assert check.detail == "failing members z in {1}"

    # bending A by y^2 changes every member's residual by -y^2
    monkeypatch.setattr(cases, "is_geodesic", is_geodesic)
    from_pencil = cases.structure_from_pencil

    def bent(pen):
        st = from_pencil(pen)
        return ProjectiveStructure(st.A + Jet2.monomial(0, 2, 1, st.A.order),
                                   st.B, st.C, st.D)

    monkeypatch.setattr(cases, "structure_from_pencil", bent)
    check = members_geodesic_check()
    assert (check.verdict, check.residual_leading_term) == (FAIL, "-1 * y^2")


# --- the catalogue's identity rows against their hand-written bodies ------------


def _exponential_reference(env, order):
    # the quartic ODE and the exponential relations as jet arithmetic,
    # before they were text
    A, B, c, al = env["A"], env["B"], env["c"], env["alpha"]
    d1 = al.d_dx()
    Bp = B.d_dx()
    denom = B + Jet2.constant(c * c, order)
    fourB = B.scale(4) + Jet2.constant(c * c, order)
    rhs_a = ((A * A).scale(27 * c) + A * Bp.scale(9)
             - denom * Bp.scale(3 * c) + (fourB * denom * denom).scale(c))
    rhs_b = ((A * (A.scale(c) - Bp)).scale(27 * c) - (Bp * Bp).scale(12)
             - denom * Bp.scale(9 * c * c)
             + (fourB * denom * denom).scale(c * c))
    d4 = d1.d_dx().d_dx().d_dx()
    return {
        "exponential:ode-residual":
            alpha_ode_lower(c, al) + (al * d4).scale(2),
        "exponential:A-prime-relation": A.d_dx() * denom.scale(6) - rhs_a,
        "exponential:B-second-relation": Bp.d_dx() * denom.scale(6) + rhs_b,
        "exponential:alpha-log-derivative":
            d1 * denom + (A.scale(3 * c) + Bp) * al,
    }


def _ia1_reference(env, order):
    A, B, u = env["A"], env["B"], env["u"]
    one, two = Jet2.constant(1, order), Jet2.constant(2, order)
    S = (B * B).scale(4) + B.scale(5) - B.d_dx().scale(3) + one
    fourB1 = B.scale(4) + one
    return {
        "ia1:normalized-B": B + (u * u - u + one).scale(Fraction(1, 3)),
        "ia1:normalized-A":
            A - u.d_dx().scale(Fraction(1, 3))
            - ((u + one) * (u.scale(2) - one) * (u - two)
               ).scale(Fraction(1, 27)),
        "ia1:squared-identity-as-stated": (fourB1 * A * A).scale(3) + S * S,
        "ia1:squared-identity-corrected": (fourB1 * A * A).scale(27) + S * S,
    }


def _ia2_reference(env, order):
    A2, B2 = env["A"], env["B"]
    gp = expand("g", env, order).d_dx()
    S2 = (B2 * B2).scale(4) - B2.d_dx().scale(3)
    return {
        "ia2:normalized-B": B2 + (gp * gp).scale(Fraction(1, 3)),
        "ia2:normalized-A":
            A2 - (gp ** 3).scale(Fraction(2, 27))
            - gp.d_dx().scale(Fraction(1, 3)),
        "ia2:squared-identity": (B2 * A2 * A2).scale(108) + S2 * S2,
    }


def _member_reference(env, order):
    # the exponential member's (A, B) slots as jet arithmetic
    al, c = env["alpha"], env["c"]
    d1 = al.d_dx()
    A = ((d1.d_dx().d_dx() - d1.scale(c ** 4)) / al
         ).scale(Fraction(1, 4) / c ** 3)
    B = (-(d1.d_dx().scale(3) + al.scale(c ** 4)) / al
         ).scale(Fraction(1, 4) / c ** 2)
    return A, B


_REFERENCES = {"exponential": _exponential_reference, "ia1": _ia1_reference,
               "ia2": _ia2_reference}
_ROWS = ((cases._ALPHA_ODE_ROW,) + cases._EXPONENTIAL_IDENTITIES
         + cases._IA1_IDENTITIES + cases._IA2_IDENTITIES)


@pytest.fixture(scope="module")
def catalogue_expansions():
    """(tree, env, order, jet) of every ``expand`` call that ``sec3.aff``
    and ``remark.flat`` make at orders 12, 8, 6 and 3, on every sample."""
    calls = []

    def recording(e, env=None, order=None):
        jet = expand(e, env, order)
        calls.append((e, env, order, jet))
        return jet

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cases, "expand", recording)
        for order in (12, 8, 6, 3):
            run_case("sec3.aff", order=order)
            run_case("remark.flat", order=order)
    return calls


def test_the_references_hold_exactly_the_rows(catalogue_expansions):
    rows = {parse(text): name for name, text, *_ in _ROWS}
    assert len(rows) == 11
    names = set()
    for e, env, order, _ in catalogue_expansions:
        if e in rows:
            names |= set(_REFERENCES[rows[e].split(":")[0]](env, order))
    assert names == set(rows.values())


@pytest.mark.parametrize("row", _ROWS, ids=[name for name, *_ in _ROWS])
def test_identity_row_expands_to_its_hand_written_body(catalogue_expansions,
                                                       row):
    name, text, *_ = row
    tree = parse(text)
    seen = [(env, order, jet) for e, env, order, jet in catalogue_expansions
            if e == tree]
    # three samples at each of four orders
    assert len(seen) == 12
    for env, order, jet in seen:
        bodies = _REFERENCES[name.split(":")[0]](env, order)
        assert name in bodies, "no reference body for %s" % name
        assert jet == bodies[name]


def test_exponential_member_expands_to_its_hand_written_body(
        catalogue_expansions):
    trees = [parse(text) for text in cases._EXPONENTIAL_MEMBER[:2]]
    seen = 0
    for e, env, order, jet in catalogue_expansions:
        if e in trees:
            seen += 1
            assert jet == _member_reference(env, order)[trees.index(e)]
    # A and B for three samples at four orders, and again at the
    # dimension floor below order 8
    assert seen == 2 * 3 * (4 + 2)


def test_sec3_aff_at_order_3_decides_on_a_window(monkeypatch):
    # at --order 3 the exponential identities and the Picard residual
    # once passed on eff -1 and two symmetry residuals on eff -1: nothing
    # was checked; the sub-battery now works three orders higher.  A
    # check's window is the least eff of its parts.
    windows = []
    zero_check, residual = cases.zero_check, cases.residual

    def checking(name, jets, detail="", slots=None):
        jets = (jets,) if isinstance(jets, Jet2) else tuple(jets)
        windows.append((name, min(jet.eff for jet in jets)))
        return zero_check(name, jets, detail, slots)

    def solving(field, st):
        res = residual(field, st)
        windows.append(("residual", min(c.eff for c in res.coeffs)))
        return res

    monkeypatch.setattr(cases, "zero_check", checking)
    monkeypatch.setattr(cases, "residual", solving)
    reports = run_case("sec3.aff", order=3)
    assert all(report.verdict == PASS for report in reports)
    assert {name for name, _ in windows} == {
        "residual", "exponential:ode-residual",
        *(name for name, _, _ in cases._EXPONENTIAL_IDENTITIES),
        *("%s:symmetry:%s" % (part, field)
          for part in ("stabilized", "exponential", "exp-C")
          for field in ("d_dy", "v")),
        "stabilized:bracket:[d_dy,v]=d_dy", "exponential:bracket:[d_dy,v]=c*v",
        "exp-C:bracket:[d_dy,v]=d_dy"}
    assert min(eff for _, eff in windows) >= 1


def test_every_vanishing_verdict_rests_on_a_window(monkeypatch):
    # jets.first_nonzero decides every "this vanishes" of a pass, through
    # the bindings of cases and reports and of the predicates they call
    # (is_linearizable, is_geodesic).  The window a verdict rests on is
    # the least eff of its parts, and no zero_check pass may rest on eff 0
    # or -1, one coefficient checked or none.  Outside zero_check, the
    # identity check decides the ia1 identity as stated (3, all nonzero),
    # the root check 9 root candidates, thm31.i.b its admissibility (3),
    # the not-linearizable check the pairs of thm31.i.b and remark.pi0
    # (4), and the pencil batteries 85 cleared geodesic numerators: 353
    # decisions.  The ia1 roots are compared with u = g' o psi, which one
    # sign of three samples' roots matches, so two samples try r - (2u - 1)
    # first in vain (351 decisions while the ia1 candidate checked only
    # what sqrt_series makes true, for both signs).
    seen = []

    def deciding(parts):
        parts = (parts,) if isinstance(parts, Jet2) else tuple(parts)
        witness = first_nonzero(parts)
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):   # a generator's
            frame = frame.f_back
        who = frame.f_code.co_name
        name = frame.f_locals["name"] if who == "zero_check" else who
        seen.append((who, name, min(p.eff for p in parts), witness is None))
        return witness

    for module in (cases, reports, structures, pencils):
        monkeypatch.setattr(module, "first_nonzero", deciding)
    least = {}
    for order in (12, 6, 3):
        seen.clear()
        run_all(order=order)
        assert Counter((who, vanishes) for who, _, _, vanishes in seen) == {
            ("zero_check", True): 249, ("is_geodesic", True): 85,
            ("_identity_check", False): 3, ("_root_check", True): 6,
            ("_root_check", False): 3, ("_adm_thm31_ib", False): 3,
            ("_not_linearizable_check", False): 4}
        passes = [(name, eff) for who, name, eff, vanishes in seen
                  if who == "zero_check"]
        assert all(eff >= 1 for _, eff in passes)
        least[order] = min(eff for _, eff in passes)
        if order == 12:
            assert {name for name, eff in passes if eff == least[12]} \
                == {"unique-structure-linearizable"}
    assert least == {12: 4, 6: 4, 3: 1}


# --- necessity: the structures each algebra row's fields preserve -----------

# The family each algebra row's fields preserve, as the paper states it: a
# particular structure and independent directions, in closed form.
NECESSARY_FAMILIES = {
    "thm31.ii.a": (("0", "0", "0", "0"),
                   (("exp(x)", "0", "0", "0"), ("0", "1", "0", "0"),
                    ("0", "0", "exp(-x)", "0"), ("0", "0", "0", "exp(-2*x)"))),
    "thm31.iii": (("0", "1/2", "0", "0"), (("0", "0", "0", "exp(-2*x)"),)),
    "thm31.iv": (("0", "0", "0", "0"), ()),
}


def row_fields(case_id, degree, shift=lambda text: text):
    """The named fields of an algebra row, expanded at degree + 2, each
    text passed through ``shift`` first."""
    return [fields.VectorField(*(expand(shift(t), None, degree + 2)
                                 for t in _FIELDS[name]))
            for name in CASES[case_id].runner.fields]


def coefficient_row(st, degree):
    return [jet.coeff(i, d - i) for jet in st
            for d in range(degree + 1) for i in range(d + 1)]


@pytest.mark.parametrize("degree", [4, 6])
def test_the_vertical_translation_preserves_every_x_only_structure(degree):
    # thm31.i.a before it normalizes: d_dy keeps any four functions of x
    inv = fields.invariant_structures(row_fields("thm31.i.a", degree), degree)
    assert inv.dimension == 4 * (degree + 1)
    assert all(jet.is_x_only() for st in inv.basis for jet in st)


@pytest.mark.parametrize("degree", [4, 6])
@pytest.mark.parametrize("case_id", sorted(NECESSARY_FAMILIES))
def test_an_algebra_row_preserves_exactly_its_family(case_id, degree):
    # the computed space has as many directions as the stated family, which
    # lies in it, so the two agree through the degree
    particular, directions = NECESSARY_FAMILIES[case_id]
    inv = fields.invariant_structures(row_fields(case_id, degree), degree)
    assert inv.dimension == len(directions)
    base = ProjectiveStructure(*(expand(t, None, degree) for t in particular))
    assert inv.contains(base)
    steps = [ProjectiveStructure(*(expand(t, None, degree) for t in texts))
             for texts in directions]
    for step in steps:
        assert inv.contains(ProjectiveStructure(
            *(p + q for p, q in zip(base, step))))
    assert rank([coefficient_row(s, degree) for s in steps]) == len(steps)


@pytest.mark.parametrize("dropped", range(8))
def test_each_of_thm31_iv_fields_is_needed_for_its_independence(dropped):
    # the family test above still sees y'' = 0 alone once d_dx, d_dy and any
    # five others remain; the fields-independent check sees any one drop
    kept = row_fields("thm31.iv", 2)
    del kept[dropped]
    assert cases._thm31_iv_extra({}, 12, None, kept, None) == [
        failed("fields-independent", "7")]
    assert cases._thm31_iv_extra(
        {}, 12, None, row_fields("thm31.iv", 2), None) == [
        passed("fields-independent", "the eight 2-jets have rank 8")]


# --- the lower bound: the named fields' 2-jets meet every count --------------

def two_jet_rank(named):
    """The rank of the 2-jets of the fields ``named``: a lower bound on the
    dimension of the algebra of any structure that they preserve."""
    return rank([[part.coeff(i, j) for part in f for (i, j) in cases._JET2_MONOS]
                 for f in named], 2 * len(cases._JET2_MONOS))


@pytest.fixture(scope="module")
def dimension_counts():
    """(structure, fields, dimensions) for each ``symmetry_dim`` call of a
    ``run_all(12)`` pass.  The fields are those of the ``_algebra_checks``
    call before it, or for ``thm41.iii``, which names none, ``thm31.iii``'s
    three.  ``remark.pi0``'s count recentred at (0, 1) reads its fields
    written with y + 1."""
    log = []
    algebra_checks, symmetry_dim = cases._algebra_checks, cases.symmetry_dim

    def recording_fields(st, named, *args, **kwargs):
        log.append((st, [f for _, f, *_ in named]))
        return algebra_checks(st, named, *args, **kwargs)

    def recording_count(st):
        dims = symmetry_dim(st)
        log.append((st, dims))
        return dims

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cases, "_algebra_checks", recording_fields)
        mp.setattr(cases, "symmetry_dim", recording_count)
        run_all(12)
    counts, named, home = [], None, None
    for st, got in log:
        if isinstance(got, list):
            home, named = st, got
        elif st is home:
            counts.append((st, named or row_fields("thm31.iii", 10), got))
        else:
            counts.append((st, row_fields(
                "remark.pi0", 10, lambda t: t.replace("y", "(y + 1)")), got))
    return counts


def test_the_named_fields_reach_every_dimension_count(dimension_counts):
    # item 2's lower bound meets the upper one on each of the 26 checked
    # counts and on thm31.ii.a's nodal sample, which is only recorded
    assert len(dimension_counts) == 27
    for st, named, dims in dimension_counts:
        assert all(fields.is_symmetry(f, st) for f in named)
        assert two_jet_rank(named) == dims.dim_low == dims.dim_high
    assert Counter(dims.dim_high for _, _, dims in dimension_counts) \
        == {1: 6, 2: 16, 3: 4, 8: 1}


@pytest.mark.parametrize("dropped", range(3))
def test_each_of_thm31_iii_fields_is_needed_for_its_lower_bound(dropped):
    named = row_fields("thm31.iii", 10)
    del named[dropped]
    st = cases._structure(12, None, *cases._HOMOGENEOUS)
    assert two_jet_rank(named) == 2
    assert fields.symmetry_dim(st).dim_high == 3
