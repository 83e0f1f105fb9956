"""Case registry and verification driver.

Pins the registry manifest, the ``run_case``/``run_all`` semantics, the
determinism of the rendered output, and the standalone verification
operations (cubic locus, alpha-ODE solver, flattening germ, exotic
algebra scan).
"""

import hashlib
import json
from fractions import Fraction

import pytest

from projstruct.errors import (
    InadmissibleParameters,
    PreconditionViolated,
    UnknownCase,
)
from projstruct.expressions import expand
from projstruct.jets import Jet2
from projstruct.reports import (FAIL, INCONSISTENT, PASS, RECORDED,
                                render_json, render_text)
from projstruct.structures import LiouvillePair, ProjectiveStructure, pullback
from projstruct import cases, fields
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
