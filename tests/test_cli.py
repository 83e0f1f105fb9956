"""Command-line interface.

Dispatches in-process through ``projstruct.cli.dispatch`` and pins the
input-document format, every subcommand's stdout contract, the exit-code
taxonomy (0 holds / 1 negative / 2 usage / 3 parse-math) and the
byte-determinism of the JSON report mode.
"""

import ast
import configparser
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from projstruct import cli, structures
from projstruct.cli import DocumentError, _read_ini, dispatch, load_document
from projstruct.expressions import COORDS, FUNCTIONS, expand

from conftest import bench_workloads, reference_load_document

TRIVIAL_DOC = """\
[global]
order = 10

[structure]
A = "x"
B = "0"
C = "0"
D = "1"

[field VERT]
a = "0"
b = "1"

[field TILT]
a = "0"
b = "x"
"""

PARAM_DOC = """\
[params]
lam = 2/3

[structure]
A = "lam * x"
D = "1"
"""

PENCIL_DOC = """\
[global]
order = 10

[pencil]
P0 = "0"
Q0 = "1"
Pinf = "-1"
Qinf = "-(x^2 + y)"
"""


@pytest.fixture
def write(tmp_path):
    def _write(text, name="doc.ini"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)
    return _write


# --- document loading ----------------------------------------------------------


def test_load_document_defaults(write):
    doc = load_document(write("[structure]\nB = \"x\"\n"))
    assert doc.order == 12
    assert doc.structure.B.coeff(1, 0) == 1
    assert doc.structure.A.is_zero()
    assert doc.structure.D.is_zero()
    assert doc.fields == {}
    assert doc.pencil is None


def test_load_document_reads_derivatives(write):
    doc = load_document(write('[structure]\nA = "d_dx(exp(x*y))"\n'))
    assert doc.structure.A \
        == expand("y*exp(x*y)", None, 12).truncated(eff=11)


def test_load_document_reads_params_fields_and_pencil(write):
    doc = load_document(write(TRIVIAL_DOC + "\n[pencil]\n"
                              "P0 = \"0\"\nQ0 = \"1\"\n"
                              "Pinf = \"-1\"\nQinf = \"-y\"\n"))
    assert doc.order == 10
    assert set(doc.fields) == {"VERT", "TILT"}
    assert doc.pencil is not None


def test_load_document_rejects_incomplete_sections(write):
    with pytest.raises(DocumentError):
        load_document(write("[field V]\na = \"1\"\n"))
    with pytest.raises(DocumentError):
        load_document(write("[pencil]\nP0 = \"1\"\n"))
    with pytest.raises(DocumentError):
        load_document(write("[global]\norder = never\n"))
    with pytest.raises(DocumentError):
        load_document(write("[params]\nt = one\n"))


@pytest.mark.parametrize("order", ["0", "1"])
@pytest.mark.parametrize("command", ["invariants", "linearizable"])
def test_document_orders_below_two_exit_3(write, capsys, command, order):
    # y'' = x has L1 = -3, which an order-1 window cannot see
    doc = ("[global]\norder = %s\n\n[structure]\nA = \"x\"\nD = \"1\"\n"
           % order)
    assert dispatch([command, write(doc)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "order must be at least 2, got %s" % order in captured.err


_SHADOWING = '[params]\n%s = 2\n\n[structure]\nA = "x + exp(y) + sqrt(1 + x)"\n'


@pytest.mark.parametrize("doc,message", [
    ('[field ]\na = "0"\nb = "1"\n',
     "field section needs a name: [field NAME]"),
    ('A = "x"\n', "File contains no section headers"),
    ('[structure]\nA = "x"\n\n[structure]\nD = "1"\n',
     "line 4: section [structure] repeats"),
    ('[structure]\nA = "x"\nA = "y"\n', "line 3: key A repeats"),
    ('[structure]\nA "x"\n', "line 2: expected key = value"),
    ('[structure]\n = "x"\n', "line 2: expected key = value")] + [
    (_SHADOWING % key, "[params] %s names a coordinate or a built-in function"
     % key) for key in COORDS + FUNCTIONS] + [
    ('[params]\n%s\n\n[structure]\nA = "1 * x"\n' % line,
     "[params] %s is not an identifier that an expression can name"
     % line.split(" = ")[0])
    for line in ("1 = 2", "lam-bda = 3", "\u00b2 = 2")] + [
    ('[structure]\nA = "2\u00b2 * x"\n', "unexpected character")],
    ids=["unnamed-field", "no-section-header", "repeated-section",
         "repeated-key", "no-delimiter", "empty-key",
         *("params-" + key for key in COORDS + FUNCTIONS),
         "params-number", "params-dash", "params-superscript",
         "superscript-digit"])
def test_malformed_documents_exit_3(write, capsys, doc, message):
    assert dispatch(["pullback", write(doc)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_a_nameless_field_section_is_refused(write, capsys):
    # a bare [field] header is no field section at all without a name;
    # skipping it would leave "no [field VERT] section" as the only clue
    path = write(TRIVIAL_DOC.replace("[field VERT]", "[field]"))
    assert dispatch(["symcheck", path, "--field", "VERT"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: field section needs a name: "
                            "[field NAME]\n")


def test_two_sections_that_name_one_field_are_refused(write, capsys):
    # [field  X] names the field of [field X]; keeping only the later
    # section would decide symcheck on d_dx, a symmetry of this structure
    doc = ('[structure]\nA = "1"\n\n[field X]\na = "0"\nb = "1"\n\n'
           '[field  X]\na = "1"\nb = "0"\n')
    assert dispatch(["symcheck", write(doc), "--field", "X"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: two sections name the field X\n"


def test_any_whitespace_separates_a_field_name(write, capsys):
    path = write(TRIVIAL_DOC.replace("[field VERT]", "[field\tVERT]"))
    assert set(load_document(path).fields) == {"VERT", "TILT"}
    assert dispatch(["symcheck", path, "--field", "VERT"]) == 0
    assert capsys.readouterr().out.startswith("symmetry: ")


def test_reader_errors_name_the_file(write, capsys):
    path = write("[structure]\nA\n")
    assert dispatch(["invariants", path]) == 3
    assert capsys.readouterr().err == (
        "error: bad document %s: line 2: expected key = value, got 'A'\n"
        % path)


def test_a_document_that_is_not_utf8_exits_3_naming_the_file(tmp_path,
                                                              capsys):
    path = tmp_path / "latin1.ini"
    path.write_bytes('[structure]\nA = "x" ; \u00e9\n'.encode("latin-1"))
    assert dispatch(["invariants", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: bad document %s: not UTF-8 text "
                            "(invalid continuation byte)\n" % path)


def test_a_byte_order_mark_is_not_part_of_the_document(write, tmp_path):
    path = tmp_path / "bom.ini"
    path.write_text(TRIVIAL_DOC, encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf[global]")
    assert load_document(str(path)) == load_document(write(TRIVIAL_DOC))


# line kinds of INI documents; keys and section names recur, so repeated
# sections and keys come up, and a key line first is text before a header
_INI_LINES = (
    "[a]", "[b]", "  [a]", "[DEFAULT]", "[x]y]", "[]", "[a] tail",
    "[field V]", "k = v", "k: v", "a = b = c", "k =", "b:c = 1", "  k = w",
    "k = v ; kept", "  more", "    deeper", "\tcontinued", "", "   ",
    "# note", "; note", "  # indented note", "novalue", "= 3", ": 3")


def _read_with_configparser(lines):
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_file(lines)
    except configparser.Error:
        return None
    return [(name, list(parser.items(name))) for name in parser.sections()]


def _read_with_reader(lines):
    try:
        sections = _read_ini(lines)
    except DocumentError:
        return None
    return [(name, list(keys.items())) for name, keys in sections.items()]


@settings(max_examples=600, deadline=None)
@given(st.booleans(), st.lists(st.sampled_from(_INI_LINES), max_size=8),
       st.booleans())
@example(False, ["[DEFAULT]", "k = 0", "m = 1", "[s]", "m = a", " b", "",
                 "    c", "", "# note", "[t]"], True)
def test_the_reader_reads_what_configparser_reads(header_first, kinds,
                                                  last_newline):
    # the same sections and keys in the same order, or both refuse; most
    # documents with text before a header refuse, so half start with one
    lines = [kind + "\n" for kind in ["[s]"] * header_first + kinds]
    if lines and not last_newline:
        lines[-1] = lines[-1][:-1]
    assert _read_with_reader(lines) == _read_with_configparser(lines)


def test_benchmark_documents_load_as_with_configparser(tmp_path):
    import projstruct

    workloads = bench_workloads()
    rounds = workloads.DocumentRounds(projstruct, 1, str(tmp_path))
    for index in range(60):
        rounds.round(index)
    paths = sorted(tmp_path.glob("*.ini"))
    assert len(paths) == 60 * len(workloads.DOCUMENT_ROUND)
    for path in paths:
        assert load_document(path) == reference_load_document(path)


def _readme_block(heading, fence):
    """The first ``fence`` code block after ``heading`` in the README."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    opening = "```%s\n" % fence
    start = text.index(opening, text.index("\n%s\n" % heading)) + len(opening)
    return text[start:text.index("```\n", start)]


@pytest.mark.parametrize("argv,code,shown", [
    (["invariants"], 0, ["L1 = -2", "L2 = 0"]),
    (["linearizable"], 1, []),
    (["symdim"], 0, ["dimension 1 (stabilized at field orders 7/8)"]),
    (["symcheck", "--field", "VERT"], 0, []),
    (["pencil"], 0, ["C = 2 * x", "D = 1"]),
    (["geodesic", "--z", "inf"], 1, [])],
    ids=["invariants", "linearizable", "symdim", "symcheck", "pencil",
         "geodesic"])
def test_the_readme_input_document_runs(write, capsys, argv, code, shown):
    path = write(_readme_block("### Input documents", "ini"))
    assert dispatch([argv[0], path, *argv[1:]]) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert set(shown) <= set(captured.out.splitlines())


def test_the_readme_transcript_runs(write, capsys):
    # "$ cat doc.ini" shows the document, each "$ projstruct ..." its output
    cat, *runs = re.split(r"^\$ ", _readme_block("### Examples", "sh"),
                          flags=re.M)[1:]
    command, _, document = cat.partition("\n")
    assert command == "cat doc.ini" and len(runs) == 3
    path = write(document)
    for run in runs:
        command, _, shown = run.partition("\n")
        program, *argv = command.split()
        assert program == "projstruct"
        assert dispatch([path if a == "doc.ini" else a for a in argv]) == 0
        assert capsys.readouterr().out == shown


def test_the_readme_library_block_runs():
    exec(_readme_block("## Library", "python"), {})


def test_document_values_may_be_quoted_or_bare(write):
    quoted = load_document(write('[structure]\nA = "x + 1"\n'))
    bare = load_document(write("[structure]\nA = x + 1\n", "bare.ini"))
    assert quoted.structure.A == bare.structure.A


# --- invariants / linearizable ---------------------------------------------------


def test_invariants_worked_example(write, capsys):
    # (A, B, C, D) = (x, 0, 0, 1) has constant invariants (-3, 0).
    code = dispatch(["invariants", write(TRIVIAL_DOC)])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out == ["L1 = -3", "L2 = 0"]


def test_linearizable_negative_names_a_witness(write, capsys):
    # the witness is the first invariant that does not vanish
    for name, doc, line in [
            ("l1.ini", TRIVIAL_DOC, "not linearizable: L1 = -3"),
            ("l2.ini", '[structure]\nD = "x^2"\n',
             "not linearizable: L2 = -6")]:
        assert dispatch(["linearizable", write(doc, name)]) == 1
        assert capsys.readouterr().out == line + "\n"


def test_linearizable_positive(write, capsys):
    # (A, B, c, 0) with constant c has vanishing invariants.
    doc = '[structure]\nA = "x"\nB = "1 - x"\nC = "5"\n'
    assert dispatch(["linearizable", write(doc)]) == 0
    assert "linearizable" in capsys.readouterr().out


@pytest.mark.parametrize("doc,code", [
    (TRIVIAL_DOC, 1), ('[structure]\nA = "x"\nB = "1 - x"\nC = "5"\n', 0)],
    ids=["negative", "positive"])
def test_linearizable_computes_one_liouville_pair(write, capsys, monkeypatch,
                                                  doc, code):
    calls, liouville = [], structures.liouville

    def counting(st):
        calls.append(st)
        return liouville(st)

    for module in (cli, structures):
        monkeypatch.setattr(module, "liouville", counting)
    assert dispatch(["linearizable", write(doc)]) == code
    assert len(calls) == 1
    capsys.readouterr()


def test_invariants_requires_a_structure_section(write, capsys):
    assert dispatch(["invariants", write(PENCIL_DOC)]) == 3
    assert "structure" in capsys.readouterr().err


# --- symcheck / symdim -----------------------------------------------------------


def test_symcheck_accepts_a_symmetry(write, capsys):
    assert dispatch(["symcheck", write(TRIVIAL_DOC), "--field", "VERT"]) == 0
    assert "symmetry" in capsys.readouterr().out


def test_symcheck_reports_the_degree_the_zero_rests_on(write, capsys):
    # the residual takes two derivatives of the field, so at working
    # order 6 its coefficients are known through degree 4 only
    doc = TRIVIAL_DOC.replace("order = 10", "order = 6")
    assert dispatch(["symcheck", write(doc), "--field", "VERT"]) == 0
    assert capsys.readouterr().out == (
        "symmetry: the determining equations vanish through degree 4"
        " (working order 6)\n")


def test_symcheck_rejects_a_non_symmetry(write, capsys):
    assert dispatch(["symcheck", write(TRIVIAL_DOC), "--field", "TILT"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("not a symmetry: p^")
    # the residual named is that of the first slope power p^k that does
    # not vanish; x^3 d_dx leaves p^0 and p^1 residuals of 0 and 6 x
    doc = '[structure]\nA = "0"\n\n[field CUBE]\na = "x^3"\nb = "0"\n'
    assert dispatch(["symcheck", write(doc, "cube.ini"),
                     "--field", "CUBE"]) == 1
    assert capsys.readouterr().out == (
        "not a symmetry: p^1 determining equation has residual 6 * x\n")


def test_symcheck_unknown_field_is_a_document_error(write, capsys):
    assert dispatch(["symcheck", write(TRIVIAL_DOC), "--field", "NOPE"]) == 3
    assert "field NOPE" in capsys.readouterr().err


def test_symdim_reports_the_stabilized_dimension(write, capsys):
    doc = "[global]\norder = 9\n\n[structure]\nA = \"x\"\nD = \"1\"\n"
    assert dispatch(["symdim", write(doc)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("dimension 1 (stabilized")


def test_symdim_trivial_structure_has_the_full_algebra(write, capsys):
    assert dispatch(["symdim", write("[structure]\n")]) == 0
    assert capsys.readouterr().out.startswith("dimension 8 ")


PI0_DOC = ("[structure]\nA = \"-y^3\"\nB = \"3*x*y^2\"\n"
           "C = \"-3*x^2*y\"\nD = \"x^3\"\n")


@pytest.mark.parametrize("order,out", [
    (3, "dimensions 8/6 at field orders 3/4 (not stabilized)"),
    (4, "dimensions 6/5 at field orders 4/5 (not stabilized)"),
    (6, "dimension 3 (stabilized at field orders 6/7)")])
def test_symdim_counts_as_far_as_the_structure_is_known(write, capsys, order,
                                                        out):
    # remark.pi0's y'' = (x y' - y)^3 has a 3-dimensional algebra; the
    # count at field orders (n, n + 1) reads the structure through degree
    # n, so a document at order m counts at n = min(7, m), never at the
    # m - 1 whose stabilized "dimension 8" at order 3 was wrong
    doc = write("[global]\norder = %d\n\n" % order + PI0_DOC)
    assert dispatch(["symdim", doc]) == 0
    assert capsys.readouterr().out == out + "\n"


def test_symdim_never_reports_eight_for_a_three_dimensional_algebra(write,
                                                                    capsys):
    for order in range(3, 13):
        assert dispatch(["symdim", write("[global]\norder = %d\n\n"
                                         % order + PI0_DOC)]) == 0
        assert "dimension 8" not in capsys.readouterr().out


def test_symdim_needs_enough_working_order(write, capsys):
    doc = "[global]\norder = 2\n\n[structure]\nA = \"x\"\n"
    assert dispatch(["symdim", write(doc)]) == 3


# --- pullback / pencil / geodesic ------------------------------------------------


def test_pullback_composes_left_to_right(write, capsys):
    code = dispatch(["pullback", write(TRIVIAL_DOC), "--scale", "2"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out == ["A = 1/2 * x", "B = 0", "C = 0", "D = 4"]


def test_pullback_x_reparametrization(write, capsys):
    doc = '[structure]\nB = "1"\n'
    code = dispatch(["pullback", write(doc), "--psi", "2*x"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[1] == "B = 2"


def test_pencil_prints_the_induced_structure(write, capsys):
    code = dispatch(["pencil", write(PENCIL_DOC)])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out == ["A = 0", "B = 0", "C = 2 * x", "D = 1"]


def test_geodesic_members_of_a_pencil(write, capsys):
    path = write(PENCIL_DOC)
    for z in ("0", "1", "-1", "1/2", "inf"):
        assert dispatch(["geodesic", path, "--z", z]) == 0
        assert "every leaf is a geodesic" in capsys.readouterr().out


def test_geodesic_against_an_unrelated_structure(write, capsys):
    doc = PENCIL_DOC + "\n[structure]\nA = \"x\"\nD = \"1\"\n"
    assert dispatch(["geodesic", write(doc), "--z", "0"]) == 1
    assert "not geodesic" in capsys.readouterr().out


def test_geodesic_rejects_a_bad_member_label(write, capsys):
    assert dispatch(["geodesic", write(PENCIL_DOC), "--z", "sideways"]) == 3


@pytest.mark.parametrize("flag,value,message", [
    ("--psi", "1+x", "reparametrization must be x-only and fix 0"),
    ("--phi", "y", "shift must be x-only and fix 0"),
    ("--scale", "0", "scale factor must be nonzero")],
    ids=["psi-moves-the-origin", "phi-depends-on-y", "zero-scale"])
def test_pullback_refuses_a_bad_transformation(write, capsys, flag, value,
                                               message):
    assert dispatch(["pullback", write(TRIVIAL_DOC), flag, value]) == 3
    assert capsys.readouterr() == ("", "error: %s\n" % message)


@pytest.mark.parametrize("command,flag", [("geodesic", "--z"),
                                          ("pullback", "--scale")])
def test_rational_flags_name_themselves(write, capsys, command, flag):
    doc = PENCIL_DOC + "\n[structure]\nA = \"x\"\n"
    assert dispatch([command, write(doc), flag, "1/0"]) == 3
    assert capsys.readouterr().err == \
        "error: %s must be a rational p/q, got '1/0'\n" % flag


# --- parameters and failure taxonomy --------------------------------------------


def test_params_bind_into_expressions(write, capsys):
    assert dispatch(["invariants", write(PARAM_DOC)]) == 0
    assert capsys.readouterr().out.splitlines() == ["L1 = -2", "L2 = 0"]


@pytest.mark.parametrize("value,shown", [
    ("1.5", "3/2"), ("-1e3", "-1000"), ('"2/3"', "2/3")])
def test_params_take_any_rational_fraction_reads(write, capsys, value, shown):
    # the value binds as the Fraction it reads, in the document's
    # expressions and in --psi alike
    doc = '[params]\nlam = %s\n\n[structure]\nA = "lam * x"\n' % value
    assert dispatch(["pullback", write(doc)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "A = %s * x" % shown
    assert dispatch(["pullback", write(doc), "--psi=x + lam*x^2"]) == 0
    assert load_document(write(doc)).params == {"lam": Fraction(shown)}


def test_unbound_parameter_is_a_math_error(write, capsys):
    assert dispatch(["invariants", write('[structure]\nA = "t * x"\n')]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_malformed_expression_reports_offset(write, capsys):
    assert dispatch(["invariants", write('[structure]\nA = "x +"\n')]) == 3
    assert "offset" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["(" * 300 + "x" + ")" * 300,
                                  "-" * 1200 + "x"],
                         ids=["parentheses", "unary-minus"])
def test_deeply_nested_expression_is_a_parse_error(write, capsys, text):
    assert dispatch(["invariants",
                     write('[structure]\nA = "%s"\n' % text)]) == 3
    assert "nested too deeply" in capsys.readouterr().err


def test_a_long_flat_sum_or_product_is_not_nesting(write, capsys):
    doc = '[structure]\nA = "%s"\nC = "%s"\nD = "1"\n' % (
        "+".join(["x"] * 10 ** 4), "*".join(["x"] * 10 ** 4))
    assert dispatch(["invariants", write(doc)]) == 0
    assert capsys.readouterr().out.splitlines() == ["L1 = -30000", "L2 = 0"]


def test_missing_file_is_a_parse_error(tmp_path, capsys):
    assert dispatch(["invariants", str(tmp_path / "absent.ini")]) == 3


def test_usage_errors_exit_2(write, capsys):
    assert dispatch(["frobnicate"]) == 2
    assert dispatch(["symcheck", write(TRIVIAL_DOC)]) == 2  # missing --field
    assert dispatch([]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("order,message", [
    ("0", "at least 2, got 0"), ("1", "at least 2, got 1"),
    ("abc", "not an integer: 'abc'")], ids=["0", "1", "abc"])
def test_verify_paper_rejects_orders_below_two(order, message, capsys):
    assert dispatch(["verify-paper", "--order", order]) == 2
    assert message in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert dispatch(["--help"]) == 0
    assert "verify-paper" in capsys.readouterr().out


# --- verify-paper ----------------------------------------------------------------


def test_verify_paper_unknown_case_is_a_usage_error(capsys):
    assert dispatch(["verify-paper", "--case", "thm99"]) == 2
    assert "unknown case" in capsys.readouterr().err


def test_verify_paper_single_case_text_mode(capsys):
    assert dispatch(["verify-paper", "--case", "thm31.iii", "--order", "8"]) == 0
    out = capsys.readouterr().out
    assert "thm31.iii" in out
    assert out.rstrip().splitlines()[-1].startswith("reports: 1 ")


def test_verify_paper_json_is_byte_identical_across_runs(capsys):
    argv = ["verify-paper", "--case", "thm41.i.a.1", "--order", "8", "--json"]
    assert dispatch(argv) == 0
    first = capsys.readouterr().out
    assert dispatch(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert [obj["case"] for obj in payload] == ["thm41.i.a.1"] * 3


def test_verify_paper_timestamps_wrap_the_payload(capsys):
    argv = ["verify-paper", "--case", "thm31.iii", "--order", "8",
            "--json", "--timestamps"]
    assert dispatch(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"generated_at", "cases"}


def test_verify_paper_inconsistent_findings_still_exit_zero(capsys):
    assert dispatch(["verify-paper", "--case", "thm31.i.b", "--order", "8"]) == 0
    assert "paper-inconsistent" in capsys.readouterr().out


# --- one parser per process ------------------------------------------------------


def _dispatch_sequence(path, capsys, before_each=lambda: None):
    """Exit code, stdout and stderr of every call in a fixed mix of
    subcommands, usage errors and ``--help``."""
    runs = []
    for argv in (["invariants", path],
                 ["frobnicate"],
                 ["symcheck", path, "--field", "VERT"],
                 ["symcheck", path],
                 ["geodesic", path, "--z", "inf"],
                 ["verify-paper", "--order", "1"],
                 ["pullback", path, "--scale", "2"],
                 ["linearizable", path],
                 ["geodesic", path, "--z", "1/0"],
                 ["symdim", path],
                 ["--help"],
                 ["verify-paper", "--case", "thm31.iii", "--order", "4"]):
        before_each()
        code = dispatch(argv)
        runs.append((argv, code) + tuple(capsys.readouterr()))
    return runs


def test_reused_parser_matches_fresh_parsers(write, capsys):
    path = write(PENCIL_DOC + '\n[structure]\nA = "x"\nD = "1"\n\n'
                 '[field VERT]\na = "0"\nb = "1"\n')
    cli._build_parser.cache_clear()
    reused = _dispatch_sequence(path, capsys)
    fresh = _dispatch_sequence(path, capsys, cli._build_parser.cache_clear)
    assert reused == fresh
    assert [run[1] for run in reused] == [0, 2, 0, 2, 1, 2, 0, 1, 3, 0, 0, 0]
    assert all(run[3] for run in reused if run[1] in (2, 3))


def test_the_parser_is_built_once_and_not_at_import(write, capsys):
    cli._build_parser.cache_clear()
    for _ in range(3):
        assert dispatch(["invariants", write(TRIVIAL_DOC)]) == 0
        assert dispatch(["frobnicate"]) == 2
    assert cli._build_parser.cache_info().misses == 1
    capsys.readouterr()
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = ("import projstruct.cli as cli; "
             "print(cli._build_parser.cache_info().misses)")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out == "0\n"


def test_reading_a_document_does_not_import_configparser(write):
    """Nor the modules a cold start need not pay for: ``dataclasses`` (and
    the ``inspect`` it pulls in), ``datetime``, which only
    ``verify-paper --timestamps`` reads, and the registry, its reports,
    the dual numbers and ``json``, which only ``verify-paper`` reads.  A
    site ``.pth`` may load some of them at startup, so the probe counts
    only what the import and each command add."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    doc, pencil = write(TRIVIAL_DOC), write(PENCIL_DOC, "pencil.ini")
    commands = [["invariants", doc], ["linearizable", doc],
                ["symcheck", doc, "--field", "VERT"], ["symdim", doc],
                ["pullback", doc, "--psi", "x + x^2"], ["pencil", pencil],
                ["geodesic", pencil, "--z", "0"],
                ["verify-paper", "--case", "sec3.aff"]]
    probe = ("import sys; before = set(sys.modules); "
             "import projstruct.cli as cli\n"
             "for argv in %r:\n"
             "    code = cli.dispatch(argv)\n"
             "    added = set(sys.modules) - before\n"
             "    print([argv[0], code, sorted(added & {'configparser', "
             "'dataclasses', 'inspect', 'datetime', 'json', "
             "'projstruct.cases', 'projstruct.reports', "
             "'projstruct.duals'})], file=sys.stderr)" % commands)
    err = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src)).stderr
    *documents, verify = map(ast.literal_eval, err.splitlines())
    assert documents == [["invariants", 0, []], ["linearizable", 1, []],
                         ["symcheck", 0, []], ["symdim", 0, []],
                         ["pullback", 0, []], ["pencil", 0, []],
                         ["geodesic", 0, []]]
    assert verify[:2] == ["verify-paper", 0]
    assert {"projstruct.cases", "projstruct.reports"} <= set(verify[2])


def test_main_exits_with_the_dispatch_code(write):
    src = os.path.dirname(os.path.dirname(cli.__file__))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "projstruct.cli", *argv],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))

    valid = run("invariants", write(TRIVIAL_DOC))
    assert (valid.returncode, valid.stdout) == (0, "L1 = -3\nL2 = 0\n")
    unknown = run("frobnicate")
    assert unknown.returncode == 2
    assert "invalid choice: 'frobnicate'" in unknown.stderr
