"""Command-line front end.

Input files are INI documents::

    [global]
    order = 12

    [params]
    gamma = 1/2

    [structure]
    A = "gamma * exp(x)"
    B = "0"
    C = "0"
    D = "exp(-2*x)"

    [field VERT]
    a = "0"
    b = "1"

    [pencil]
    P0 = "1"
    Q0 = "x^2"
    Pinf = "0"
    Qinf = "1"

``_read_ini`` reads them in one pass, in the dialect of ``configparser``'s
defaults (see its docstring); a ``;`` after a value is part of the value,
not a comment.  Sections other than ``[global]`` are optional
(each subcommand states what it needs); missing ``[structure]`` keys
default to ``"0"``.
Expression values may be double-quoted; a ``[params]`` key is an
identifier, and its value any exact rational that ``Fraction`` reads
(``2/3``, ``1.5``, ``-1e3``).  Exit codes: 0 success / property holds,
1 property fails, 2 usage error, 3 parse or math error.
"""

import argparse
import re
import sys
from fractions import Fraction
from functools import cache

from .errors import ExprSyntaxError, ProjstructError, UnknownCase
from .expressions import COORDS, FUNCTIONS, Param, expand, parse
from .fields import VectorField, residual, symmetry_dim
from .jets import DEFAULT_ORDER, format_jet
from .pencils import INF, Foliation, Pencil, is_geodesic, member, \
    structure_from_pencil
from .records import Record
from .structures import (ProjectiveStructure, apply_x_reparam, apply_y_shift,
                         apply_y_scale, liouville)


class DocumentError(ProjstructError):
    """An input document or flag is missing a section/key or holds a bad value."""


_HEADER = re.compile(r"\[(?P<header>.+)\]")     # configparser's SECTCRE
_OPTION = re.compile(r"(.*?)\s*[=:]\s*(.*)")     # ... and its OPTCRE


class InputDocument(Record):
    """One parsed input file; jets are expanded at ``order``."""

    order: int
    structure: object          # ProjectiveStructure or None
    fields: dict               # name -> VectorField
    pencil: object             # Pencil or None
    params: dict               # name -> Fraction, as Fraction() read it


def _rational(text, name):
    """``text`` as a Fraction; a bad value is a DocumentError naming ``name``."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DocumentError("%s must be a rational p/q, got %r"
                            % (name, text)) from None


def _is_identifier(key):
    """Does the expression grammar read ``key`` as one parameter name?"""
    try:
        return parse(key) == Param(key)
    except ExprSyntaxError:
        return False


def _unquote(text):
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] == '"':
        return text[1:-1]
    return text


def _read_ini(lines):
    """``{section: {key: value}}`` of an INI document's lines.

    The dialect is configparser's default, without interpolation and with
    case kept: ``[name]`` headers, ``key = value`` or ``key: value`` lines,
    full-line ``#`` and ``;`` comments (a ``;`` after a value is part of
    it), and continuation lines indented deeper than their key, blank
    lines inside a value included.  ``[DEFAULT]`` keys are merged into
    every section, whose own keys win.  A repeated section or key, a line
    without a delimiter or key, and text before the first header are
    DocumentErrors naming the line.
    """
    sections, defaults = {}, {}
    current = key = None
    indent = 0
    for number, line in enumerate(lines, 1):
        text = line.strip()
        if not text or text[0] in "#;":
            if not text and key:
                current[key].append("")
            continue
        depth = len(line) - len(line.lstrip())
        if key and depth > indent:
            current[key].append(text)
            continue
        indent, key = depth, None
        match = _HEADER.match(text)
        if match:
            name = match["header"]
            if name == "DEFAULT":
                current = defaults
            elif name in sections:
                raise DocumentError("line %d: section [%s] repeats"
                                    % (number, name))
            else:
                current = sections[name] = {}
        elif current is None:
            raise DocumentError("File contains no section headers "
                                "(line %d: %r)" % (number, text))
        else:
            match = _OPTION.match(text)
            if match is None or not match[1]:
                raise DocumentError("line %d: expected key = value, got %r"
                                    % (number, text))
            key = match[1]
            if key in current:
                raise DocumentError("line %d: key %s repeats" % (number, key))
            current[key] = [match[2]]
    defaults = {k: "\n".join(v).rstrip() for k, v in defaults.items()}
    return {name: {**defaults,
                   **{k: "\n".join(v).rstrip() for k, v in keys.items()}}
            for name, keys in sections.items()}


def load_document(path):
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            sections = _read_ini(handle)
    except OSError as exc:
        raise DocumentError("cannot read %s: %s" % (path, exc.strerror))
    except UnicodeDecodeError as exc:
        raise DocumentError("bad document %s: not UTF-8 text (%s)"
                            % (path, exc.reason)) from None
    except DocumentError as exc:
        raise DocumentError("bad document %s: %s" % (path, exc)) from None

    order = DEFAULT_ORDER
    text = sections.get("global", {}).get("order")
    if text is not None:
        try:
            order = int(text)
        except ValueError:
            raise DocumentError("order must be an integer, got %r" % text)
        if order < 2:
            raise DocumentError("order must be at least 2, got %d" % order)

    params = {}
    if "params" in sections:
        for key, value in sections["params"].items():
            if key in COORDS + FUNCTIONS:
                raise DocumentError("[params] %s names a coordinate or a "
                                    "built-in function" % key)
            if not _is_identifier(key):
                raise DocumentError("[params] %s is not an identifier that "
                                    "an expression can name" % key)
            params[key] = _rational(_unquote(value), "[params] " + key)

    env = dict(params)

    def jet(section, key, default=None):
        text = sections[section].get(key)
        if text is not None:
            return expand(_unquote(text), env, order)
        if default is None:
            raise DocumentError("[%s] is missing the key %s" % (section, key))
        return expand(default, env, order)

    structure = None
    if "structure" in sections:
        structure = ProjectiveStructure(*(jet("structure", k, "0")
                                          for k in "ABCD"))

    fields = {}
    for section in sections:
        kind, _, name = section.partition(" ")
        if kind == "field":
            name = name.strip()
            if not name:
                raise DocumentError("field section needs a name: [field NAME]")
            fields[name] = VectorField(jet(section, "a"), jet(section, "b"))

    pencil = None
    if "pencil" in sections:
        pencil = Pencil(Foliation(jet("pencil", "P0"), jet("pencil", "Q0")),
                        Foliation(jet("pencil", "Pinf"),
                                  jet("pencil", "Qinf")))

    return InputDocument(order, structure, fields, pencil, params)


def _require(doc, section):
    value = getattr(doc, section)
    if value is None:
        raise DocumentError("this command needs a [%s] section" % section)
    return value


def _print_structure(st):
    for label, jet in zip("ABCD", st):
        print("%s = %s" % (label, format_jet(jet)))


# --- subcommand handlers -----------------------------------------------------

def _cmd_invariants(args):
    pair = liouville(_require(load_document(args.file), "structure"))
    print("L1 = %s" % format_jet(pair.L1))
    print("L2 = %s" % format_jet(pair.L2))
    return 0


def _cmd_linearizable(args):
    pair = liouville(_require(load_document(args.file), "structure"))
    if pair.is_zero():
        print("linearizable: both Liouville invariants vanish")
        return 0
    witness = "L1" if not pair.L1.is_zero() else "L2"
    print("not linearizable: %s = %s" % (witness,
                                         format_jet(getattr(pair, witness))))
    return 1


def _cmd_symcheck(args):
    doc = load_document(args.file)
    st = _require(doc, "structure")
    field = doc.fields.get(args.field)
    if field is None:
        raise DocumentError("no [field %s] section in %s"
                            % (args.field, args.file))
    res = residual(field, st)
    if res.is_zero():
        # report the degree the zero rests on, not just the working order
        print("symmetry: the determining equations vanish through degree %d"
              " (working order %d)"
              % (min(c.eff for c in res.coeffs), doc.order))
        return 0
    k = next(k for k in range(res.degree + 1) if not res.coeff(k).is_zero())
    print("not a symmetry: p^%d determining equation has residual %s"
          % (k, format_jet(res.coeff(k))))
    return 1


def _cmd_symdim(args):
    doc = load_document(args.file)
    st = _require(doc, "structure")
    # the count solves at field orders (n, n+1), which needs structure
    # jets of order n+1; drop n below the default 7 for short documents
    n = min(7, doc.order - 1)
    if n < 2:
        raise DocumentError("symdim needs a [global] order of at least 3, "
                            "got %d" % doc.order)
    dims = symmetry_dim(st, order=n)
    if dims.stabilized:
        print("dimension %d (stabilized at field orders %d/%d)"
              % (dims.value, dims.low_order, dims.high_order))
    else:
        print("dimensions %d/%d at field orders %d/%d (not stabilized)"
              % (dims.dim_low, dims.dim_high, dims.low_order,
                 dims.high_order))
    return 0


def _cmd_pullback(args):
    doc = load_document(args.file)
    st = _require(doc, "structure")
    if args.psi is not None:
        st = apply_x_reparam(st, expand(_unquote(args.psi), doc.params,
                                        doc.order))
    if args.phi is not None:
        st = apply_y_shift(st, expand(_unquote(args.phi), doc.params,
                                      doc.order))
    if args.scale is not None:
        st = apply_y_scale(st, _rational(args.scale, "--scale"))
    _print_structure(st)
    return 0


def _cmd_pencil(args):
    pen = _require(load_document(args.file), "pencil")
    _print_structure(structure_from_pencil(pen))
    return 0


def _cmd_geodesic(args):
    doc = load_document(args.file)
    pen = _require(doc, "pencil")
    text = args.z.strip().lower()
    z = INF if text in ("inf", "infinity") else _rational(args.z, "--z")
    st = doc.structure
    if st is None:
        st = structure_from_pencil(pen)
    if is_geodesic(member(pen, z), st):
        print("member z = %s: every leaf is a geodesic" % z)
        return 0
    print("member z = %s: not geodesic" % z)
    return 1


def _working_order(text):
    """argparse type of ``--order``: an integer of at least 2."""
    try:
        order = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not an integer: %r" % text)
    if order < 2:
        raise argparse.ArgumentTypeError(
            "the working order must be at least 2, got %d" % order)
    return order


def _utc_stamp():
    # imported here: only ``verify-paper --timestamps`` reads the clock
    from datetime import datetime, timezone
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _cmd_verify(args):
    # imported here: only ``verify-paper`` reads the registry and its reports
    from .cases import run_all, run_case
    from .reports import FAIL, render_json, render_text
    if args.case is not None:
        reports = run_case(args.case, None, args.order)
    else:
        reports = run_all(args.order)
    stamp = _utc_stamp() if args.timestamps else None
    text = render_json(reports, stamp) if args.json else \
        render_text(reports, stamp)
    sys.stdout.write(text)
    return 1 if any(r.verdict == FAIL for r in reports) else 0


# --- parser and dispatch ------------------------------------------------------

@cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="projstruct",
        description="Exact analysis of planar projective structure germs: "
                    "invariants, symmetries, pencils and the verification "
                    "catalog.")
    sub = parser.add_subparsers(dest="command", required=True)

    def file_command(name, help_text, handler):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("file", help="input document (INI)")
        cmd.set_defaults(handler=handler)
        return cmd

    file_command("invariants",
                 "print the Liouville invariant pair (L1, L2)",
                 _cmd_invariants)
    file_command("linearizable",
                 "exit 0 iff both Liouville invariants vanish",
                 _cmd_linearizable)
    cmd = file_command("symcheck",
                       "check that a named field is an infinitesimal symmetry",
                       _cmd_symcheck)
    cmd.add_argument("--field", required=True,
                     help="name of a [field NAME] section")
    file_command("symdim",
                 "stabilized symmetry-algebra dimension of the structure",
                 _cmd_symdim)
    cmd = file_command("pullback",
                       "transform the structure by an x-reparametrization, "
                       "a y-shift and/or a y-scaling (applied in that order)",
                       _cmd_pullback)
    cmd.add_argument("--psi", help="x-reparametrization, e.g. \"x + x^2\"")
    cmd.add_argument("--phi", help="y-shift by a function of x")
    cmd.add_argument("--scale", help="y-scaling factor, a nonzero rational")
    file_command("pencil",
                 "print the structure induced by the [pencil] section",
                 _cmd_pencil)
    cmd = file_command("geodesic",
                       "check that pencil member z is geodesic for the "
                       "structure (the induced one when [structure] is absent)",
                       _cmd_geodesic)
    cmd.add_argument("--z", required=True, help="rational p/q, or inf")

    cmd = sub.add_parser("verify-paper",
                         help="run the verification catalog")
    cmd.add_argument("--case", help="one case id (default: all cases)")
    cmd.add_argument("--order", type=_working_order, default=DEFAULT_ORDER,
                     help="working jet order (default %(default)s)")
    cmd.add_argument("--json", action="store_true",
                     help="machine-readable output")
    cmd.add_argument("--timestamps", action="store_true",
                     help="include a generation timestamp (off by default "
                          "so identical runs are byte-identical)")
    cmd.set_defaults(handler=_cmd_verify)
    return parser


def dispatch(argv):
    """Run one invocation; returns the process exit code.

    The argparse tree is built on the first call and reused after that
    (``parse_args`` returns a fresh namespace and reads ``sys.stdout`` and
    ``sys.stderr`` only when it prints).  The ``_cmd_*`` handlers are bound
    when the tree is built, so patching one later has no effect until
    ``_build_parser.cache_clear()``.
    """
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except UnknownCase as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ProjstructError, ValueError, ZeroDivisionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3


def main(argv=None):
    sys.exit(dispatch(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main()
