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

Sections other than ``[global]`` are optional (each subcommand states
what it needs); missing ``[structure]`` keys default to ``"0"``.
Expression values may be double-quoted; ``[params]`` values are
rationals ``p/q``.  Exit codes: 0 success / property holds, 1 property
fails, 2 usage error, 3 parse or math error.
"""

import argparse
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from functools import cache

import configparser

from .cases import run_all, run_case
from .errors import ProjstructError, UnknownCase
from .expressions import expand
from .fields import VectorField, residual, symmetry_dim
from .jets import DEFAULT_ORDER, format_jet
from .pencils import INF, Foliation, Pencil, is_geodesic, member, \
    structure_from_pencil
from .reports import FAIL, render_json, render_text
from .structures import (ProjectiveStructure, apply_x_reparam, apply_y_shift,
                         apply_y_scale, liouville)


class DocumentError(ProjstructError):
    """An input document or flag is missing a section/key or holds a bad value."""


@dataclass(frozen=True)
class InputDocument:
    """One parsed input file; jets are expanded at ``order``."""

    order: int
    structure: object          # ProjectiveStructure or None
    fields: dict               # name -> VectorField
    pencil: object             # Pencil or None
    params: dict               # name -> rational text


def _rational(text, name):
    """``text`` as a Fraction; a bad value is a DocumentError naming ``name``."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DocumentError("%s must be a rational p/q, got %r"
                            % (name, text)) from None


def _unquote(text):
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] == '"':
        return text[1:-1]
    return text


def load_document(path):
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise DocumentError("cannot read %s: %s" % (path, exc.strerror))
    except configparser.Error as exc:
        raise DocumentError("bad document %s: %s" % (path, exc))

    order = DEFAULT_ORDER
    if parser.has_section("global") and parser.has_option("global", "order"):
        text = parser.get("global", "order")
        try:
            order = int(text)
        except ValueError:
            raise DocumentError("order must be an integer, got %r" % text)
        if order < 2:
            raise DocumentError("order must be at least 2, got %d" % order)

    params = {}
    if parser.has_section("params"):
        for key, value in parser.items("params"):
            value = _unquote(value)
            _rational(value, "[params] " + key)
            params[key] = value

    env = dict(params)

    def jet(section, key, default=None):
        if parser.has_option(section, key):
            return expand(_unquote(parser.get(section, key)), env, order)
        if default is None:
            raise DocumentError("[%s] is missing the key %s" % (section, key))
        return expand(default, env, order)

    structure = None
    if parser.has_section("structure"):
        structure = ProjectiveStructure(*(jet("structure", k, "0")
                                          for k in "ABCD"))

    fields = {}
    for section in parser.sections():
        if section.startswith("field "):
            name = section[len("field "):].strip()
            if not name:
                raise DocumentError("field section needs a name: [field NAME]")
            fields[name] = VectorField(jet(section, "a"), jet(section, "b"))

    pencil = None
    if parser.has_section("pencil"):
        pencil = Pencil(Foliation(jet("pencil", "P0"), jet("pencil", "Q0")),
                        Foliation(jet("pencil", "Pinf"),
                                  jet("pencil", "Qinf")))

    return InputDocument(order, structure, fields, pencil, params)


def _require(doc, attr, section):
    value = getattr(doc, attr)
    if value is None:
        raise DocumentError("this command needs a [%s] section" % section)
    return value


def _print_structure(st):
    for label, jet in zip("ABCD", st):
        print("%s = %s" % (label, format_jet(jet)))


# --- subcommand handlers -----------------------------------------------------

def _cmd_invariants(args):
    pair = liouville(_require(load_document(args.file), "structure",
                              "structure"))
    print("L1 = %s" % format_jet(pair.L1))
    print("L2 = %s" % format_jet(pair.L2))
    return 0


def _cmd_linearizable(args):
    pair = liouville(_require(load_document(args.file), "structure",
                              "structure"))
    if pair.is_zero():
        print("linearizable: both Liouville invariants vanish")
        return 0
    witness = "L1" if not pair.L1.is_zero() else "L2"
    print("not linearizable: %s = %s" % (witness,
                                         format_jet(getattr(pair, witness))))
    return 1


def _cmd_symcheck(args):
    doc = load_document(args.file)
    st = _require(doc, "structure", "structure")
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
    st = _require(doc, "structure", "structure")
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
    st = _require(doc, "structure", "structure")
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
    pen = _require(load_document(args.file), "pencil", "pencil")
    _print_structure(structure_from_pencil(pen))
    return 0


def _cmd_geodesic(args):
    doc = load_document(args.file)
    pen = _require(doc, "pencil", "pencil")
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
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _cmd_verify(args):
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
