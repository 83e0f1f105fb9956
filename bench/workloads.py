"""Inputs and correctness gates of the benchmark's three workloads.

Every input is generated from the workload seed (and a round index), so
one seed always gives the same inputs; the program only ever sees the
generated inputs.  An op is one timed call into projstruct's public API.
Each op carries a gate, checked after the timed call, that decides from
an answer known by construction whether the op's output is correct.

``registry``
    One op is one report: ``run_case`` on one catalogue sample at order
    12.  The seed only permutes the run order; the gates are the pinned
    sha256 of each report's JSON, and per pass the sha256 of the whole
    ``render_json`` output in canonical order plus the verdict tally.
``documents``
    One op is one ``projstruct.cli.dispatch`` call on a generated INI
    document at order 12, stdout captured.  Gates: exit codes and printed
    jets with closed-form answers.
``deep-jets``
    One op is one library call on dense seeded germs at orders 16 and 20.
    Gates: exact identities (functoriality of pullback, vanishing
    invariants of a pulled-back flat structure, geodesic residuals,
    ``u * u.inverse() == 1``, ...).
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
REGISTRY_ORDER = 12
DOCUMENT_ORDER = 12
DEEP_ORDERS = (16, 20)
WARMUP_ORDER = 8


class Op:
    """A timed call plus the gate that checks its result."""

    __slots__ = ("kind", "call", "gate")

    def __init__(self, kind, call, gate):
        self.kind = kind
        self.call = call      # () -> result; the only part that is timed
        self.gate = gate      # result -> bool


def rng_for(seed, *stream):
    """A generator fixed by the seed and a stream label (str seeds hash stably)."""
    return random.Random(":".join(str(part) for part in (seed,) + stream))


# --- registry --------------------------------------------------------------------


def load_expected(path=None):
    with open(path or os.path.join(HERE, "registry_expected.json")) as handle:
        return json.load(handle)


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def registry_samples(ps):
    """(case id, sample index, params) in canonical (``run_all``) order."""
    return [(cid, k, dict(sample)) for cid in sorted(ps.CASES)
            for k, sample in enumerate(ps.CASES[cid].samples)]


class RegistryPass:
    """One cache-cold pass over the catalogue, in seeded order."""

    def __init__(self, ps, seed, expected):
        self.ps = ps
        self.expected = expected
        self.samples = registry_samples(ps)
        self.order = list(range(len(self.samples)))
        rng_for(seed, "registry").shuffle(self.order)
        self.reports = {}

    def ops(self):
        for position in self.order:
            cid, k, params = self.samples[position]
            yield Op("case:" + cid, self._runner(position, cid, params),
                     self._gate(position, cid, k))

    def _runner(self, position, cid, params):
        def call():
            report = self.ps.run_case(cid, params, REGISTRY_ORDER)[0]
            self.reports[position] = report
            return report
        return call

    def _gate(self, position, cid, k):
        want = self.expected["reports"]["%s#%d" % (cid, k)]

        def gate(report):
            return sha256(self.ps.render_json([report])) == want
        return gate

    def complete(self):
        """Did every op of the pass return a report?"""
        return len(self.reports) == len(self.samples)

    def render(self):
        """The whole report in canonical order (what ``verify-paper --json`` prints)."""
        return self.ps.render_json([self.reports[i]
                                    for i in range(len(self.samples))])

    def pass_errors(self, text):
        """Gate on a whole pass: digest and verdict tally."""
        errors = []
        if sha256(text) != self.expected["digest"]:
            errors.append("registry digest differs from the pinned sha256")
        tally = {}
        for report in json.loads(text):
            for check in report["checks"]:
                tally[check["verdict"]] = tally.get(check["verdict"], 0) + 1
        want = {k: v for k, v in self.expected["tally"].items() if v}
        if tally != want:
            errors.append("verdict tally %s, expected %s" % (tally, want))
        return errors


# --- exact series used as oracles ----------------------------------------------------


def rq(rng, top=3, den=4, nonzero=True):
    """A small random rational."""
    while True:
        value = Fraction(rng.randint(-top, top), rng.randint(1, den))
        if value or not nonzero:
            return value


def qtext(q):
    return "(%s)" % q


class XSeries:
    """c0 + c1 x + ... + cd x^d + e * exp(k x), known exactly as text and series."""

    def __init__(self, poly, e=Fraction(0), k=Fraction(0)):
        self.poly = list(poly)
        self.e = e
        self.k = k

    @classmethod
    def random(cls, rng, degree, with_exp):
        """Random coefficients, the linear one nonzero (so A' != 0)."""
        poly = [rq(rng, nonzero=False) for _ in range(degree + 1)]
        if not poly[1]:
            poly[1] = rq(rng)
        if with_exp:
            return cls(poly, rq(rng), rq(rng))
        return cls(poly)

    def text(self):
        terms = [qtext(c) + ("*x^%d" % i if i else "")
                 for i, c in enumerate(self.poly) if c]
        if self.e:
            terms.append("%s*exp(%s*x)" % (qtext(self.e), qtext(self.k)))
        return " + ".join(terms) or "0"

    def coeffs(self, top):
        """{(i, 0): c} through degree ``top``."""
        out = {}
        for i in range(top + 1):
            c = self.poly[i] if i < len(self.poly) else Fraction(0)
            if self.e:
                c += self.e * self.k ** i / math.factorial(i)
            if c:
                out[(i, 0)] = c
        return out

    def derivative(self, top):
        full = self.coeffs(top + 1)
        return {(i - 1, 0): i * c for (i, _), c in full.items() if i >= 1}


def parse_jet_text(text):
    """Inverse of ``format_jet``: '1 + -3/2 * x^2 y' -> {(2, 1): -3/2, ...}."""
    out = {}
    if text.strip() == "0":
        return out
    for term in text.strip().split(" + "):
        coeff, _, mono = term.partition(" * ")
        i = j = 0
        for part in mono.split():
            var, _, power = part.partition("^")
            if var == "x":
                i = int(power or 1)
            else:
                j = int(power or 1)
        out[(i, j)] = Fraction(coeff)
    return out


def agree_through(got, want, degree):
    """Equal coefficient dicts on every monomial of total degree <= degree."""
    keys = {k for k in list(got) + list(want) if sum(k) <= degree}
    return all(got.get(k, 0) == want.get(k, 0) for k in keys)


def scaled(series, factor):
    return {k: c * factor for k, c in series.items()}


# --- documents -------------------------------------------------------------------------


def _ini(structure=None, fields=None, pencil=None, params=None):
    lines = ["[global]", "order = %d" % DOCUMENT_ORDER, ""]
    if params:
        lines.append("[params]")
        lines += ["%s = %s" % item for item in params.items()]
        lines.append("")
    if structure is not None:
        lines.append("[structure]")
        lines += ['%s = "%s"' % (k, v) for k, v in zip("ABCD", structure)]
        lines.append("")
    for name, (a, b) in (fields or {}).items():
        lines += ["[field %s]" % name, 'a = "%s"' % a, 'b = "%s"' % b, ""]
    if pencil is not None:
        lines.append("[pencil]")
        lines += ['%s = "%s"' % (k, v)
                  for k, v in zip(("P0", "Q0", "Pinf", "Qinf"), pencil)]
        lines.append("")
    return "\n".join(lines)


class Document:
    """One generated input document, the argv to run it, and its answer."""

    def __init__(self, name, text, argv, exit_code, check=None, exprs=()):
        self.name = name
        self.text = text
        self.argv = argv          # subcommand and options; file appended
        self.exit_code = exit_code
        self.check = check        # stdout -> bool, or None
        self.exprs = exprs        # expression texts the document holds


def _lines(stdout):
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value
    return out


def _structure_check(want, degree):
    """stdout prints A..D; each must equal ``want`` through ``degree``."""
    def check(stdout):
        printed = _lines(stdout)
        return all(agree_through(parse_jet_text(printed[k]), w, degree)
                   for k, w in zip("ABCD", want))
    return check


def _doc_invariants(rng, n):
    a = XSeries.random(rng, 3, rng.random() < 0.5)
    b = XSeries.random(rng, 2, rng.random() < 0.5)
    structure = (a.text(), b.text(), "0", "1")
    window = n - 2   # liouville takes second derivatives

    def check(stdout):
        printed = _lines(stdout)
        return (agree_through(parse_jet_text(printed["L1"]),
                              scaled(a.derivative(n), -3), window)
                and agree_through(parse_jet_text(printed["L2"]),
                                  scaled(b.derivative(n), -3), window))
    return Document("invariants", _ini(structure), ["invariants"], 0, check,
                    structure)


def _doc_linearizable(rng, n, variant):
    if variant == "constant":        # every constant-coefficient structure is flat
        structure = tuple(qtext(rq(rng, nonzero=False)) for _ in range(4))
        return Document("linearizable", _ini(structure), ["linearizable"], 0,
                        None, structure)
    if variant == "normal":          # (A(x), B(x), 0, 1) with A' != 0: L1 = -3 A'
        a = XSeries.random(rng, 3, rng.random() < 0.5)
        structure = (a.text(), XSeries.random(rng, 2, False).text(), "0", "1")
        return Document("linearizable", _ini(structure), ["linearizable"], 1,
                        None, structure)
    # y'' = lam (x y' - y)^3: not linearizable at order >= 3
    structure = ("-lam*y^3", "3*lam*x*y^2", "-3*lam*x^2*y", "lam*x^3")
    return Document("linearizable",
                    _ini(structure, params={"lam": str(rq(rng, 99, 99))}),
                    ["linearizable"], 1, None, structure)


def _doc_symcheck(rng, n, field):
    a = XSeries.random(rng, 3, rng.random() < 0.5)
    b = XSeries.random(rng, 2, rng.random() < 0.5)
    structure = (a.text(), b.text(), "0", "1")
    fields = {"VERT": ("0", "1"), "HOR": ("1", "0")}
    # d/dy preserves every (A(x), B(x), 0, 1); d/dx does not once A' != 0
    return Document("symcheck", _ini(structure, fields),
                    ["symcheck", "--field=" + field],
                    0 if field == "VERT" else 1, None,
                    structure + ("0", "1", "1", "0"))


def _doc_pullback(rng, n, variant, ps):
    if variant == "scale":
        # (x, y) -> (x, s y) sends (A(x), B(x), 0, 1) to (A/s, B, 0, s^2)
        a = XSeries.random(rng, 3, rng.random() < 0.5)
        b = XSeries.random(rng, 2, rng.random() < 0.5)
        s = rq(rng)
        structure = (a.text(), b.text(), "0", "1")
        want = (scaled(a.coeffs(n), 1 / s), b.coeffs(n), {}, {(0, 0): s * s})
        return Document("pullback", _ini(structure),
                        ["pullback", "--scale=%s" % s], 0,
                        _structure_check(want, n - 2), structure)
    # pulling back a flat (constant-coefficient) structure keeps it flat
    structure = tuple(qtext(rq(rng, nonzero=False)) for _ in range(4))
    psi = "x + %s*x^2 + %s*x^3" % (qtext(rq(rng)), qtext(rq(rng)))
    phi = "%s*x^2 + %s*x^3" % (qtext(rq(rng)), qtext(rq(rng)))
    window = n - 2   # the laws differentiate psi and phi twice

    def check(stdout):
        printed = _lines(stdout)
        jets = [ps.Jet2(parse_jet_text(printed[k]), n, window) for k in "ABCD"]
        return ps.liouville(ps.ProjectiveStructure(*jets)).is_zero()
    return Document("pullback", _ini(structure),
                    ["pullback", "--psi=" + psi, "--phi=" + phi], 0, check,
                    structure + (psi, phi))


def _doc_pencil(rng, n, variant):
    g = XSeries.random(rng, 3, rng.random() < 0.5)
    gp = g.derivative(n)
    if variant == "dx+g dy":         # dx + g dy, dy  ->  (0, 0, g', 0)
        pencil = ("1", g.text(), "0", "1")
        want = ({}, {}, gp, {})
    elif variant == "-(dx+(g+y)dy)":  # -(dx + (g + y) dy), dy  ->  (0, 0, g', 1)
        pencil = ("-1", "-(%s) - y" % g.text(), "0", "1")
        want = ({}, {}, gp, {(0, 0): Fraction(1)})
    else:                            # e^y (dx + g dy), dy  ->  (0, 0, 1 + g', g)
        pencil = ("exp(y)", "exp(y)*(%s)" % g.text(), "0", "1")
        c = dict(gp)
        c[(0, 0)] = c.get((0, 0), 0) + 1
        want = ({}, {}, c, g.coeffs(n))
    return Document("pencil", _ini(pencil=pencil), ["pencil"], 0,
                    _structure_check(want, n - 2), pencil)


def _doc_geodesic(rng, n, variant):
    z = "inf" if variant.endswith("inf") else str(rq(rng))
    if variant.startswith("induced"):
        # every member is geodesic for the structure its pencil induces
        pencil = ("1 + %s" % _low_poly(rng), _low_poly(rng),
                  _low_poly(rng), "1 + %s" % _low_poly(rng))
        return Document("geodesic", _ini(pencil=pencil),
                        ["geodesic", "--z=" + z], 0, None, pencil)
    # against y'' = 0, member z of dx + g dy, dy has leaves y' = -1/(g + z):
    # straight lines only for z = inf (the leaves y = const), as g' != 0
    g = XSeries.random(rng, 3, rng.random() < 0.5)
    pencil = ("1", g.text(), "0", "1")
    structure = ("0", "0", "0", "0")
    return Document("geodesic", _ini(structure, pencil=pencil),
                    ["geodesic", "--z=" + z], 0 if z == "inf" else 1, None,
                    structure + pencil)


def _low_poly(rng):
    """Two random terms of degree 1 or 2 in x and y."""
    terms = rng.sample([(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)], 2)
    return " + ".join("%s*x^%d*y^%d" % (qtext(rq(rng)), i, j)
                      for i, j in terms)


DOCUMENT_ROUND = (
    ("invariants", None), ("invariants", None),
    ("linearizable", "constant"), ("linearizable", "normal"),
    ("linearizable", "cubic"),
    ("symcheck", "VERT"), ("symcheck", "HOR"),
    ("pullback", "scale"), ("pullback", "laws"),
    ("pencil", "dx+g dy"), ("pencil", "-(dx+(g+y)dy)"),
    ("pencil", "e^y(dx+g dy)"),
    ("geodesic", "induced-q"), ("geodesic", "induced-inf"),
    ("geodesic", "unrelated-q"), ("geodesic", "unrelated-inf"),
)


def make_document(ps, rng, kind, variant):
    order = DOCUMENT_ORDER
    if kind == "invariants":
        return _doc_invariants(rng, order)
    if kind == "linearizable":
        return _doc_linearizable(rng, order, variant)
    if kind == "symcheck":
        return _doc_symcheck(rng, order, variant)
    if kind == "pullback":
        return _doc_pullback(rng, order, variant, ps)
    if kind == "pencil":
        return _doc_pencil(rng, order, variant)
    return _doc_geodesic(rng, order, variant)


class DocumentRounds:
    """Writes each round's documents under ``workdir`` and yields its ops."""

    def __init__(self, ps, seed, workdir):
        self.ps = ps
        self.seed = seed
        self.workdir = workdir
        self.seen_texts = set()
        self.seen_exprs = set()
        self.expr_total = 0       # expression values across all documents
        self.expr_repeated = 0    # ... whose text an earlier value already had

    def round(self, index):
        """One round: a fixed mix of subcommands, seeded content.

        Every document is distinct: a draw that repeats an earlier
        document of this generator is drawn again from the same stream.
        """
        rng = rng_for(self.seed, "documents", index)
        ops = []
        for k, (kind, variant) in enumerate(DOCUMENT_ROUND):
            doc = make_document(self.ps, rng, kind, variant)
            while doc.text in self.seen_texts:
                doc = make_document(self.ps, rng, kind, variant)
            self.seen_texts.add(doc.text)
            for text in doc.exprs:
                self.expr_total += 1
                self.expr_repeated += text in self.seen_exprs
                self.seen_exprs.add(text)
            path = os.path.join(self.workdir, "doc-%d-%d.ini" % (index, k))
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(doc.text)
            ops.append(Op("cli:" + doc.name, self._runner(doc, path),
                          self._gate(doc)))
        return ops

    def _runner(self, doc, path):
        dispatch = self.ps.cli.dispatch

        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = dispatch(doc.argv + [path])
            return code, out.getvalue()
        return call

    @staticmethod
    def _gate(doc):
        def gate(result):
            code, stdout = result
            return code == doc.exit_code and (doc.check is None
                                              or doc.check(stdout))
        return gate


# --- deep jets -------------------------------------------------------------------------


def dense_jet(ps, rng, order, top, const=None, x_only=False, low=0):
    """A jet with every monomial of degree low..top set to a random rational."""
    terms = {}
    for i in range(top + 1):
        for j in range(top + 1 - i):
            if i + j >= low and not (x_only and j):
                terms[(i, j)] = rq(rng)
    if const is not None:
        terms[(0, 0)] = Fraction(const)
    return ps.Jet2(terms, order)


def deep_inputs(ps, seed, index, order):
    """The seeded inputs of one deep-jet round at ``order``."""
    rng = rng_for(seed, "deep-jets", index, order)
    x = ps.Jet2.variable("x", order)
    y = ps.Jet2.variable("y", order)
    return {
        "g1": ps.DiffeoGerm(x + dense_jet(ps, rng, order, 3, low=2),
                            y + dense_jet(ps, rng, order, 3, low=2)),
        "g2": ps.DiffeoGerm(x.scale(rq(rng)) + y.scale(rq(rng)),
                            y.scale(rq(rng))),
        "st": ps.ProjectiveStructure(*(dense_jet(ps, rng, order, 2)
                                       for _ in range(4))),
        "pencil": ps.Pencil.from_jets(dense_jet(ps, rng, order, 3, 1),
                                      dense_jet(ps, rng, order, 3, 0),
                                      dense_jet(ps, rng, order, 3, 0),
                                      dense_jet(ps, rng, order, 3, 1)),
        "stx": ps.ProjectiveStructure(
            *(dense_jet(ps, rng, order, order, const, x_only=True)
              for const in (None, None, None, rq(rng)))),
        "exp_arg": dense_jet(ps, rng, order, 4, 0),
        "square": dense_jet(ps, rng, order, order,
                            Fraction(rng.randint(1, 5) ** 2,
                                     rng.randint(1, 4) ** 2), x_only=True),
        "unit": dense_jet(ps, rng, order, 4, rq(rng)),
        "series": dense_jet(ps, rng, order, order, x_only=True, low=1),
        "p0": rq(rng),
        "z": rq(rng),
    }


def deep_round(ps, seed, index, order):
    """One round of deep-jet ops at ``order``: a fixed list, seeded germs.

    Later ops consume the results of earlier ones, so the ops run in list
    order.  The gate of such an earlier op stores the result it was given,
    which is what the later ops use: a wrong intermediate answer is caught
    by the identity checked downstream (two pullback paths must agree, a
    pulled-back flat structure must be flat, ...).
    """
    inp = deep_inputs(ps, seed, index, order)
    g1, g2, st, pen = inp["g1"], inp["g2"], inp["st"], inp["pencil"]
    stx, unit, series = inp["stx"], inp["unit"], inp["series"]
    exp_arg, square = inp["exp_arg"], inp["square"]
    x = ps.Jet2.variable("x", order)
    one = ps.Jet2.constant(1, order)
    floor = order - 6          # the narrowest window any gate accepts
    got = {}

    def wide(*jets):
        return all(j.eff >= floor for j in jets)

    def kept(key, check=lambda s: wide(*s)):
        def gate(result):
            got[key] = result
            return check(result)
        return gate

    def same_structure(a, b):
        return wide(*a, *b) and a.agree(b)

    return [
        Op("pullback", lambda: ps.pullback(g1, st), kept("s1")),
        Op("pullback", lambda: ps.pullback(g2, got["s1"]), kept("s12")),
        Op("substitute", lambda: ps.substitute(g1.u, g2.u, g2.v),
           kept("u12", wide)),
        Op("substitute", lambda: ps.substitute(g1.v, g2.u, g2.v),
           kept("v12", wide)),
        # functoriality: pullback(g1 . g2) == pullback(g2, pullback(g1))
        Op("pullback", lambda: ps.pullback(
            ps.DiffeoGerm(got["u12"], got["v12"]), st),
           lambda s: same_structure(s, got["s12"])),
        Op("pullback", lambda: ps.pullback(g1, ps.ProjectiveStructure.zero(
            order)), kept("flat")),
        # a pulled-back flat structure is flat
        Op("liouville", lambda: ps.liouville(got["flat"]),
           lambda pair: wide(pair.L1, pair.L2) and pair.is_zero()),
        Op("structure_from_pencil", lambda: ps.structure_from_pencil(pen),
           kept("induced")),
        # every member is geodesic for the structure its pencil induces
        Op("is_geodesic",
           lambda: ps.is_geodesic(ps.member(pen, ps.INF), got["induced"]),
           lambda ok: ok is True),
        Op("is_geodesic",
           lambda: ps.is_geodesic(ps.member(pen, inp["z"]), got["induced"]),
           lambda ok: ok is True),
        Op("geodesic_solve", lambda: ps.geodesic_solve(st, 0, inp["p0"]),
           lambda c: wide(c) and ps.structures.geodesic_residual(
               st, c).is_zero()),
        Op("normalize_D1", lambda: ps.normalize_D1(stx),
           lambda r: same_structure(ps.pullback(r[1], stx), r[0])),
        Op("exp_series", lambda: ps.exp_series(exp_arg),
           lambda e: wide(e) and e.d_dx().agree(exp_arg.d_dx() * e)),
        Op("sqrt_series", lambda: ps.sqrt_series(square),
           lambda r: wide(r) and (r * r).agree(square)),
        Op("inverse", lambda: unit.inverse(),
           lambda v: wide(v) and (unit * v).agree(one)),
        Op("comp_inverse", lambda: ps.comp_inverse(series),
           lambda v: wide(v) and ps.jets.compose1(series, v).agree(x)),
    ]


def deep_rounds(ps, seed, index, orders=DEEP_ORDERS):
    """One measured round: the op list at each order in turn."""
    ops = []
    for order in orders:
        ops += deep_round(ps, seed, index, order)
    return ops
