import contextlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st

from projstruct.duals import DualRational
from projstruct.jets import Jet2

# Property tests run at a modest order: the order-N algebra exercises the
# same code paths as order 12 while keeping the suite fast.
PROP_ORDER = 6


@pytest.fixture(scope="session")
def registry_traffic():
    """Each ``residual``, ``pullback``, ``structure_from_pencil``,
    ``is_geodesic``, ``_rhs_along``, ``Jet2.__sub__``, ``Jet2.agree`` and
    ``cases._root_check`` call of ``run_all(12)`` and ``run_all(8)``: its
    arguments and the jets it built (``Jet2._new`` calls outside
    ``_substitute_all``), and per pass the number of calls of each and the
    jets built in all."""
    from projstruct import cases, fields, pencils, structures

    calls = {"residual": [], "pullback": [], "structure_from_pencil": [],
             "is_geodesic": [], "rhs_along": [], "sub": [], "agree": [],
             "root_check": []}
    built, substituted = [0], [0]
    make = Jet2._new.__func__
    substitute_all = structures._substitute_all

    def counting(cls, *args):
        built[0] += 1
        return make(cls, *args)

    def substituting(*args):
        before = built[0]
        out = substitute_all(*args)
        substituted[0] += built[0] - before
        return out

    def recording(name, fn):
        def wrapper(*args):
            before, sub = built[0], substituted[0]
            out = fn(*args)
            calls[name].append(
                (*args, built[0] - before - (substituted[0] - sub)))
            return out
        return wrapper

    passes = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Jet2, "_new", classmethod(counting))
        mp.setattr(structures, "_substitute_all", substituting)
        residual = recording("residual", fields.residual)
        for module in (fields, cases):
            mp.setattr(module, "residual", residual)
        mp.setattr(cases, "pullback", recording("pullback",
                                                structures.pullback))
        mp.setattr(cases, "structure_from_pencil", recording(
            "structure_from_pencil", pencils.structure_from_pencil))
        mp.setattr(cases, "is_geodesic", recording("is_geodesic",
                                                   pencils.is_geodesic))
        mp.setattr(structures, "_rhs_along", recording(
            "rhs_along", structures._rhs_along))
        mp.setattr(Jet2, "__sub__", recording("sub", Jet2.__sub__))
        mp.setattr(Jet2, "agree", recording("agree", Jet2.agree))
        mp.setattr(cases, "_root_check", recording("root_check",
                                                   cases._root_check))
        for order in (12, 8):
            before = built[0]
            start = {name: len(c) for name, c in calls.items()}
            cases.run_all(order=order)
            passes[order] = {name: len(c) - start[name]
                             for name, c in calls.items()}
            passes[order]["jets"] = built[0] - before
    return calls, passes


def recording_substitutions(mp, calls):
    """Append (fs, u, v, result) of every ``_substitute_all`` call, made
    from :mod:`projstruct.jets` or :mod:`projstruct.structures`, to
    ``calls``."""
    from projstruct import jets, structures

    substitute_all = jets._substitute_all

    def recording(fs, u, v):
        fs = tuple(fs)
        out = substitute_all(fs, u, v)
        calls.append((fs, u, v, out))
        return out

    for module in (jets, structures):
        mp.setattr(module, "_substitute_all", recording)


@pytest.fixture(scope="session")
def substitution_traffic():
    """(fs, u, v, result) of every ``_substitute_all`` call of ``run_all``
    at orders 12, 8 and 3."""
    from projstruct import cases

    calls = []
    with pytest.MonkeyPatch.context() as mp:
        recording_substitutions(mp, calls)
        for order in (12, 8, 3):
            cases.run_all(order=order)
    return calls


@pytest.fixture(scope="session")
def deep_traffic():
    """The arguments of each ``pullback``, ``is_geodesic``, ``_rhs_along``
    and ``Jet2.agree`` call of the ``deep-jets`` benchmark workload (seeds
    1-3, round 0, orders 16 and 20), and (fs, u, v, result) of each
    ``_substitute_all`` call."""
    import projstruct
    from projstruct import structures

    workloads = bench_workloads()
    calls = {"pullback": [], "is_geodesic": [], "rhs_along": [],
             "agree": [], "substitute_all": []}

    def recording(name, fn):
        def wrapper(*args):
            calls[name].append(args)
            return fn(*args)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        recording_substitutions(mp, calls["substitute_all"])
        mp.setattr(projstruct, "pullback",
                   recording("pullback", projstruct.pullback))
        mp.setattr(projstruct, "is_geodesic",
                   recording("is_geodesic", projstruct.is_geodesic))
        mp.setattr(structures, "_rhs_along",
                   recording("rhs_along", structures._rhs_along))
        mp.setattr(Jet2, "agree", recording("agree", Jet2.agree))
        for seed in (1, 2, 3):
            for order in (16, 20):
                for op in workloads.deep_round(projstruct, seed, 0, order):
                    assert op.gate(op.call())
    return calls


@pytest.fixture(scope="session")
def quotient_traffic(tmp_path_factory):
    """The ``jets._graded_solve`` calls of one ``run_all(12)`` pass and of
    each ``deep-jets`` round of seeds 1-3, rounds 0-1 (orders 16 and 20),
    and (nums, b, result) of every ``_quotients`` call of several
    numerators there and in the ``documents`` workload of seeds 1-3,
    rounds 0-9."""
    import projstruct.cli  # the documents dispatch through it
    from projstruct import jets, pencils, structures

    workloads = bench_workloads()
    solves, counts, groups = [0], {}, []
    graded_solve, quotients = jets._graded_solve, jets._quotients

    def counting(*args):
        solves[0] += 1
        return graded_solve(*args)

    def recording(nums, b):
        out = quotients(nums, b)
        if len(nums) > 1:
            groups.append((tuple(nums), b, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jets, "_graded_solve", counting)
        for module in (jets, structures, pencils):
            mp.setattr(module, "_quotients", recording)
        projstruct.run_all(order=12)
        counts["registry"] = solves[0]
        for seed in (1, 2, 3):
            for index in (0, 1):
                solves[0] = 0
                for order in (16, 20):
                    for op in workloads.deep_round(projstruct, seed, index,
                                                   order):
                        assert op.gate(op.call())
                counts[("deep-jets", seed, index)] = solves[0]
            rounds = workloads.DocumentRounds(
                projstruct, seed, str(tmp_path_factory.mktemp("documents")))
            for index in range(10):
                for op in rounds.round(index):
                    assert op.gate(op.call())
    return counts, groups


@pytest.fixture(scope="session")
def reversion_traffic():
    """(u, result) of every ``comp_inverse`` call of one ``run_all(12)``
    pass, under "registry", and of the ``deep-jets`` rounds of seeds 1-3,
    rounds 0-1 (orders 16 and 20), under "deep-jets"."""
    import projstruct
    from projstruct import cases, jets, structures

    workloads = bench_workloads()
    calls = []
    comp_inverse = jets.comp_inverse

    def recording(u):
        v = comp_inverse(u)
        calls.append((u, v))
        return v

    with pytest.MonkeyPatch.context() as mp:
        for module in (projstruct, cases, structures):
            mp.setattr(module, "comp_inverse", recording)
        projstruct.run_all(order=12)
        registry = len(calls)
        for seed in (1, 2, 3):
            for index in (0, 1):
                for order in (16, 20):
                    for op in workloads.deep_round(projstruct, seed, index,
                                                   order):
                        assert op.gate(op.call())
    return {"registry": calls[:registry], "deep-jets": calls[registry:]}


@contextlib.contextmanager
def keeping_jets(init=True):
    """Keep the jets built in the block, by ``Jet2._new`` and (unless
    ``init`` is false) ``Jet2.__init__``, in the list it yields."""
    built = []
    make, initialise = Jet2._new.__func__, Jet2.__init__

    def keeping_new(cls, *args):
        jet = make(cls, *args)
        built.append(jet)
        return jet

    def keeping_init(self, *args, **kwargs):
        initialise(self, *args, **kwargs)
        built.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Jet2, "_new", classmethod(keeping_new))
        if init:
            mp.setattr(Jet2, "__init__", keeping_init)
        yield built


@pytest.fixture(scope="session")
def built_jets():
    """Every jet built (``Jet2._new`` and ``Jet2.__init__``) in one
    ``run_all(12)`` pass and one ``deep-jets`` round (seed 1, round 0,
    orders 16 and 20)."""
    import projstruct

    workloads = bench_workloads()
    with keeping_jets() as built:
        projstruct.run_all(order=12)
        for order in (16, 20):
            for op in workloads.deep_round(projstruct, 1, 0, order):
                assert op.gate(op.call())
    return built


@pytest.fixture(scope="session")
def document_traffic(tmp_path_factory):
    """The ``documents`` benchmark workload of seeds 1-3, rounds 0-9, run
    through ``cli.dispatch``: the (text, env, order) of every ``expand``
    call, and per op the jets that ``load_document`` built (``Jet2._new``
    and ``Jet2.__init__`` calls)."""
    import projstruct
    from projstruct import cli

    workloads = bench_workloads()
    calls, per_op = [], []
    expand, load_document = cli.expand, cli.load_document

    def recording(e, env=None, order=None):
        calls.append((e, None if env is None else dict(env), order))
        return expand(e, env, order)

    def loading(path):
        before = len(built)
        doc = load_document(path)
        per_op.append(len(built) - before)
        return doc

    with keeping_jets() as built, pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "expand", recording)
        mp.setattr(cli, "load_document", loading)
        for seed in (1, 2, 3):
            rounds = workloads.DocumentRounds(
                projstruct, seed, str(tmp_path_factory.mktemp("documents")))
            for index in range(10):
                for op in rounds.round(index):
                    assert op.gate(op.call())
    return calls, per_op


@pytest.fixture(scope="session")
def reports12():
    """One shared full verification run at the default working order."""
    from projstruct import run_all

    return run_all(order=12)

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def _nonzero_fractions(draw):
    """The nonzero values of ``small_fractions``: a denominator d <= 6, a
    sign and a numerator 1 <= n <= 4 d, so that no draw is discarded."""
    d = draw(st.integers(1, 6))
    sign = draw(st.sampled_from((1, -1)))
    return Fraction(sign * draw(st.integers(1, 4 * d)), d)


nonzero_fractions = _nonzero_fractions()


def _keys(order, x_only=False, max_degree=None):
    top = order if max_degree is None else min(order, max_degree)
    out = []
    for i in range(top + 1):
        for j in range(top + 1 - i):
            if x_only and j:
                continue
            out.append((i, j))
    return out


@st.composite
def jets(draw, order=PROP_ORDER, max_terms=4, x_only=False, zero_constant=False,
         unit_constant=False, max_degree=None):
    """Sparse random jets; sparse data keeps exact arithmetic quick."""
    keys = _keys(order, x_only=x_only, max_degree=max_degree)
    if zero_constant:
        keys = [k for k in keys if k != (0, 0)]
    chosen = draw(st.lists(st.sampled_from(keys), max_size=max_terms)) \
        if keys else []
    coeffs = {}
    for key in chosen:
        coeffs[key] = draw(small_fractions)
    if unit_constant:
        coeffs[(0, 0)] = draw(nonzero_fractions)
    return Jet2(coeffs, order)


@st.composite
def dual_jets(draw, order=PROP_ORDER, **kwargs):
    """A rational jet from ``jets`` plus a random eps-part, at a random eff."""
    re = draw(jets(order=order, **kwargs))
    ep = draw(jets(order=order, **kwargs))
    return Jet2({k: DualRational(re.coeff(*k), ep.coeff(*k))
                 for k in re.coeffs.keys() | ep.coeffs.keys()},
                order, draw(st.integers(-1, order)))


def rational_or_dual_jets(order=PROP_ORDER, **kwargs):
    """A rational jet from ``jets`` or, one time in three, a dual one from
    ``dual_jets``, which has a random window."""
    return st.one_of(jets(order=order, **kwargs), jets(order=order, **kwargs),
                     dual_jets(order=order, **kwargs))


@st.composite
def cut_windows(draw, parts):
    """The jets ``parts``, up to two of them cut to a random window, empty
    ones included: the other jets keep theirs, so the result has terms."""
    cut = draw(st.sets(st.integers(0, len(parts) - 1), max_size=2))
    return [f.truncated(eff=draw(st.integers(-1, f.order))) if k in cut
            else f for k, f in enumerate(parts)]


@st.composite
def windowed(draw, order, x_only=False, low=0, min_eff=0, constant=None):
    """A jet at ``order`` with eff in [min_eff, order], sparse or dense."""
    eff = draw(st.integers(min(min_eff, order), order))
    keys = [(i, j) for i in range(order + 1) for j in range(order + 1 - i)
            if i + j >= low and not (x_only and j)]
    if keys and not draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(keys), max_size=4, unique=True))
    coeffs = {k: draw(small_fractions) for k in keys}
    if constant is not None:
        coeffs[(0, 0)] = draw(constant)
    return Jet2(coeffs, order, eff)


@st.composite
def windowed_or_dual(draw, order, **kwargs):
    """A ``windowed`` jet or, one time in three, that jet plus eps times
    another drawn alike, in the first one's window."""
    f = draw(windowed(order, **kwargs))
    if draw(st.integers(0, 2)):
        return f
    g = draw(windowed(order, **kwargs))
    return Jet2({k: DualRational(f.coeff(*k), g.coeff(*k))
                 for k in f.coeffs.keys() | g.coeffs.keys()}, order, f.eff)


# The settings of every property that draws through ``redrawn``: no shrink
# phase, since shrinking those draws ran for minutes (and hundreds of MB)
# on a failing example; each test sets its own ``max_examples``.
REDRAWN = settings(deadline=None,
                   phases=[phase for phase in Phase if phase is not Phase.shrink])


@st.composite
def redrawn(draw, f, x_only=False):
    """``f`` with random terms above its ``eff`` (in x alone if ``x_only``)
    and its window widened to its order: a germ that ``f`` cannot tell
    apart from the one it stands for."""
    keys = [(i, j) for i in range(f.order + 1) for j in range(f.order + 1 - i)
            if i + j > f.eff and not (x_only and j)]
    return Jet2({**f.coeffs, **{k: draw(small_fractions) for k in keys}},
                f.order)


def assert_window_holds(got, full):
    """``full``, the result on redrawn inputs, has every coefficient of
    ``got`` through ``got.eff``, and that window is not empty."""
    assert 0 <= got.eff <= full.eff
    assert full.truncated(eff=got.eff) == got


def univariate_germs(order=PROP_ORDER):
    """x-only jets of the form c1*x + ... with invertible linear part."""
    @st.composite
    def build(draw):
        tail = draw(jets(order=order, x_only=True, zero_constant=True))
        c1 = draw(nonzero_fractions)
        lin = Jet2.monomial(1, 0, c1, order)
        no_lin = tail - Jet2.monomial(1, 0, tail.coeff(1, 0), order)
        return lin + no_lin
    return build()


def diffeo_germs(order=PROP_ORDER):
    """Random origin-fixing coordinate changes with invertible linear part."""
    from projstruct.structures import DiffeoGerm

    @st.composite
    def build(draw):
        a = draw(small_fractions)
        b = draw(small_fractions)
        c = draw(small_fractions)
        d = draw(small_fractions)
        if a * d - b * c == 0:
            a = d = 1 + abs(b) + abs(c)  # force a unit determinant
        u_tail = draw(jets(order=order, max_terms=2, zero_constant=True))
        v_tail = draw(jets(order=order, max_terms=2, zero_constant=True))
        lin_u = Jet2({(1, 0): a, (0, 1): b}, order)
        lin_v = Jet2({(1, 0): c, (0, 1): d}, order)
        u = lin_u + _strip_linear(u_tail)
        v = lin_v + _strip_linear(v_tail)
        return DiffeoGerm(u, v)
    return build()


def _strip_linear(jet):
    return jet - Jet2({(1, 0): jet.coeff(1, 0),
                       (0, 1): jet.coeff(0, 1)}, jet.order)


def structures(order=PROP_ORDER, x_only=False, max_terms=3):
    """Random projective structures with sparse coefficient jets."""
    from projstruct.structures import ProjectiveStructure

    @st.composite
    def build(draw):
        return ProjectiveStructure(
            draw(jets(order=order, x_only=x_only, max_terms=max_terms)),
            draw(jets(order=order, x_only=x_only, max_terms=max_terms)),
            draw(jets(order=order, x_only=x_only, max_terms=max_terms)),
            draw(jets(order=order, x_only=x_only, max_terms=max_terms)))
    return build()


@st.composite
def dense_jets(draw, orders=(16, 20), unit_constant=False):
    """Every monomial up to a random top degree at a high order, over
    x and y, x alone or y alone (the products' one-column and one-row
    exponent boxes)."""
    order = draw(st.sampled_from(orders))
    top = draw(st.integers(0, order))
    shape = draw(st.sampled_from(["xy", "x", "y"]))
    keys = [(i, j) for (i, j) in _keys(order, max_degree=top)
            if (shape != "x" or not j) and (shape != "y" or not i)]
    coeffs = {k: draw(small_fractions) for k in keys}
    if unit_constant:
        coeffs[(0, 0)] = draw(nonzero_fractions)
    return Jet2(coeffs, order)


def stored_form(jet):
    """(order, eff, numerators, denominator) of a jet."""
    return jet.order, jet.eff, jet._num, jet._den


def assert_same_jets(got, want):
    # jet by jet: the same order, eff, numerators and denominator
    got, want = list(got), list(want)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert stored_form(g) == stored_form(w)


def assert_same_structure(got, want):
    # slot by slot: the same order, eff, numerators and denominator
    for g, w in zip(got, want):
        assert (g.order, g.eff, g._num, g._den) \
            == (w.order, w.eff, w._num, w._den)


def reference_agree(f, g):
    """``Jet2.agree`` as it was before it read the difference through
    ``first_nonzero``: numerators cross-multiplied by the other
    denominator, key by key, through the common eff."""
    g = f._lift(g)
    e = min(f.eff, g.eff)
    a, b = f._num, g._num
    keys = [(i, j) for (i, j) in a.keys() | b.keys() if i + j <= e]
    return all(a.get(k, 0) * g._den == b.get(k, 0) * f._den for k in keys)


def reference_liouville(st):
    """``structures.liouville`` as it was while it formed ten products, two
    of them, (a c) and (b d), through their full window before
    differentiating them."""
    from projstruct.jets import _sum_of_products
    from projstruct.structures import LiouvillePair

    a, b, c, d = st
    ax, ay, by, cx = a.d_dx(), a.d_dy(), b.d_dy(), c.d_dx()
    one = Jet2.constant(1, st.order)
    l1 = _sum_of_products([
        (2, b.d_dx().d_dy(), one), (-1, cx.d_dx(), one), (-3, ay.d_dy(), one),
        (-6, a, d.d_dx()), (-3, ax, d), (3, (a * c).d_dy(), one), (1, b, cx),
        (-2, b, by)])
    l2 = _sum_of_products([
        (2, cx.d_dy(), one), (-1, by.d_dy(), one), (-3, d.d_dx().d_dx(), one),
        (6, ay, d), (3, a, d.d_dy()), (-3, (b * d).d_dx(), one), (-1, by, c),
        (2, c, cx)])
    return LiouvillePair(l1, l2)


def reference_sub(f, g):
    """f - g as two jets, a negation and a sum: the form ``Jet2.__sub__``
    had before it was one ``_lincomb``."""
    return f + (-f._lift(g))


def alpha_ode_lower(c, al):
    """The quartic alpha-ODE without its 2 a a'''' term, as the jet
    arithmetic that ``cases`` held before the ODE was text."""
    d1 = al.d_dx()
    d2 = d1.d_dx()
    d3 = d2.d_dx()
    return ((al * d2 - d1 * d1).scale(c ** 4)
            - (al * d3 - d1 * d2).scale(3 * c * c)
            + d1 * d3 - (d2 * d2).scale(3))


def reference_powers(g, top, order):
    """``jets._powers`` as it was while it built g^1 as the product 1 * g."""
    out = [Jet2.constant(1, order)]
    for _ in range(top):
        nxt = out[-1] * g
        if nxt.is_zero() and nxt.eff == order:
            break
        out.append(nxt)
    return out


def reference_substitute_all(fs, u, v):
    """``_substitute_all`` as it was while it built every product u^i v^j,
    u^i * 1, 1 * v^j and the first powers 1 * u and 1 * v included."""
    from projstruct.errors import NonZeroConstantTerm
    from projstruct.jets import _lincomb

    fs = tuple(fs)
    drift = 0
    for g in (u, v):
        c = g.constant_term
        if not c * c == 0:
            raise NonZeroConstantTerm(
                "substitution point %r is not infinitesimal" % (c,))
        if not c == 0:
            drift = 1
    order = min(u.order, v.order, *(f.order for f in fs))
    upow = reference_powers(
        u.truncated(order), max((i for f in fs for (i, _) in f._num),
                                default=0), order)
    vpow = reference_powers(
        v.truncated(order), max((j for f in fs for (_, j) in f._num),
                                default=0), order)
    products = {}   # (i, j) -> u^i v^j
    out = []
    for f in fs:
        eff = min(f.eff, u.eff, v.eff, order) - drift
        parts = []
        for (i, j), c in f._num.items():
            if i >= len(upow) or j >= len(vpow):
                continue  # that power is exactly zero to full order
            if (i, j) not in products:
                products[(i, j)] = upow[i] * vpow[j]
            term = products[(i, j)]
            eff = min(eff, term.eff)
            parts.append((c, term._num, f._den * term._den))
        eff = max(eff, -1)
        out.append(Jet2._new(*_lincomb(parts, eff), order, eff))
    return out


def reference_newton_comp_inverse(u):
    """``jets.comp_inverse`` as it was while it ran Newton reversion
    v <- v - (u o v - x) / (u' o v) (R. P. Brent and H. T. Kung, J. ACM 25
    (1978)): a v right through degree p gives one right through degree
    2p + 1, so each pass runs at the next precision of 1, 3, 7, ... up to
    ``u.eff``."""
    from projstruct.errors import NotInvertible
    from projstruct.jets import _is_unit, _substitute_all

    if not u.is_x_only():
        raise NotInvertible("compositional inverse needs an x-only jet")
    if not u.constant_term == 0:
        raise NotInvertible("series does not vanish at the origin")
    u1 = u.coeff(1, 0)
    if not _is_unit(u1):
        raise NotInvertible("linear coefficient %r is not invertible" % (u1,))
    order, eff = u.order, u.eff
    x = Jet2.variable("x", order)
    zero = Jet2.zero(order)
    du = u.d_dx()
    v = Jet2({(1, 0): 1 / u1}, order, 1)
    p = 1
    while p < eff:
        p = min(eff, 2 * p + 1)
        w = v._window(order, p)
        uw, dw = _substitute_all((u.truncated(eff=p), du.truncated(eff=p)),
                                 w, zero)
        v = w - (uw - x) / dw
    return v


def reference_load_document(path):
    """``cli.load_document`` as it was while it read documents with
    ``configparser``."""
    import configparser

    from projstruct.cli import (DocumentError, InputDocument, _is_identifier,
                                _rational, _unquote)
    from projstruct.expressions import COORDS, FUNCTIONS, expand
    from projstruct.fields import VectorField
    from projstruct.jets import DEFAULT_ORDER
    from projstruct.pencils import Foliation, Pencil
    from projstruct.structures import ProjectiveStructure

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
            if key in COORDS + FUNCTIONS:
                raise DocumentError("[params] %s names a coordinate or a "
                                    "built-in function" % key)
            if not _is_identifier(key):
                raise DocumentError("[params] %s is not an identifier that "
                                    "an expression can name" % key)
            params[key] = _rational(_unquote(value), "[params] " + key)

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


def _reference_free_basis(mat, pivots, ncols):
    vecs = []
    pivot_cols = {c for (_, c) in pivots}
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for (r, c) in pivots:
            vec[c] = Fraction(-mat[r][fc], mat[r][c])
        vecs.append(vec)
    return vecs


def reference_nullspace(rows, ncols):
    """``linalg.nullspace`` as it was while it returned ``Fraction`` vectors,
    1 on their own free column."""
    from projstruct.linalg import _int_rows, _reduce

    mat = _int_rows(rows)
    pivots = _reduce(mat, ncols)
    return _reference_free_basis(mat, pivots, ncols)


def reference_solve_affine(rows, rhs):
    """``linalg.solve_affine`` as it was while it solved for its particular
    row by row and returned its basis as ``reference_nullspace`` does."""
    from projstruct.linalg import _int_rows, _reduce

    if not rows:
        return True, [], []
    ncols = len(rows[0])
    mat = _int_rows(list(row) + [b] for row, b in zip(rows, rhs))
    pivots = _reduce(mat, ncols + 1)
    if any(c == ncols for (_, c) in pivots):
        return False, None, []
    particular = [Fraction(0)] * ncols
    for (r, c) in pivots:
        particular[c] = Fraction(mat[r][ncols], mat[r][c])
    return True, particular, _reference_free_basis(mat, pivots, ncols)


def slope_product(f, g):
    """The product of two ``SlopePoly``s as a ``Jet2`` sum of ``Jet2``
    products per slot, each slot of the least order of all coefficients:
    the form ``SlopePoly.__mul__`` had before it summed each slot through
    ``_sum_of_products``."""
    from projstruct.slopes import SlopePoly

    order = min(c.order for c in f.coeffs + g.coeffs)
    out = [Jet2.zero(order) for _ in range(len(f.coeffs) + len(g.coeffs) - 1)]
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] = out[i + j] + a * b
    return SlopePoly(out)


def slope_sum(*polys):
    """The sum of ``SlopePoly``s, slot by slot, for the test references:
    the package itself no longer adds them."""
    from projstruct.slopes import SlopePoly

    n = max(len(f.coeffs) for f in polys)
    return SlopePoly([sum((f.coeff(k) for f in polys[1:]), polys[0].coeff(k))
                      for k in range(n)])


def slope_times(poly, jet):
    """Each coefficient of a ``SlopePoly`` times one jet."""
    from projstruct.slopes import SlopePoly

    return SlopePoly([c * jet for c in poly.coeffs])


def bench_workloads():
    """``bench/workloads.py``, loaded by path: the seeded benchmark inputs."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
