from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (REDRAWN, assert_window_holds, keeping_jets, redrawn,
                      windowed)
from projstruct import cases
from projstruct.errors import (ExprSyntaxError, ProjstructError, UnboundParameter,
                               UnsupportedExponent)
from projstruct.expressions import (
    _APPLY,
    Call,
    Chain,
    Lit,
    Neg,
    Param,
    Pow,
    Var,
    expand,
    parse,
)
from projstruct.jets import DEFAULT_ORDER, Jet2, exp_series, sqrt_series


def ex(text, env=None, order=8):
    return expand(text, env, order)


# --- parsing ------------------------------------------------------------


def test_precedence():
    e = parse("1 + 2*x^2")
    assert e == Chain(Lit(Fraction(1)), (
        ("+", Chain(Lit(Fraction(2)), (("*", Pow(Var("x"), Fraction(2))),))),))


def test_unary_minus_binds_looser_than_power():
    e = parse("-x^2")
    assert e == Neg(Pow(Var("x"), Fraction(2)))


def test_left_associativity():
    e = parse("1 - 2 - x")
    assert e == Chain(Lit(Fraction(1)), (("-", Lit(Fraction(2))), ("-", Var("x"))))
    assert ex("1 - 2 - x").coeff(0, 0) == -1


def test_rational_literals_fold():
    assert parse("1/2") == Lit(Fraction(1, 2))
    assert parse("-2/3") == Lit(Fraction(-2, 3))


def test_call_and_params():
    e = parse("exp(-2*x) * alpha")
    assert isinstance(e, Chain)
    assert isinstance(e.first, Call)
    assert e.rest == (("*", Param("alpha")),)


def test_fractional_exponent_literal():
    e = parse("(1+x)^(-3/2)")
    assert e == Pow(Chain(Lit(Fraction(1)), (("+", Var("x")),)), Fraction(-3, 2))


@pytest.mark.parametrize("exponent, value", [
    ("3", 3), ("-3", -3), ("(3)", 3), ("(-3)", -3),
    ("(3/2)", Fraction(3, 2)), ("(-3/2)", Fraction(-3, 2)),
    ("(6/4)", Fraction(3, 2)), ("(0)", 0),
    # read since the exponent is an atom that folds to a literal
    ("-(3/2)", Fraction(-3, 2)), ("-(-3/2)", Fraction(3, 2)),
    ("((2))", 2), ("(2*3)", 6), ("(1/2/3)", Fraction(1, 6))])
def test_an_exponent_is_a_rational_literal(exponent, value):
    assert parse("x^" + exponent) == Pow(Var("x"), Fraction(value))


def test_powers_associate_left_and_an_exponent_is_one_atom():
    # -1 is the exponent of x, and 0 that of x^-1; the exponent does not
    # read the unary minus of -1^0
    assert parse("x^-1^0") == Pow(Pow(Var("x"), Fraction(-1)), Fraction(0))
    assert parse("x^2^3") == Pow(Pow(Var("x"), Fraction(2)), Fraction(3))
    assert parse("2*x^-1*y") == Chain(
        Lit(Fraction(2)), (("*", Pow(Var("x"), Fraction(-1))),
                           ("*", Var("y"))))


@pytest.mark.parametrize("text, offset", [
    ("x^y", 2), ("x ^ -y", 4), ("x^(1 + x)", 2), ("x^(2^2)", 2),
    ("x^exp(1)", 2), ("x^(y)", 2), ("x^(1 + 1)", 2)])
def test_an_exponent_that_is_no_literal_is_refused_at_its_start(text,
                                                                offset):
    with pytest.raises(ExprSyntaxError,
                       match="expected a rational exponent") as err:
        parse(text)
    assert err.value.offset == offset


def test_syntax_errors_carry_offsets():
    with pytest.raises(ExprSyntaxError) as err:
        parse("x + ")
    assert err.value.offset == 4
    with pytest.raises(ExprSyntaxError):
        parse("foo(x)")
    with pytest.raises(ExprSyntaxError):
        parse("x + $")
    with pytest.raises(ExprSyntaxError):
        parse("x ^ y")
    with pytest.raises(ExprSyntaxError):
        parse("(x")


@pytest.mark.parametrize("text,offset", [("x + 2\u00b2", 5), ("x\u00b2", 1),
                                         ("\u0663 + x", 0)])
def test_only_ascii_digits_and_letters_are_read(text, offset):
    # a superscript two and an Arabic-Indic three are not numbers or names
    with pytest.raises(ExprSyntaxError, match="unexpected character") as err:
        parse(text)
    assert err.value.offset == offset


def test_nesting_past_the_recursion_limit_is_a_syntax_error():
    with pytest.raises(ExprSyntaxError, match="nested too deeply"):
        parse("(" * 300 + "x" + ")" * 300)
    with pytest.raises(ExprSyntaxError, match="nested too deeply"):
        expand("-" * 1200 + "x")
    # a flat sum is one node, however long
    assert expand("+".join(["x"] * 3000), order=2) == 3000 * expand("x", order=2)
    assert expand("(" * 100 + "x" + ")" * 100, order=2) == expand("x", order=2)


def test_constant_division_by_zero_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("1/0")


# --- printing round trip ---------------------------------------------------


def to_text(e):
    """``e`` fully parenthesized: one pair of parentheses per chain and
    around each negative or non-integer literal.  The package has no
    printer; this one feeds ``parse`` the texts of its own trees."""
    def literal(q):
        return str(q) if q.denominator == 1 and q >= 0 else "(%s)" % q
    if isinstance(e, Lit):
        return literal(e.value)
    if isinstance(e, (Var, Param)):
        return e.name
    if isinstance(e, Neg):
        return "(-%s)" % to_text(e.arg)
    if isinstance(e, Chain):
        return "(%s)" % " ".join([to_text(e.first)] + [
            "%s %s" % (op, to_text(x)) for op, x in e.rest])
    if isinstance(e, Pow):
        return "%s^%s" % (to_text(e.base), literal(e.exponent))
    return "%s(%s)" % (e.func, to_text(e.arg))


CORPUS = [
    "x", "y", "1/2", "-2/3", "x + y", "x - -y", "2*x^2 - y^3/3",
    "exp(-2*x)", "sqrt(1 + x)", "(1+x)^(-3/2)", "a*exp(x) + b",
    "-(x + y)^2", "1 + x*y - x^2*y^2/4", "exp(x)^2 * exp(-2*x)",
    # literals that need their own parentheses when printed
    "x / (2/3)", "(-2)^2", "(2/3)^2", "x * (1/2)", "(-1)^3*x",
]


@pytest.mark.parametrize("text", CORPUS)
def test_to_text_round_trip(text):
    tree = parse(text)
    assert parse(to_text(tree)) == tree


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
def test_a_flat_chain_of_any_length_is_one_node(op):
    text = op.join(["1"] + ["a"] * 10 ** 4)
    tree = parse(text)
    assert isinstance(tree, Chain) and len(tree.rest) == 10 ** 4
    value = {"+": 1 + 10 ** 4, "-": 1 - 10 ** 4, "*": 1, "/": 1}[op]
    assert expand(tree, {"a": 1}, order=2) == expand(str(value), order=2)


# --- generated chains ----------------------------------------------------------

_FRACTIONS = st.tuples(st.integers(1, 12), st.integers(1, 12)).map("%d/%d".__mod__)
_LEAVES = st.one_of(st.sampled_from(["x", "y"]), st.integers(1, 12).map(str),
                    _FRACTIONS, _FRACTIONS.map("({})".format),
                    _FRACTIONS.map("(-{})".format))
_EXPONENTS = st.sampled_from(
    ["0", "2", "3", "-1", "(1/2)", "(-1/2)", "(3/2)", "(-3/2)", "(-2)"])


def _extend(inner):
    """Chains of 1-40 operands, unary minus, parentheses and powers."""
    def chain(operands):
        ops = st.lists(st.sampled_from("+-*/"), min_size=len(operands) - 1,
                       max_size=len(operands) - 1)
        return ops.map(lambda ops: operands[0] + "".join(
            " %s %s" % pair for pair in zip(ops, operands[1:])))
    return st.one_of(st.lists(inner, min_size=1, max_size=40).flatmap(chain),
                     inner.map("-{}".format), inner.map("({})".format),
                     st.tuples(inner, _EXPONENTS).map("%s^%s".__mod__))


expression_texts = st.recursive(_LEAVES, _extend, max_leaves=60)


@settings(deadline=None, max_examples=150)
@given(expression_texts)
def test_printed_text_parses_and_expands_like_the_original(text):
    tree = parse(text)
    printed = to_text(tree)
    assert parse(printed) == tree
    outcomes = []
    for source in (text, printed):
        try:
            outcomes.append(expand(source, order=4))
        except (ProjstructError, ArithmeticError) as exc:
            outcomes.append(type(exc))
    assert outcomes[0] == outcomes[1]


# --- expansion ----------------------------------------------------------------


def test_expand_polynomial():
    u = ex("1 + x*y - y^2/2")
    assert u.coeff(0, 0) == 1
    assert u.coeff(1, 1) == 1
    assert u.coeff(0, 2) == Fraction(-1, 2)


def test_expand_exp():
    assert ex("exp(-2*x)").coeff(2, 0) == 2
    assert ex("exp(x + y)").agree(exp_series(Jet2.variable("x", 8) + Jet2.variable("y", 8)))


def test_expand_negative_power():
    u = ex("(1 - x)^(-1)")
    assert all(u.coeff(k, 0) == 1 for k in range(9))


def test_expand_half_integer_power():
    u = ex("(1+x)^(-3/2)")
    sq = u * u
    cube = (Jet2.constant(1, 8) + Jet2.variable("x", 8)) ** 3
    assert (sq * cube).agree(Jet2.constant(1, 8))
    assert u.coeff(1, 0) == Fraction(-3, 2)


def test_expand_unsupported_exponent():
    with pytest.raises(UnsupportedExponent):
        ex("(1+x)^(1/3)")


def test_expand_parameters():
    u = ex("a*x + b", {"a": Fraction(2), "b": Fraction(1, 3)})
    assert u.coeff(1, 0) == 2
    assert u.coeff(0, 0) == Fraction(1, 3)


def test_expand_function_valued_parameters():
    u = ex("g + x*g", {"g": "1 + y"})
    assert u.coeff(1, 1) == 1
    assert u.coeff(0, 0) == 1


def test_expand_unbound_and_cyclic_parameters():
    with pytest.raises(UnboundParameter):
        ex("a*x", {})
    with pytest.raises(UnboundParameter):
        ex("a", {"a": "1 + a"})


def test_a_derivative_loses_one_degree_of_window():
    # even on a polynomial, d_dx and d_dy are the jet derivatives
    assert expand("d_dx(x^2)", None, 4) == Jet2.monomial(1, 0, 2, 4, eff=3)
    assert expand("d_dy(x*y^2)", None, 4) == Jet2.monomial(1, 1, 2, 4, eff=3)
    assert expand("d_dx(d_dx(x^3))", None, 4) == Jet2.monomial(1, 0, 6, 4,
                                                               eff=2)


def test_a_name_bound_to_a_jet_is_that_jet():
    jet = Jet2({(0, 0): 1, (2, 1): Fraction(1, 3)}, 10, eff=5)
    assert expand("A", {"A": jet}, 12) is jet
    assert expand("d_dx(A) - 2*A", {"A": jet}, 12) \
        == jet.d_dx() - jet.scale(2)


def test_a_jet_of_a_higher_order_is_cut_to_the_order():
    # a bare name is cut at the root, as a sum over it always was
    jet = Jet2({(0, 0): 1, (1, 0): 2, (2, 2): 5, (4, 1): 3}, 15)
    env = {"A": jet}
    for order in (0, 3, 4):
        got = expand("A", env, order)
        assert got == jet.truncated(order) == expand("A + 0", env, order)
        assert (got.order, got.eff) == (order, order)
    assert expand("-A/3", env, 3) == expand("-A/3 + 0", env, 3)
    assert expand("A", env, 15) is jet


def test_a_jet_times_a_constant_is_scaled():
    jet = Jet2({(0, 0): 1, (2, 1): Fraction(1, 3)}, 10, eff=5)
    env = {"A": jet, "k": Fraction(-3, 4)}
    # one jet per scaling, where a constant jet and a product made two
    for text, factor, jets_built in (
            ("2*A", 2, 1), ("A*k", Fraction(-3, 4), 1),
            ("A/(2/3)", Fraction(3, 2), 1),
            ("(k - 1)*A/7", Fraction(-1, 4), 2)):
        got, built = _jets_built(expand, text, env, 12)
        assert got == jet.scale(factor), text
        assert built == jets_built, text
    # a zero factor keeps the product: its window widens to the order
    assert expand("0*A", env, 12) == Jet2.zero(10)
    assert expand("(k - k)*A", env, 12) == Jet2.zero(10)


_JET_TEXTS = ["d_dx(a)", "d_dy(b)", "d_dx(a*b) - d_dy(a)",
              "a*d_dx(b)^2 + x*d_dy(d_dx(a))", "exp(x*d_dy(a)) - b",
              "d_dx(a)/(1 + x*b)", "d_dy(a^2 - y*b)/(2 + x)"]


@settings(REDRAWN, max_examples=150)
@given(st.data(), st.sampled_from(_JET_TEXTS), st.integers(3, 8))
def test_expand_keeps_its_window_when_bound_jets_are_redrawn(data, text,
                                                             order):
    a, b = (data.draw(windowed(order, min_eff=2)) for _ in range(2))
    got = expand(text, {"a": a, "b": b}, order)
    full = expand(text, {"a": data.draw(redrawn(a)),
                         "b": data.draw(redrawn(b))}, order)
    assert_window_holds(got, full)


@given(st.integers(-8, 8), st.integers(1, 8))
def test_expand_rational_arithmetic_matches_fractions(p, q):
    u = ex("p/q + x", {"p": p, "q": q})
    assert u.coeff(0, 0) == Fraction(p, q)


# --- the one-pass expansion against the jet-per-node reference ------------------


def reference_expand(e, env=None, order=None):
    """``expand`` as it was before the one-pass form: every node of the
    tree becomes a jet, and jet arithmetic combines them."""
    order = DEFAULT_ORDER if order is None else order
    if isinstance(e, str):
        e = parse(e)
    env = {} if env is None else env
    try:
        return _reference(e, env, order, frozenset())
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply to expand",
                              0) from None


def _reference(e, env, order, active):
    if isinstance(e, Lit):
        return Jet2.constant(e.value, order)
    if isinstance(e, Var):
        return Jet2.variable(e.name, order)
    if isinstance(e, Param):
        if e.name in active:
            raise UnboundParameter("parameter %r refers to itself" % e.name)
        if e.name not in env:
            raise UnboundParameter("parameter %r is not bound" % e.name)
        value = env[e.name]
        if isinstance(value, Jet2):
            return value
        if isinstance(value, (int, Fraction)):
            return Jet2.constant(value, order)
        if isinstance(value, str):
            value = parse(value)
        return _reference(value, env, order, active | {e.name})
    if isinstance(e, Neg):
        return -_reference(e.arg, env, order, active)
    if isinstance(e, Chain):
        acc = _reference(e.first, env, order, active)
        for op, x in e.rest:
            acc = _APPLY[op](acc, _reference(x, env, order, active))
        return acc
    if isinstance(e, Pow):
        base = _reference(e.base, env, order, active)
        num, den = e.exponent.numerator, e.exponent.denominator
        if den == 1:
            return base ** num
        if den == 2:
            return sqrt_series(base) ** num
        raise UnsupportedExponent(
            "exponent %s has denominator %d (only 1 and 2 are supported)"
            % (e.exponent, den))
    if isinstance(e, Call):
        arg = _reference(e.arg, env, order, active)
        if e.func == "exp":
            return exp_series(arg)
        if e.func == "sqrt":
            return sqrt_series(arg)
        return arg.d_dx() if e.func == "d_dx" else arg.d_dy()
    raise TypeError("not an expression: %r" % (e,))


def _outcome(fn, *args):
    """The jet, or the type and message of what was raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def assert_expands_like_the_reference(e, env, order):
    got = _outcome(expand, e, env, order)
    want = _outcome(reference_expand, e, env, order)
    assert got == want, (e, env, order)


def _registry_inputs():
    calls = []

    def recording(e, env=None, order=None):
        calls.append((e, None if env is None else dict(env), order))
        return expand(e, env, order)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cases, "expand", recording)
        for order in (12, 6):
            cases.run_all(order=order)
    return calls


def _distinct(inputs):
    seen = {}
    for e, env, _ in inputs:
        key = (e, frozenset((env or {}).items()))
        seen.setdefault(key, (e, env))
    return list(seen.values())


RECORDED_ORDERS = (0, 1, 2, 3, 7, 12, 16)


def test_registry_inputs_expand_like_the_reference():
    inputs = _distinct(_registry_inputs())
    assert len(inputs) > 100
    for e, env in inputs:
        for order in RECORDED_ORDERS:
            assert_expands_like_the_reference(e, env, order)


def test_document_inputs_expand_like_the_reference(document_traffic):
    inputs = _distinct(document_traffic[0])
    assert len(inputs) > 900
    for e, env in inputs:
        for order in RECORDED_ORDERS:
            assert_expands_like_the_reference(e, env, order)


def _jets_built(fn, *args):
    """The value of ``fn(*args)`` and the jets it built."""
    with keeping_jets() as built:
        value = fn(*args)
    return value, len(built)


POLYNOMIAL_TEXTS = [
    "0", "1", "x", "-y", "(-1/2) + (1/2)*x^1 + (2)*x^2 + (1/2)*x^3",
    "(1 + x - y)^5 / (2/3)", "a*x^2 - b*y + c", "-(x*y - 1)^0 * 7/a",
    "x^3 * y^4 * x^20", "(x + y)^2 - x^2 - 2*x*y - y^2",
]
POLYNOMIAL_ENV = {"a": 3, "b": Fraction(-2, 5), "c": "x - 2*y^2"}


@pytest.mark.parametrize("order", [0, 1, 12])
@pytest.mark.parametrize("text", POLYNOMIAL_TEXTS)
def test_a_polynomial_text_builds_one_jet(text, order):
    jet, built = _jets_built(expand, text, POLYNOMIAL_ENV, order)
    assert built == 1
    assert jet == reference_expand(text, POLYNOMIAL_ENV, order)


def test_document_polynomials_build_one_jet(document_traffic):
    texts = [(e, env, order) for e, env, order in document_traffic[0]
             if "exp" not in e and "sqrt" not in e]
    assert len(texts) > 1000
    for e, env, order in texts:
        assert _jets_built(expand, e, env, order)[1] == 1, e


def test_load_document_keeps_its_jet_traffic(document_traffic):
    # 480 documents, seeds 1-3 of the documents workload: only exp,
    # sqrt and true quotients cost jets beyond one per expression value
    # (a jet per node built 18885, 4844 while a Pencil built its wedge
    # jet, four jets, and a difference of jets built two, and 3990 while
    # a jet times or over a constant built a constant jet and a product)
    per_op = document_traffic[1]
    assert len(per_op) == 480
    assert sum(per_op) == 3762


EDGE_TEXTS = ["x/y", "1/x", "y/(1 + x)", "x/0", "x/(x - x)", "x/(2/3)",
              "0*exp(x)", "exp(1)", "x^0", "(x - x)^0", "(1 + y)^-1", "x^-1",
              "(4 + y)^(1/2)", "(x + y)^(-1/2)", "(1 + x)^(1/3)", "-exp(x)",
              "x*exp(y) - y*exp(x) + 1", "a/b - c*e", "u", "d", "f^3"]


@pytest.mark.parametrize("order", [0, 1, 3])
@pytest.mark.parametrize("text", EDGE_TEXTS)
def test_edge_texts_expand_like_the_reference(text, order):
    assert_expands_like_the_reference(text, _PARAM_ENV, order)


_PARAM_ENV = {"a": 3, "b": Fraction(-2, 3), "c": "1 - x*y + b",
              "d": "x + d", "e": "a*exp(x) - y", "f": parse("y^2 - 1/2"),
              "z": 0}
_SERIES_LEAVES = st.sampled_from(
    ["exp(x)", "exp(y - x^2)", "sqrt(1 + x)", "sqrt(4 - y/3)", "exp(1)",
     "sqrt(2)", "sqrt(x)", "0*exp(x)", "exp(x)*0", "x/(1 - y)", "1/x",
     "x/0", "y/z", "(1 + x)^-1", "x^-1", "(4 + y)^(1/2)", "(1 + x)^(1/3)"])
_ALL_LEAVES = st.one_of(_LEAVES, st.sampled_from(sorted(_PARAM_ENV) + ["u"]),
                        st.sampled_from(["0", "(0)"]), _SERIES_LEAVES)
_ALL_EXPONENTS = st.sampled_from(
    ["0", "1", "2", "3", "-1", "(1/2)", "(-1/2)", "(3/2)", "(-2)", "(2/3)"])


def _extend_with_calls(inner):
    def chain(operands):
        ops = st.lists(st.sampled_from("+-*/"), min_size=len(operands) - 1,
                       max_size=len(operands) - 1)
        return ops.map(lambda ops: operands[0] + "".join(
            " %s %s" % pair for pair in zip(ops, operands[1:])))
    return st.one_of(st.lists(inner, min_size=1, max_size=8).flatmap(chain),
                     inner.map("-{}".format), inner.map("({})".format),
                     st.tuples(inner, _ALL_EXPONENTS).map("%s^%s".__mod__),
                     inner.map("exp(x*({}))".format),
                     inner.map("sqrt(1 + y*({}))".format))


@settings(deadline=None, max_examples=400)
@given(st.recursive(_ALL_LEAVES, _extend_with_calls, max_leaves=20),
       st.sampled_from([0, 1, 2, 3, 5]))
def test_generated_texts_expand_like_the_reference(text, order):
    assert_expands_like_the_reference(text, _PARAM_ENV, order)
