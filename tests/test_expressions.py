from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from projstruct.errors import ExprSyntaxError, UnboundParameter, UnsupportedExponent
from projstruct.expressions import (
    BinOp,
    Call,
    Lit,
    Neg,
    Param,
    Pow,
    Var,
    expand,
    parameters_of,
    parse,
    to_text,
)
from projstruct.jets import Jet2, exp_series


def ex(text, env=None, order=8):
    return expand(text, env, order)


# --- parsing ------------------------------------------------------------


def test_precedence():
    e = parse("1 + 2*x^2")
    assert e == BinOp("+", Lit(Fraction(1)), BinOp("*", Lit(Fraction(2)),
                                                   Pow(Var("x"), Fraction(2))))


def test_unary_minus_binds_looser_than_power():
    e = parse("-x^2")
    assert e == Neg(Pow(Var("x"), Fraction(2)))


def test_left_associativity():
    e = parse("1 - 2 - x")
    assert e == BinOp("-", BinOp("-", Lit(Fraction(1)), Lit(Fraction(2))), Var("x"))
    assert ex("1 - 2 - x").coeff(0, 0) == -1


def test_rational_literals_fold():
    assert parse("1/2") == Lit(Fraction(1, 2))
    assert parse("-2/3") == Lit(Fraction(-2, 3))


def test_call_and_params():
    e = parse("exp(-2*x) * alpha")
    assert isinstance(e, BinOp)
    assert isinstance(e.left, Call)
    assert e.right == Param("alpha")
    assert parameters_of("a*x + b/c") == {"a", "b", "c"}


def test_fractional_exponent_literal():
    e = parse("(1+x)^(-3/2)")
    assert e == Pow(BinOp("+", Lit(Fraction(1)), Var("x")), Fraction(-3, 2))


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


def test_nesting_past_the_recursion_limit_is_a_syntax_error():
    with pytest.raises(ExprSyntaxError, match="nested too deeply"):
        parse("(" * 300 + "x" + ")" * 300)
    with pytest.raises(ExprSyntaxError, match="nested too deeply"):
        expand("-" * 1200 + "x")
    # a left-deep sum parses in a loop but expands by recursion
    with pytest.raises(ExprSyntaxError, match="too deeply to expand"):
        expand("+".join(["x"] * 3000), order=2)
    assert expand("(" * 100 + "x" + ")" * 100, order=2) == expand("x", order=2)


def test_constant_division_by_zero_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("1/0")


# --- printing round trip ---------------------------------------------------


CORPUS = [
    "x", "y", "1/2", "-2/3", "x + y", "x - -y", "2*x^2 - y^3/3",
    "exp(-2*x)", "sqrt(1 + x)", "(1+x)^(-3/2)", "a*exp(x) + b",
    "-(x + y)^2", "1 + x*y - x^2*y^2/4", "exp(x)^2 * exp(-2*x)",
]


@pytest.mark.parametrize("text", CORPUS)
def test_to_text_round_trip(text):
    tree = parse(text)
    assert parse(to_text(tree)) == tree


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


@given(st.integers(-8, 8), st.integers(1, 8))
def test_expand_rational_arithmetic_matches_fractions(p, q):
    u = ex("p/q + x", {"p": p, "q": q})
    assert u.coeff(0, 0) == Fraction(p, q)
