"""A small closed-form expression language for coefficient data.

Grammar (precedence climbing, ``^`` binds tightest, then unary minus,
then ``* /``, then ``+ -``; all binary operators associate left)::

    expr    := term (("+" | "-") term)*
    term    := unary (("*" | "/") unary)*
    unary   := "-" unary | power
    power   := atom ("^" exponent)*
    atom    := INT | IDENT | IDENT "(" expr ")" | "(" expr ")"
    exponent:= INT | "-" INT | "(" ["-"] INT ["/" INT] ")"

``x`` and ``y`` are the coordinates; every other identifier is either a
parameter (looked up in an environment at expansion time) or one of the
built-in calls ``exp`` and ``sqrt``.  Exponents are rational literals
with denominator 1 or 2; half-integer powers go through the square
root, so the base's constant term must be a rational square.

:func:`expand` turns an expression into a :class:`~projstruct.jets.Jet2`
at a chosen order.  Environment values may themselves be expressions
(function-valued parameters), which are expanded recursively.

:func:`to_text` prints a fully parenthesized form that parses back to
the same tree.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import ExprSyntaxError, UnboundParameter, UnsupportedExponent
from .jets import DEFAULT_ORDER, Jet2, exp_series, sqrt_series


# --- syntax trees -----------------------------------------------------------

@dataclass(frozen=True)
class Lit:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str  # "x" or "y"


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str  # "+", "-", "*", "/"
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: Fraction


@dataclass(frozen=True)
class Call:
    func: str  # "exp" or "sqrt"
    arg: object


FUNCTIONS = ("exp", "sqrt")
COORDS = ("x", "y")


# --- tokenizer ----------------------------------------------------------------

_PUNCT = "+-*/^()"


def _tokenize(text):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _PUNCT:
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            tokens.append(("int", text[start:pos], start))
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            tokens.append(("ident", text[start:pos], start))
            continue
        raise ExprSyntaxError("unexpected character %r" % ch, pos)
    tokens.append(("end", "", n))
    return tokens


# --- parser ---------------------------------------------------------------------

class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ExprSyntaxError("expected %r, found %r" % (kind, tok[1] or "end of input"), tok[2])
        return tok

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError("unexpected %r" % tok[1], tok[2])
        return e

    def expr(self):
        left = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            right = self.term()
            left = BinOp(op, left, right)
        return left

    def term(self):
        left = self.unary()
        while self.peek()[0] in ("*", "/"):
            op, _, offset = self.advance()
            right = self.unary()
            left = self._fold_div(op, left, right, offset)
        return left

    @staticmethod
    def _fold_div(op, left, right, offset):
        # keep rational literals like 1/2 or -2/3 as single constants
        if isinstance(left, Lit) and isinstance(right, Lit):
            if op == "/":
                if right.value == 0:
                    raise ExprSyntaxError("division by zero in constant", offset)
                return Lit(left.value / right.value)
            return Lit(left.value * right.value)
        return BinOp(op, left, right)

    def unary(self):
        if self.peek()[0] == "-":
            self.advance()
            arg = self.unary()
            if isinstance(arg, Lit):
                return Lit(-arg.value)
            return Neg(arg)
        return self.power()

    def power(self):
        base = self.atom()
        while self.peek()[0] == "^":
            self.advance()
            base = Pow(base, self.exponent())
        return base

    def exponent(self):
        tok = self.peek()
        if tok[0] == "int":
            self.advance()
            return Fraction(int(tok[1]))
        if tok[0] == "-":
            self.advance()
            num = self.expect("int")
            return Fraction(-int(num[1]))
        if tok[0] == "(":
            self.advance()
            sign = 1
            if self.peek()[0] == "-":
                self.advance()
                sign = -1
            num = self.expect("int")
            den = 1
            if self.peek()[0] == "/":
                self.advance()
                den = int(self.expect("int")[1])
                if den == 0:
                    raise ExprSyntaxError("zero denominator in exponent", num[2])
            self.expect(")")
            return Fraction(sign * int(num[1]), den)
        raise ExprSyntaxError("expected a rational exponent", tok[2])

    def atom(self):
        tok = self.advance()
        kind, text, offset = tok
        if kind == "int":
            return Lit(Fraction(int(text)))
        if kind == "ident":
            if text in FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Call(text, arg)
            if self.peek()[0] == "(":
                raise ExprSyntaxError("unknown function %r" % text, offset)
            if text in COORDS:
                return Var(text)
            return Param(text)
        if kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        raise ExprSyntaxError("expected a value, found %r" % (text or "end of input"), offset)


def parse(text):
    """Parse expression text into a syntax tree.

    Text nested deeper than the interpreter's recursion limit allows
    raises :class:`ExprSyntaxError` at the last token read.
    """
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply",
                              parser.tokens[parser.pos - 1][2]) from None


# --- printing ----------------------------------------------------------------------


def _exponent_text(q):
    if q.denominator == 1 and q >= 0:
        return str(q.numerator)
    if q.denominator == 1:
        return "(%d)" % q.numerator
    return "(%d/%d)" % (q.numerator, q.denominator)


def to_text(e):
    """Fully parenthesized form; ``parse(to_text(e))`` rebuilds ``e``."""
    if isinstance(e, Lit):
        return str(e.value)
    if isinstance(e, Var) or isinstance(e, Param):
        return e.name
    if isinstance(e, Neg):
        return "(-%s)" % to_text(e.arg)
    if isinstance(e, BinOp):
        return "(%s %s %s)" % (to_text(e.left), e.op, to_text(e.right))
    if isinstance(e, Pow):
        return "%s^%s" % (to_text(e.base), _exponent_text(e.exponent))
    if isinstance(e, Call):
        return "%s(%s)" % (e.func, to_text(e.arg))
    raise TypeError("not an expression: %r" % (e,))


# --- expansion into jets --------------------------------------------------------------


def expand(e, env=None, order=None):
    """Expand an expression (or expression text) into a 2-jet.

    ``env`` maps parameter names to Fractions, ints, expression text, or
    syntax trees.  Function-valued parameters are expanded recursively;
    reference cycles raise :class:`UnboundParameter`, and a tree nested
    too deeply to expand raises :class:`ExprSyntaxError` (at offset 0).
    """
    order = DEFAULT_ORDER if order is None else order
    if isinstance(e, str):
        e = parse(e)
    env = {} if env is None else env
    try:
        return _expand(e, env, order, frozenset())
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply to expand",
                              0) from None


def _expand(e, env, order, active):
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
        if isinstance(value, (int, Fraction)):
            return Jet2.constant(value, order)
        if isinstance(value, str):
            value = parse(value)
        return _expand(value, env, order, active | {e.name})
    if isinstance(e, Neg):
        return -_expand(e.arg, env, order, active)
    if isinstance(e, BinOp):
        left = _expand(e.left, env, order, active)
        right = _expand(e.right, env, order, active)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left * right
        return left / right
    if isinstance(e, Pow):
        base = _expand(e.base, env, order, active)
        num, den = e.exponent.numerator, e.exponent.denominator
        if den == 1:
            return base ** num
        if den == 2:
            return sqrt_series(base) ** num
        raise UnsupportedExponent(
            "exponent %s has denominator %d (only 1 and 2 are supported)"
            % (e.exponent, den))
    if isinstance(e, Call):
        arg = _expand(e.arg, env, order, active)
        if e.func == "exp":
            return exp_series(arg)
        return sqrt_series(arg)
    raise TypeError("not an expression: %r" % (e,))


def parameters_of(e):
    """The set of parameter names mentioned by an expression tree."""
    if isinstance(e, str):
        e = parse(e)
    out = set()
    _collect_params(e, out)
    return out


def _collect_params(e, out):
    if isinstance(e, Param):
        out.add(e.name)
    elif isinstance(e, Neg):
        _collect_params(e.arg, out)
    elif isinstance(e, BinOp):
        _collect_params(e.left, out)
        _collect_params(e.right, out)
    elif isinstance(e, Pow):
        _collect_params(e.base, out)
    elif isinstance(e, Call):
        _collect_params(e.arg, out)
