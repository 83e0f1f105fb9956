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
(function-valued parameters), which are expanded recursively.  It takes
one pass over the tree, and holds each polynomial sub-tree as one sparse
coefficient dict over one denominator, truncated at the order: literals,
coordinates, parameters bound to rationals, negation, ``+ -`` and ``*``
chains, ``/`` by a nonzero constant and nonnegative integer powers.  Their
sums and products are the ``jets`` kernels ``_lincomb`` and ``_product``.
A ``Jet2`` is built only at the root and where the tree meets a node that
needs series arithmetic: ``exp``, ``sqrt``, a negative or half-integer
power, or a quotient by a non-constant.

Trees are made of :class:`Lit`, :class:`Var`, :class:`Param`, :class:`Neg`,
:class:`Chain` (one whole run of ``+ -`` or of ``* /``, as read), :class:`Pow`
and :class:`Call`.  So a tree is as deep as its text is nested, whatever the
length of its sums and products: only nesting meets the recursion limit, and
:func:`parse` rejects it.  :func:`to_text` prints one pair of parentheses per
chain and around each negative or non-integer literal; ``parse(to_text(e))``
rebuilds ``e``.
"""

import operator
from fractions import Fraction

from .errors import ExprSyntaxError, UnboundParameter, UnsupportedExponent
from .jets import (DEFAULT_ORDER, Jet2, _lincomb, _product, exp_series,
                   sqrt_series)
from .records import Record


# --- syntax trees -----------------------------------------------------------

class Lit(Record):
    value: Fraction


class Var(Record):
    name: str  # "x" or "y"


class Param(Record):
    name: str


class Neg(Record):
    arg: object


class Chain(Record):
    """``first op1 x1 op2 x2 ...``, evaluated left to right; the ops are
    all from ``+ -`` or all from ``* /``."""
    first: object
    rest: tuple  # ((op, operand), ...)


class Pow(Record):
    base: object
    exponent: Fraction


class Call(Record):
    func: str  # "exp" or "sqrt"
    arg: object


FUNCTIONS = ("exp", "sqrt")
COORDS = ("x", "y")
_SUM = ("+", "-")
_PRODUCT = ("*", "/")
_APPLY = {"+": operator.add, "-": operator.sub,
          "*": operator.mul, "/": operator.truediv}


# --- tokenizer ----------------------------------------------------------------

_PUNCT = "+-*/^()"
_DIGITS = "0123456789"
_IDENT = _DIGITS + "_abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _tokenize(text):
    """Tokens (kind, text, offset).  Numbers and names are ASCII: any other
    character, such as ``²`` or ``٣``, is refused at its offset."""
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
        if ch in _IDENT:
            start = pos
            run = _DIGITS if ch in _DIGITS else _IDENT
            while pos < n and text[pos] in run:
                pos += 1
            tokens.append(("int" if run is _DIGITS else "ident",
                           text[start:pos], start))
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
        e = self.chain(_SUM)
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError("unexpected %r" % tok[1], tok[2])
        return e

    def chain(self, ops):
        """A run of ``_SUM`` ops over products, or of ``_PRODUCT`` ops over
        unary operands; a product's leading literals fold into one ``Lit``
        (``1/2``, ``-2/3``; ``2*3*x`` starts with 6)."""
        first = self.chain(_PRODUCT) if ops is _SUM else self.unary()
        rest = []
        while self.peek()[0] in ops:
            op, _, offset = self.advance()
            right = self.chain(_PRODUCT) if ops is _SUM else self.unary()
            if ops is _PRODUCT and not rest and isinstance(first, Lit) \
                    and isinstance(right, Lit):
                if op == "/" and right.value == 0:
                    raise ExprSyntaxError("division by zero in constant", offset)
                first = Lit(_APPLY[op](first.value, right.value))
            else:
                rest.append((op, right))
        return Chain(first, tuple(rest)) if rest else first

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
                arg = self.chain(_SUM)
                self.expect(")")
                return Call(text, arg)
            if self.peek()[0] == "(":
                raise ExprSyntaxError("unknown function %r" % text, offset)
            if text in COORDS:
                return Var(text)
            return Param(text)
        if kind == "(":
            e = self.chain(_SUM)
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


def _rational_text(q):
    """``q`` as an atom: bare if a nonnegative integer, else in parentheses."""
    return str(q) if q.denominator == 1 and q >= 0 else "(%s)" % q


def to_text(e):
    """Fully parenthesized form; ``parse(to_text(e))`` rebuilds ``e``."""
    if isinstance(e, Lit):
        return _rational_text(e.value)
    if isinstance(e, Var) or isinstance(e, Param):
        return e.name
    if isinstance(e, Neg):
        return "(-%s)" % to_text(e.arg)
    if isinstance(e, Chain):
        return "(%s)" % " ".join([to_text(e.first)] + [
            "%s %s" % (op, to_text(x)) for op, x in e.rest])
    if isinstance(e, Pow):
        return "%s^%s" % (to_text(e.base), _rational_text(e.exponent))
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

    One pass: polynomial sub-trees stay coefficient dicts truncated at
    ``order``, and a jet is built only at the root and where the tree
    meets a series node (see the module docstring).  A polynomial text
    builds exactly one jet.
    """
    order = DEFAULT_ORDER if order is None else order
    if isinstance(e, str):
        e = parse(e)
    if order < 0:
        raise ValueError("jet order must be >= 0")
    env = {} if env is None else env
    try:
        return _jet(_expand(e, env, order, frozenset()), order)
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply to expand",
                              0) from None


# A polynomial is a pair (num, den): nonzero int numerators keyed (i, j),
# none of degree above the working order, over one nonzero int den.

def _jet(v, order):
    """``v`` as a jet: a polynomial becomes one, a jet stays as it is."""
    return v if isinstance(v, Jet2) else Jet2._new(*v, order, order)


def _constant(q):
    return ({(0, 0): q.numerator}, q.denominator) if q else ({}, 1)


def _apply(op, a, b, order):
    """``a op b``; a polynomial unless a side is a jet or ``/`` divides by
    a non-constant, which jet arithmetic takes (and may refuse)."""
    if isinstance(a, Jet2) or isinstance(b, Jet2) or op == "/" and not (
            len(b[0]) == 1 and (0, 0) in b[0]):
        return _APPLY[op](_jet(a, order), _jet(b, order))
    (na, da), (nb, db) = a, b
    if op == "*":
        return _product(na, nb, order), da * db
    if op == "/":
        return {k: n * db for k, n in na.items()}, da * nb[(0, 0)]
    return _lincomb([(1, na, da), (1 if op == "+" else -1, nb, db)], order)


def _expand(e, env, order, active):
    """``e`` as a polynomial, or as a jet once it holds a series node."""
    if isinstance(e, Lit):
        return _constant(e.value)
    if isinstance(e, Var):
        if e.name not in COORDS:
            return Jet2.variable(e.name, order)  # raises ValueError
        return ({(1, 0) if e.name == "x" else (0, 1): 1} if order else {}), 1
    if isinstance(e, Param):
        if e.name in active:
            raise UnboundParameter("parameter %r refers to itself" % e.name)
        if e.name not in env:
            raise UnboundParameter("parameter %r is not bound" % e.name)
        value = env[e.name]
        if isinstance(value, (int, Fraction)):
            return _constant(value)
        if isinstance(value, str):
            value = parse(value)
        return _expand(value, env, order, active | {e.name})
    if isinstance(e, Neg):
        v = _expand(e.arg, env, order, active)
        return -v if isinstance(v, Jet2) else (
            {k: -n for k, n in v[0].items()}, v[1])
    if isinstance(e, Chain):
        acc = _expand(e.first, env, order, active)
        for op, x in e.rest:
            acc = _apply(op, acc, _expand(x, env, order, active), order)
        return acc
    if isinstance(e, Pow):
        base = _expand(e.base, env, order, active)
        num, den = e.exponent.numerator, e.exponent.denominator
        if den == 1 and num >= 0 and not isinstance(base, Jet2):
            acc = ({(0, 0): 1}, 1)
            for bit in bin(num)[2:]:  # binary powering, high bit first
                acc = _apply("*", acc, acc, order)
                acc = _apply("*", acc, base, order) if bit == "1" else acc
            return acc
        base = _jet(base, order)
        if den == 1:
            return base ** num
        if den == 2:
            return sqrt_series(base) ** num
        raise UnsupportedExponent(
            "exponent %s has denominator %d (only 1 and 2 are supported)"
            % (e.exponent, den))
    if isinstance(e, Call):
        arg = _jet(_expand(e.arg, env, order, active), order)
        if e.func == "exp":
            return exp_series(arg)
        return sqrt_series(arg)
    raise TypeError("not an expression: %r" % (e,))

