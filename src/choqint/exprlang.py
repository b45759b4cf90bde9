"""Tiny expression language for user-supplied functions of one variable ``t``.

Grammar (EBNF)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom ('^' factor)?
    atom   := NUMBER | 't' | IDENT '(' expr (',' expr)? ')' | '(' expr ')'

``IDENT`` is one of ``sqrt``, ``exp``, ``ln``, ``abs``, ``pow``; ``NUMBER``
is a decimal literal with optional exponent.  Power binds tighter than unary
minus and is right-associative.  A tree is at most ``_MAX_DEPTH`` deep:
each parenthesis, call, unary minus and chained operator counts one level.

Each node class carries its operator once: an infix class its symbol,
precedence, operand sides and folding identities, a function its name;
``_NEG`` is the level of unary minus.  The parser, render and build read them.

Expressions are immutable after parsing; evaluation is re-entrant, accepts
scalars or numpy arrays, and never returns a silent NaN: leaving the domain
raises :class:`~choqint.errors.DomainError`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .errors import NON_FINITE_RESULT, DomainError, NonDifferentiableError, ParseError

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Neg",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Sqrt",
    "Exp",
    "Ln",
    "Abs",
    "parse",
    "evaluate",
    "differentiate",
    "render",
    "substitute",
]

_MAX_DEPTH = 200

#: binding level of unary minus (and of a negative literal, which renders
#: like one); a sum binds at 1, a product at 2, an atom at _NEG + 1
_NEG = 3


@dataclass(frozen=True)
class Expr:
    """Base node.  Subclasses implement ``_eval``/``_diff``/``_render``."""

    identity: ClassVar[tuple] = (None, None)

    def __call__(self, t):
        return evaluate(self, t)

    def _eval(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _diff(self) -> "Expr":
        raise NotImplementedError

    def _render(self, prec: int) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Num(Expr):
    value: float

    def _eval(self, t):
        return np.float64(self.value)

    def _diff(self):
        return Num(0.0)

    def _render(self, prec):
        text = repr(self.value)  # written with a minus (-0.0 too), it binds as one
        return f"({text})" if text[0] == "-" and prec > _NEG else text


@dataclass(frozen=True)
class Var(Expr):
    def _eval(self, t):
        return t

    def _diff(self):
        return Num(1.0)

    def _render(self, prec):
        return "t"


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr

    def _eval(self, t):
        return -self.arg._eval(t)

    def _diff(self):
        return build(Neg, self.arg._diff())

    def _render(self, prec):
        body = "-" + self.arg._render(_NEG)
        return f"({body})" if prec > _NEG else body


def _first_bad(t: np.ndarray, mask: np.ndarray) -> float:
    return float(t[np.argmax(mask)])


def _full(t: np.ndarray, value) -> np.ndarray:
    """``value``, a constant's scalar (it broadcasts in + - * /) or an array,
    as an array of t's shape: exp, log and power round differently on a
    broadcast scalar (np.power(x, 2.0) differs in the last bit)."""
    return np.full_like(t, value) if np.ndim(value) == 0 else value


@dataclass(frozen=True)
class _Infix(Expr):
    """A binary operator written between its two operands: ``symbol`` as
    rendered, its precedence ``prec``, and the levels its left and right
    operands bind at (``sides``; the parser reads the right one)."""
    symbol: ClassVar[str]
    prec: ClassVar[int]
    sides: ClassVar[tuple[int, int]]

    def _render(self, prec):
        lhs, rhs = (getattr(self, f.name) for f in fields(self))
        body = lhs._render(self.sides[0]) + self.symbol + rhs._render(self.sides[1])
        return f"({body})" if prec > self.prec else body


@dataclass(frozen=True)
class Add(_Infix):
    lhs: Expr
    rhs: Expr
    symbol, prec, sides, identity = " + ", 1, (1, 2), (0.0, 0.0)

    def _eval(self, t):
        return self.lhs._eval(t) + self.rhs._eval(t)

    def _diff(self):
        return build(Add, self.lhs._diff(), self.rhs._diff())


@dataclass(frozen=True)
class Sub(_Infix):
    lhs: Expr
    rhs: Expr
    symbol, prec, sides, identity = " - ", 1, (1, 2), (None, 0.0)

    def _eval(self, t):
        return self.lhs._eval(t) - self.rhs._eval(t)

    def _diff(self):
        return build(Sub, self.lhs._diff(), self.rhs._diff())


@dataclass(frozen=True)
class Mul(_Infix):
    lhs: Expr
    rhs: Expr
    symbol, prec, sides, identity = "*", 2, (2, _NEG), (1.0, 1.0)

    def _eval(self, t):
        return self.lhs._eval(t) * self.rhs._eval(t)

    def _diff(self):
        return build(Add, build(Mul, self.lhs._diff(), self.rhs),
                     build(Mul, self.lhs, self.rhs._diff()))


@dataclass(frozen=True)
class Div(_Infix):
    lhs: Expr
    rhs: Expr
    symbol, prec, sides, identity = "/", 2, (2, _NEG), (None, 1.0)

    def _eval(self, t):
        den = self.rhs._eval(t)
        bad = den == 0.0
        if bad.any():
            raise DomainError(render(self), _first_bad(t, bad), "division by zero")
        return self.lhs._eval(t) / den

    def _diff(self):
        # l'/r - (l/r)(r'/r): no product of the operands' scales forms to underflow
        quotient = build(Mul, self, build(Div, self.rhs._diff(), self.rhs))
        return build(Sub, build(Div, self.lhs._diff(), self.rhs), quotient)


@dataclass(frozen=True)
class Pow(_Infix):
    base: Expr
    exponent: Expr
    # the base binds as an atom, the exponent as a factor (right-associative)
    symbol, prec, sides, name = "^", _NEG, (_NEG + 1, _NEG), "pow"

    def _eval(self, t):
        b = self.base._eval(t)
        e = self.exponent._eval(t)
        bad = b < 0.0
        if bad.any():
            raise DomainError(render(self), _first_bad(t, bad), "negative base of a power")
        # .any(), not np.any, whose wrapper costs microseconds on a constant's scalar
        if (e < 0.0).any() and (bad := (b == 0.0) & (e < 0.0)).any():
            raise DomainError(render(self), _first_bad(t, bad), "zero raised to a negative power")
        return _full(t, b) ** _full(t, e)

    def _diff(self):
        expo = self.exponent
        if isinstance(expo, Num):
            c = expo.value
            if c == 0.0:
                return Num(0.0)
            # d(u^c) = c * u^(c-1) * u'
            return build(Mul, build(Mul, Num(c), build(Pow, self.base, Num(c - 1.0))),
                         self.base._diff())
        if isinstance(self.base, Num):
            c = self.base.value
            if c <= 0.0:
                raise NonDifferentiableError(
                    f"cannot differentiate {render(self)}: non-positive constant base"
                )
            # d(c^u) = c^u * ln(c) * u'
            return build(Mul, build(Mul, self, Num(math.log(c))), self.exponent._diff())
        raise NonDifferentiableError(
            f"cannot differentiate {render(self)}: both base and exponent vary"
        )


@dataclass(frozen=True)
class _Call(Expr):
    """A function of one argument, written ``name(arg)`` (a class attribute)."""
    arg: Expr

    def _render(self, prec):
        return f"{self.name}({self.arg._render(0)})"


class Sqrt(_Call):  # adds no field: a frozen dataclass by inheritance
    name = "sqrt"

    def _eval(self, t):
        u = self.arg._eval(t)
        bad = u < 0.0
        if bad.any():
            raise DomainError(render(self), _first_bad(t, bad), "sqrt of a negative")
        return np.sqrt(u)

    def _diff(self):
        return build(Div, self.arg._diff(), build(Mul, Num(2.0), self))


class Exp(_Call):
    name = "exp"

    def _eval(self, t):
        return np.exp(_full(t, self.arg._eval(t)))

    def _diff(self):
        return build(Mul, self, self.arg._diff())


class Ln(_Call):
    name = "ln"

    def _eval(self, t):
        u = self.arg._eval(t)
        bad = u <= 0.0
        if bad.any():
            raise DomainError(render(self), _first_bad(t, bad), "ln of a non-positive")
        return np.log(_full(t, u))

    def _diff(self):
        return build(Div, self.arg._diff(), self.arg)


class Abs(_Call):
    name = "abs"

    def _eval(self, t):
        return np.abs(self.arg._eval(t))

    def _diff(self):
        raise NonDifferentiableError("abs has no symbolic derivative in this version")


#: the infix operators by symbol and the functions by name, as the parser reads them
_INFIX = {cls.symbol.strip(): cls for cls in _Infix.__subclasses__()}
_FUNCTIONS = {cls.name: cls for cls in (*_Call.__subclasses__(), Pow)}


# ---------------------------------------------------------------------------
# Folding builder.  Every tree the package makes (parser, derivatives,
# substitution) goes through ``build``.  A node whose operands are all
# constant collapses by running through the standard evaluator, so folded
# values are bit-identical to unfolded evaluation; invalid constants (1/0,
# ln(-1), overflow) stay unfolded and error at evaluation time exactly as
# written.  Otherwise a binary node drops an operand equal to its class's
# ``identity`` on that side (left, right; None where the side has none).
# Identity folds are limited to those that cannot widen the domain (in
# particular x^1 keeps its node: powers reject negative bases, bare x does
# not; 0*x keeps its node: x may leave its domain).

def build(cls: type, *args: Expr) -> Expr:
    """The node ``cls(*args)``, constant-folded."""
    node = cls(*args)
    if all(isinstance(arg, Num) for arg in args):
        try:
            return Num(evaluate(node, 0.0))
        except DomainError:
            return node
    left, right = cls.identity
    if isinstance(args[0], Num) and args[0].value == left:
        return args[1]
    if isinstance(args[-1], Num) and args[-1].value == right:
        return args[0]
    return node


# ---------------------------------------------------------------------------
# Lexer / parser

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^(),])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # 'number' | 'ident' | 'op' | 'end'
    text: str
    offset: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    i = offset = 0  # offset: the UTF-8 byte offset of src[i]
    while i < len(src):
        m = _TOKEN_RE.match(src, i)
        if m is None:
            raise ParseError(offset, "a token", repr(src[i]))
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), offset))
        offset += len(m.group().encode("utf-8"))
        i = m.end()
    tokens.append(_Token("end", "", offset))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def describe(self, tok: _Token) -> str:
        return "end of input" if tok.kind == "end" else repr(tok.text)

    def expect_op(self, op: str) -> None:
        tok = self.peek()
        if tok.kind == "op" and tok.text == op:
            self.advance()
            return
        raise ParseError(tok.offset, repr(op), self.describe(tok))

    def enter(self, tok: _Token) -> None:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError(tok.offset, "a shallower expression",
                             "nesting deeper than %d levels" % _MAX_DEPTH)

    def parse_expr(self, floor: int = 0) -> Expr:
        """An operand and every infix operator that follows at precedence
        ``floor`` or above.  The call and each operator it chains count one
        level until it returns, so the limit bounds the tree's depth."""
        outer = self.depth
        tok = self.peek()
        self.enter(tok)
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            node = build(Neg, self.parse_expr(_NEG))
        else:
            node = self.parse_atom()
        while ((tok := self.peek()).kind == "op" and (op := _INFIX.get(tok.text))
               and op.prec >= floor):
            self.enter(self.advance())
            node = build(op, node, self.parse_expr(op.sides[1]))
        self.depth = outer
        return node

    def parse_atom(self) -> Expr:
        tok = self.advance()
        if tok.kind == "number":
            value = float(tok.text)
            if not math.isfinite(value):
                raise ParseError(tok.offset, "a representable number",
                                 f"out-of-range literal {tok.text!r}")
            return Num(value)
        if tok.kind == "ident":
            if tok.text == "t":
                return Var()
            if (cls := _FUNCTIONS.get(tok.text)) is None:
                raise ParseError(tok.offset, f"one of {', '.join(_FUNCTIONS)}, or t",
                                 repr(tok.text))
            self.expect_op("(")
            args = [self.parse_expr()]
            for _ in fields(cls)[1:]:
                self.expect_op(",")
                args.append(self.parse_expr())
            self.expect_op(")")
            return build(cls, *args)
        if tok.kind == "op" and tok.text == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ParseError(tok.offset, "a number, 't', a function call, or '('",
                         self.describe(tok))


def parse(src: str) -> Expr:
    """Parse ``src`` into an expression tree.

    Raises :class:`ParseError` (with a byte offset into the UTF-8 source)
    on any malformed input; never aborts.
    """
    parser = _Parser(_tokenize(src))
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(tok.offset, "end of input", parser.describe(tok))
    return node


# ---------------------------------------------------------------------------
# Public operations

def evaluate(expr: Expr, t):
    """Evaluate ``expr`` at ``t`` (scalar or ndarray) in double precision.

    Domain violations raise :class:`DomainError`; results are always finite.
    """
    arr = np.asarray(t, dtype=float)
    flat = np.atleast_1d(arr).ravel()
    with np.errstate(all="ignore"):
        out = _full(flat, expr._eval(flat))
    if out is flat:  # t itself (Var): a result never aliases the caller's array
        out = flat.copy()
    finite = np.isfinite(out)
    if not finite.all():
        raise DomainError(render(expr), _first_bad(flat, ~finite), NON_FINITE_RESULT)
    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


def differentiate(expr: Expr) -> Expr:
    """Symbolic derivative with constant folding (no further simplification).

    Raises :class:`NonDifferentiableError` for ``abs`` and for powers where
    both base and exponent vary.
    """
    return expr._diff()


def render(expr: Expr) -> str:
    """Render to source text; ``parse(render(e))`` evaluates identically."""
    return expr._render(0)


def substitute(expr: Expr, replacement: Expr) -> Expr:
    """Return a copy of ``expr`` with every occurrence of ``t`` replaced."""
    if isinstance(expr, Var):
        return replacement
    if isinstance(expr, Num):
        return expr
    return build(type(expr), *(substitute(getattr(expr, f.name), replacement)
                               for f in fields(expr)))


def _affine(expr: Expr) -> tuple[float, float] | None:
    """(slope, intercept) of an expression affine in t, or None."""
    if isinstance(expr, (Var, Num)):
        return (1.0, 0.0) if isinstance(expr, Var) else (0.0, expr.value)
    parts = ([_affine(getattr(expr, f.name)) for f in fields(expr)]
             if isinstance(expr, (Neg, Add, Sub, Mul, Div)) else [None])
    if None in parts:
        return None
    if isinstance(expr, Neg):
        return -parts[0][0], -parts[0][1]
    (p, q), (r, u) = parts
    if isinstance(expr, (Add, Sub)):
        sign = 1.0 if isinstance(expr, Add) else -1.0
        return p + sign * r, q + sign * u
    if isinstance(expr, Div):
        return (p / u, q / u) if r == 0.0 != u else None
    return (p * u, q * u) if r == 0.0 else (r * q, u * q) if p == 0.0 else None


def breakpoints(expr: Expr, lo: float, hi: float) -> tuple[float, ...]:
    """The sorted points in (lo, hi) where ``expr`` has a kink it names: the
    zeros of the affine arguments of ``abs``.  A zero is computed from the
    argument's slope and intercept, so it is exact for ``t - c`` and within
    rounding otherwise; an argument that is not affine in t names none."""
    found, stack = set(), [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Abs) and (line := _affine(node.arg)) and line[0] != 0.0:
            found.add(-line[1] / line[0])
        stack.extend(child for f in fields(node)
                     if isinstance(child := getattr(node, f.name), Expr))
    return tuple(sorted(b for b in found if lo < b < hi))
