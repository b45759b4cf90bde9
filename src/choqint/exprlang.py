"""Tiny expression language for user-supplied functions of one variable ``t``.

Grammar (EBNF)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom ('^' factor)?
    atom   := NUMBER | 't' | IDENT '(' expr (',' expr)? ')' | '(' expr ')'

``IDENT`` is one of ``sqrt``, ``exp``, ``ln``, ``abs``, ``pow``; ``NUMBER``
is a decimal literal with optional exponent.  Power binds tighter than unary
minus and is right-associative.

Expressions are immutable after parsing; evaluation is re-entrant, accepts
scalars or numpy arrays, and never returns a silent NaN: leaving the domain
raises :class:`~choqint.errors.DomainError`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, NonDifferentiableError, ParseError

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


@dataclass(frozen=True)
class Expr:
    """Base node.  Subclasses implement ``_eval``/``_diff``/``_render``."""

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
        text = repr(self.value)
        # a negative literal binds like unary minus, so a power base needs parens
        if self.value < 0 and prec > 3:
            return f"({text})"
        return text


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
        body = "-" + self.arg._render(3)
        return f"({body})" if prec > 3 else body


def _first_bad(t: np.ndarray, mask: np.ndarray) -> float:
    return float(t[np.argmax(mask)])


def _full(t: np.ndarray, value) -> np.ndarray:
    """``value``, a constant's scalar (it broadcasts in + - * /) or an array,
    as an array of t's shape: exp, log and power round differently on a
    broadcast scalar (np.power(x, 2.0) differs in the last bit)."""
    return np.full_like(t, value) if np.ndim(value) == 0 else value


@dataclass(frozen=True)
class Add(Expr):
    lhs: Expr
    rhs: Expr

    def _eval(self, t):
        return self.lhs._eval(t) + self.rhs._eval(t)

    def _diff(self):
        return build(Add, self.lhs._diff(), self.rhs._diff())

    def _render(self, prec):
        body = f"{self.lhs._render(1)} + {self.rhs._render(2)}"
        return f"({body})" if prec > 1 else body


@dataclass(frozen=True)
class Sub(Expr):
    lhs: Expr
    rhs: Expr

    def _eval(self, t):
        return self.lhs._eval(t) - self.rhs._eval(t)

    def _diff(self):
        return build(Sub, self.lhs._diff(), self.rhs._diff())

    def _render(self, prec):
        body = f"{self.lhs._render(1)} - {self.rhs._render(2)}"
        return f"({body})" if prec > 1 else body


@dataclass(frozen=True)
class Mul(Expr):
    lhs: Expr
    rhs: Expr

    def _eval(self, t):
        return self.lhs._eval(t) * self.rhs._eval(t)

    def _diff(self):
        return build(Add, build(Mul, self.lhs._diff(), self.rhs),
                     build(Mul, self.lhs, self.rhs._diff()))

    def _render(self, prec):
        body = f"{self.lhs._render(2)}*{self.rhs._render(3)}"
        return f"({body})" if prec > 2 else body


@dataclass(frozen=True)
class Div(Expr):
    lhs: Expr
    rhs: Expr

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

    def _render(self, prec):
        body = f"{self.lhs._render(2)}/{self.rhs._render(3)}"
        return f"({body})" if prec > 2 else body


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: Expr

    def _eval(self, t):
        b = self.base._eval(t)
        e = self.exponent._eval(t)
        bad = b < 0.0
        if bad.any():
            raise DomainError(render(self), _first_bad(t, bad), "negative base of a power")
        if np.any(e < 0.0) and np.any(bad := (b == 0.0) & (e < 0.0)):
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

    def _render(self, prec):
        # base must sit at atom level, exponent is a factor (right-associative)
        body = f"{self.base._render(4)}^{self.exponent._render(3)}"
        return f"({body})" if prec > 3 else body


@dataclass(frozen=True)
class Sqrt(Expr):
    arg: Expr

    def _eval(self, t):
        u = self.arg._eval(t)
        bad = u < 0.0
        if bad.any():
            raise DomainError(render(self), _first_bad(t, bad), "sqrt of a negative")
        return np.sqrt(u)

    def _diff(self):
        return build(Div, self.arg._diff(), build(Mul, Num(2.0), self))

    def _render(self, prec):
        return f"sqrt({self.arg._render(0)})"


@dataclass(frozen=True)
class Exp(Expr):
    arg: Expr

    def _eval(self, t):
        return np.exp(_full(t, self.arg._eval(t)))

    def _diff(self):
        return build(Mul, self, self.arg._diff())

    def _render(self, prec):
        return f"exp({self.arg._render(0)})"


@dataclass(frozen=True)
class Ln(Expr):
    arg: Expr

    def _eval(self, t):
        u = self.arg._eval(t)
        bad = u <= 0.0
        if bad.any():
            raise DomainError(render(self), _first_bad(t, bad), "ln of a non-positive")
        return np.log(_full(t, u))

    def _diff(self):
        return build(Div, self.arg._diff(), self.arg)

    def _render(self, prec):
        return f"ln({self.arg._render(0)})"


@dataclass(frozen=True)
class Abs(Expr):
    arg: Expr

    def _eval(self, t):
        return np.abs(self.arg._eval(t))

    def _diff(self):
        raise NonDifferentiableError("abs has no symbolic derivative in this version")

    def _render(self, prec):
        return f"abs({self.arg._render(0)})"


# ---------------------------------------------------------------------------
# Folding builder.  Every tree the package makes (parser, derivatives,
# substitution) goes through ``build``.  A node whose operands are all
# constant collapses by running through the standard evaluator, so folded
# values are bit-identical to unfolded evaluation; invalid constants (1/0,
# ln(-1), overflow) stay unfolded and error at evaluation time exactly as
# written.  Otherwise a binary node drops an operand equal to its identity
# on that side (``_IDENTITY``: left, right; None where the side has none).
# Identity folds are limited to those that cannot widen the domain (in
# particular x^1 keeps its node: powers reject negative bases, bare x does
# not; 0*x keeps its node: x may leave its domain).

_IDENTITY = {Add: (0.0, 0.0), Sub: (None, 0.0), Mul: (1.0, 1.0), Div: (None, 1.0)}


def build(cls: type, *args: Expr) -> Expr:
    """The node ``cls(*args)``, constant-folded."""
    node = cls(*args)
    if all(isinstance(arg, Num) for arg in args):
        try:
            return Num(evaluate(node, 0.0))
        except DomainError:
            return node
    left, right = _IDENTITY.get(cls, (None, None))
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

_FUNCTIONS = {"sqrt": Sqrt, "exp": Exp, "ln": Ln, "abs": Abs, "pow": Pow}


def _byte_offset(src: str, index: int) -> int:
    return len(src[:index].encode("utf-8"))


@dataclass(frozen=True)
class _Token:
    kind: str  # 'number' | 'ident' | 'op' | 'end'
    text: str
    offset: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(src):
        m = _TOKEN_RE.match(src, i)
        if m is None:
            raise ParseError(_byte_offset(src, i), "a token", repr(src[i]))
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), _byte_offset(src, i)))
        i = m.end()
    tokens.append(_Token("end", "", _byte_offset(src, len(src))))
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

    def leave(self) -> None:
        self.depth -= 1

    def parse_expr(self) -> Expr:
        self.enter(self.peek())
        node = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.parse_term()
            node = build(Add if op == "+" else Sub, node, rhs)
        self.leave()
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            rhs = self.parse_factor()
            node = build(Mul if op == "*" else Div, node, rhs)
        return node

    def parse_factor(self) -> Expr:
        tok = self.peek()
        self.enter(tok)
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            node = build(Neg, self.parse_factor())
        else:
            node = self.parse_atom()
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "^":
                self.advance()
                node = build(Pow, node, self.parse_factor())
        self.leave()
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
            if tok.text not in _FUNCTIONS:
                raise ParseError(tok.offset, "one of sqrt, exp, ln, abs, pow, or t",
                                 repr(tok.text))
            self.expect_op("(")
            args = [self.parse_expr()]
            if tok.text == "pow":
                self.expect_op(",")
                args.append(self.parse_expr())
            self.expect_op(")")
            return build(_FUNCTIONS[tok.text], *args)
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
        raise DomainError(render(expr), _first_bad(flat, ~finite), "non-finite result")
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
