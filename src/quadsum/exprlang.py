"""A minimal expression language for integrands of one variable.

Grammar (standard precedence, right-associative '^', unary minus binds
tighter than '^'):

    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := unary ('^' factor)?
    unary   := '-'? primary
    primary := number | 'x' | ident '(' args ')' | '(' expr ')'
    args    := expr (',' expr)*

Numbers are decimal with an optional exponent.  The function catalog is
exp, ln, sqrt, gamma, abs (one argument) and pow (two arguments).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

from .errors import NumericalError, ValidationError
from .special import gamma as _gamma

__all__ = [
    "ParseError",
    "EvalError",
    "Expr",
    "Number",
    "Variable",
    "Negate",
    "BinaryOp",
    "Call",
    "parse",
    "evaluate",
    "to_text",
]


class ParseError(ValueError):
    """Syntax error, carrying the byte offset where parsing failed."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"syntax error at offset {offset}: {message}")
        self.offset = offset


class EvalError(NumericalError):
    """Domain error while evaluating, carrying the offending subexpression."""

    def __init__(self, node: "Expr", message: str):
        super().__init__(f"{message} in {to_text(node)!r}")
        self.node = node


@dataclass(frozen=True)
class Number:
    value: float


@dataclass(frozen=True)
class Variable:
    pass


@dataclass(frozen=True)
class Negate:
    operand: "Expr"


@dataclass(frozen=True)
class BinaryOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["Expr", ...]


Expr = Union[Number, Variable, Negate, BinaryOp, Call]

_ARITY = {"exp": 1, "ln": 1, "sqrt": 1, "gamma": 1, "abs": 1, "pow": 2}

NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []  # (kind, text, offset)
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in "+-*/^(),":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            m = NUMBER_RE.match(text, i)
            if m:
                self.tokens.append(("number", m.group(), i))
                i = m.end()
                continue
            m = _IDENT_RE.match(text, i)
            if m:
                self.tokens.append(("ident", m.group(), i))
                i = m.end()
                continue
            raise ParseError(i, f"unexpected character {ch!r}")
        self.tokens.append(("end", "", len(text)))


class _Parser:
    def __init__(self, text: str):
        self.tokens = _Lexer(text).tokens
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            found = tok[1] or "end of input"
            raise ParseError(tok[2], f"expected {kind!r}, found {found!r}")
        return self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(tok[2], f"expected end of input, found {tok[1]!r}")
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = BinaryOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            node = BinaryOp(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        node = self.unary()
        if self.peek()[0] == "^":
            self.advance()
            node = BinaryOp("^", node, self.factor())
        return node

    def unary(self) -> Expr:
        if self.peek()[0] == "-":
            self.advance()
            return Negate(self.primary())
        return self.primary()

    def primary(self) -> Expr:
        kind, text, offset = self.peek()
        if kind == "number":
            self.advance()
            return Number(float(text))
        if kind == "ident":
            self.advance()
            if self.peek()[0] == "(":
                return self.call(text, offset)
            if text == "x":
                return Variable()
            raise ParseError(offset, f"unknown name {text!r} (only 'x' is a variable)")
        if kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        found = text or "end of input"
        raise ParseError(offset, f"expected a number, 'x', function, or '(', found {found!r}")

    def call(self, name: str, offset: int) -> Expr:
        if name not in _ARITY:
            raise ParseError(
                offset, f"unknown function {name!r}; known: {sorted(_ARITY)}"
            )
        self.expect("(")
        args = [self.expr()]
        while self.peek()[0] == ",":
            self.advance()
            args.append(self.expr())
        self.expect(")")
        if len(args) != _ARITY[name]:
            raise ParseError(
                offset,
                f"{name} takes {_ARITY[name]} argument(s), got {len(args)}",
            )
        return Call(name, tuple(args))


def parse(text: str) -> Expr:
    """Parse expression text into an AST."""
    return _Parser(text).parse()


def _power(node: Expr, base: float, exponent: float) -> float:
    try:
        return math.pow(base, exponent)
    except OverflowError:
        return math.inf
    except ValueError:
        raise EvalError(node, f"domain error raising {base!r} to power {exponent!r}")


def evaluate(e: Expr, x: float) -> float:
    """Evaluate an AST at the given value of x."""
    if isinstance(e, Number):
        return e.value
    if isinstance(e, Variable):
        return x
    if isinstance(e, Negate):
        return -evaluate(e.operand, x)
    if isinstance(e, BinaryOp):
        left = evaluate(e.left, x)
        right = evaluate(e.right, x)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left * right
        if e.op == "/":
            if right == 0.0:
                raise EvalError(e, "division by zero")
            return left / right
        return _power(e, left, right)
    if isinstance(e, Call):
        args = [evaluate(a, x) for a in e.args]
        if e.name == "exp":
            try:
                return math.exp(args[0])
            except OverflowError:
                return math.inf
        if e.name == "ln":
            if args[0] <= 0.0:
                raise EvalError(e, f"ln of non-positive value {args[0]!r}")
            return math.log(args[0])
        if e.name == "sqrt":
            if args[0] < 0.0:
                raise EvalError(e, f"sqrt of negative value {args[0]!r}")
            return math.sqrt(args[0])
        if e.name == "abs":
            return abs(args[0])
        if e.name == "gamma":
            try:
                return _gamma(args[0])
            except ValidationError:
                raise EvalError(e, f"gamma pole at {args[0]!r}")
        return _power(e, args[0], args[1])  # pow
    raise TypeError(f"not an expression node: {e!r}")


def to_text(e: Expr) -> str:
    """Render an AST as text that reparses to a structurally identical tree."""
    if isinstance(e, Number):
        return repr(e.value)
    if isinstance(e, Variable):
        return "x"
    if isinstance(e, Negate):
        return f"(-{to_text(e.operand)})"
    if isinstance(e, BinaryOp):
        return f"({to_text(e.left)}{e.op}{to_text(e.right)})"
    if isinstance(e, Call):
        return f"{e.name}({', '.join(to_text(a) for a in e.args)})"
    raise TypeError(f"not an expression node: {e!r}")
