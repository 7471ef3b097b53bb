"""A minimal expression language for integrands of one variable.

Grammar (standard precedence, right-associative '^', unary minus binds
tighter than '^'):

    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := unary ('^' factor)?
    unary   := '-'? primary
    primary := number | 'x' | name | ident '(' args ')' | '(' expr ')'
    args    := expr (',' expr)*

Numbers are decimal with an optional exponent, and finite as doubles.  The
function catalog is exp, ln, sqrt, gamma, lgamma, abs (one argument) and
pow (two arguments).  A name is an identifier bound by the caller to an
expression of its own.  An expression may nest at most MAX_DEPTH levels
deep.

Each node sets two attributes, not dataclass fields, when it is built:
``height``, 1 at a number or x and else 1 + its highest child's, and
``run``, a closure over its children's closures, so ``evaluate`` never walks
the tree or dispatches on node types again.  A number, a negated number or x
is read in place, not called, by a + - * beside a constant, a / by a nonzero
constant (which makes no zero test) and a power of a constant base or to the
power x.  A function or a power calls its C function once and handles what
it raises in place: exp, ln, sqrt and gamma share one closure, read from
one table, that makes C's ValueError the ``EvalError`` and OverflowError an
inf of the argument's sign; abs and lgamma keep closures of their own.  No
code is generated per tree: a fresh integrand costs its parse alone.  A
closure holds its operator, leaf values and child closures, never its own
node, so a tree has no reference cycle and a dropped tree is freed by
reference counting, not left to the cycle collector.  A failing evaluator
builds an equal node for its ``EvalError``.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Union

from .errors import NumericalError

__all__ = [
    "MAX_DEPTH",
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
    """Syntax error, carrying the byte offset where parsing failed.  The
    offset is into ``define``'s value when that is given, else into the
    expression."""

    def __init__(self, offset: int, message: str, define: str | None = None):
        where = "" if define is None else f" in the value of {define!r}"
        super().__init__(f"syntax error at offset {offset}{where}: {message}")
        self.offset = offset
        self.reason = message
        self.define = define


class EvalError(NumericalError):
    """Domain error while evaluating, carrying the offending subexpression."""

    def __init__(self, node: "Expr", message: str):
        super().__init__(f"{message} in {to_text(node)!r}")
        self.node = node


# A node's evaluator does the float operations of a walk of the tree (left
# operand first) in the same order, and raises the same errors; the walk is
# kept as the tests' reference.
_Fn = Callable[[float], float]


def _set(node: "Expr", run: _Fn, height: int) -> None:
    """Set a node's evaluator and tree height, past its frozen ``__setattr__``."""
    attributes = node.__dict__
    attributes["run"] = run
    attributes["height"] = height


@dataclass(frozen=True)
class Number:
    value: float

    def __post_init__(self):
        value = self.value
        _set(self, lambda x: value, 1)


@dataclass(frozen=True)
class Variable:
    def __post_init__(self):
        _set(self, lambda x: x, 1)


@dataclass(frozen=True)
class Negate:
    operand: "Expr"

    def __post_init__(self):
        operand = self.operand.run
        _set(self, lambda x: -operand(x), 1 + self.operand.height)


@dataclass(frozen=True)
class BinaryOp:
    op: str
    left: "Expr"
    right: "Expr"

    def __post_init__(self):
        _set(self, _compile_binary(self.op, self.left, self.right),
             1 + max(self.left.height, self.right.height))


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["Expr", ...]

    def __post_init__(self):
        _set(self, _compile_call(self.name, self.args), 1 + max([a.height for a in self.args]))


Expr = Union[Number, Variable, Negate, BinaryOp, Call]

_ARITY = {"exp": 1, "ln": 1, "sqrt": 1, "gamma": 1, "lgamma": 1, "abs": 1, "pow": 2}

NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
# One token per match; whitespace matches nothing and is skipped.
_TOKEN_RE = re.compile(
    rf"(?P<number>{NUMBER_RE.pattern})|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])|(?P<bad>\S)"
)


def _tokens(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) of each token (an operator is its own kind), then "end"."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, token = m.lastgroup, m.group()
        if kind == "bad":
            raise ParseError(m.start(), f"unexpected character {token!r}")
        if kind == "number" and float(token) == math.inf:
            raise ParseError(m.start(), f"number {token!r} overflows to inf")
        tokens.append((token if kind == "op" else kind, token, m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


# The deepest expression the parser accepts: this many groups (parentheses
# or call arguments) open inside each other, and a tree this high (a sum of
# n terms is n high).  Parsing, evaluate and to_text recurse a few frames a
# level, so they stay far from the interpreter's recursion limit.
MAX_DEPTH = 100
_TOO_DEEP = f"expression nests more than {MAX_DEPTH} levels deep"


class _Parser:
    def __init__(self, text: str, defined: dict[str, Expr]):
        self.tokens = _tokens(text)
        self.pos = 0
        self.names = {**defined, "x": Variable()}
        self.depth = 0  # groups open at the current token

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

    def open_group(self) -> None:
        """Consume the '(' of a group, the only place the parser recurses."""
        offset = self.expect("(")[2]
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(offset, _TOO_DEEP)

    def checked(self, node: Expr, offset: int) -> Expr:
        """``node``, if its tree is not too high."""
        if node.height > MAX_DEPTH:
            raise ParseError(offset, _TOO_DEEP)
        return node

    def parse(self) -> Expr:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(tok[2], f"expected end of input, found {tok[1]!r}")
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, offset = self.advance()
            node = self.checked(BinaryOp(op, node, self.term()), offset)
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, offset = self.advance()
            node = self.checked(BinaryOp(op, node, self.factor()), offset)
        return node

    def factor(self) -> Expr:
        node = self.unary()
        if self.peek()[0] != "^":
            return node
        nodes, offsets = [node], []
        while self.peek()[0] == "^":
            offsets.append(self.advance()[2])
            nodes.append(self.unary())
        node = nodes.pop()
        for offset, left in zip(reversed(offsets), reversed(nodes)):  # right-associative
            node = self.checked(BinaryOp("^", left, node), offset)
        return node

    def unary(self) -> Expr:
        if self.peek()[0] == "-":
            offset = self.advance()[2]
            return self.checked(Negate(self.primary()), offset)
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
            if text in self.names:
                return self.names[text]
            raise ParseError(offset, f"unknown name {text!r} (only 'x' is a variable)")
        if kind == "(":
            self.open_group()
            node = self.expr()
            self.expect(")")
            self.depth -= 1
            return node
        found = text or "end of input"
        raise ParseError(offset, f"expected a number, 'x', function, or '(', found {found!r}")

    def call(self, name: str, offset: int) -> Expr:
        if name not in _ARITY:
            raise ParseError(
                offset, f"unknown function {name!r}; known: {sorted(_ARITY)}"
            )
        self.open_group()
        args = [self.expr()]
        while self.peek()[0] == ",":
            self.advance()
            args.append(self.expr())
        self.expect(")")
        self.depth -= 1
        if len(args) != _ARITY[name]:
            raise ParseError(
                offset,
                f"{name} takes {_ARITY[name]} argument(s), got {len(args)}",
            )
        return self.checked(Call(name, tuple(args)), offset)


def parse(text: str, defines: dict[str, str] | None = None) -> Expr:
    """Parse expression text into an AST.  Each name in ``defines`` is bound
    to the tree its value text parses to, wherever it stands as a name; an
    error in a value names the define."""
    names = {}
    for name, value in (defines or {}).items():
        try:
            names[name] = _Parser(value, {}).parse()
        except ParseError as exc:
            raise ParseError(exc.offset, exc.reason, name) from None
    return _Parser(text, names).parse()


def _operand(e: Expr) -> tuple[str, object]:
    """How the closure of e's parent reads e: ("c", its value) for a number
    or a negated number, ("x", None) for the variable, else ("f", e.run)."""
    if isinstance(e, Number):
        return "c", e.value
    if isinstance(e, Negate) and isinstance(e.operand, Number):
        return "c", -e.operand.value
    return ("x", None) if isinstance(e, Variable) else ("f", e.run)


# The closure of + - * / for each shape of operands with a constant (c)
# beside x or a closure (f); a / folds only a nonzero constant divisor.
_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_FOLDED = {
    "fc": lambda op, f, c: lambda x: op(f(x), c),
    "cf": lambda op, c, f: lambda x: op(c, f(x)),
    "xc": lambda op, _, c: lambda x: op(x, c),
    "cx": lambda op, c, _: lambda x: op(c, x),
}


def _power_of(node: Callable[[], Expr], base_node: Expr, exponent_node: Expr) -> _Fn:
    """A power's closure: C ``math.pow``, called once."""
    (base_shape, constant), (exponent_shape, _) = _operand(base_node), _operand(exponent_node)
    base_of = None if base_shape == "c" else base_node.run
    exponent_of = None if exponent_shape == "x" else exponent_node.run

    def power(x: float) -> float:
        base = constant if base_of is None else base_of(x)
        exponent = x if exponent_of is None else exponent_of(x)
        try:
            return math.pow(base, exponent)
        except OverflowError:
            # An odd integer power keeps the sign of its base.
            return math.copysign(math.inf, base) if exponent % 2.0 == 1.0 else math.inf
        except ValueError:
            raise EvalError(node(), f"domain error raising {base!r} to power {exponent!r}")

    return power


# An evaluator holds its node's children and operator, never the node: a
# node holding its own evaluator would make every tree a reference cycle,
# freed only by the cycle collector.  ``node`` rebuilds an equal node for an
# error's message and ``.node`` when evaluation fails.
def _compile_binary(op: str, left_node: Expr, right_node: Expr) -> _Fn:
    (left_shape, a), (right_shape, b) = _operand(left_node), _operand(right_node)
    fold = _FOLDED.get(left_shape + right_shape)
    if fold is not None and op != "^" and (op != "/" or (right_shape == "c" and b != 0.0)):
        return fold(_OPERATORS[op], a, b)
    left, right = left_node.run, right_node.run
    if op == "+":
        return lambda x: left(x) + right(x)
    if op == "-":
        return lambda x: left(x) - right(x)
    if op == "*":
        return lambda x: left(x) * right(x)

    def node() -> Expr:
        return BinaryOp(op, left_node, right_node)

    if op == "/":
        def divide(x: float) -> float:
            num = left(x)
            den = right(x)
            if den == 0.0:
                raise EvalError(node(), "division by zero")
            return num / den

        return divide
    return _power_of(node, left_node, right_node)


# name -> (C function, error text) of the one-argument functions whose C
# function raises ValueError at exactly the arguments they refuse: ln at
# a <= 0, sqrt at a < 0, gamma at a pole.  C lgamma refuses only its poles.
_UNARY = {
    "exp": (math.exp, ""),
    "ln": (math.log, "ln of non-positive value"),
    "sqrt": (math.sqrt, "sqrt of negative value"),
    "gamma": (math.gamma, "gamma pole at"),
}


def _compile_call(name: str, args: tuple[Expr, ...]) -> _Fn:
    if name == "pow":
        return _power_of(lambda: Call(name, args), *args)
    arg = args[0].run
    if name == "abs":
        return lambda x: abs(arg(x))
    if name == "lgamma":
        def lgamma(x: float) -> float:
            a = arg(x)
            if a <= 0.0:
                raise EvalError(Call(name, args), f"lgamma of non-positive value {a!r}")
            try:
                return math.lgamma(a)  # NaN passes through, as in ln
            except OverflowError:
                return math.inf

        return lgamma
    if name not in _UNARY:
        raise TypeError(f"not an expression function: {name!r}")
    function, refusal = _UNARY[name]

    def call(x: float) -> float:
        a = arg(x)
        try:
            return function(a)  # NaN passes through
        except OverflowError:  # exp and gamma; gamma(x) ~ 1/x near 0
            return math.copysign(math.inf, a)
        except ValueError:
            raise EvalError(Call(name, args), f"{refusal} {a!r}") from None

    return call


def evaluate(e: Expr, x: float) -> float:
    """Evaluate an AST at the given value of x."""
    return e.run(x)


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
