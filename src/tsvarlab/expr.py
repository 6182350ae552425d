"""Formula parsing and exact directional differentiation.

Concrete grammar (EBNF), whitespace insignificant::

    expr    = term { ("+" | "-") term } ;
    term    = factor { ("*" | "/") factor } ;
    factor  = "-" factor | power ;
    power   = atom [ "^" factor ] ;          (* right-associative *)
    atom    = number | variable | function "(" expr ")" | "(" expr ")" ;

    function = "sin" | "cos" | "exp" | "ln" | "sqrt" | "abs" ;
    variable = "t" | "eps" | ("q" | "qs" | "qd") index ;
    number   = digits ["." digits] [("e"|"E") ["+"|"-"] digits] | "." digits ... ;

Variables: ``t`` is time, ``eps`` the transformation parameter, ``q<k>``
state components, ``qs<k>`` forward-jumped state, ``qd<k>`` delta-derivative
components, with 1-based index ``k`` up to the declared dimension.

Derivatives are computed by forward-mode dual numbers, never by finite
differences; seeds may be floats or numpy arrays (vector mode evaluates
several directions in one pass).  Variable values may be arrays over cells,
so one call evaluates a tree on every cell.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field

import numpy as np

from . import _dual
from ._dual import Dual, DomainError

FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt", "abs")
VARIABLE_KINDS = ("t", "eps", "q", "qs", "qd")

_FN_TABLE = {
    "sin": _dual.sin,
    "cos": _dual.cos,
    "exp": _dual.exp,
    "ln": _dual.ln,
    "sqrt": _dual.sqrt,
    "abs": _dual.absval,
}

_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _dual.div, "^": _dual.power}


class ParseError(ValueError):
    """Syntax or identifier error; ``column`` is 1-based."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.message = message
        self.column = column


class EvalError(ValueError):
    """Domain error during evaluation at a node (``column``) and a ``cell``."""

    def __init__(self, message: str, column: int, cell: int = 0):
        super().__init__(f"{message} (column {column})")
        self.message = message
        self.column = column
        self.cell = cell


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Var:
    name: str
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Neg:
    arg: "Expression"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expression"
    right: "Expression"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expression"
    pos: int = field(default=0, compare=False)


Expression = Num | Var | Neg | BinOp | Call


# ---------------------------------------------------------------------------
# Tokenizer / parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_VAR_RE = re.compile(r"^(qs|qd|q)(\d+)$")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            stripped = text[i:].lstrip()
            if not stripped:
                break
            col = len(text) - len(stripped) + 1
            raise ParseError(f"unexpected character {stripped[0]!r}", col)
        col = m.start(m.lastgroup) + 1
        tokens.append((m.lastgroup, m.group(m.lastgroup), col))
        i = m.end()
    tokens.append(("end", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, text: str, dim: int, allow: tuple[str, ...]):
        self.tokens = _tokenize(text)
        self.k = 0
        self.dim = dim
        self.allow = allow

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op: str):
        kind, value, col = self.next()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", col)

    def parse(self) -> Expression:
        e = self.expr()
        kind, value, col = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", col)
        return e

    def expr(self) -> Expression:
        node = self.term()
        while True:
            kind, value, col = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                node = BinOp(value, node, self.term(), pos=col)
            else:
                return node

    def term(self) -> Expression:
        node = self.factor()
        while True:
            kind, value, col = self.peek()
            if kind == "op" and value in "*/":
                self.next()
                node = BinOp(value, node, self.factor(), pos=col)
            else:
                return node

    def factor(self) -> Expression:
        kind, value, col = self.peek()
        if kind == "op" and value == "-":
            self.next()
            return Neg(self.factor(), pos=col)
        return self.power()

    def power(self) -> Expression:
        base = self.atom()
        kind, value, col = self.peek()
        if kind == "op" and value == "^":
            self.next()
            return BinOp("^", base, self.factor(), pos=col)
        return base

    def atom(self) -> Expression:
        kind, value, col = self.next()
        if kind == "num":
            return Num(float(value), pos=col)
        if kind == "name":
            if value in _FN_TABLE:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(value, arg, pos=col)
            return self.variable(value, col)
        if kind == "op" and value == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(f"expected a number, variable, function or '(', got {value!r}", col)

    def variable(self, name: str, col: int) -> Var:
        if name in ("t", "eps"):
            if name not in self.allow:
                raise ParseError(f"variable {name!r} is not allowed in this context", col)
            return Var(name, pos=col)
        m = _VAR_RE.match(name)
        if m is None:
            raise ParseError(f"unknown identifier {name!r}", col)
        kind, index = m.group(1), int(m.group(2))
        if kind not in self.allow:
            raise ParseError(f"variable {name!r} is not allowed in this context", col)
        if index < 1 or index > self.dim:
            raise ParseError(
                f"variable index {index} out of range 1..{self.dim} in {name!r}", col
            )
        return Var(name, pos=col)


def parse(text: str, dim: int, allow: tuple[str, ...] = VARIABLE_KINDS) -> Expression:
    """Parse a formula over the declared dimension; raises ParseError with a column."""
    if not text or not text.strip():
        raise ParseError("empty expression", 1)
    return _Parser(text, dim, allow).parse()


# ---------------------------------------------------------------------------
# Evaluation

def _eval(node: Expression, env: dict):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise EvalError(f"unbound variable {node.name!r}", node.pos) from None
    if isinstance(node, Neg):
        return -_eval(node.arg, env)
    if isinstance(node, Call):
        arg = _eval(node.arg, env)
        try:
            return _FN_TABLE[node.fn](arg)
        except DomainError as exc:
            raise EvalError(f"{exc} in {node.fn}(...)", node.pos, exc.cell) from None
    left = _eval(node.left, env)
    right = _eval(node.right, env)
    try:
        return _OPS[node.op](left, right)
    except DomainError as exc:
        raise EvalError(f"{exc} in {node.op!r}", node.pos, exc.cell) from None


def evaluate(e: Expression, env: dict):
    """IEEE-double evaluation; env maps variable names to floats or arrays over cells."""
    with np.errstate(all="ignore"):  # callers check and locate inf and nan
        return _eval(e, env)


def free_variables(e: Expression) -> set[str]:
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Num):
        return set()
    if isinstance(e, Neg):
        return free_variables(e.arg)
    if isinstance(e, Call):
        return free_variables(e.arg)
    return free_variables(e.left) | free_variables(e.right)


def diff_eval(e: Expression, env: dict, seed: dict):
    """Value and exact directional derivative along the seeded direction.

    Variables missing from ``seed`` carry tangent 0.  Seed entries may be
    numpy arrays to evaluate several directions in a single pass.
    """
    dual_env = {name: Dual(value, seed.get(name, 0.0)) for name, value in env.items()}
    with np.errstate(all="ignore"):
        out = _eval(e, dual_env)
    if isinstance(out, Dual):
        return out.a, out.b
    return out, 0.0


# ---------------------------------------------------------------------------
# Rendering

def render(e: Expression) -> str:
    """Fully parenthesized concrete syntax; reparsing yields an identical tree."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return f"(-{render(e.arg)})"
    if isinstance(e, Call):
        return f"{e.fn}({render(e.arg)})"
    return f"({render(e.left)} {e.op} {render(e.right)})"
