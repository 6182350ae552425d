"""Formula parsing, evaluation and exact symbolic differentiation.

Concrete grammar (EBNF), whitespace insignificant::

    expr    = term { ("+" | "-") term } ;
    term    = factor { ("*" | "/") factor } ;
    factor  = "-" factor | atom [ "^" factor ] ;   (* right-associative *)
    atom    = number | variable | function "(" expr ")" | "(" expr ")" ;

    function = "sin" | "cos" | "exp" | "ln" | "sqrt" | "abs" ;
    variable = "t" | "eps" | ("q" | "qs" | "qd") index ;
    number   = digits ["." [digits]] [exponent] | "." digits [exponent] ;
    exponent = ("e" | "E") ["+" | "-"] digits ;
    index    = digits ;
    digits   = digit { digit } ;   (* ASCII digits only: "0" | "1" | ... | "9" *)

Variables: ``t`` is time, ``eps`` the transformation parameter, ``q<k>``
state components, ``qs<k>`` forward-jumped state, ``qd<k>`` delta-derivative
components, with 1-based index ``k`` up to the declared dimension.

Derivatives are exact: :func:`derivative` differentiates a tree into another
tree, never by finite differences.  Variable values may be arrays over cells,
so one call evaluates a tree, or several sharing their equal subtrees, on
every cell.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt", "abs")
VARIABLE_KINDS = ("t", "eps", "q", "qs", "qd")


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


class _Node:
    """Compares and hashes without the column; a node keeps its hash and derivatives.

    ``variables`` is the frozenset of the variable names in the tree, joined
    from the children's when the node is built, so no walk forms it.
    """

    def __post_init__(self):
        if isinstance(self, Var):
            names = frozenset((self.name,))
        elif isinstance(self, BinOp):
            left, right = self.left.variables, self.right.variables
            names = left if right <= left else right if left <= right else left | right
        else:
            names = self.arg.variables if isinstance(self, (Neg, Call)) else frozenset()
        object.__setattr__(self, "variables", names)

    @cached_property
    def _hash(self) -> int:
        return hash((type(self), *(getattr(self, f.name) for f in fields(self) if f.compare)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class Num(_Node):
    value: float
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Var(_Node):
    name: str
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Neg(_Node):
    arg: "Expression"
    pos: int = field(default=0, compare=False)
    __hash__ = _Node.__hash__  # kept: a dataclass would hash the whole subtree


@dataclass(frozen=True)
class BinOp(_Node):
    op: str  # one of + - * / ^
    left: "Expression"
    right: "Expression"
    pos: int = field(default=0, compare=False)
    __hash__ = _Node.__hash__


@dataclass(frozen=True)
class Call(_Node):
    fn: str
    arg: "Expression"
    pos: int = field(default=0, compare=False)
    __hash__ = _Node.__hash__


Expression = Num | Var | Neg | BinOp | Call


# ---------------------------------------------------------------------------
# Tokenizer / parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>[0-9]+\.[0-9]*(?:[eE][+-]?[0-9]+)?|\.[0-9]+(?:[eE][+-]?[0-9]+)?"
    r"|[0-9]+(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<bad>\S))"
)

_VAR_RE = re.compile(r"^(qs|qd|q)([0-9]+)$")

_LEVELS = ("+-", "*/")  # binary operators, loosest first; each level is left-associative


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, column) of every token, then ("end", "", len(text) + 1)."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", m.start(kind) + 1)
        tokens.append((kind, m[kind], m.start(kind) + 1))
    tokens.append(("end", "", len(text) + 1))
    return tokens


def parse(text: str, dim: int, allow: tuple[str, ...] = VARIABLE_KINDS) -> Expression:
    """Parse a formula over the declared dimension; raises ParseError with a column."""
    if not text.strip():
        raise ParseError("empty expression", 1)
    tokens = _tokenize(text)
    k = 0

    def take(ops=None):
        """The next token, consumed if it is an operator in ``ops`` (any token when ops is None).

        Otherwise None, except that a parenthesis asked for must come next.
        """
        nonlocal k
        kind, value, col = token = tokens[k]
        if ops is None or kind == "op" and value in ops:
            k += 1
            return token
        if ops in ("(", ")"):
            raise ParseError(f"expected {ops!r}", col)
        return None

    def binary(level=0):
        """A left-associative chain of the operators _LEVELS[level] over the next level's."""
        if level == len(_LEVELS):
            return factor()
        node = binary(level + 1)
        while token := take(_LEVELS[level]):
            node = BinOp(token[1], node, binary(level + 1), pos=token[2])
        return node

    def factor():
        if token := take("-"):
            return Neg(factor(), pos=token[2])
        base = atom()
        if token := take("^"):  # the exponent is a factor: right-associative, and t^-2 parses
            return BinOp("^", base, factor(), pos=token[2])
        return base

    def atom():
        kind, value, col = take()
        if kind == "num":
            return Num(float(value), pos=col)
        if kind == "name" and value in FUNCTIONS:
            take("(")
            arg = binary()
            take(")")
            return Call(value, arg, pos=col)
        if kind == "name":
            return variable(value, col)
        if (kind, value) == ("op", "("):
            inner = binary()
            take(")")
            return inner
        raise ParseError(f"expected a number, variable, function or '(', got {value!r}", col)

    def variable(name: str, col: int) -> Var:
        m = _VAR_RE.match(name)
        if m is None and name not in ("t", "eps"):
            raise ParseError(f"unknown identifier {name!r}", col)
        if (m[1] if m else name) not in allow:
            raise ParseError(f"variable {name!r} is not allowed in this context", col)
        if m and not 1 <= int(m[2]) <= dim:
            raise ParseError(f"variable index {int(m[2])} out of range 1..{dim} in {name!r}", col)
        return Var(name, pos=col)

    tree = binary()
    kind, value, col = take()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {value!r}", col)
    return tree


# ---------------------------------------------------------------------------
# Evaluation


def _guard(x, bad, message: str) -> None:
    """Raises EvalError at the first cell where bad(x), for _eval to locate; {} takes its value."""
    mask = bad(x)
    if np.any(mask):
        cell = int(np.argmax(mask))
        raise EvalError(message.format(float(np.ravel(x)[cell])), 0, cell)


def _div(x, y):
    _guard(y, lambda v: v == 0.0, "division by zero")
    return x / y


def _exp(x):
    e = np.exp(x)
    _guard(x, lambda v: np.isinf(e) & np.isfinite(v), "overflow")
    return e


def _ln(x, message="ln of non-positive value {!r}"):
    _guard(x, lambda v: v <= 0.0, message)
    return np.log(x)


def _sqrt(x):
    _guard(x, lambda v: v < 0.0, "sqrt of negative value {!r}")
    return np.sqrt(x)


_POSITIVE_BASE = "non-integer or cell-varying exponent requires a positive base (base={!r})"


def _power(base, expo):
    """x^p with an integer fast path.

    An exponent that is one integer on every cell is evaluated by repeated
    multiplication, so t^2 stays defined for negative t.  Any other exponent
    (t over cells at several integer times, say) takes exp(p ln x) and
    requires a strictly positive base.
    """
    pe = np.ravel(expo)
    if pe.size and np.all(pe == pe[0]) and float(pe[0]).is_integer():
        k = int(pe[0])
        if k < 0:
            _guard(base, lambda v: v == 0.0, "0 raised to a negative power")
            return _div(1.0, _ipow(base, -k))
        return _ipow(base, k)
    return _exp(expo * _ln(base, _POSITIVE_BASE))


def _ipow(x, k: int):
    result = 1.0
    acc = x
    while k:
        if k & 1:
            result = result * acc
        acc = acc * acc
        k >>= 1
    return result


def _nonzero_sqrt(x):
    _guard(x, lambda v: v == 0.0, "sqrt derivative undefined at 0")
    return _sqrt(x)


# the last three occur only in derivative trees: abs' = sign, and the domains of slopes
_FN_TABLE = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": _exp,
    "ln": _ln,
    "sqrt": _sqrt,
    "abs": np.abs,
    "sign": np.sign,
    "nonzero sqrt": _nonzero_sqrt,
    "ln base": lambda x: _ln(x, _POSITIVE_BASE),
}
_SHOWN_AS = {"nonzero sqrt": "sqrt(...)", "ln base": "'^'"}

_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _div, "^": _power}


def _eval(node: Expression, env: dict, memo: dict | None):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise EvalError(f"unbound variable {node.name!r}", node.pos) from None
    value = memo.get(node) if memo is not None else None
    if value is not None:
        return value
    if isinstance(node, Neg):
        value = -_eval(node.arg, env, memo)
    elif isinstance(node, Call):
        arg = _eval(node.arg, env, memo)
        try:
            value = _FN_TABLE[node.fn](arg)
        except EvalError as exc:
            shown = _SHOWN_AS.get(node.fn, f"{node.fn}(...)")
            raise EvalError(f"{exc.message} in {shown}", node.pos, exc.cell) from None
    else:
        left = _eval(node.left, env, memo)
        right = _eval(node.right, env, memo)
        try:
            value = _OPS[node.op](left, right)
        except EvalError as exc:
            raise EvalError(f"{exc.message} in {node.op!r}", node.pos, exc.cell) from None
    if memo is not None:
        memo[node] = value
    return value


def evaluate(e, env: dict):
    """IEEE-double value of a tree, or list of values of a list or tuple of trees.

    Several trees evaluate their equal subtrees once and keep those values until
    the call ends; a lone tree keeps only the operands in use.
    """
    trees = e if isinstance(e, (list, tuple)) else (e,)
    memo = {} if len(trees) > 1 else None
    with np.errstate(all="ignore"):  # callers check and locate inf and nan
        values = [_eval(tree, env, memo) for tree in trees]
    return values if trees is e else values[0]


def diff_eval(e: Expression, env: dict, seed: dict):
    """Value and exact directional derivative, sum of seed[name] * derivative(e, name).

    Variables missing from ``seed`` carry tangent 0; array seeds give several directions.
    """
    terms = [(seed[name], d) for name in seed if (d := derivative(e, name)) != _ZERO]
    value, *partials = evaluate([e, *(d for _, d in terms)], env)
    with np.errstate(all="ignore"):
        return value, sum((s * d for (s, _), d in zip(terms, partials)), 0.0)


def substitute(e: Expression, trees: dict) -> Expression:
    """e with every variable named in ``trees`` replaced by its tree."""
    if isinstance(e, Var):
        return trees.get(e.name, e)
    if isinstance(e, BinOp):
        return replace(e, left=substitute(e.left, trees), right=substitute(e.right, trees))
    return replace(e, arg=substitute(e.arg, trees)) if isinstance(e, (Neg, Call)) else e


_ZERO = Num(0.0)
_ONE = Num(1.0)


def derivative(e: Expression, name: str) -> Expression:
    """Exact derivative of e in ``name``, as a tree; a structural zero is literal 0.

    A tree without ``name`` gives 0 at once, without a walk.  The nodes
    that can fail (``/``, ``^``, ``ln`` and the slope of sqrt) carry the
    column of the node they come from.  Nodes keep their derivatives, so a
    tree is differentiated once per variable.
    """
    if name not in e.variables:
        return _ZERO
    if isinstance(e, Var):
        return _ONE
    memo = e.__dict__.setdefault("_derivatives", {})
    if name not in memo:
        memo[name] = _derive(e, name)
    return memo[name]


def _derive(e: Expression, name: str) -> Expression:
    if isinstance(e, Neg):
        return _op("-", _ZERO, derivative(e.arg, name))
    if isinstance(e, Call):
        u, du = e.arg, derivative(e.arg, name)
        if du == _ZERO or e.fn == "sign":
            return _ZERO
        if e.fn in ("ln", "ln base"):
            return _op("/", du, u, e.pos)
        if e.fn in ("sqrt", "nonzero sqrt"):  # du / (2 sqrt(u)), undefined at u = 0
            return _op("/", du, _op("*", Num(2.0), Call("nonzero sqrt", u, pos=e.pos)), e.pos)
        slope = {"sin": Call("cos", u), "cos": Neg(Call("sin", u)), "abs": Call("sign", u)}
        return _op("*", slope.get(e.fn, e), du)  # exp is its own slope
    a, b = e.left, e.right
    da, db = derivative(a, name), derivative(b, name)
    if e.op in "+-":
        return _op(e.op, da, db)
    if e.op == "*":
        return _op("+", _op("*", a, db), _op("*", da, b))
    if e.op == "/":  # (da - (a/b) db) / b divides only by what e divides by
        return _op("/", _op("-", da, _op("*", e, db)), b, e.pos)
    if db == _ZERO:  # b a^(b-1) da, by the same exponent rule as e
        return _op("*", _op("*", b, _op("^", a, _op("-", b, _ONE), e.pos)), da)
    log_term = _op("*", db, Call("ln base", a, pos=e.pos))  # a^b (b da/a + db ln a)
    return _op("*", e, _op("+", _op("*", b, _op("/", da, a, e.pos)), log_term))


def _op(op: str, a: Expression, b: Expression, pos: int = 0) -> Expression:
    """BinOp(op, a, b) with the identities of 0 and 1 folded and + - * of numbers computed."""
    if op in "+-*" and isinstance(a, Num) and isinstance(b, Num):
        return Num(_OPS[op](a.value, b.value))
    if b == _ZERO and op in "+-*^":
        return {"+": a, "-": a, "*": _ZERO, "^": _ONE}[op]
    if a == _ZERO and op in "+-*/":
        return {"+": b, "-": Neg(b), "*": _ZERO, "/": _ZERO}[op]
    if b == _ONE and op in "*/^":
        return a
    if a == _ONE and op == "*":
        return b
    return BinOp(op, a, b, pos=pos)


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
