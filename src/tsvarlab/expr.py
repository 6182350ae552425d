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

Nothing here recurses, so memory, not the call stack, bounds a formula:
:func:`parse` is one loop over the tokens (Dijkstra's shunting yard), the
walks keep their own stacks, and trees compare over a stack of node pairs.
Nodes are never shared: each keeps the column of the formula it was read
from, and nothing here keeps a node once its trees are gone.
"""

from __future__ import annotations

import math
import operator
import re
import numpy as np

from .timescale import Frozen

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


class _Node(Frozen):
    """Equal and hashed by structure, without the column; a node keeps its derivatives.

    Each class names its fields in ``__match_args__``.  Its constructor also
    joins ``variables`` (the frozenset of the variable names in the tree) and
    ``_hash`` from the operands', so no walk forms them.
    """

    def __eq__(self, other):
        """Same class, label and operands node by node, over a stack of node pairs."""
        if not isinstance(other, _Node):
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            kind = type(a)
            if a._hash != b._hash or kind is not type(b):
                return False
            if kind is BinOp:
                if a.op != b.op:
                    return False
                pairs += ((a.right, b.right), (a.left, b.left))
            elif kind is Neg or kind is Call and a.fn == b.fn:
                pairs.append((a.arg, b.arg))
            elif kind is Call or (a.value != b.value if kind is Num else a.name != b.name):
                return False
        return True

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        """``Class(field=value, ...)`` in field order, on an explicit stack: any depth."""
        out, stack = [], [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            pieces = [f"{type(item).__qualname__}("]
            for k, name in enumerate(item.__match_args__):
                value = getattr(item, name)
                pieces += [f"{', ' if k else ''}{name}=",
                           value if isinstance(value, _Node) else repr(value)]
            stack += reversed(pieces + [")"])
        return "".join(out)

    def __reduce__(self):
        """Pickled and copied as its postorder list, which _build reads back through the
        constructors: no recursion, no kept derivatives, and hashes of the loading process."""
        return _build, (_postorder(self),)


_set = object.__setattr__  # field by field: nodes that fill __dict__ take 1.5x the memory


class Num(_Node):
    __match_args__ = ("value", "pos")

    def __init__(self, value: float, pos: int = 0):
        _set(self, "value", value)
        _set(self, "pos", pos)
        _set(self, "variables", frozenset())
        _set(self, "_hash", hash((Num, value)))


class Var(_Node):
    __match_args__ = ("name", "pos")

    def __init__(self, name: str, pos: int = 0):
        _set(self, "name", name)
        _set(self, "pos", pos)
        _set(self, "variables", frozenset((name,)))
        _set(self, "_hash", hash((Var, name)))


class Neg(_Node):
    __match_args__ = ("arg", "pos")

    def __init__(self, arg: Expression, pos: int = 0):
        _set(self, "arg", arg)
        _set(self, "pos", pos)
        _set(self, "variables", arg.variables)
        _set(self, "_hash", hash((Neg, arg._hash)))


class BinOp(_Node):
    __match_args__ = ("op", "left", "right", "pos")  # op is one of + - * / ^

    def __init__(self, op: str, left: Expression, right: Expression, pos: int = 0):
        a, b = left.variables, right.variables
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "pos", pos)
        _set(self, "variables", a if b <= a else b if a <= b else a | b)
        _set(self, "_hash", hash((BinOp, op, left._hash, right._hash)))


class Call(_Node):
    __match_args__ = ("fn", "arg", "pos")

    def __init__(self, fn: str, arg: Expression, pos: int = 0):
        _set(self, "fn", fn)
        _set(self, "arg", arg)
        _set(self, "pos", pos)
        _set(self, "variables", arg.variables)
        _set(self, "_hash", hash((Call, fn, arg._hash)))


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

# unary minus ("neg") binds between * and ^: -t^2 is -(t^2) and -t*2 is (-t)*2
_BINDING = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


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
    """Parse a formula over the declared dimension; raises ParseError with a column.

    An operator waits on ``pending`` until a ")" or an operator that binds
    less tightly (or as tightly, except after "^") applies it.
    """
    if not text.strip():
        raise ParseError("empty expression", 1)
    operands, pending = [], []  # pending: (binding, operator, column); "(" and functions at 0

    def apply():
        _, op, col = pending.pop()
        if op == "neg":
            operands[-1] = Neg(operands[-1], pos=col)
        else:
            operands[-2:] = [BinOp(op, *operands[-2:], pos=col)]

    def variable(name: str, col: int) -> Var:
        m = _VAR_RE.match(name)
        if m is None and name not in ("t", "eps"):
            raise ParseError(f"unknown identifier {name!r}", col)
        if (m[1] if m else name) not in allow:
            raise ParseError(f"variable {name!r} is not allowed in this context", col)
        if m and not 1 <= int(m[2]) <= dim:
            raise ParseError(f"variable index {int(m[2])} out of range 1..{dim} in {name!r}", col)
        return Var(name, pos=col)

    tokens = iter(_tokenize(text))
    operand_next = True
    for kind, value, col in tokens:
        if operand_next:
            if kind == "op" and value in "-(":
                pending.append((_BINDING["neg"], "neg", col) if value == "-" else (0, "(", col))
            elif kind == "name" and value in FUNCTIONS:
                _, paren, paren_col = next(tokens)
                if paren != "(":
                    raise ParseError("expected '('", paren_col)
                pending.append((0, value, col))
            elif kind == "num" and not math.isfinite(float(value)):
                raise ParseError(f"number out of range {value!r}", col)
            elif kind in ("num", "name"):
                operand = Num(float(value), pos=col) if kind == "num" else variable(value, col)
                operands.append(operand)
                operand_next = False
            else:
                raise ParseError(
                    f"expected a number, variable, function or '(', got {value!r}", col)
        elif kind == "op" and value in _BINDING:
            binding = _BINDING[value]
            while pending and pending[-1][0] >= binding + (value == "^"):
                apply()
            pending.append((binding, value, col))
            operand_next = True
        else:
            while pending and pending[-1][0]:
                apply()
            if not pending:
                if kind == "end":
                    return operands[0]
                raise ParseError(f"unexpected trailing input {value!r}", col)
            if (kind, value) != ("op", ")"):
                raise ParseError("expected ')'", col)
            _, opened, opened_col = pending.pop()
            if opened != "(":
                operands[-1] = Call(opened, operands[-1], pos=opened_col)


# ---------------------------------------------------------------------------
# Evaluation


def _guard(x, bad, message: str) -> None:
    """Raises EvalError at the first cell where bad(x), for _eval to locate; {} takes its value.

    bad of a Python float, a number in the formula, is a bool, which has no any().
    """
    mask = bad(x)
    if mask if type(mask) is bool else mask.any():
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
    if type(expo) is float:  # a number in the formula: one value, no array to scan
        k = int(expo) if expo.is_integer() else None
    else:
        pe = np.ravel(expo)
        same = pe.size and (pe == pe[0]).all() and float(pe[0]).is_integer()
        k = int(pe[0]) if same else None
    if k is not None:
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


def _eval(tree: Expression, env: dict, memo: dict | None):
    """Value of tree; ``values`` holds only the operands in use, and memo the shared nodes'.

    Entering a node pushes it, None and its operands, rightmost first, as in derivative.
    """
    values, todo = [], [tree]
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is Num:
            values.append(node.value)
        elif kind is Var:
            try:
                values.append(env[node.name])
            except KeyError:
                raise EvalError(f"unbound variable {node.name!r}", node.pos) from None
        elif node is None:
            node = todo.pop()
            try:
                if type(node) is BinOp:
                    right = values.pop()
                    values[-1] = _OPS[node.op](values[-1], right)
                elif type(node) is Call:
                    values[-1] = _FN_TABLE[node.fn](values[-1])
                else:
                    values[-1] = -values[-1]
            except EvalError as exc:
                shown = (_SHOWN_AS.get(node.fn, f"{node.fn}(...)") if type(node) is Call
                         else repr(node.op))
                raise EvalError(f"{exc.message} in {shown}", node.pos, exc.cell) from None
            if memo is not None:
                memo[node] = values[-1]
        elif memo is not None and (value := memo.get(node)) is not None:
            values.append(value)
        elif kind is BinOp:
            todo += (node, None, node.right, node.left)
        else:
            todo += (node, None, node.arg)
    return values[0]


def evaluate(e, env: dict):
    """IEEE-double value of a tree, or list of values of a list or tuple of trees.

    Each tree is walked left to right, operands before their node, so the
    first failing node is the leftmost innermost one.  Several trees
    evaluate their equal subtrees once and keep those values until the call
    ends; a lone tree keeps only the operands in use.
    """
    trees = e if isinstance(e, (list, tuple)) else (e,)
    memo = {} if len(trees) > 1 else None
    with np.errstate(all="ignore"):  # callers check and locate inf and nan
        values = [_eval(tree, env, memo) for tree in trees]
    return values if trees is e else values[0]


def _postorder(e: Expression) -> list:
    """(class, label, column) of every node of e, operands before their node.

    The label is a Num's value, a Var's name, an operator or a function, and None for Neg.
    """
    flat, todo = [], [e]
    while todo:  # node, then its right and left operands: the reverse of postorder
        node = todo.pop()
        kind = type(node)
        if kind is BinOp:
            flat.append((kind, node.op, node.pos))
            todo += (node.left, node.right)
        elif kind is Num or kind is Var:
            flat.append((kind, node.value if kind is Num else node.name, node.pos))
        else:
            flat.append((kind, node.fn if kind is Call else None, node.pos))
            todo.append(node.arg)
    return flat[::-1]


def _build(flat: list) -> Expression:
    """The tree of a _postorder list; an entry that is a node stands for itself."""
    done = []
    for entry in flat:
        if isinstance(entry, _Node):
            done.append(entry)
            continue
        kind, label, pos = entry
        if kind is BinOp:
            done[-2:] = [BinOp(label, *done[-2:], pos)]
        elif kind is Neg:
            done[-1] = Neg(done[-1], pos)
        elif kind is Call:
            done[-1] = Call(label, done[-1], pos)
        else:
            done.append(kind(label, pos))
    return done[0]


def substitute(e: Expression, trees: dict) -> Expression:
    """e with every variable named in ``trees`` replaced by its tree."""
    return _build([trees.get(entry[1], entry) if entry[0] is Var else entry
                   for entry in _postorder(e)])


_ZERO = Num(0.0)
_ONE = Num(1.0)


def derivative(e: Expression, name: str) -> Expression:
    """Exact derivative of e in ``name``, as a tree; a structural zero is literal 0.

    A tree without ``name`` gives 0 at once, without a walk.  The nodes
    that can fail (``/``, ``^``, ``ln`` and the slope of sqrt) carry the
    column of the node they come from.  Nodes keep their derivatives, so a
    tree is differentiated once per variable: a kept derivative is returned
    at once, and otherwise one walk visits only the nodes that contain
    ``name`` and keep no derivative in it, each after its operands.
    """
    if name not in e.variables:
        return _ZERO
    if isinstance(e, Var):
        return _ONE
    kept = e.__dict__.setdefault("_derivatives", {})
    todo = [] if name in kept else [e]
    while todo:
        node = todo.pop()
        if node is None:
            node = todo.pop()
            node._derivatives[name] = _derive(node, name)
        elif (name in node.variables and not isinstance(node, Var)
              and name not in node.__dict__.setdefault("_derivatives", {})):
            operands = (node.right, node.left) if isinstance(node, BinOp) else (node.arg,)
            todo += (node, None, *operands)
    return kept[name]


def _derive(e: Expression, name: str) -> Expression:
    if isinstance(e, Neg):
        return _op("-", _ZERO, derivative(e.arg, name))
    if isinstance(e, Call):
        u, du = e.arg, derivative(e.arg, name)
        if _is_num(du, 0.0) or e.fn == "sign":
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
    if _is_num(db, 0.0):  # b a^(b-1) da, by the same exponent rule as e
        return _op("*", _op("*", b, _op("^", a, _op("-", b, _ONE), e.pos)), da)
    log_term = _op("*", db, Call("ln base", a, pos=e.pos))  # a^b (b da/a + db ln a)
    return _op("*", e, _op("+", _op("*", b, _op("/", da, a, e.pos)), log_term))


def _is_num(e: Expression, value: float) -> bool:
    """e == Num(value) without a walk: Num(-0.0) is 0 as well."""
    return type(e) is Num and e.value == value


def _op(op: str, a: Expression, b: Expression, pos: int = 0) -> Expression:
    """BinOp(op, a, b) with the identities of 0 and 1 folded and + - * of numbers computed."""
    if op in "+-*" and isinstance(a, Num) and isinstance(b, Num):
        return Num(_OPS[op](a.value, b.value))
    if _is_num(b, 0.0) and op in "+-*^":
        return {"+": a, "-": a, "*": _ZERO, "^": _ONE}[op]
    if _is_num(a, 0.0) and op in "+-*/":
        return {"+": b, "-": Neg(b), "*": _ZERO, "/": _ZERO}[op]
    if _is_num(b, 1.0) and op in "*/^":
        return a
    if _is_num(a, 1.0) and op == "*":
        return b
    return BinOp(op, a, b, pos=pos)


# ---------------------------------------------------------------------------
# Rendering

def render(e: Expression) -> str:
    """Fully parenthesized concrete syntax.

    A parsed tree reparses to an equal tree with the same render.  A derived
    tree may not: it folds numbers, and the Num(-0.5) that it writes as
    -0.5 reads back as Neg(Num(0.5)).
    """
    text, todo = [], [e]
    while todo:
        node = todo.pop()
        if isinstance(node, str):
            text.append(node)
        elif isinstance(node, (Num, Var)):
            text.append(repr(node.value) if isinstance(node, Num) else node.name)
        elif isinstance(node, BinOp):
            todo += (")", node.right, f" {node.op} ", node.left, "(")
        else:
            todo += (")", node.arg, "(-" if isinstance(node, Neg) else f"{node.fn}(")
    return "".join(text)
