"""Shared randomized-instance generators and brute-force oracles.

Everything here is deliberately independent of the library internals it is
used to check: finite differences use plain arithmetic, action sums are
hand-rolled loops, and the recurrence oracles integrate closed forms.
"""

import argparse
import contextlib
import dataclasses
import functools
import io
import re

import numpy as np

import tsvarlab as tv
from tsvarlab.cli import _UsageError
from tsvarlab.expr import (
    _FN_TABLE, _ONE, _OPS, _SHOWN_AS, _VAR_RE, _ZERO, FUNCTIONS, VARIABLE_KINDS,
    BinOp, Call, EvalError, Neg, Num, ParseError, Var, _Node, _tokenize, derivative,
)
from tsvarlab.timescale import _check_size, _check_whole


def random_grid(rng, max_points=50, moderate=False, kind=None):
    """Random grid drawn from all five constructors, or from the one numbered ``kind``.

    With moderate=True the graininess stays small enough (roughly <= 32)
    that identity tests with a relative 1e-12 tolerance are not swamped by
    the scale of individual terms.
    """
    if kind is None:
        kind = rng.integers(0, 5)
    n = int(rng.integers(3, max_points + 1))
    if kind == 0:
        a = int(rng.integers(-10, 10))
        return tv.integers(a, a + n - 1)
    if kind == 1:
        h = float(rng.uniform(0.05, 2.0))
        a = float(rng.uniform(-5, 5))
        return tv.uniform(a, a + (n - 1) * h, h)
    if kind == 2:
        if moderate:
            n0 = int(rng.integers(-2, 2))
            span = min(n - 1, 4)
        else:
            n0 = int(rng.integers(-3, 4))
            span = min(n - 1, 16)
        return tv.power2(n0, n0 + span)
    if kind == 3:
        gaps = rng.uniform(0.05, 1.5, size=n - 1)
        pts = np.concatenate([[rng.uniform(-5, 5)], gaps]).cumsum()
        return tv.explicit(pts)
    h = float(rng.uniform(0.05 if moderate else 0.01, 0.5))
    a = float(rng.uniform(-2, 2))
    return tv.sampled(a, a + rng.uniform(2.5, 8.5) * h, h)


def random_values(rng, shape, scale=10.0):
    return rng.uniform(-scale, scale, size=shape)


def random_smooth_lagrangian_text(rng, dim):
    """Random smooth Lagrangian over (t, qs*, qd*), safe on any real arguments."""
    terms = []
    for k in range(1, dim + 1):
        a, b, c, d = rng.uniform(-2, 2, size=4)
        terms.append(f"{a:.6f} * qd{k}^2")
        terms.append(f"{b:.6f} * qs{k}^2")
        terms.append(f"{c:.6f} * qs{k} * qd{k}")
        terms.append(f"{d:.6f} * sin(qs{k})")
    e, f = rng.uniform(-2, 2, size=2)
    terms.append(f"{e:.6f} * cos(t)")
    terms.append(f"{f:.6f} * t * qd1")
    return " + ".join(terms)


def random_quadratic_lagrangian_text(rng, dim):
    """Convex-in-velocity quadratic Lagrangian; Newton solves it in one step."""
    terms = []
    for k in range(1, dim + 1):
        a = rng.uniform(0.5, 2.0)
        b = rng.uniform(-0.3, 0.3)
        c = rng.uniform(0.0, 0.3)
        d = rng.uniform(-1.0, 1.0)
        terms.append(f"{a:.6f} * qd{k}^2")
        terms.append(f"{b:.6f} * qs{k} * qd{k}")
        terms.append(f"{c:.6f} * qs{k}^2")
        terms.append(f"{d:.6f} * qs{k}")
    g = rng.uniform(-0.5, 0.5)
    terms.append(f"{g:.6f} * cos(t) * qs1")
    return " + ".join(terms)


def random_generator(rng, dim):
    """Random polynomial state generator (tau fixed to zero)."""
    xi = []
    for k in range(1, dim + 1):
        a, b = rng.uniform(-1.5, 1.5, size=2)
        c = rng.uniform(-0.4, 0.4)
        xi.append(f"{a:.6f} + {b:.6f} * q{k} + {c:.6f} * t")
    return tv.make_generator(dim, tau="0", xi=xi)


def max_abs(values):
    """The largest |value|, 0 for no values: the max_abs verdict of ``tsvarlab check``."""
    return float(np.max(np.abs(values), initial=0.0))


def brute_action(problem, values):
    """Hand-rolled action sum; independent of tsvarlab.action."""
    t = list(problem.grid.points)
    total = 0.0
    for i in range(len(t) - 1):
        mu = t[i + 1] - t[i]
        y = values[i + 1]
        v = (values[i + 1] - values[i]) / mu
        total += mu * problem.lagrangian.value(t[i], y, v)
    return total


def fd_action_gradient(problem, values, step=1e-6):
    """Central finite differences of the action in every interior component."""
    vals = np.array(values, dtype=float)
    npts, dim = vals.shape
    grad = np.zeros((npts - 2, dim))
    for j in range(1, npts - 1):
        for k in range(dim):
            plus = vals.copy()
            minus = vals.copy()
            plus[j, k] += step
            minus[j, k] -= step
            grad[j - 1, k] = (brute_action(problem, plus) - brute_action(problem, minus)) / (
                2 * step
            )
    return grad


def fd_action_eps_derivative(problem, values, gen, time_transform, step=1e-4):
    """Fourth-order central difference in eps of the transformed action at eps = 0.

    The family is evaluated from the generator's trees (t + eps*tau and
    q + eps*xi when it has no exact maps) and the transformed action is a
    hand-rolled sum: over the original cells with the states qbar at fixed
    time, over the image points tbar for a time transform.
    """
    t = list(problem.grid.points)
    vals = np.array(values, dtype=float)

    def maps(i, eps):
        env = {"t": t[i], "eps": eps, **{f"q{k + 1}": vals[i, k] for k in range(gen.dim)}}
        if gen.tbar is None:
            xi = np.array([tv.evaluate(c, env) for c in gen.xi], dtype=float)
            return t[i] + eps * tv.evaluate(gen.tau, env), vals[i] + eps * xi
        qbar = np.array([tv.evaluate(c, env) for c in gen.qbar], dtype=float)
        return tv.evaluate(gen.tbar, env), qbar

    def transformed_action(eps):
        points = [maps(i, eps) for i in range(len(t))]
        tb = [tbar if time_transform else t[i] for i, (tbar, _) in enumerate(points)]
        total = 0.0
        for i in range(len(t) - 1):
            mu = tb[i + 1] - tb[i]
            y = points[i + 1][1]
            v = (points[i + 1][1] - points[i][1]) / mu
            total += mu * problem.lagrangian.value(tb[i], y, v)
        return total

    near = transformed_action(step) - transformed_action(-step)
    far = transformed_action(2 * step) - transformed_action(-2 * step)
    return (8 * near - far) / (12 * step)


def gravity_oracle_trajectory(grid, qa, qb):
    """Closed-form extremal of L = v^2/2 - y: velocity drops by mu per cell.

    Solves for the initial velocity hitting qb, then integrates the
    recurrence directly; no library calls.
    """
    t = list(grid.points)
    mus = [t[i + 1] - t[i] for i in range(len(t) - 1)]
    # q(b) = qa + v0*sum(mu) - sum over cells of mu_i * (accumulated drop)
    drop = 0.0
    acc = 0.0
    for i, m in enumerate(mus):
        drop += m * acc
        acc += m
    v0 = (qb - qa + drop) / sum(mus)
    q = [qa]
    v = v0
    for m in mus:
        q.append(q[-1] + m * v)
        v -= m
    return np.array(q)


def recurrence_oracle_power2(qa, qb, npoints):
    """Extremal of the doubling-grid quadratic problem via q_{k+1} = 3 q_k - q_{k-1}.

    Shooting on the free value q_1: the map q_1 -> q_{N-1} is affine, so two
    evaluations pin it down exactly.
    """

    def run(q1):
        seq = [qa, q1]
        for _ in range(npoints - 2):
            seq.append(3 * seq[-1] - seq[-2])
        return seq

    lo = run(0.0)[-1]
    hi = run(1.0)[-1]
    q1 = (qb - lo) / (hi - lo)
    seq = run(q1)[:npoints]
    assert abs(seq[-1] - qb) < 1e-9 * max(1.0, abs(qb))
    return np.array(seq)


# ---------------------------------------------------------------------------
# Grid constructors as point-by-point loops: the reference the array
# constructors in tsvarlab.timescale must match bit for bit, errors included.


def loop_integers(a, b):
    _check_size("integers(a, b)", float(b) - float(a) + 1)
    _check_whole("integers(a, b)", a=a, b=b)
    a, b = int(a), int(b)
    for name, x in (("a", a), ("b", b)):
        if abs(x) > 2**53:
            raise ValueError(f"integers(a, b) needs |a|, |b| <= 2**53 (beyond it not every "
                             f"integer is a float), got {name}={x!r}")
    if b - a < 1:
        raise ValueError("integers(a, b) needs b >= a + 1 (at least 2 points)")
    return tv.TimeScaleGrid(tuple(float(k) for k in range(a, b + 1)))


def loop_uniform(a, b, h):
    if not h > 0:
        raise ValueError("uniform step h must be positive")
    span = float(b) - float(a)
    _check_size("uniform(a, b, h)", abs(span) / h + 1)
    if span <= 0:
        raise ValueError("uniform(a, b, h) needs b > a")
    n = round(span / h)
    if n < 1 or abs(n * h - span) > 1e-9 * max(span, h):
        raise ValueError(f"uniform(a, b, h): (b - a) = {span!r} is not a multiple of h = {h!r}")
    pts = [float(a) + i * float(h) for i in range(n)]
    pts.append(float(b))
    return tv.TimeScaleGrid(tuple(pts))


def loop_power2(n0, n1):
    if not n1 < 1024:
        raise ValueError(f"power2(n0, n1) needs n1 < 1024 (2**1024 overflows a float), got {n1!r}")
    _check_size("power2(n0, n1)", float(n1) - float(n0) + 1)
    _check_whole("power2(n0, n1)", n0=n0, n1=n1)
    n0, n1 = int(n0), int(n1)
    if n0 < -1074:
        raise ValueError(f"power2(n0, n1) needs n0 >= -1074 (2**-1075 rounds to 0 in a float), got {n0!r}")
    if n1 - n0 < 1:
        raise ValueError("power2(n0, n1) needs n1 >= n0 + 1 (at least 2 points)")
    return tv.TimeScaleGrid(tuple(2.0 ** n for n in range(n0, n1 + 1)))


def loop_explicit(points):
    pts = tuple(float(t) for t in points)
    if len(pts) < 2:
        raise ValueError("explicit grid needs at least 2 points")
    return tv.TimeScaleGrid(pts)


def loop_sampled(a, b, h):
    if not h > 0:
        raise ValueError("sampled step h must be positive")
    a, b, h = float(a), float(b), float(h)
    if b - a <= 0:
        raise ValueError("sampled(a, b, h) needs b > a")
    _check_size("sampled(a, b, h)", (b - a) / h + 1)
    pts = [a]
    i = 1
    while True:
        t = a + i * h
        if t >= b - 1e-9 * h:
            break
        pts.append(t)
        i += 1
    pts.append(b)
    return tv.TimeScaleGrid(tuple(pts))


# ---------------------------------------------------------------------------
# Full-work references for the Newton step: the block route of cyclic
# reduction at every block size, the dense cell Hessian, sampling by
# np.stack, and derivatives that walk every subtree.


def block_cyclic_reduction(lower, diag, upper, rhs):
    """Cyclic reduction by batched np.linalg.solve and matmul, for any block size n.

    Same arguments as tsvarlab.variational._cyclic_reduction: rows
    lower[i] x[i-1] + diag[i] x[i] + upper[i] x[i+1] = rhs[i], rhs (m, n, 1).
    """
    m, n = diag.shape[:2]
    system = np.concatenate([lower[0::2], upper[0::2], rhs[0::2]], axis=2)
    sol = np.linalg.solve(diag[0::2], system)
    if m == 1:
        return sol[..., 2 * n :]
    if m % 2 == 0:
        sol = np.concatenate([sol, np.zeros_like(sol[:1])])
    a, b, y = sol[..., :n], sol[..., n : 2 * n], sol[..., 2 * n :]
    lo, up = lower[1::2], upper[1::2]
    x_odd = block_cyclic_reduction(
        -lo @ a[:-1],
        diag[1::2] - lo @ b[:-1] - up @ a[1:],
        -up @ b[1:],
        rhs[1::2] - lo @ y[:-1] - up @ y[1:],
    )
    pad = np.zeros_like(x_odd[:1])
    x_near = np.concatenate([pad, x_odd, pad])
    x_even = y - a @ x_near[:-1] - b @ x_near[1:]
    x = np.empty_like(rhs)
    x[0::2] = x_even[: (m + 1) // 2]
    x[1::2] = x_odd
    return x


def dense_cell_blocks(p, t, mu, y, v):
    """A cell's Hessian blocks in (q_left, q_right): left-left, left-right and right-right.

    Formed through a dense (c, 2n, 2n) array of d2L in (y, v), as the solver once did.
    """
    n = p.dim
    names = [f"qs{k + 1}" for k in range(n)] + [f"qd{k + 1}" for k in range(n)]
    tree = p.lagrangian.expression
    first = [derivative(tree, a) for a in names]
    second = {(i, j): derivative(first[i], b) for i in range(2 * n)
              for j, b in enumerate(names) if i <= j and b in first[i].variables}
    second = {ij: d for ij, d in second.items() if d != Num(0.0)}
    values = p.lagrangian._sample([tree, *second.values()], t, y, v)
    h = np.zeros(np.shape(mu) + (2 * n, 2 * n))
    for k, (i, j) in enumerate(second, start=1):
        h[..., i, j] = h[..., j, i] = values[..., k]
    mu = np.reshape(mu, np.shape(mu) + (1, 1))
    h_yy, h_yv, h_vy, h_vv = h[..., :n, :n], h[..., :n, n:], h[..., n:, :n], h[..., n:, n:]
    left = h_vv / mu
    return left, -(h_vy + left), mu * h_yy + (h_yv + h_vy) + left


def dense_blocks(p, vals):
    """dense_cell_blocks of each cell of the trajectory ``vals``, called one cell at a time,
    stacked (c, n, n); an overflow is left inf or nan, unwarned."""
    t, mu = p.grid.array[:-1], np.diff(p.grid.array)
    with np.errstate(all="ignore"):
        v = np.diff(vals, axis=0) / mu[:, None]
        cells = [dense_cell_blocks(p, t[k], mu[k], vals[k + 1], v[k]) for k in range(len(t))]
    return tuple(np.array(blocks) for blocks in zip(*cells))


def dense_bands(p, vals):
    """variational._interior_hessian's bands (lower, diag, upper) from dense_blocks."""
    left, cross, right = dense_blocks(p, vals)
    cross[[0, -1]] = 0.0
    with np.errstate(all="ignore"):
        diag = right[:-1] + left[1:]
    return np.ascontiguousarray(cross[:-1].swapaxes(1, 2)), diag, cross[1:]


def stack_sample(trees, env, cells):
    """calculus.sample as it was: np.stack over np.broadcast_to views of the values."""
    values = tv.evaluate(trees, env)
    return np.stack([np.broadcast_to(x, cells) for x in values], axis=-1, dtype=float)


def solve_1x1_is_reciprocal_product(rng):
    """Whether this build's 1-by-1 np.linalg.solve with three right-hand sides is b * (1/a).

    OpenBLAS on x86-64 multiplies by the reciprocal of the pivot; another
    LAPACK may divide, which rounds differently.
    """
    a = rng.uniform(-10, 10, size=(10_000, 1, 1))
    b = rng.uniform(-10, 10, size=(10_000, 1, 3))
    return np.linalg.solve(a, b).tobytes() == (b * (1.0 / a)).tobytes()


def diff_eval(e, env, seed):
    """Value and exact directional derivative, sum of seed[name] * derivative(e, name),
    from derivative trees and one evaluate call.

    Variables missing from ``seed`` carry tangent 0; array seeds give several directions.
    """
    terms = [(seed[name], d) for name in seed if (d := derivative(e, name)) != _ZERO]
    value, *partials = tv.evaluate([e, *(d for _, d in terms)], env)
    with np.errstate(all="ignore"):
        return value, sum((s * d for (s, _), d in zip(terms, partials)), 0.0)


def eq_op(op, a, b, pos=0):
    """expr._op as it was: 0 and 1 are recognised by the structural ==, which walks the tree."""
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


def full_walk_derivative(e, name):
    """expr.derivative without its shortcuts: every subtree is walked, nothing is kept, and
    0 and 1 are recognised by == (eq_op)."""
    if isinstance(e, Num):
        return _ZERO
    if isinstance(e, Var):
        return _ONE if e.name == name else _ZERO
    if isinstance(e, Neg):
        return eq_op("-", _ZERO, full_walk_derivative(e.arg, name))
    if isinstance(e, Call):
        u, du = e.arg, full_walk_derivative(e.arg, name)
        if du == _ZERO or e.fn == "sign":
            return _ZERO
        if e.fn in ("ln", "ln base"):
            return eq_op("/", du, u, e.pos)
        if e.fn in ("sqrt", "nonzero sqrt"):
            return eq_op("/", du, eq_op("*", Num(2.0), Call("nonzero sqrt", u, pos=e.pos)), e.pos)
        slope = {"sin": Call("cos", u), "cos": Neg(Call("sin", u)), "abs": Call("sign", u)}
        return eq_op("*", slope.get(e.fn, e), du)
    assert isinstance(e, BinOp)
    a, b = e.left, e.right
    da, db = full_walk_derivative(a, name), full_walk_derivative(b, name)
    if e.op in "+-":
        return eq_op(e.op, da, db)
    if e.op == "*":
        return eq_op("+", eq_op("*", a, db), eq_op("*", da, b))
    if e.op == "/":
        return eq_op("/", eq_op("-", da, eq_op("*", e, db)), b, e.pos)
    if db == _ZERO:
        return eq_op("*", eq_op("*", b, eq_op("^", a, eq_op("-", b, _ONE), e.pos)), da)
    log_term = eq_op("*", db, Call("ln base", a, pos=e.pos))
    return eq_op("*", e, eq_op("+", eq_op("*", b, eq_op("/", da, a, e.pos)), log_term))


# ---------------------------------------------------------------------------
# The recursive formula reader and tree walks that tsvarlab.expr replaced by
# loops over explicit stacks: the reference for trees, columns, errors and
# values.  Each recurses once per tree level, so only small trees fit.

_LEVELS = ("+-", "*/")  # binary operators, loosest first; each level is left-associative


def recursive_parse(text, dim, allow=VARIABLE_KINDS):
    """expr.parse by recursive descent: one function per grammar rule."""
    if not text.strip():
        raise ParseError("empty expression", 1)
    tokens = _tokenize(text)
    k = 0

    def take(ops=None):
        nonlocal k
        kind, value, col = token = tokens[k]
        if ops is None or kind == "op" and value in ops:
            k += 1
            return token
        if ops in ("(", ")"):
            raise ParseError(f"expected {ops!r}", col)
        return None

    def binary(level=0):
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
        if token := take("^"):
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

    def variable(name, col):
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


def structure(e):
    """The tree as nested tuples of class name, label and operands, without columns:
    the shape that == compares and hash follows."""
    if isinstance(e, BinOp):
        return "BinOp", e.op, structure(e.left), structure(e.right)
    if isinstance(e, Call):
        return "Call", e.fn, structure(e.arg)
    if isinstance(e, Neg):
        return "Neg", structure(e.arg)
    return type(e).__name__, e.value if isinstance(e, Num) else e.name


def recursive_render(e):
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return f"(-{recursive_render(e.arg)})"
    if isinstance(e, Call):
        return f"{e.fn}({recursive_render(e.arg)})"
    return f"({recursive_render(e.left)} {e.op} {recursive_render(e.right)})"


def recursive_substitute(e, trees):
    if isinstance(e, Var):
        return trees.get(e.name, e)
    if isinstance(e, BinOp):
        left, right = recursive_substitute(e.left, trees), recursive_substitute(e.right, trees)
        return BinOp(e.op, left, right, pos=e.pos)
    if isinstance(e, Call):
        return Call(e.fn, recursive_substitute(e.arg, trees), pos=e.pos)
    return Neg(recursive_substitute(e.arg, trees), pos=e.pos) if isinstance(e, Neg) else e


def recursive_evaluate(e, env):
    """expr.evaluate by recursion: a list of trees shares the values of equal subtrees."""
    trees = e if isinstance(e, (list, tuple)) else (e,)
    memo = {} if len(trees) > 1 else None
    with np.errstate(all="ignore"):
        values = [_recursive_eval(tree, env, memo) for tree in trees]
    return values if trees is e else values[0]


def _recursive_eval(node, env, memo):
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
        value = -_recursive_eval(node.arg, env, memo)
    elif isinstance(node, Call):
        arg = _recursive_eval(node.arg, env, memo)
        try:
            value = _FN_TABLE[node.fn](arg)
        except EvalError as exc:
            shown = _SHOWN_AS.get(node.fn, f"{node.fn}(...)")
            raise EvalError(f"{exc.message} in {shown}", node.pos, exc.cell) from None
    else:
        left = _recursive_eval(node.left, env, memo)
        right = _recursive_eval(node.right, env, memo)
        try:
            value = _OPS[node.op](left, right)
        except EvalError as exc:
            raise EvalError(f"{exc.message} in {node.op!r}", node.pos, exc.cell) from None
    if memo is not None:
        memo[node] = value
    return value


@functools.cache
def _plain_dataclass(cls):
    return dataclasses.make_dataclass(cls.__qualname__, cls.__match_args__)


def dataclass_repr(e):
    """repr(e) as @dataclass generates it: the repr of a copy of the tree made of
    plain dataclasses with the same names and fields, in ``__match_args__`` order."""
    def copy(value):
        if not isinstance(value, _Node):
            return value
        return _plain_dataclass(type(value))(*(copy(getattr(value, name))
                                               for name in type(value).__match_args__))
    return repr(copy(e))


# The argparse parser that tsvarlab.cli replaced by one option table: the
# reference for which argv a command accepts, with which values, and which it
# rejects.


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache  # parsing leaves it unchanged
def _argparse_parser():
    parser = _ArgumentParser(prog="tsvarlab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve the boundary-value problem")
    p_solve.add_argument("file")
    p_solve.add_argument("--out", default=None)
    p_solve.add_argument("--guess", default=None, help="trajectory CSV used as initial guess")
    p_solve.add_argument("--quiet", action="store_true")

    p_check = sub.add_parser("check", help="evaluate a residual report along the extremal")
    p_check.add_argument("file")
    p_check.add_argument("which", choices=("el", "invariance", "conservation"))
    p_check.add_argument("--out", default=None)
    p_check.add_argument("--tol", type=float, default=1e-8)
    p_check.add_argument("--eps", default="-0.5,-0.1,0.1,0.5")
    p_check.add_argument("--report-only", action="store_true")
    p_check.add_argument("--quiet", action="store_true")

    p_sweep = sub.add_parser("sweep", help="refinement study over sampling steps")
    p_sweep.add_argument("file")
    p_sweep.add_argument("--h-list", required=True, help="comma-separated decreasing steps")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--quiet", action="store_true")

    # the negative-number pattern of argparse up to Python 3.12, which the CLI
    # keeps whatever the running Python's argparse uses
    for p in (parser, p_solve, p_check, p_sweep):
        p._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$")
    return parser


def argparse_read_args(argv):
    """The argparse namespace of argv, or None when argparse prints help.

    A usage error raises tsvarlab.cli._UsageError, as cli._read_args does.
    """
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            args = _argparse_parser().parse_args(argv)
        except SystemExit as exc:
            if exc.code != 0:
                raise
            return None
    # argparse of Python 3.11 drops a '--' that is the value of an option or of
    # `which` and leaves [] (`check FILE -- --` then ran the conservation check);
    # the value is '--', which --tol and `which` reject
    for name, value in vars(args).items():
        if value == []:
            if name in ("tol", "which"):
                raise _UsageError(f"argument {name}: invalid value '--'")
            setattr(args, name, "--")
    return args
