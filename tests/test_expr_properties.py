"""Property test of exact differentiation over random grammar trees."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

import tsvarlab as tv
from tsvarlab import variational as va
from tsvarlab.expr import (
    FUNCTIONS, BinOp, Call, EvalError, Neg, Num, ParseError, Var, _op, derivative, render,
    substitute,
)

from helpers import (
    diff_eval, eq_op, full_walk_derivative, recursive_evaluate, recursive_parse, recursive_render,
    recursive_substitute, structure,
)

# Hypothesis caches what it reads from source files in its home directory;
# with database=None as well, a run writes nothing into the checkout
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "tsvarlab-hypothesis")

NAMES = ("t", "qs1", "qd1")

_leaves = st.sampled_from(NAMES) | st.sampled_from(["0.5", "1.5", "2", "3"])


def _extend(children):
    return st.one_of(
        st.tuples(st.sampled_from(FUNCTIONS), children).map(lambda a: f"{a[0]}({a[1]})"),
        st.tuples(children, st.sampled_from("+-*/"), children).map(
            lambda a: f"({a[0]} {a[1]} {a[2]})"
        ),
        # literal exponents: one exponent rule on every point of a batch
        st.tuples(children, st.sampled_from(["2", "3", "-1", "-2", "0.5", "1.5"])).map(
            lambda a: f"({a[0]})^{a[1]}"
        ),
        children.map(lambda c: f"(-{c})"),
    )


def _extend_with_tree_exponents(children):
    # an exponent that is a tree puts ln(base) into the first derivative
    return _extend(children) | st.tuples(children, children).map(
        lambda a: f"(({a[0]})^2 + 1)^({a[1]})"
    )


TEXTS = st.recursive(_leaves, _extend, max_leaves=6)
# eighths in [-2, 2]: a pole is hit exactly or stays well clear of the steps
VALUES = st.integers(-16, 16).map(lambda k: k / 8)
POINTS = st.lists(st.tuples(VALUES, VALUES, VALUES), min_size=1, max_size=4)
SEEDS = st.tuples(VALUES, VALUES, VALUES)


def _outcome(fn):
    try:
        return fn()
    except EvalError as exc:
        return exc.message


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(TEXTS, POINTS, SEEDS)
def test_diff_eval_matches_central_differences_and_batches(text, points, seed_values):
    e = tv.parse(text, 1)
    seed = dict(zip(NAMES, seed_values))
    envs = [dict(zip(NAMES, point)) for point in points]
    pointwise = [_outcome(lambda env=env: diff_eval(e, env, seed)) for env in envs]
    batch = {name: np.array([env[name] for env in envs]) for name in NAMES}
    batched = _outcome(lambda: diff_eval(e, batch, seed))
    failed = [r for r in pointwise if isinstance(r, str)]
    if failed:
        # the batch fails on some point, with a message the points also give
        assert batched in failed
        return
    for k, (value, tangent) in enumerate(pointwise):
        for batch_part, part in zip(batched, (value, tangent)):
            assert np.array_equal(np.broadcast_to(batch_part, len(envs))[k], part, equal_nan=True)

    # oracle: central differences along the seed, trusted where two steps agree
    env = envs[0]
    value, tangent = pointwise[0]
    assume(np.isfinite(value) and np.isfinite(tangent))

    def central(h):
        plus = {n: env[n] + h * seed[n] for n in NAMES}
        minus = {n: env[n] - h * seed[n] for n in NAMES}
        return (tv.evaluate(e, plus) - tv.evaluate(e, minus)) / (2 * h)

    try:
        coarse, fine = central(1e-4), central(5e-5)
    except EvalError:  # a step leaves the domain
        assume(False)
    scale = max(1.0, abs(tangent), abs(fine))
    assume(abs(coarse - fine) <= 1e-8 * scale)
    assert abs(tangent - fine) <= 1e-6 * scale


def _abs_arguments(e):
    if isinstance(e, Call):
        return ([e.arg] if e.fn == "abs" else []) + _abs_arguments(e.arg)
    if isinstance(e, BinOp):
        return _abs_arguments(e.left) + _abs_arguments(e.right)
    return _abs_arguments(e.arg) if isinstance(e, Neg) else []


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    st.recursive(_leaves, _extend_with_tree_exponents, max_leaves=6),
    st.tuples(VALUES, VALUES, VALUES),
    st.sampled_from(NAMES),
    st.sampled_from(NAMES),
)
def test_second_derivatives_match_central_differences_of_first(text, point, first, second):
    tree = tv.parse(text, 1)
    first_tree = derivative(tree, first)
    env = dict(zip(NAMES, point))

    def central(h):
        plus, minus = dict(env), dict(env)
        plus[second] += h
        minus[second] -= h
        return (tv.evaluate(first_tree, plus) - tv.evaluate(first_tree, minus)) / (2 * h)

    try:
        # at a kink of abs the first derivative has slope sign(0) = 0 on one
        # cell, which no difference quotient sees
        assume(all(tv.evaluate(a, env) != 0 for a in _abs_arguments(tree)))
        exact = tv.evaluate(derivative(first_tree, second), env)
        coarse, fine = central(1e-4), central(5e-5)
    except EvalError:  # the point or a step leaves the domain
        assume(False)
    assume(np.isfinite(exact))
    scale = max(1.0, abs(exact), abs(fine))
    assume(abs(coarse - fine) <= 1e-8 * scale)
    assert abs(exact - fine) <= 1e-6 * scale


def _columns(e):
    """(node type, column) of every node, root first: what == and render do not compare."""
    if isinstance(e, BinOp):
        children = [e.left, e.right]
    else:
        children = [e.arg] if isinstance(e, (Neg, Call)) else []
    return [(type(e).__name__, e.pos)] + [c for child in children for c in _columns(child)]


def _same_tree(got, want):
    # render prints repr of every number, so it tells -0.0 from 0.0
    assert got == want and render(got) == render(want) and _columns(got) == _columns(want)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(
    st.recursive(_leaves, _extend_with_tree_exponents, max_leaves=8),
    st.sampled_from((*NAMES, "qs2")),
    st.sampled_from((*NAMES, "qs2")),
)
def test_derivative_equals_the_full_walk(text, first, second):
    # qs2 occurs in no tree: a derivative in it is 0 without a walk
    tree = tv.parse(text, 2)
    first_tree = derivative(tree, first)
    _same_tree(first_tree, full_walk_derivative(tree, first))
    _same_tree(derivative(first_tree, second),
               full_walk_derivative(full_walk_derivative(tree, first), second))


# few leaves of few values: equal trees are common, and so are equal subtrees
SMALL = st.recursive(st.sampled_from(["t", "qs1", "0", "1", "2"]), _extend, max_leaves=4)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(SMALL, SMALL, st.sampled_from(NAMES))
def test_equality_and_hash_follow_the_structure(a_text, b_text, name):
    a, b = tv.parse(a_text, 1), tv.parse(b_text, 1)
    trees = [a, b, tv.parse(render(b), 1), derivative(a, name), derivative(b, name),
             full_walk_derivative(b, name), derivative(derivative(a, name), "t")]
    for x in trees:
        for y in trees:
            assert (x == y) == (structure(x) == structure(y)), (render(x), render(y))
            assert x != y or hash(x) == hash(y)


# numbers that are 0 or 1 by ==, Num(-0.0) among them, and some that are not, at any column
_FOLDABLE = st.builds(Num, st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5]), st.integers(0, 9))
OPERANDS = _FOLDABLE | SMALL.map(lambda text: tv.parse(text, 1))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.sampled_from("+-*/^"), OPERANDS, OPERANDS)
def test_zero_and_one_are_folded_as_structural_equality_decides(op, a, b):
    # _op tests type and value where it once walked == against Num(0.0) and Num(1.0)
    _same_tree(_op(op, a, b, 7), eq_op(op, a, b, 7))


def test_chain_and_pendulum_derivatives_equal_those_of_the_equality_rule():
    # the benchmark's Lagrangians: every first and second derivative, by ==, render and column
    chain = (" + ".join(f"qd{k}^2/2" for k in range(1, 7)) + " + "
             + " + ".join(f"0.{k}*cos(qs{k} - qs{k + 1})" for k in range(1, 6)) + " + cos(qs1)")
    for text, dim in ((chain, 6), ("qd1^2/2 + cos(qs1)", 1)):
        tree = tv.parse(text, dim)
        names = ["t"] + [f"{kind}{k}" for kind in ("qs", "qd") for k in range(1, dim + 1)]
        for a in names:
            first = full_walk_derivative(tree, a)
            _same_tree(derivative(tree, a), first)
            for b in names:
                _same_tree(derivative(derivative(tree, a), b), full_walk_derivative(first, b))


def test_variables_are_those_of_the_tree():
    tree = tv.parse("qd1^2/2 + 0.3 * cos(qs1 - qs2) - (-sin(t))", 2)
    assert tree.variables == {"qd1", "qs1", "qs2", "t"}
    assert tree.left.right.variables == {"qs1", "qs2"}
    assert Num(1.0).variables == frozenset() and Var("eps").variables == {"eps"}
    assert derivative(tree, "qd2") is derivative(tree, "eps") == Num(0.0)


def test_chain_hessian_builds_the_17_nonzero_second_derivatives(monkeypatch):
    # the benchmark's dim-6 pendulum chain: 78 pairs (i <= j) of 12 names, 17 nonzero
    n = 6
    text = (" + ".join(f"qd{k}^2/2" for k in range(1, n + 1)) + " + "
            + " + ".join(f"0.{k}*cos(qs{k} - qs{k + 1})" for k in range(1, n)) + " + cos(qs1)")
    p = tv.make_problem(tv.uniform(0, 1, 0.25), text, n, np.zeros(n), np.ones(n))
    names = [f"qs{k + 1}" for k in range(n)] + [f"qd{k + 1}" for k in range(n)]
    tree = p.lagrangian.expression
    want = {}
    for i, a in enumerate(names):
        for j, b in enumerate(names[i:], start=i):
            d = full_walk_derivative(full_walk_derivative(tree, a), b)
            if d != Num(0.0):
                want[i, j] = d
    pairs = {(i, i) for i in range(n)} | {(i, i + 1) for i in range(n - 1)}
    assert set(want) == pairs | {(i, i) for i in range(n, 2 * n)}
    sampled = []
    sample = va.Lagrangian._sample
    monkeypatch.setattr(va.Lagrangian, "_sample",
                        lambda self, trees, *a: sampled.append(trees) or sample(self, trees, *a))
    va._interior_hessian(p, va.linear_guess(p).values)
    assert len(sampled) == 1 and sampled[0][0] is tree
    assert len(sampled[0]) == 1 + 17
    for got, d in zip(sampled[0][1:], want.values()):
        _same_tree(got, d)


# ---------------------------------------------------------------------------
# The stack-based reader and walks against the recursive ones in helpers.py


def _extend_syntax(children):
    # beside the parenthesized forms: bare chains such as -a*b^--c^d-e, which
    # precedence and associativity decide, and nested parentheses
    signs, ops = st.sampled_from(["", "-", "--", "---"]), st.sampled_from("+-*/^^")
    return _extend_with_tree_exponents(children) | st.one_of(
        st.lists(st.tuples(signs, children, ops), min_size=2, max_size=5).map(
            lambda parts: "".join(sign + child + op for sign, child, op in parts)[:-1]
        ),
        st.tuples(st.integers(1, 3), children).map(lambda a: "(" * a[0] + a[1] + ")" * a[0]),
    )


SYNTAX = st.recursive(_leaves | st.just("eps"), _extend_syntax, max_leaves=8)
_PIECES = ["t", "qs1", "qd1", "qs2", "q1", "q0", "eps", "foo", *FUNCTIONS,
           "2", "0.5", ".5e1", "3.", "(", ")", "+", "-", "*", "/", "^", "$", ""]


@st.composite
def _mutated(draw):
    """A grammar formula with a few characters replaced by a piece."""
    text = draw(SYNTAX)
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, min(len(text), i + 3)))
    return text[:i] + draw(st.sampled_from(_PIECES)) + text[j:]


TOKEN_SOUP = st.lists(st.tuples(st.sampled_from(_PIECES), st.sampled_from(["", " "])),
                      max_size=12).map(lambda parts: "".join(a + b for a, b in parts))
ALLOW = st.sampled_from([("t", "eps", "q", "qs", "qd"), ("t", "q"), ("qs", "qd", "t")])


def _read(reader, text, allow):
    try:
        return reader(text, 2, allow)
    except ParseError as exc:
        return exc.message, exc.column


@settings(derandomize=True, database=None, max_examples=1500, deadline=None)
@given(st.one_of(SYNTAX, _mutated(), TOKEN_SOUP), ALLOW)
def test_parse_matches_the_recursive_reader(text, allow):
    got, want = _read(tv.parse, text, allow), _read(recursive_parse, text, allow)
    if isinstance(want, tuple):
        assert got == want  # the same message at the same column
        return
    _same_tree(got, want)
    assert render(got) == recursive_render(got)
    assert tv.parse(render(got), 2, allow) == got


def _evaluated(evaluate, trees, env):
    try:
        return evaluate(trees, env)
    except EvalError as exc:
        return exc.message, exc.column, exc.cell


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(SYNTAX, st.lists(st.tuples(VALUES, VALUES, VALUES), min_size=1, max_size=4),
       st.sampled_from([(), ("t",), ("qd1",)]), st.sampled_from(NAMES))
def test_walks_match_the_recursive_walks(text, points, unbound, name):
    tree = tv.parse(text, 2)
    slots = {"qs1": tv.parse("qd1 - 2 * t", 2), "t": Var("eps", pos=7)}
    _same_tree(substitute(tree, slots), recursive_substitute(tree, slots))
    slope = derivative(tree, name)
    assert render(slope) == recursive_render(slope)
    env = {n: np.array(column) for n, column in zip(NAMES, zip(*points)) if n not in unbound}
    env["eps"] = np.full(len(points), 0.25)
    # a list of one tree keeps no memo, as a lone tree does; a longer one shares subtrees
    for trees in ([tree], [tree, slope, tv.parse("t + qs1", 2), tree]):
        got, want = _evaluated(tv.evaluate, trees, env), _evaluated(recursive_evaluate, trees, env)
        if isinstance(want, tuple):
            assert got == want  # message, column and cell
        else:
            assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(got, want))
