import math
import os
import re
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tsvarlab as tv
from tsvarlab.expr import BinOp, Call, EvalError, Neg, Num, ParseError, Var, derivative

from helpers import dataclass_repr, diff_eval, structure


def test_parse_collects_expected_variables():
    e = tv.parse("qs1^2 / t + t * qd1^2", 1)
    assert tv.render(e) == "(((qs1 ^ 2.0) / t) + (t * (qd1 ^ 2.0)))"


def test_index_zero_rejected():
    with pytest.raises(ParseError, match="out of range"):
        tv.parse("q0", 1)


def test_index_above_dimension_rejected():
    with pytest.raises(ParseError, match="out of range") as err:
        tv.parse("qs3 + 1", 2)
    assert err.value.column == 1


def test_unary_minus_binds_below_power():
    e = tv.parse("-t^2", 1)
    assert isinstance(e, Neg)
    assert tv.evaluate(e, {"t": 2.0}) == -4.0


def test_power_right_associative():
    e = tv.parse("2^3^2", 1)
    assert tv.evaluate(e, {}) == 512.0


def test_negative_exponent_allowed():
    e = tv.parse("t^-2", 1)
    assert tv.evaluate(e, {"t": 2.0}) == 0.25


def test_precedence_mul_over_add():
    assert tv.evaluate(tv.parse("1 + 2 * 3 - 4 / 2", 1), {}) == 5.0


def test_parentheses():
    assert tv.evaluate(tv.parse("(1 + 2) * 3", 1), {}) == 9.0


def test_syntax_error_carries_column():
    with pytest.raises(ParseError) as err:
        tv.parse("t + * 2", 1)
    assert err.value.column == 5


def test_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier"):
        tv.parse("t + foo", 1)


def test_unexpected_character():
    with pytest.raises(ParseError) as err:
        tv.parse("t + $", 1)
    assert err.value.column == 5


def test_any_unicode_whitespace_separates_tokens():
    # digits are ASCII only, but a no-break space is whitespace like a blank
    assert tv.parse("t\xa0+ 1", 1) == tv.parse("t + 1", 1)


def test_context_restrictions():
    tv.parse("t + q1", 1, allow=("t", "q"))
    with pytest.raises(ParseError, match="not allowed"):
        tv.parse("qs1", 1, allow=("t", "q"))
    with pytest.raises(ParseError, match="not allowed"):
        tv.parse("eps * t", 1, allow=("t", "q"))
    tv.parse("t + eps * q1", 1, allow=("t", "q", "eps"))


def test_empty_expression_rejected():
    with pytest.raises(ParseError, match="empty"):
        tv.parse("   ", 1)


@pytest.mark.parametrize(
    "text, dim, allow, message, column",
    [
        ("", 1, None, "empty expression", 1),
        (" \t ", 1, None, "empty expression", 1),
        ("t +  $", 1, None, "unexpected character '$'", 6),
        ("qé1", 1, None, "unexpected character 'é'", 2),
        ("t t $", 1, None, "unexpected character '$'", 5),  # a bad character outranks syntax
        ("sin(t", 1, None, "expected ')'", 6),
        ("(t + 1", 1, None, "expected ')'", 7),
        ("sin t", 1, None, "expected '('", 5),
        ("t t", 1, None, "unexpected trailing input 't'", 3),
        ("t + 1)", 1, None, "unexpected trailing input ')'", 6),
        ("t + * 2", 1, None, "expected a number, variable, function or '(', got '*'", 5),
        ("t +", 1, None, "expected a number, variable, function or '(', got ''", 4),
        ("t + foo", 1, None, "unknown identifier 'foo'", 5),
        ("t * eps", 1, ("t", "q"), "variable 'eps' is not allowed in this context", 5),
        ("t * eps", 1, ("q", "qd"), "variable 't' is not allowed in this context", 1),
        ("q1 + qs1", 1, ("t", "q"), "variable 'qs1' is not allowed in this context", 6),
        ("q1 + qd1", 1, ("qs", "qd"), "variable 'q1' is not allowed in this context", 1),
        ("q0", 1, None, "variable index 0 out of range 1..1 in 'q0'", 1),
        ("1 + qs3", 2, None, "variable index 3 out of range 1..2 in 'qs3'", 5),
        # numbers and indices take ASCII digits only, not every Unicode decimal digit
        ("\u0663 + t", 1, None, "unexpected character '\u0663'", 1),
        ("q\u0661", 1, None, "unexpected character '\u0661'", 2),
        # a literal that overflows to inf would render as a name, "inf"
        ("t + 1e400 * t", 1, None, "number out of range '1e400'", 5),
        ("1e400 $", 1, None, "unexpected character '$'", 7),
    ],
)
def test_parse_error_message_and_column(text, dim, allow, message, column):
    with pytest.raises(ParseError) as err:
        tv.parse(text, dim) if allow is None else tv.parse(text, dim, allow=allow)
    assert (err.value.message, err.value.column) == (message, column)
    assert str(err.value) == f"{message} (column {column})"


def _preorder_positions(e):
    """(operator, function, name, value or "neg", column) of every node, root first."""
    if isinstance(e, BinOp):
        return [(e.op, e.pos), *_preorder_positions(e.left), *_preorder_positions(e.right)]
    if isinstance(e, (Neg, Call)):
        return [("neg" if isinstance(e, Neg) else e.fn, e.pos), *_preorder_positions(e.arg)]
    return [(e.name if isinstance(e, Var) else e.value, e.pos)]


def test_every_node_carries_its_column():
    e = tv.parse("-t^2 + sin(qs1) * (qd1 - 2.5e0) / -eps", 1)
    assert _preorder_positions(e) == [
        ("+", 6), ("neg", 1), ("^", 3), ("t", 2), (2.0, 4),
        ("/", 33), ("*", 17), ("sin", 8), ("qs1", 12),
        ("-", 24), ("qd1", 20), (2.5, 26), ("neg", 35), ("eps", 36),
    ]


def test_eval_examples():
    assert tv.evaluate(tv.parse("t * qd1", 1), {"t": 3.0, "qd1": 2.0}) == 6.0
    assert tv.evaluate(tv.parse("exp(0)", 1), {}) == 1.0


def test_eval_domain_errors():
    with pytest.raises(EvalError, match="division by zero"):
        tv.evaluate(tv.parse("1 / t", 1), {"t": 0.0})
    with pytest.raises(EvalError, match="ln"):
        tv.evaluate(tv.parse("ln(t)", 1), {"t": -1.0})
    with pytest.raises(EvalError, match="negative power"):
        tv.evaluate(tv.parse("t^-1", 1), {"t": 0.0})
    with pytest.raises(EvalError, match="sqrt"):
        tv.evaluate(tv.parse("sqrt(t)", 1), {"t": -4.0})


def test_domain_error_reports_column():
    with pytest.raises(EvalError) as err:
        tv.evaluate(tv.parse("t + 1 / (t - 1)", 1), {"t": 1.0})
    assert err.value.column == 7


def test_unbound_variable():
    with pytest.raises(EvalError, match="unbound"):
        tv.evaluate(tv.parse("t + qs1", 1), {"t": 0.0})


def test_overflow_reported_as_eval_error():
    with pytest.raises(EvalError, match="overflow"):
        tv.evaluate(tv.parse("exp(t)", 1), {"t": 1e6})


def test_integer_power_at_negative_base():
    e = tv.parse("t^2 + t^3", 1)
    assert tv.evaluate(e, {"t": -2.0}) == -4.0
    v, d = diff_eval(e, {"t": -2.0}, {"t": 1.0})
    assert d == 2 * (-2.0) + 3 * 4.0  # 2t + 3t^2


def test_fractional_power_requires_positive_base():
    e = tv.parse("t^0.5", 1)
    assert tv.evaluate(e, {"t": 4.0}) == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(EvalError, match="positive base"):
        tv.evaluate(e, {"t": -4.0})


def _outcome(run):
    """Value bits and zero signs, or the EvalError's message, column and cell."""
    try:
        value = np.asarray(run(), dtype=float)
    except EvalError as exc:
        return exc.message, exc.column, exc.cell
    return value.tobytes(), np.signbit(value).tolist()


@pytest.mark.parametrize("literal, number, base", [
    ("qs1^2", 2.0, [-1.5, -0.0, 0.0, 3.0]),
    ("qs1^3", 3.0, [-1.5, -0.0, 0.0, 3.0]),
    ("qs1^0", 0.0, [-1.5, -0.0, 0.0, 3.0]),
    ("qs1^(-2)", -2.0, [-1.5, 0.5, 2.0, 3.0]),
    ("qs1^0.5", 0.5, [1.5, 0.5, 2.0, 3.0]),
    ("(qs1 - qs1)^(-2)", -2.0, [-1.5, 0.5, 2.0, 3.0]),  # 0 to a negative power on every cell
    ("qs1^0.5", 0.5, [1.5, 4.0, -1.0, -2.0]),  # a negative base from cell 2 on
    ("qs1/(0)", 0.0, [-1.5, -0.0, 0.0, 3.0]),
    ("qs1/(2)", 2.0, [-1.5, -0.0, 0.0, 3.0]),
])
def test_a_number_operand_takes_the_path_of_an_array_of_it(literal, number, base):
    # a number in a formula reaches _power and _guard as a Python float, which skips
    # np.ravel, np.all and np.any; the same number bound to eps as a float, a 0-d
    # array or a constant (c,) array must give the same values, signs and errors
    from tsvarlab.calculus import over_cells

    base, times = np.array(base), np.arange(len(base)) * 0.25
    tree = tv.parse(literal, 1)
    variable = tv.parse(re.sub(r"[-0-9.()]+$", "(eps)", literal), 1)  # the same columns

    def cells(value, q=base):
        return np.broadcast_to(value, q.shape)

    want = _outcome(lambda: cells(tv.evaluate(tree, {"qs1": base})))
    located = _outcome(lambda: over_cells(
        times, lambda t, q: cells(tv.evaluate(tree, {"qs1": q}), q), base))
    for eps in (number, np.array(number), np.full(len(base), number)):
        env = {"qs1": base, "eps": eps}
        assert _outcome(lambda: cells(tv.evaluate(variable, env))) == want, eps
        per_cell = (eps,) if np.ndim(eps) else ()  # a (c,) eps is cut with the cells
        assert _outcome(lambda: over_cells(times, lambda t, q, *e: cells(
            tv.evaluate(variable, {"qs1": q, "eps": (*e, eps)[0]}), q), base, *per_cell)
        ) == located, eps
    if isinstance(want[0], str):
        assert located[0] == f"cell {want[2]} at t={float(times[want[2]])!r}: {want[0]}"


def test_one_tree_is_evaluated_without_keeping_its_interior_values():
    # 80 distinct interior nodes over 20000 cells: only the operands in use
    # stay alive, so the peak is a few arrays, not one array per node; a
    # Lagrangian's value (the action's pass, and each eps's) takes the same path
    text = "q1"
    for k in range(40):
        text = f"sin({text} + {k})"
    e = tv.parse(text, 1)
    x = np.linspace(0.0, 1.0, 20000)
    env = {"q1": x}
    lagrangian = tv.Lagrangian.from_text(text.replace("q1", "qs1"), 1)
    values = []
    for evaluate in (lambda: tv.evaluate(e, env), lambda: lagrangian.value(x, x[:, None], x[:, None])):
        tracemalloc.start()
        try:
            value = evaluate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * value.nbytes
        values.append(value)
    assert np.array_equal(values[1], values[0])
    assert np.array_equal(tv.evaluate([e, e], env)[1], values[0])


def test_a_derivative_is_evaluated_one_way():
    # derivative builds the tree and evaluate evaluates it; no second surface
    assert not hasattr(tv.expr, "diff_eval") and "diff_eval" not in tv.__all__
    lagrangian = tv.Lagrangian.from_text("qd1^2", 1)
    assert not hasattr(lagrangian, "partials") and not hasattr(lagrangian, "source")
    assert tv.evaluate(derivative(lagrangian.expression, "qd1"), {"qd1": 3.0}) == 6.0


def test_diff_eval_examples():
    v, d = diff_eval(tv.parse("qd1^2", 1), {"qd1": 3.0}, {"qd1": 1.0})
    assert (v, d) == (9.0, 6.0)
    v, d = diff_eval(tv.parse("sin(t)", 1), {"t": 0.0}, {"t": 1.0})
    assert (v, d) == (0.0, 1.0)


def test_sqrt_slope_is_needed_only_along_the_seed():
    # the derivative in t passes through the slope of sqrt(t), undefined at 0;
    # a seed without t needs no derivative in t
    e = tv.parse("sqrt(t) + qs1^2", 1)
    env = {"t": 0.0, "qs1": 3.0}
    assert diff_eval(e, env, {"qs1": 1.0}) == (9.0, 6.0)
    with pytest.raises(EvalError, match=r"^sqrt derivative undefined at 0 in sqrt\(\.\.\.\)"):
        diff_eval(e, env, {"t": 1.0, "qs1": 1.0})


def test_diff_eval_seed_linearity():
    e = tv.parse("t * qs1 + exp(qd1) * sin(t)", 1)
    env = {"t": 0.7, "qs1": -1.2, "qd1": 0.4}
    _, da = diff_eval(e, env, {"t": 1.0})
    _, db = diff_eval(e, env, {"qs1": 1.0, "qd1": -2.0})
    _, dmix = diff_eval(e, env, {"t": 3.0, "qs1": 2.0, "qd1": -4.0})
    assert dmix == pytest.approx(3 * da + 2 * db, rel=1e-13)


def _random_expression_and_env(rng):
    dim = int(rng.integers(1, 4))
    pieces = []
    for k in range(1, dim + 1):
        a, b, c = rng.uniform(-2, 2, size=3)
        pieces.append(f"{a:.5f} * qs{k}^2")
        pieces.append(f"{b:.5f} * sin(qd{k} * t)")
        pieces.append(f"{c:.5f} * exp(0.3 * q{k})")
    pieces.append(f"{rng.uniform(-2, 2):.5f} * cos(t)")
    text = " + ".join(pieces)
    e = tv.parse(text, dim)
    env = {"t": float(rng.uniform(-2, 2))}
    for k in range(1, dim + 1):
        env[f"q{k}"] = float(rng.uniform(-2, 2))
        env[f"qs{k}"] = float(rng.uniform(-2, 2))
        env[f"qd{k}"] = float(rng.uniform(-2, 2))
    return e, env


def test_directional_derivative_matches_finite_differences():
    # oracle: central differences with step 1e-6 on 100 random environments
    rng = np.random.default_rng(101)
    step = 1e-6
    for _ in range(100):
        e, env = _random_expression_and_env(rng)
        seed = {name: float(rng.uniform(-1, 1)) for name in env}
        v, d = diff_eval(e, env, seed)
        env_plus = {n: x + step * seed[n] for n, x in env.items()}
        env_minus = {n: x - step * seed[n] for n, x in env.items()}
        fd = (tv.evaluate(e, env_plus) - tv.evaluate(e, env_minus)) / (2 * step)
        assert abs(d - fd) <= 1e-6 * max(1.0, abs(d), abs(fd))
        assert v == tv.evaluate(e, env)


def test_product_and_chain_rule_in_duals():
    e = tv.parse("sin(t^2) * exp(qs1 * t)", 1)
    env = {"t": 0.8, "qs1": -0.3}
    _, d = diff_eval(e, env, {"t": 1.0})
    t, y = env["t"], env["qs1"]
    exact = 2 * t * math.cos(t * t) * math.exp(y * t) + math.sin(t * t) * y * math.exp(y * t)
    assert d == pytest.approx(exact, rel=1e-14)


def test_render_parse_idempotence():
    rng = np.random.default_rng(102)
    for _ in range(50):
        e, _ = _random_expression_and_env(rng)
        text = tv.render(e)
        again = tv.parse(text, 3)
        assert again == e
        assert tv.render(again) == text


def test_render_of_handwritten_cases():
    for text in ("-t^2", "qs1^2 / t + t * qd1^2", "abs(t) + sqrt(exp(t))", "1 - -t", "1e-400 * t"):
        e = tv.parse(text, 1)
        assert tv.parse(tv.render(e), 1) == e
    # a derived tree folds numbers: its Num(-0.5) reads back as Neg(Num(0.5))
    d = derivative(tv.parse("t^0.5", 1), "t")
    assert tv.render(d) == "(0.5 * (t ^ -0.5))"
    assert tv.parse(tv.render(d), 1) != d


def test_ast_equality_ignores_position():
    a = tv.parse("t +   1", 1)
    b = tv.parse("t + 1", 1)
    assert a == b and hash(a) == hash(b) and tv.parse("t+1", 1) == a
    assert Num(0.0) == Num(-0.0) and hash(Num(0.0)) == hash(Num(-0.0))
    assert isinstance(a, BinOp) and isinstance(a.right, Num)
    assert isinstance(tv.parse("abs(t)", 1), Call)
    assert isinstance(tv.parse("t", 1), Var)


def test_columns_stay_with_their_own_formula():
    # equal formulas share no node: each reports its own column,
    # alone or beside another tree, however often its shape was evaluated before
    env = {"qs1": np.array([1.0, -1.0])}
    for text, column in (("ln(qs1)", 1), ("   ln(qs1)", 4)):
        tree = tv.parse(text, 1)
        for trees in (tree, [tv.parse("qs1 + 1", 1), tree], [tree, tv.parse("qs1 * 2", 1)]):
            with pytest.raises(EvalError) as err:
                tv.evaluate(trees, env)
            assert (err.value.message, err.value.column, err.value.cell) == (
                "ln of non-positive value -1.0 in ln(...)", column, 1)


def test_formulas_of_any_depth_under_a_recursion_limit_of_100():
    # no function in expr recurses, so a formula's size is bounded by memory alone
    script = textwrap.dedent("""
        import sys
        import numpy as np
        import tsvarlab as tv
        from tsvarlab.expr import Var, derivative, substitute
        sys.setrecursionlimit(100)
        text = " + ".join(["qd1^2"] * 10_000)
        a, b = tv.parse(text, 1), tv.parse(text, 1)
        assert a is not b and a == b and hash(a) == hash(b) and a != tv.parse(text + " + t", 1)
        text = tv.render(a)
        assert tv.parse(text, 1) == a and tv.render(tv.parse(text, 1)) == text
        x = np.array([1.0, 2.0])
        assert np.array_equal(tv.evaluate(a, {"qd1": x}), 10_000 * x * x)
        assert np.array_equal(tv.evaluate(derivative(a, "qd1"), {"qd1": x}), 20_000 * x)
        value, slope = tv.evaluate([substitute(a, {"qd1": Var("t")}), derivative(a, "qd1")],
                                   {"t": x, "qd1": x})
        assert np.array_equal(value, 10_000 * x * x) and np.array_equal(slope, 20_000 * x)
        assert tv.parse("(" * 1000 + "t" + ")" * 1000, 1) == Var("t")
        assert tv.evaluate(tv.parse("-" * 10_001 + "t", 1), {"t": 2.0}) == -2.0
        assert repr(a).count("Var(name='qd1'") == 10_000
        import copy, pickle
        for twin in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):  # derivatives not kept
            assert twin == a and hash(twin) == hash(a) and "_derivatives" not in vars(twin)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_shape_ids_stay_unique_while_threads_build_trees():
    # trees built on four threads at once, with subtrees of equal shape on
    # every thread: equal exactly when their shapes are equal
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    trees = [[] for _ in range(4)]
    try:
        threads = [threading.Thread(target=lambda k=k: trees[k].extend(
            tv.parse(f"t * {1000 * k + i} + qs1^{i}", 1) for i in range(300))) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    groups, shapes, nodes = {}, set(), [tree for part in trees for tree in part]
    while nodes:  # every node of every tree: one group of equal nodes per shape
        node = nodes.pop()
        groups.setdefault(node, set()).add(structure(node))
        shapes.add(structure(node))
        nodes += [getattr(node, name) for name in ("left", "right", "arg") if hasattr(node, name)]
    assert all(len(group) == 1 for group in groups.values())
    assert len(groups) == len(shapes) > 1200


def test_trees_with_equal_stored_hashes_still_compare_by_structure():
    a, b = tv.parse("t * 2 + qs1", 1), tv.parse("t * 3 + qs1", 1)
    for x, y in ((a, b), (a.left, b.left), (a.left.right, b.left.right)):
        object.__setattr__(y, "_hash", x._hash)
    assert hash(a) == hash(b) and a != b and b != a
    assert a.left.left == b.left.left and a.right == b.right
    for x, y in [(Num(1.0), Var("t")), (Var("t"), Var("eps")), (Num(1.0), Num(2.0)),
                 (Neg(Var("t")), Call("abs", Var("t"))), (Call("sin", Var("t")), Call("cos", Var("t")))]:
        object.__setattr__(y, "_hash", x._hash)
        assert x != y and y != x


def test_no_shape_outlives_its_trees():
    # nothing in expr keeps a node, or a table of shapes, once its trees are gone
    script = textwrap.dedent("""
        import tracemalloc
        import tsvarlab as tv
        from tsvarlab.expr import derivative
        derivative(tv.parse("qd1^2/2 + 0.5 * cos(qs1)", 1), "qs1")
        tracemalloc.start()
        for k in range(10_000):
            e = tv.parse(f"qd1^2/2 + {k} * cos(qs1)", 1)
            derivative(e, "qs1")
        del e
        retained = tracemalloc.get_traced_memory()[0]
        assert retained < 100_000, retained
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("text", ["t", "-qd1^2 / 2 + 3 * cos(qs1) - t", "exp(-(t - 1.5e-3))"])
def test_repr_is_the_dataclass_text(text):
    tree = tv.parse(text, 1)
    assert repr(tree) == dataclass_repr(tree)
    assert repr(derivative(tree, "qs1")) == dataclass_repr(derivative(tree, "qs1"))


def test_repr_of_a_deep_tree_returns():
    # a failing assertion or a debugger shows deep trees too
    text = repr(tv.parse(" + ".join(["t"] * 2000), 1))
    assert text.startswith("BinOp(op='+', left=BinOp(op='+', ")
    assert text.count("Var(name='t'") == 2000
    assert text.endswith(f"right=Var(name='t', pos={1 + 4 * 1999}), pos={3 + 4 * 1998})")
