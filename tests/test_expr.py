import math
import tracemalloc

import numpy as np
import pytest

import tsvarlab as tv
from tsvarlab.expr import BinOp, Call, EvalError, Neg, Num, ParseError, Var


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
    v, d = tv.diff_eval(e, {"t": -2.0}, {"t": 1.0})
    assert d == 2 * (-2.0) + 3 * 4.0  # 2t + 3t^2


def test_fractional_power_requires_positive_base():
    e = tv.parse("t^0.5", 1)
    assert tv.evaluate(e, {"t": 4.0}) == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(EvalError, match="positive base"):
        tv.evaluate(e, {"t": -4.0})


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


def test_diff_eval_examples():
    v, d = tv.diff_eval(tv.parse("qd1^2", 1), {"qd1": 3.0}, {"qd1": 1.0})
    assert (v, d) == (9.0, 6.0)
    v, d = tv.diff_eval(tv.parse("sin(t)", 1), {"t": 0.0}, {"t": 1.0})
    assert (v, d) == (0.0, 1.0)


def test_sqrt_slope_is_needed_only_along_the_seed():
    # the derivative in t passes through the slope of sqrt(t), undefined at 0;
    # a seed without t needs no derivative in t
    e = tv.parse("sqrt(t) + qs1^2", 1)
    env = {"t": 0.0, "qs1": 3.0}
    assert tv.diff_eval(e, env, {"qs1": 1.0}) == (9.0, 6.0)
    with pytest.raises(EvalError, match=r"^sqrt derivative undefined at 0 in sqrt\(\.\.\.\)"):
        tv.diff_eval(e, env, {"t": 1.0, "qs1": 1.0})


def test_diff_eval_seed_linearity():
    e = tv.parse("t * qs1 + exp(qd1) * sin(t)", 1)
    env = {"t": 0.7, "qs1": -1.2, "qd1": 0.4}
    _, da = tv.diff_eval(e, env, {"t": 1.0})
    _, db = tv.diff_eval(e, env, {"qs1": 1.0, "qd1": -2.0})
    _, dmix = tv.diff_eval(e, env, {"t": 3.0, "qs1": 2.0, "qd1": -4.0})
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
        v, d = tv.diff_eval(e, env, seed)
        env_plus = {n: x + step * seed[n] for n, x in env.items()}
        env_minus = {n: x - step * seed[n] for n, x in env.items()}
        fd = (tv.evaluate(e, env_plus) - tv.evaluate(e, env_minus)) / (2 * step)
        assert abs(d - fd) <= 1e-6 * max(1.0, abs(d), abs(fd))
        assert v == tv.evaluate(e, env)


def test_product_and_chain_rule_in_duals():
    e = tv.parse("sin(t^2) * exp(qs1 * t)", 1)
    env = {"t": 0.8, "qs1": -0.3}
    _, d = tv.diff_eval(e, env, {"t": 1.0})
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
    for text in ("-t^2", "qs1^2 / t + t * qd1^2", "abs(t) + sqrt(exp(t))", "1 - -t"):
        e = tv.parse(text, 1)
        assert tv.parse(tv.render(e), 1) == e


def test_ast_equality_ignores_position():
    a = tv.parse("t +   1", 1)
    b = tv.parse("t + 1", 1)
    assert a == b
    assert isinstance(a, BinOp) and isinstance(a.right, Num)
    assert isinstance(tv.parse("abs(t)", 1), Call)
    assert isinstance(tv.parse("t", 1), Var)
