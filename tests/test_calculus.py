import math

import numpy as np
import pytest

import tsvarlab as tv

from helpers import random_grid, random_smooth_lagrangian_text, random_values, stack_sample


def _gf(grid, fn):
    return tv.GridFunction(grid, np.array([fn(t) for t in grid.points]))


def test_delta_derivative_on_integers_square():
    g = tv.integers(0, 6)
    fd = tv.delta_derivative(_gf(g, lambda t: t * t))
    assert np.array_equal(fd.values, 2 * g.array[:-1] + 1)  # (t+1)^2 - t^2


def test_delta_derivative_is_forward_difference_on_integers():
    rng = np.random.default_rng(3)
    g = tv.integers(0, 9)
    f = tv.GridFunction(g, random_values(rng, 10))
    fd = tv.delta_derivative(f)
    assert np.array_equal(fd.values, f.values[1:] - f.values[:-1])


def test_delta_derivative_of_identity_is_one():
    g = tv.power2(0, 5)
    fd = tv.delta_derivative(_gf(g, lambda t: t))
    assert np.allclose(fd.values, 1.0, rtol=0, atol=0)


def test_compose_sigma_examples():
    g = tv.integers(0, 4)
    fs = tv.compose_sigma(_gf(g, lambda t: t))
    assert np.array_equal(fs.values, g.array[:-1] + 1)
    const = tv.compose_sigma(_gf(g, lambda t: 7.0))
    assert np.array_equal(const.values, np.full(4, 7.0))


def test_sigma_composition_identity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        g = random_grid(rng, max_points=30)
        f = tv.GridFunction(g, random_values(rng, len(g)))
        lhs = tv.compose_sigma(f).values
        rhs = f.values[:-1] + tv.graininess(g) * tv.delta_derivative(f).values
        scale = np.maximum(1.0, np.abs(lhs))
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * scale)


def test_product_rule():
    rng = np.random.default_rng(12)
    for _ in range(50):
        g = random_grid(rng, max_points=30)
        f = tv.GridFunction(g, random_values(rng, len(g)))
        h = tv.GridFunction(g, random_values(rng, len(g)))
        fg = tv.GridFunction(g, f.values * h.values)
        lhs = tv.delta_derivative(fg).values
        t1 = tv.delta_derivative(f).values * tv.compose_sigma(h).values
        t2 = f.values[:-1] * tv.delta_derivative(h).values
        scale = np.maximum(1.0, np.abs(t1) + np.abs(t2) + np.abs(lhs))
        assert np.all(np.abs(lhs - (t1 + t2)) <= 1e-12 * scale)


def test_delta_integral_examples():
    g = tv.integers(0, 3)
    f = _gf(g, lambda t: t)
    assert tv.delta_integral(f, 0, 3) == 3.0  # 0 + 1 + 2
    # single cell: mu(t) * f(t)
    p2 = tv.power2(0, 4)
    f2 = _gf(p2, lambda t: t + 1)
    assert tv.delta_integral(f2, 4.0, 8.0) == tv.mu(p2, 4.0) * 5.0
    assert tv.delta_integral(f2, 2.0, 2.0) == 0.0


def test_delta_integral_matches_step_sum_on_uniform():
    h = 0.25
    g = tv.uniform(0, 2, h)
    f = _gf(g, lambda t: math.sin(t) + 2.0)
    expected = sum(h * (math.sin(k * h) + 2.0) for k in range(8))
    assert tv.delta_integral(f, 0.0, 2.0) == pytest.approx(expected, rel=1e-15)


def test_delta_integral_bounds_checked():
    g = tv.integers(0, 3)
    f = _gf(g, lambda t: t)
    with pytest.raises(ValueError, match="out of order"):
        tv.delta_integral(f, 3, 0)
    with pytest.raises(ValueError, match="not a point"):
        tv.delta_integral(f, 0.5, 3)


def test_overflowing_delta_integral_is_located_without_a_warning():
    # mu * f = 10 * 1e308 overflows; the cell index counts from the start of the grid
    g = tv.explicit([0.0, 10.0, 20.0])
    with pytest.raises(tv.EvalError, match=r"^cell 0 at t=0\.0: non-finite value inf"):
        tv.delta_integral(tv.GridFunction(g, [1e308, 1e308, 1.0]), 0.0, 20.0)
    f = tv.GridFunction(g, [1.0, 1e308, 1e308])
    with pytest.raises(tv.EvalError, match=r"^cell 1 at t=10\.0: non-finite value inf"):
        tv.delta_integral(f, 10.0, 20.0)
    assert tv.delta_integral(f, 0.0, 10.0) == 10.0  # the cell outside the window is not summed


def test_overflowing_delta_derivative_is_located_without_a_warning():
    # (-1e308 - 1e308) / 1 overflows on cell 1
    f = tv.GridFunction(tv.integers(0, 2), [0.0, 1e308, -1e308])
    with pytest.raises(tv.EvalError, match=r"^cell 1 at t=1\.0: non-finite value -inf"):
        tv.delta_derivative(f)


def test_delta_integral_additivity():
    rng = np.random.default_rng(13)
    for _ in range(30):
        g = random_grid(rng, max_points=20)
        f = tv.GridFunction(g, random_values(rng, len(g)))
        idx = sorted(rng.choice(len(g), size=3, replace=False))
        r, s, u = (g.points[i] for i in idx)
        whole = tv.delta_integral(f, r, u)
        split = tv.delta_integral(f, r, s) + tv.delta_integral(f, s, u)
        assert abs(whole - split) <= 1e-12 * max(1.0, abs(whole))


def test_delta_integral_of_the_cell_terms_is_the_action():
    # one left-to-right cell sum: a pairwise np.sum differs in the last bits
    rng = np.random.default_rng(47)
    for k in range(200):  # grids from all five constructors
        g = random_grid(rng, kind=k % 5)
        dim = int(rng.integers(1, 3))
        p = tv.make_problem(g, random_smooth_lagrangian_text(rng, dim), dim, np.zeros(dim), np.zeros(dim))
        vals = random_values(rng, (len(g), dim))
        mu = tv.graininess(g)
        terms = p.lagrangian.value(g.array[:-1], vals[1:], np.diff(vals, axis=0) / mu[:, None])
        f = tv.GridFunction(g, np.append(terms, 0.0))
        assert tv.delta_integral(f, g.points[0], g.points[-1]) == tv.action(p, tv.GridFunction(g, vals))


def test_antiderivative_property():
    rng = np.random.default_rng(14)
    g = random_grid(rng, max_points=15)
    f = tv.GridFunction(g, random_values(rng, len(g)))
    partial = np.array([tv.delta_integral(f, g.points[0], t) for t in g.points])
    big_f = tv.GridFunction(g, partial)
    recovered = tv.delta_derivative(big_f).values
    scale = np.maximum(1.0, np.abs(f.values[:-1]))
    assert np.all(np.abs(recovered - f.values[:-1]) <= 1e-12 * scale)


def test_pushforward_doubling_map():
    g = tv.integers(0, 3)
    alpha = _gf(g, lambda t: 2 * t)
    f = tv.GridFunction(g, alpha.values.copy())  # integrand is the image coordinate
    res = tv.pushforward(alpha, f)
    assert res.image_grid.points == (0.0, 2.0, 4.0, 6.0)
    assert res.lhs == 12.0 and res.rhs == 12.0


def test_pushforward_identity_map():
    g = tv.power2(0, 3)
    alpha = _gf(g, lambda t: t)
    f = _gf(g, lambda t: t * t - 3)
    res = tv.pushforward(alpha, f)
    assert res.image_grid.points == g.points
    assert res.lhs == res.rhs


def test_pushforward_dilation_on_doubling_grid():
    # brute-force oracle: both cell sums written out longhand
    c = math.exp(0.3)
    g = tv.power2(0, 4)
    t = g.points
    alpha_vals = [x * c for x in t]
    f_vals = list(alpha_vals)  # f(tbar) = tbar
    lhs_oracle = 0.0
    rhs_oracle = 0.0
    for i in range(len(t) - 1):
        mu_i = t[i + 1] - t[i]
        lhs_oracle += mu_i * f_vals[i] * (alpha_vals[i + 1] - alpha_vals[i]) / mu_i
        rhs_oracle += (alpha_vals[i + 1] - alpha_vals[i]) * f_vals[i]
    assert lhs_oracle == pytest.approx(85 * c * c, rel=1e-14)

    res = tv.pushforward(tv.GridFunction(g, np.array(alpha_vals)), tv.GridFunction(g, np.array(f_vals)))
    assert res.lhs == pytest.approx(lhs_oracle, rel=1e-14)
    assert res.rhs == pytest.approx(rhs_oracle, rel=1e-14)
    assert abs(res.lhs - res.rhs) <= 1e-12 * max(1.0, abs(res.lhs))


def test_pushforward_random_change_of_variables():
    rng = np.random.default_rng(15)
    for _ in range(30):
        g = random_grid(rng, max_points=25)
        incr = rng.uniform(0.1, 2.0, size=len(g) - 1)
        alpha_vals = np.concatenate([[rng.uniform(-3, 3)], incr]).cumsum()
        alpha = tv.GridFunction(g, alpha_vals)
        f = tv.GridFunction(g, random_values(rng, len(g)))
        res = tv.pushforward(alpha, f)
        assert abs(res.lhs - res.rhs) <= 1e-12 * max(1.0, abs(res.lhs), abs(res.rhs))


def test_pushforward_image_jump_commutes_with_map():
    # jumping on the image grid is the image of jumping on the source grid
    rng = np.random.default_rng(16)
    g = random_grid(rng, max_points=15)
    incr = rng.uniform(0.2, 1.0, size=len(g) - 1)
    alpha = tv.GridFunction(g, np.concatenate([[0.5], incr]).cumsum())
    res = tv.pushforward(alpha, tv.GridFunction(g, np.zeros(len(g))))
    for i, t in enumerate(g.points[:-1]):
        jumped_then_mapped = alpha.values[g.index_of(tv.sigma(g, t))]
        mapped_then_jumped = tv.sigma(res.image_grid, alpha.values[i])
        assert mapped_then_jumped == jumped_then_mapped


def test_overflowing_pushforward_is_located_without_a_warning():
    # f * alpha^Delta = 1e10 * 1e299 overflows on the first cell
    g = tv.explicit([0.0, 10.0, 20.0])
    alpha = tv.GridFunction(g, [0.0, 1e300, 2e300])
    with pytest.raises(tv.EvalError, match=r"^cell 0 at t=0\.0: non-finite value inf"):
        tv.pushforward(alpha, tv.GridFunction(g, [1e10, 1e10, 1e10]))


def test_pushforward_onto_a_grid_whose_span_overflows_is_rejected():
    g = tv.integers(0, 2)
    alpha = tv.GridFunction(g, [-1e308, 0.0, 1e308])
    with pytest.raises(ValueError, match=r"from -1e\+308 to 1e\+308 span more than a double$"):
        tv.pushforward(alpha, tv.GridFunction(g, [1.0, 1.0, 1.0]))


def test_pushforward_rejects_decreasing_alpha():
    g = tv.integers(0, 3)
    alpha = tv.GridFunction(g, np.array([0.0, 2.0, 1.5, 3.0]))
    f = tv.GridFunction(g, np.zeros(4))
    with pytest.raises(ValueError, match=r"strictly increasing \(got 2\.0 followed by 1\.5\)$"):
        tv.pushforward(alpha, f)


def test_grid_function_validation():
    g = tv.integers(0, 3)
    with pytest.raises(ValueError, match="value count"):
        tv.GridFunction(g, np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        tv.GridFunction(g, np.array([0.0, np.nan, 1.0, 2.0]))


def test_sample_fills_what_np_stack_did():
    # calculus.sample writes each tree's value into a preallocated column; the old
    # route stacked np.broadcast_to views.  Same shape, dtype, layout and bits.
    from tsvarlab.calculus import sample

    rng = np.random.default_rng(5)
    trees = [tv.parse(text, 2) for text in ("t", "2", "-0.0 * t", "qs1 * qd2", "qs1 - qs1", "-t")]
    c = 7
    envs = [
        ({"t": rng.uniform(-2, 2, c), "qs1": rng.uniform(-2, 2, c),
          "qd2": rng.choice([-0.0, 0.0, 1.5], c)}, (c,)),
        ({"t": 0.5, "qs1": np.float64(-0.0), "qd2": 3.0}, ()),  # one point: cells == ()
        ({"t": 3, "qs1": np.array(2.0), "qd2": 4}, ()),  # ints, as a library call may pass
        ({"t": 2, "qs1": rng.uniform(-2, 2, c), "qd2": np.ones(c)}, (c,)),
    ]
    for env, cells in envs:
        got, want = sample(trees, env, cells), stack_sample(trees, env, cells)
        assert got.shape == want.shape == cells + (len(trees),)
        assert got.dtype == want.dtype == np.float64
        assert got.flags.c_contiguous and want.flags.c_contiguous
        assert got.flags.writeable and want.flags.writeable
        assert got.tobytes() == want.tobytes()
    lval, l_t, l_y, l_v = tv.Lagrangian.from_text("t * qd1^2 + qs1", 1).value_and_partials(
        2, [1.0], [3.0])  # an int time at one point, through the library
    assert (lval, l_t, l_y.tolist(), l_v.tolist()) == (19.0, 9.0, [1.0], [12.0])
    assert type(lval) is type(l_t) is np.float64


def test_over_cells_hands_back_what_fn_built_and_names_the_lowest_failing_cell():
    # no float copy: the very arrays fn returned, a bool one included; a failure
    # or a non-finite value is still named at the lowest cell over all results
    from tsvarlab.calculus import over_cells

    times = np.arange(5) * 0.5
    a, b = np.array([1.0, 1.0, 1.0, -1.0, 1.0]), np.array([1.0, -1.0, 1.0, 1.0, 1.0])
    built = {}

    def one(t, x):
        built["one"] = 2.0 * x
        return built["one"]

    def pair(t, x):
        built["pair"] = (x + 1.0, x < 0.0)
        return built["pair"]

    assert over_cells(times, one, a) is built["one"]
    got = over_cells(times, pair, a)
    assert type(got) is tuple and len(got) == 2
    assert got[0] is built["pair"][0] and got[1] is built["pair"][1]
    assert got[1].dtype == bool and got[1].tolist() == [False, False, False, True, False]

    # ln(qs1) fails first, at cell 3, and ln(qs2) after it at cell 1: cell 1 is named
    trees = [tv.parse("ln(qs1)", 2), tv.parse("ln(qs2)", 2)]
    with pytest.raises(tv.EvalError, match=r"^cell 1 at t=0\.5: ln of non-positive value -1\.0"):
        over_cells(times, lambda t, x, y: tuple(tv.evaluate(trees, {"qs1": x, "qs2": y})), a, b)
    # an inf in the second result's cell 1 comes before a nan in the first's cell 2
    first, second = np.zeros(5), np.zeros((5, 2))
    first[2], second[1, 1] = np.nan, np.inf
    with pytest.raises(tv.EvalError, match=r"^point 1 at t=0\.5: non-finite value inf"):
        over_cells(times, lambda t: (first, second), what="point")
