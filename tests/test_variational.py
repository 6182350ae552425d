import math
import tracemalloc

import numpy as np
import pytest

import tsvarlab as tv
from tsvarlab import expr as ex
from tsvarlab import variational as va
from tsvarlab.variational import (
    NonConvergence,
    SingularJacobian,
    _block_tridiag_solve,
    _interior_hessian,
)

from helpers import (
    block_cyclic_reduction,
    brute_action,
    dense_bands,
    dense_blocks,
    fd_action_gradient,
    random_grid,
    random_quadratic_lagrangian_text,
    random_smooth_lagrangian_text,
    recurrence_oracle_power2,
    solve_1x1_is_reciprocal_product,
)

PAPERLIKE_L = "qs1^2 / t + t * qd1^2"


def test_lagrangian_partials_match_finite_differences():
    rng = np.random.default_rng(21)
    step = 1e-6
    for _ in range(20):
        dim = int(rng.integers(1, 3))
        lag = tv.Lagrangian.from_text(random_smooth_lagrangian_text(rng, dim), dim)
        t = float(rng.uniform(-2, 2))
        y = rng.uniform(-2, 2, size=dim)
        v = rng.uniform(-2, 2, size=dim)
        _, d1, d2, d3 = lag.value_and_partials(t, y, v)
        fd1 = (lag.value(t + step, y, v) - lag.value(t - step, y, v)) / (2 * step)
        assert abs(d1 - fd1) <= 1e-5 * max(1.0, abs(d1))
        for k in range(dim):
            yp, ym = y.copy(), y.copy()
            yp[k] += step
            ym[k] -= step
            fd = (lag.value(t, yp, v) - lag.value(t, ym, v)) / (2 * step)
            assert abs(d2[k] - fd) <= 1e-5 * max(1.0, abs(d2[k]))
            vp, vm = v.copy(), v.copy()
            vp[k] += step
            vm[k] -= step
            fd = (lag.value(t, y, vp) - lag.value(t, y, vm)) / (2 * step)
            assert abs(d3[k] - fd) <= 1e-5 * max(1.0, abs(d3[k]))


def test_lagrangian_accepts_any_real_time():
    lag = tv.Lagrangian.from_text(PAPERLIKE_L, 1)
    assert lag.value(2.7182, [1.0], [0.5]) == pytest.approx(1.0 / 2.7182 + 2.7182 * 0.25)


def test_action_unit_cells():
    p = tv.make_problem(tv.integers(0, 2), "qd1^2", 1, [0.0], [2.0])
    q = tv.as_trajectory(p, [0.0, 1.0, 2.0])
    assert tv.action(p, q) == 2.0


def test_action_power2_constant_trajectory():
    # oracle: each cell contributes next-q squared plus squared increment = 1
    p = tv.make_problem(tv.power2(0, 3), PAPERLIKE_L, 1, [1.0], [1.0])
    q = tv.as_trajectory(p, np.ones(4))
    assert tv.action(p, q) == 3.0


def test_action_jumped_state_weighting():
    p = tv.make_problem(tv.integers(0, 3), "qs1", 1, [0.0], [3.0])
    q = tv.as_trajectory(p, [0.0, 1.0, 2.0, 3.0])
    assert tv.action(p, q) == 6.0  # 1 + 2 + 3


def test_action_domain_error_reports_cell():
    p = tv.make_problem(tv.explicit([-1.0, 0.0, 1.0]), "qd1^2 / t", 1, [0.0], [0.0])
    q = tv.as_trajectory(p, [0.0, 1.0, 0.0])
    with pytest.raises(tv.EvalError, match=r"^cell 1 at t=0\.0: division by zero"):
        tv.action(p, q)
    # the offending value prints as a plain float, not as a numpy repr
    p = tv.make_problem(tv.integers(0, 4), "ln(qs1) + qd1^2", 1, [1.0], [-3.0])
    with pytest.raises(
        tv.EvalError,
        match=r"^cell 0 at t=0\.0: ln of non-positive value 0\.0 in ln\(\.\.\.\) \(column 1\)$",
    ):
        tv.action(p, tv.linear_guess(p))


def test_domain_errors_name_the_lowest_failing_cell():
    g = tv.explicit([0.0, 0.5, 1.5, 2.0, 3.0])
    gen = tv.make_generator(1, tau="1", xi=["1"])
    # ln fails on cells 1 and 3; in the second Lagrangian the division,
    # evaluated after ln, fails on cell 1 and ln only on cell 3
    for text, vals, message in (
        ("qd1^2 + ln(qs1)", [1.0, 1.0, -1.0, 1.0, -2.0],
         r"ln of non-positive value -1\.0 in ln\(\.\.\.\)"),
        ("ln(qs1) + qd1^2 / (t - 0.5)", [1.0, 1.0, 1.0, 1.0, -2.0],
         r"division by zero in '/'"),
    ):
        vals = np.array(vals)[:, None]
        p = tv.make_problem(g, text, 1, vals[0], vals[-1])
        q = tv.GridFunction(g, vals)
        for run in (
            lambda: tv.action(p, q),
            lambda: tv.stationarity_gradient(p, q),
            lambda: _interior_hessian(p, vals),
            lambda: tv.noether_quantity(p, q, gen),
        ):
            with pytest.raises(tv.EvalError, match=r"^cell 1 at t=0\.5: " + message):
                run()


def test_exponent_must_be_one_integer_on_every_cell():
    # t is 0, 1, 2, 3 on the cells, not one integer, so qs1^t is exp(t ln qs1)
    # in every pass (value, gradient, Hessian) and needs a positive base
    g = tv.integers(0, 4)
    vals = np.array([[1.0], [2.0], [-1.0], [3.0], [1.0]])
    p = tv.make_problem(g, "qd1^2 + qs1^t", 1, vals[0], vals[-1])
    q = tv.GridFunction(g, vals)
    message = (
        r"^cell 1 at t=1\.0: non-integer or cell-varying exponent requires a positive "
        r"base \(base=-1\.0\) in '\^'"
    )
    for run in (
        lambda: tv.action(p, q),
        lambda: tv.stationarity_gradient(p, q),
        lambda: _interior_hessian(p, vals),
    ):
        with pytest.raises(tv.EvalError, match=message):
            run()
    t, y, v = g.array[:-1], np.abs(vals[1:]), np.diff(vals, axis=0)
    assert np.array_equal(p.lagrangian.value(t, y, v), v[:, 0] ** 2 + np.exp(t * np.log(y[:, 0])))
    # one integer on every cell keeps repeated multiplication: negative bases are fine
    cubes = tv.Lagrangian.from_text("qs1^(t - t + 3)", 1)
    assert np.array_equal(cubes.value(t, vals[1:], v), [8.0, -1.0, 27.0, 1.0])


def test_sqrt_slope_is_undefined_at_zero_in_the_derivative_passes():
    # qs1 is 0 on cells 1 and 3: sqrt(qs1) has a value there but no slope
    g = tv.explicit([0.0, 0.5, 1.5, 2.0, 3.0])
    vals = np.array([[1.0], [2.0], [0.0], [1.0], [0.0]])
    p = tv.make_problem(g, "qd1^2 + sqrt(qs1)", 1, vals[0], vals[-1])
    q = tv.GridFunction(g, vals)
    assert np.isfinite(tv.action(p, q))
    message = r"^cell 1 at t=0\.5: sqrt derivative undefined at 0 in sqrt\(\.\.\.\) \(column 9\)$"
    for run in (
        lambda: tv.stationarity_gradient(p, q),
        lambda: _interior_hessian(p, vals),
    ):
        with pytest.raises(tv.EvalError, match=message):
            run()


def test_gradient_passes_do_not_evaluate_the_time_slope():
    # sqrt(t) has no slope at t = 0, and no gradient, Hessian or residual uses dL/dt
    p = tv.make_problem(tv.integers(0, 4), "qd1^2/2 + sqrt(t)*qs1", 1, [0.0], [1.0])
    res = tv.solve_el(p)
    assert res.gradient_norm <= 1e-12
    assert np.max(np.abs(tv.el_residual(p, res.trajectory).values)) <= 1e-12
    with pytest.raises(tv.EvalError, match=r"^sqrt derivative undefined at 0"):
        p.lagrangian.value_and_partials(0.0, [1.0], [1.0])
    lval, d2, d3 = p.lagrangian.value_and_partials(0.0, [1.0], [2.0], ("qs", "qd"))
    assert (lval, d2.tolist(), d3.tolist()) == (2.0, [0.0], [2.0])


def test_batched_cells_equal_pointwise_calls():
    rng = np.random.default_rng(29)
    cases = [(random_smooth_lagrangian_text(rng, int(d)), int(d)) for d in rng.integers(1, 4, 25)]
    cases += [
        ("2", 1),
        ("t * qd1^2", 1),
        ("abs(qs1) * qd2 - abs(t)", 2),
        ("sqrt(qs1^2 + 1) * qd1", 1),
        ("qs1^-3 + t * qd1^-2", 1),
    ]
    for text, dim in cases:  # random grids from all five constructors
        g = random_grid(rng, max_points=12)
        p = tv.make_problem(g, text, dim, np.zeros(dim), np.zeros(dim))
        lag = p.lagrangian
        t, mu = g.array[:-1], tv.graininess(g)
        vals = rng.uniform(-2, 2, size=(len(g), dim))
        y, v = vals[1:], np.diff(vals, axis=0) / mu[:, None]
        points = [lag.value_and_partials(t[i], y[i], v[i]) for i in range(len(t))]
        for batched, pointwise in zip(lag.value_and_partials(t, y, v), zip(*points), strict=True):
            assert np.array_equal(batched, np.array(pointwise))
        values = [lag.value(t[i], y[i], v[i]) for i in range(len(t))]
        assert np.array_equal(lag.value(t, y, v), values)
        for batched, pointwise in zip(_interior_hessian(p, vals), dense_bands(p, vals), strict=True):
            assert batched.tobytes() == pointwise.tobytes()


def test_interior_hessian_bands_equal_the_dense_route():
    # the bands filled from the nonzero second derivatives give the bits of the
    # dense (c, 2n, 2n) route, cell by cell, the sign of every zero included
    rng = np.random.default_rng(31)
    cases = [(random_smooth_lagrangian_text(rng, int(d)), int(d)) for d in rng.integers(1, 4, 15)]
    cases += [
        ("qd1^2/2 + cos(qs1)", 1),
        ("qs1 * qd2 - qd1 * qs2 + abs(qd1) + qs2^2 * qd2^2", 2),
        ("qs1^2 / t + t * qd1^2", 1),
        ("qd1 * qd2 * qd3 - qs3", 3),
        ("2", 1),
    ]
    for text, dim in cases:
        g = random_grid(rng, max_points=10)
        p = tv.make_problem(g, text, dim, np.zeros(dim), np.zeros(dim))
        vals = rng.choice([-1.5, -0.0, 0.0, 0.5, 2.0], size=(len(g), dim))
        for a, b in zip(_interior_hessian(p, vals), dense_bands(p, vals), strict=True):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), text


def test_overflowing_action_is_located_not_returned():
    # qd1^2 overflows on the linear guess while the gradient stays 0, so an
    # unchecked solve would stop at once and report action=inf
    p = tv.make_problem(tv.integers(0, 2), "qd1^2", 1, [0.0], [1e200])
    with pytest.raises(tv.EvalError, match=r"^cell 0 at t=0\.0: non-finite value inf"):
        tv.action(p, tv.linear_guess(p))
    with pytest.raises(tv.EvalError, match="non-finite value"):
        tv.solve_el(p)
    # q2 - q1 = -2e308 overflows on cell 1; the difference quotient may not warn first
    g = tv.integers(0, 2)
    p = tv.make_problem(g, "qs1^2", 1, [0.0], [-1e308])
    with pytest.raises(tv.EvalError, match=r"^cell 0 at t=0\.0: non-finite value inf"):
        tv.action(p, tv.GridFunction(g, [[0.0], [1e308], [-1e308]]))


def test_overflowing_cell_terms_are_located():
    # L = qd1^4 is inf on every cell while its partials stay finite: the
    # residual would be finite and the convergence test tol * (1 + inf) true
    p = tv.make_problem(tv.integers(0, 3), "qd1^4", 1, [0.0], [1e100])
    with pytest.raises(tv.EvalError, match=r"^cell 0 at t=0\.0: non-finite value inf"):
        tv.el_residual(p, tv.linear_guess(p))
    with pytest.raises(tv.EvalError, match=r"^cell 0 at t=0\.0: non-finite value inf"):
        tv.solve_el(p)
    # L = 1e200 is finite and dL/dqs1 = -1/qs1^2 is -inf; dL/dt and dL/dqd1 stay finite
    g = tv.integers(0, 3)
    vals = np.array([[1.0], [1e-200], [1.0], [1.0]])
    p = tv.make_problem(g, "qd1^2 + 1/qs1", 1, vals[0], vals[-1])
    q = tv.GridFunction(g, vals)
    message = r"^cell 0 at t=0\.0: non-finite value -inf \(column 1\)$"
    for run in (lambda: tv.el_residual(p, q), lambda: tv.solve_el(p, q)):
        with pytest.raises(tv.EvalError, match=message):
            run()


def test_overflowing_mu_weighted_terms_and_sums_are_located():
    # L = 1e300 + qd1^2 is finite on every cell; mu = 1e10 makes the term mu * L inf
    g = tv.TimeScaleGrid((0.0, 1e10, 2e10, 3e10))
    p = tv.make_problem(g, "1e300 + qd1^2", 1, [0.0], [1.0])
    message = r"^cell 0 at t=0\.0: non-finite value inf \(column 1\)$"
    for run in (lambda: tv.action(p, tv.linear_guess(p)), lambda: tv.solve_el(p)):
        with pytest.raises(tv.EvalError, match=message):
            run()
    # every term is 1.5e308; their sum overflows at cell 1
    p = tv.make_problem(tv.integers(0, 3), "1.5e308 + qd1^2", 1, [0.0], [1.0])
    for run in (lambda: tv.action(p, tv.linear_guess(p)), lambda: tv.solve_el(p)):
        with pytest.raises(tv.EvalError, match=r"^cell 1 at t=1\.0: non-finite value inf"):
            run()
    # the action 1e290 is finite, and the gradient term mu * dL/dqs1 = 1e10 * 1e300 is not
    p = tv.make_problem(g, "1e300*qs1 + qd1^2", 1, [0.0], [1e-20])
    q = tv.GridFunction(g, [[0.0], [1e-20], [1e-20], [1e-20]])
    with pytest.raises(tv.EvalError, match=message):
        tv.stationarity_gradient(p, q)
    # dL/dqd1 = qd1 is finite, and its delta derivative 1e100 / 1e-250 is not
    g = tv.TimeScaleGrid((0.0, 1e-250, 1.0, 2.0))
    p = tv.make_problem(g, "qd1^2/2", 1, [0.0], [1.0])
    q = tv.GridFunction(g, [[0.0], [0.0], [1e100], [1e100]])
    with pytest.raises(tv.EvalError, match=message):
        tv.el_residual(p, q)


def test_overflowing_hessian_diagonal_block_is_located_at_its_left_cell():
    # every block h_vv / mu = 1e308 is finite; interior point k+1's diagonal block,
    # cell k's right-right plus cell k+1's left-left, is 2e308 and names cell k
    for points, vals, message in (
        ([0.0, 1e-308, 2e-308, 3e-308], [0.0, 1e-310, 0.0, 0.0],
         r"^cell 0 at t=0\.0: non-finite value inf"),
        ([-1.0, 0.0, 1e-308, 2e-308], [0.0, 0.0, 1e-310, 0.0],
         r"^cell 1 at t=0\.0: non-finite value inf"),
    ):
        p = tv.make_problem(tv.explicit(points), "qd1^2/2", 1, [0.0], [0.0])
        vals = np.array(vals)[:, None]
        assert all(np.isfinite(blocks).all() for blocks in dense_blocks(p, vals))
        for run in (lambda: _interior_hessian(p, vals),
                    lambda: tv.solve_el(p, tv.GridFunction(p.grid, vals))):
            with pytest.raises(tv.EvalError, match=message):
                run()


def test_linear_guess_of_overflowing_boundary_values_names_the_component():
    # qb - qa = 2e308 in component 2 is refused before any array arithmetic can warn
    p = tv.make_problem(tv.integers(0, 4), "qd1^2/2 + qd2^2/2", 2, [0.0, -1e308], [1.0, 1e308])
    message = r"^linear guess of component 2 from -1e\+308 to 1e\+308 spans more than a double$"
    for run in (lambda: tv.linear_guess(p), lambda: tv.solve_el(p)):
        with pytest.raises(ValueError, match=message):
            run()
    # a difference that is a double keeps numpy's bits
    p = tv.make_problem(tv.explicit([0.0, 0.1, 0.7, 3.0]), "qd1^2/2", 1, [-8e307], [9e307])
    t = p.grid.array
    want = p.qa + ((t - t[0]) / (t[-1] - t[0]))[:, None] * (p.qb - p.qa)
    want[0], want[-1] = p.qa, p.qb
    assert tv.linear_guess(p).values.tobytes() == want.tobytes()


def test_el_residual_free_particle_lines():
    # dL/dv is constant along a line and dL/dy vanishes; the only leftovers
    # are difference-quotient rounding amplified by 1/mu on fine grids
    rng = np.random.default_rng(22)
    for _ in range(10):
        g = random_grid(rng, max_points=12)
        c, d = rng.uniform(-2, 2, size=2)
        p = tv.make_problem(g, "qd1^2", 1, [c * g.a + d], [c * g.b + d])
        q = tv.as_trajectory(p, c * g.array + d)
        resid = tv.el_residual(p, q)
        assert np.max(np.abs(resid.values)) <= 1e-9


def test_el_residual_vanishes_on_recurrence_extremal():
    # oracle: differentiate the cell sums of the doubling-grid action by hand;
    # stationarity is the three-term recurrence q_{k+1} = 3 q_k - q_{k-1}
    oracle = recurrence_oracle_power2(1.0, 13.0, 5)
    assert np.array_equal(oracle, np.array([1.0, 1.0, 2.0, 5.0, 13.0]))
    p = tv.make_problem(tv.explicit([1, 2, 4, 8, 16]), PAPERLIKE_L, 1, [1.0], [13.0])
    q = tv.as_trajectory(p, oracle)
    resid = tv.el_residual(p, q)
    assert np.max(np.abs(resid.values)) <= 1e-12


def test_el_residual_stencil_locality():
    # residual(t_i) reads q_i, q_{i+1}, q_{i+2}: a bump at grid index 4 is
    # seen exactly by the residual points with indices 2, 3 and 4
    p = tv.make_problem(tv.integers(0, 8), "qd1^2", 1, [0.0], [8.0])
    vals = np.arange(9.0)
    vals[4] += 0.5
    resid = tv.el_residual(p, tv.as_trajectory(p, vals)).values.ravel()
    touched = np.nonzero(np.abs(resid) > 1e-13)[0]
    assert np.array_equal(touched, [2, 3, 4])


def test_el_residual_needs_three_points():
    p = tv.make_problem(tv.integers(0, 1), "qd1^2", 1, [0.0], [1.0])
    q = tv.as_trajectory(p, [0.0, 1.0])
    with pytest.raises(ValueError, match="at least 3"):
        tv.el_residual(p, q)


def test_gradient_zero_on_extremal():
    p = tv.make_problem(tv.explicit([1, 2, 4, 8, 16]), PAPERLIKE_L, 1, [1.0], [13.0])
    q = tv.as_trajectory(p, recurrence_oracle_power2(1.0, 13.0, 5))
    g = tv.stationarity_gradient(p, q)
    assert np.max(np.abs(g)) <= 1e-12


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(23)
    for _ in range(15):
        dim = int(rng.integers(1, 3))
        g = random_grid(rng, max_points=8)
        lag_text = random_smooth_lagrangian_text(rng, dim)
        qa = rng.uniform(-1, 1, size=dim)
        qb = rng.uniform(-1, 1, size=dim)
        p = tv.make_problem(g, lag_text, dim, qa, qb)
        vals = rng.uniform(-1.5, 1.5, size=(len(g), dim))
        grad = tv.stationarity_gradient(p, tv.GridFunction(g, vals))
        fd = fd_action_gradient(p, vals)
        assert np.all(np.abs(grad - fd) <= 1e-5 * np.maximum(1.0, np.abs(grad)))


def test_hessian_matches_finite_differences_of_gradient():
    rng = np.random.default_rng(28)
    step = 1e-6
    # 25 random draws cover all five grid constructors; the handwritten
    # Lagrangians, smooth on the sampled states, use every function and
    # operator, a negative integer power and a cell-varying exponent
    handwritten = [
        ("ln(qs1^2 + 1) * sin(qd1) + exp(sin(qs1) * cos(qd1))", 1),
        ("sqrt(qs1^2 + qd1^2 / (qd1^2 + 1) + 1) + abs(qs1 - 4) * cos(qd1)", 1),
        ("(qs1^2 + 2)^-2 * qd1 / (qd2^2 + 1) - qs2 / (qs1^2 + 3)", 2),
        ("(qs1^2 + 1)^(cos(t) + sin(qd1)) + abs(qd1 + 3)^-3 * sqrt(exp(-qs1^2) + 2)", 1),
        # exponent and base in the same state, or the exponent in the state
        # differentiated first: the second derivative differentiates ln(base)
        ("(qs1^2 + 1)^qs1 + qd1^2", 1),
        ("(qd1^2 + 1)^qs1", 1),
    ]
    for case in [None] * 25 + handwritten:
        dim = int(rng.integers(1, 4)) if case is None else case[1]
        g = random_grid(rng, max_points=8)
        p = tv.make_problem(
            g, random_smooth_lagrangian_text(rng, dim) if case is None else case[0], dim,
            rng.uniform(-1, 1, size=dim), rng.uniform(-1, 1, size=dim),
        )
        vals = rng.uniform(-1.5, 1.5, size=(len(g), dim))
        _, diag, upper = _interior_hessian(p, vals)
        m = len(g) - 2
        hess = np.zeros((m, dim, m, dim))
        for j in range(m):
            hess[j, :, j, :] = diag[j]
            if j + 1 < m:
                hess[j, :, j + 1, :] = upper[j]
                hess[j + 1, :, j, :] = upper[j].T
        for j in range(m):
            for k in range(dim):
                plus, minus = vals.copy(), vals.copy()
                plus[j + 1, k] += step
                minus[j + 1, k] -= step
                fd = (
                    tv.stationarity_gradient(p, tv.GridFunction(g, plus))
                    - tv.stationarity_gradient(p, tv.GridFunction(g, minus))
                ) / (2 * step)
                col = hess[:, :, j, k]
                assert np.all(np.abs(col - fd) <= 1e-5 * np.maximum(1.0, np.abs(col)))


def test_gradient_residual_identity():
    rng = np.random.default_rng(24)
    for _ in range(25):
        dim = int(rng.integers(1, 3))
        g = random_grid(rng, max_points=50, moderate=True)
        p = tv.make_problem(
            g, random_smooth_lagrangian_text(rng, dim), dim,
            rng.uniform(-1, 1, size=dim), rng.uniform(-1, 1, size=dim),
        )
        vals = rng.uniform(-1.5, 1.5, size=(len(g), dim))
        q = tv.GridFunction(g, vals)
        grad = tv.stationarity_gradient(p, q)
        resid = tv.el_residual(p, q).values
        mu = tv.graininess(g)[: len(resid), None]
        mismatch = np.abs(grad + mu * resid)
        scale = np.maximum(1.0, np.abs(grad))
        assert np.all(mismatch <= 1e-12 * scale)


def test_solve_free_particle_integer_window():
    p = tv.make_problem(tv.integers(0, 4), "qd1^2", 1, [0.0], [4.0])
    res = tv.solve_el(p)
    assert np.allclose(res.trajectory.values.ravel(), [0, 1, 2, 3, 4], atol=1e-13)


def test_solve_recovers_recurrence_extremal():
    p = tv.make_problem(tv.explicit([1, 2, 4, 8, 16]), PAPERLIKE_L, 1, [1.0], [13.0])
    res = tv.solve_el(p)
    oracle = recurrence_oracle_power2(1.0, 13.0, 5)
    assert np.max(np.abs(res.trajectory.values.ravel() - oracle)) <= 1e-10
    assert res.iterations == 1


def test_quadratic_problems_need_one_newton_step():
    rng = np.random.default_rng(25)
    for _ in range(10):
        dim = int(rng.integers(1, 3))
        g = random_grid(rng, max_points=10, moderate=True)
        p = tv.make_problem(
            g, random_quadratic_lagrangian_text(rng, dim), dim,
            rng.uniform(-1, 1, size=dim), rng.uniform(-1, 1, size=dim),
        )
        wild = tv.GridFunction(g, rng.uniform(-5, 5, size=(len(g), dim)))
        res = tv.solve_el(p, guess=wild)
        assert res.iterations == 1


def test_solver_boundary_values_bit_exact():
    rng = np.random.default_rng(26)
    qa, qb = [0.1234567890123456], [9.87654321e-3]
    p = tv.make_problem(tv.power2(0, 5), PAPERLIKE_L, 1, qa, qb)
    res = tv.solve_el(p)
    assert res.trajectory.values[0, 0] == qa[0]
    assert res.trajectory.values[-1, 0] == qb[0]


def test_solver_restarts_from_solution_in_zero_iterations():
    p = tv.make_problem(tv.integers(0, 6), "qd1^2 / 2 - qs1", 1, [0.0], [0.0])
    first = tv.solve_el(p)
    again = tv.solve_el(p, guess=first.trajectory)
    assert again.iterations == 0
    assert np.array_equal(again.trajectory.values, first.trajectory.values)


def test_solve_el_rejects_a_negative_iteration_count():
    # unchecked, range(max_iter + 1) would be empty at -1 and the solve would return None
    p = tv.make_problem(tv.integers(0, 3), "qd1^2", 1, [0.0], [1.0])
    with pytest.raises(ValueError, match=r"^max_iter must be >= 0, got -1$"):
        tv.solve_el(p, max_iter=-1)
    assert tv.solve_el(p, max_iter=0).iterations == 0  # the linear guess is the extremal


def test_solve_el_rejects_a_tolerance_that_is_negative_nan_or_inf():
    # unchecked, -1 and nan failed the line search of an exact guess, and inf
    # returned the unsolved linear guess as converged
    p = tv.make_problem(tv.integers(0, 4), "qd1^2", 1, [0.0], [4.0])
    for tol in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=rf"^tol must be a non-negative finite number, got {tol!r}$"):
            tv.solve_el(p, tol=tol)
    assert tv.solve_el(p, tol=0.0).gradient_norm == 0.0  # the linear guess is exact


def test_problem_rejects_non_finite_boundary_values():
    # unchecked, the solve failed later, at the linear guess or at a cell of the guess
    grid = tv.integers(0, 4)
    for qa, qb, name in (([math.nan, 0.0], [1.0, 1.0], "qa component 1 must be finite, got nan"),
                         ([0.0, 0.0], [1.0, -math.inf], "qb component 2 must be finite, got -inf")):
        with pytest.raises(ValueError, match=rf"^boundary value {name}$"):
            tv.make_problem(grid, "qd1^2 + qd2^2", 2, qa, qb)


def test_singular_jacobian_reports_pivot():
    # Lagrangian linear in the state: nonzero gradient, identically zero Hessian
    p = tv.make_problem(tv.integers(0, 3), "t * qs1", 1, [0.0], [0.0])
    with pytest.raises(SingularJacobian, match="interior point 0"):
        tv.solve_el(p)


def _block_system(rng, n, m, flip=0.0):
    """Random symmetric block tridiagonal system (diag, upper, rhs), every row diagonally dominant.

    About a share ``flip`` of the diagonal blocks change sign: the rows stay
    dominant, but the matrix is indefinite.
    """
    upper = rng.uniform(-1, 1, size=(max(m - 1, 0), n, n))
    sym = rng.uniform(-1, 1, size=(m, n, n))
    diag = sym + np.swapaxes(sym, 1, 2)
    coupling = np.zeros((m, n))
    coupling[:-1] += np.abs(upper).sum(axis=2)
    coupling[1:] += np.abs(upper).sum(axis=1)
    margin = np.abs(diag).sum(axis=2) - np.abs(np.diagonal(diag, axis1=1, axis2=2)) + coupling
    diag[:, range(n), range(n)] = margin + rng.uniform(1, 2, size=(m, n))
    diag[rng.random(m) < flip] *= -1
    return diag, upper, rng.uniform(-10, 10, size=(m, n))


def _tiny_pivot_system(rng, n, m, delta):
    """Block system whose diagonal blocks at even positions 2, 4, ... are delta * I.

    Cyclic reduction pivots on those blocks, while every Schur complement of
    Thomas elimination has eigenvalues of modulus 0.5 to 2.5.  The scalar
    system behind it has off-diagonal -1; a random orthogonal Q_j per row
    turns it into the blocks diag_j = d_j I, upper_j = -Q_j^T Q_{j+1}.
    """
    pivot, d = np.empty(m), np.empty(m)
    for j in range(m):
        if j > 0 and j % 2 == 0:
            d[j] = delta
            pivot[j] = delta - 1 / pivot[j - 1]
        else:
            pivot[j] = rng.choice([-1, 1]) * rng.uniform(0.5, 2)
            d[j] = pivot[j] + (1 / pivot[j - 1] if j else 0)
    q = np.linalg.qr(rng.normal(size=(m, n, n)))[0]
    upper = -np.swapaxes(q[:-1], 1, 2) @ q[1:]
    return d[:, None, None] * np.eye(n), upper, rng.uniform(-10, 10, size=(m, n))


def _dense(diag, upper):
    m, n = diag.shape[:2]
    a = np.zeros((m * n, m * n))
    for i in range(m):
        a[i * n : (i + 1) * n, i * n : (i + 1) * n] = diag[i]
    for i in range(m - 1):
        a[i * n : (i + 1) * n, (i + 1) * n : (i + 2) * n] = upper[i]
        a[(i + 1) * n : (i + 2) * n, i * n : (i + 1) * n] = upper[i].T
    return a


def _thomas(diag, upper, rhs):
    """Block Thomas elimination, one block at a time: the reference for large systems."""
    m = len(diag)
    dhat, rhat = diag.copy(), rhs.copy()
    for j in range(1, m):
        w = upper[j - 1].T @ np.linalg.inv(dhat[j - 1])
        dhat[j] -= w @ upper[j - 1]
        rhat[j] -= w @ rhat[j - 1]
    x = np.empty_like(rhat)
    x[m - 1] = np.linalg.solve(dhat[m - 1], rhat[m - 1])
    for j in range(m - 2, -1, -1):
        x[j] = np.linalg.solve(dhat[j], rhat[j] - upper[j] @ x[j + 1])
    return x


def _interior_times(m):
    """The times of the m interior points of integers(0, m + 1)."""
    return np.arange(1.0, m + 1)


def _bands(diag, upper):
    """lower, diag and upper bands of the system given by its m diagonal and m - 1 upper blocks."""
    lower, padded = np.zeros(diag.shape), np.zeros(diag.shape)
    lower[1:], padded[:-1] = upper.swapaxes(1, 2), upper
    return lower, diag, padded


def test_cyclic_reduction_matches_dense_solve():
    rng = np.random.default_rng(41)
    sizes = sorted(set(range(1, 41)) | {2**k + d for k in range(2, 11) for d in (-1, 0, 1)})
    systems = [(m, _block_system(rng, n, m, flip)) for flip in (0.0, 0.5)
               for n in range(1, 5) for m in sizes]
    # cyclic reduction alone is off by up to 0.1 on these: they need the fallback
    systems += [(m, _tiny_pivot_system(rng, n, m, delta))
                for delta in (0.0, 1e-14, -1e-12, 1e-10, 1e-8, 1e-6, 1e-3)
                for n in range(1, 5) for m in range(1, 17)]
    for m, (diag, upper, rhs) in systems:
        n = diag.shape[1]
        x = _block_tridiag_solve(_interior_times(m), *_bands(diag, upper), rhs)
        if m * n <= 1100:  # dense matrices of at most about 10 MB
            ref = np.linalg.solve(_dense(diag, upper), rhs.ravel()).reshape(m, n)
        else:
            ref = _thomas(diag, upper, rhs)
        assert x.shape == (m, n)
        assert np.max(np.abs(x - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref))), (n, m)


def test_block_solve_error_is_bounded_by_the_condition_number():
    # symmetric blocks with no diagonal dominance: some systems are ill-conditioned,
    # and an accepted solution has a normwise backward error of at most 1e-13
    rng = np.random.default_rng(45)
    for n in range(1, 5):
        for m in range(1, 41):
            sym = rng.uniform(-1, 1, size=(m, n, n))
            diag, upper = sym + np.swapaxes(sym, 1, 2), rng.uniform(-1, 1, size=(m - 1, n, n))
            rhs = rng.uniform(-10, 10, size=(m, n))
            dense = _dense(diag, upper)
            x = _block_tridiag_solve(_interior_times(m), *_bands(diag, upper), rhs)
            ref = np.linalg.solve(dense, rhs.ravel()).reshape(m, n)
            bound = 1e-12 * np.linalg.cond(dense) * np.max(np.abs(ref))
            assert np.max(np.abs(x - ref)) <= bound, (n, m)


def test_solve_el_with_a_zero_pivot_in_an_indefinite_hessian():
    # interior Hessian: diagonal [2, 1, 0, -1], off-diagonal -1, determinant 1
    p = tv.make_problem(tv.integers(0, 5), "qd1^2/2 - t*qs1^2/2", 1, [1.0], [1.0])
    vals = tv.linear_guess(p).values
    lower, diag, upper = va._interior_hessian(p, vals)
    assert np.array_equal(diag[:, 0, 0], [2.0, 1.0, 0.0, -1.0])
    rhs = -tv.stationarity_gradient(p, tv.linear_guess(p))
    x = _block_tridiag_solve(p.grid.array[1:-1], lower, diag, upper, rhs)
    ref = np.linalg.solve(_dense(diag, upper), rhs.ravel()).reshape(4, 1)
    assert np.max(np.abs(x - ref)) <= 1e-14 * np.max(np.abs(ref))
    res = tv.solve_el(p)
    assert res.iterations == 1
    assert np.max(np.abs(tv.stationarity_gradient(p, res.trajectory))) <= 1e-12


def test_singular_system_reports_first_singular_schur_complement():
    rng = np.random.default_rng(42)
    for zero_blocks in ((4,), (8, 4)):
        # zero rows and columns: the Schur complement at the first of them is zero
        diag, upper, rhs = _block_system(rng, 2, 9)
        for k in zero_blocks:
            diag[k] = upper[k - 1] = 0.0
            if k < 8:
                upper[k] = 0.0
        with pytest.raises(SingularJacobian, match=r"interior point 4 \(t=5\.0\)$") as err:
            _block_tridiag_solve(_interior_times(9), *_bands(diag, upper), rhs)
        assert err.value.block_index == 4 and type(err.value.time) is float
    # nonsingular diagonal blocks, singular matrix: Schur complements 1, 1, 0
    diag = np.array([1.0, 2.0, 1.0]).reshape(3, 1, 1)
    upper = np.ones((2, 1, 1))
    with pytest.raises(SingularJacobian, match=r"interior point 2 \(t=3\.0\)$"):
        _block_tridiag_solve(_interior_times(3), *_bands(diag, upper), np.ones((3, 1)))


def test_cyclic_reduction_makes_log2_batched_solves(monkeypatch):
    rng = np.random.default_rng(43)
    m = 3999
    diag, upper, rhs = _block_system(rng, 2, m)
    calls = []
    solve = np.linalg.solve

    def counting_solve(a, b):
        calls.append(np.shape(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    _block_tridiag_solve(_interior_times(m), *_bands(diag, upper), rhs)
    assert len(calls) <= math.ceil(math.log2(m)) + 1


def _scalar_system(rng, m):
    """Random dim-1 system as _cyclic_reduction takes it: lower, diag, upper, rhs of (m, 1, *).

    Pivots have both signs and scales from 1e-5 to 1e5; about a third of
    the couplings and of the right-hand sides are zero, some of them -0.0.
    """
    diag = rng.choice([-1, 1], size=m) * rng.uniform(1, 3, size=m) * 10.0 ** rng.integers(-5, 6, m)
    upper = rng.uniform(-1, 1, size=m) * (rng.random(m) < 0.7)
    rhs = rng.uniform(-10, 10, size=m) * (rng.random(m) < 0.7)
    upper[rng.random(m) < 0.1] = -0.0
    rhs[rng.random(m) < 0.1] = -0.0
    upper[-1] = 0.0
    lower = np.concatenate([[0.0], upper[:-1]])
    return (lower.reshape(m, 1, 1), diag.reshape(m, 1, 1), upper.reshape(m, 1, 1),
            rhs.reshape(m, 1, 1))


def test_scalar_cyclic_reduction_matches_the_block_route():
    rng = np.random.default_rng(46)
    bitwise = solve_1x1_is_reciprocal_product(rng)
    sizes = [1, 2, 3, 4, 5, 6, 7, 8, 15, 16, 17, 100, 101, 1023, 1024, 1025, 2998, 2999, 3999]
    for m in sizes * 3 + [int(k) for k in rng.integers(1, 3000, size=40)]:
        lower, diag, upper, rhs = _scalar_system(rng, m)
        if m > 1 and rng.random() < 0.2:  # no coupling at all
            lower[:], upper[:] = 0.0, rng.choice([0.0, -0.0], size=(m, 1, 1))
            upper[-1] = 0.0
        with np.errstate(all="ignore"):
            x = va._cyclic_reduction(lower, diag, upper, rhs)
            ref = block_cyclic_reduction(lower, diag, upper, rhs)
        assert x.shape == ref.shape == (m, 1, 1)
        if bitwise:  # the same bits, the sign of every zero included
            assert x.tobytes() == ref.tobytes(), m
        else:
            assert np.allclose(x, ref, rtol=1e-10, atol=1e-10 * np.max(np.abs(ref))), m


def test_block_cyclic_reduction_matches_the_oracle_bit_for_bit():
    # n >= 2 takes the batched route, on dominant (definite) blocks, on dominant blocks
    # of both signs and on blocks with no dominance at all (indefinite)
    rng = np.random.default_rng(48)
    sizes = [1, 2, 3, 4, 15, 16, 17] + [int(m) for m in rng.integers(1, 81, size=6)]
    for n in range(2, 7):
        for m in sizes:
            for kind in ("definite", "flipped", "indefinite"):
                diag, upper, rhs = _block_system(rng, n, m, 0.5 if kind == "flipped" else 0.0)
                if kind == "indefinite":
                    sym = rng.uniform(-1, 1, size=(m, n, n))
                    diag = sym + np.swapaxes(sym, 1, 2)
                lower, diag, upper = _bands(diag, upper)
                with np.errstate(all="ignore"):
                    x = va._cyclic_reduction(lower, diag, upper, rhs[..., None])
                    ref = block_cyclic_reduction(lower, diag, upper, rhs[..., None])
                assert x.shape == ref.shape == (m, n, 1)
                assert x.tobytes() == ref.tobytes(), (n, m, kind)


def test_interior_hessian_bands_are_the_solver_layout():
    # the first and last cells couple a boundary value: lower[0] and upper[-1] are zero;
    # lower holds the other cross blocks transposed, as a contiguous copy
    rng = np.random.default_rng(49)
    grids = [tv.integers(0, 2), tv.explicit([0.0, 0.25, 1.0])]
    for g in grids + [random_grid(rng, max_points=10) for _ in range(25)]:
        dim = int(rng.integers(1, 5))
        p = tv.make_problem(g, random_smooth_lagrangian_text(rng, dim), dim,
                            rng.uniform(-1, 1, size=dim), rng.uniform(-1, 1, size=dim))
        lower, diag, upper = _interior_hessian(p, rng.uniform(-1.5, 1.5, size=(len(g), dim)))
        assert lower.shape == diag.shape == upper.shape == (len(g) - 2, dim, dim)
        assert not lower[0].any() and not upper[-1].any()
        assert lower.flags.c_contiguous
        assert lower[1:].tobytes() == np.ascontiguousarray(upper[:-1].swapaxes(1, 2)).tobytes()


def _chain_newton_system(cells=2000):
    """The dim-6 pendulum chain's problem, linear guess and gradient on ``cells`` uniform cells."""
    n = 6
    text = (" + ".join(f"qd{k}^2/2" for k in range(1, n + 1)) + " + "
            + " + ".join(f"{1 + 0.1 * k:g}*cos(qs{k} - qs{k + 1})" for k in range(1, n))
            + " + cos(qs1)")
    p = tv.make_problem(tv.uniform(0, 1, 1 / cells), text, n, np.zeros(n), np.full(n, 0.3))
    q = tv.linear_guess(p)
    return p, q.values, tv.stationarity_gradient(p, q)


def _traced_peak_in_bands(run, band):
    """run() once untraced (trees and caches), then tracemalloc's peak of a second run, in bands."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / band
    finally:
        tracemalloc.stop()


def test_interior_hessian_holds_each_block_once():
    # a band is one (m, n, n) float64 array; the bound fails if the second derivatives are
    # summed from arrays of their own (7.8 bands) instead of written into their blocks
    p, vals, _ = _chain_newton_system()
    band = (len(p.grid) - 2) * p.dim**2 * 8
    assert _traced_peak_in_bands(lambda: _interior_hessian(p, vals), band) <= 5.5


def test_block_cyclic_reduction_frees_each_stage_before_the_next():
    # the peak above the bands and rhs it is given; the bound fails if every stage's
    # bands stay alive until the back-substitution (5.7 bands)
    p, vals, g = _chain_newton_system()
    times, bands, rhs = p.grid.array[1:-1], _interior_hessian(p, vals), -g
    peak = _traced_peak_in_bands(lambda: _block_tridiag_solve(times, *bands, rhs), bands[1].nbytes)
    assert peak <= 5.0


def test_block_matvec_multiplies_1x1_blocks_elementwise():
    # the backward-error residual's products: for n = 1 the same as a 1x1 matmul
    # up to the sign of a zero, which abs removes; for n >= 2 the matmul itself
    rng = np.random.default_rng(47)
    for m in (1, 2, 17, 3999):
        _, diag, upper, rhs = _scalar_system(rng, m)
        x = rhs[..., 0] * rng.choice([1.0, -1.0, 0.0, -0.0], size=(m, 1))
        for blocks in (diag, upper):
            got, want = va._block_matvec(blocks, x), (blocks @ x[..., None])[..., 0]
            assert np.abs(got).tobytes() == np.abs(want).tobytes()
    for n in (2, 3, 6):
        blocks, x = rng.uniform(-1, 1, size=(50, n, n)), rng.uniform(-1, 1, size=(50, n))
        assert va._block_matvec(blocks, x).tobytes() == (blocks @ x[..., None])[..., 0].tobytes()


def test_scalar_cyclic_reduction_raises_on_a_zero_pivot_at_an_even_position():
    # row and column 2 of the interior Hessian are zero: the matrix is singular there
    diag = np.array([2.0, 3.0, 0.0, 3.0, 2.0, 4.0]).reshape(6, 1, 1)
    upper = np.array([1.0, 0.0, 0.0, 1.0, 1.0]).reshape(5, 1, 1)
    lower = np.concatenate([np.zeros((1, 1, 1)), upper])
    rhs = np.ones((6, 1, 1))
    with pytest.raises(np.linalg.LinAlgError):
        va._cyclic_reduction(lower, diag, np.concatenate([upper, np.zeros((1, 1, 1))]), rhs)
    with pytest.raises(SingularJacobian, match=r"interior point 2 \(t=3\.0\)$"):
        _block_tridiag_solve(_interior_times(6), *_bands(diag, upper), rhs[..., 0])


def test_dim_1_newton_steps_call_no_lapack_solve_unless_they_fall_back(monkeypatch):
    calls = []
    solve = np.linalg.solve

    def counting_solve(a, b):
        calls.append(np.shape(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    p = tv.make_problem(tv.uniform(0, 2, 0.01), "qd1^2 / 2 + cos(qs1)", 1, [0.0], [1.0])
    assert tv.solve_el(p).iterations >= 2
    assert calls == []
    # a zero pivot in an indefinite Hessian: cyclic reduction fails, Thomas elimination solves
    p = tv.make_problem(tv.integers(0, 5), "qd1^2/2 - t*qs1^2/2", 1, [1.0], [1.0])
    assert tv.solve_el(p).iterations == 1
    assert calls and all(shape == (1, 1) for shape in calls)


def test_solve_reports_the_action_of_its_trajectory():
    rng = np.random.default_rng(44)
    cases = [
        (tv.power2(0, 5), PAPERLIKE_L, 1),
        (tv.uniform(0, 2, 0.125), "qd1^2 / 2 + cos(qs1)", 1),
        (tv.integers(1, 9), "qd1^2 + qs1^-2", 1),
    ]
    for _ in range(10):
        dim = int(rng.integers(1, 3))
        cases.append((random_grid(rng, max_points=30, moderate=True),
                      random_quadratic_lagrangian_text(rng, dim), dim))
    for grid, text, dim in cases:
        p = tv.make_problem(grid, text, dim, np.ones(dim), 1.5 * np.ones(dim))
        res = tv.solve_el(p)
        assert res.action_value == tv.action(p, res.trajectory), text


def test_newton_step_evaluates_each_iterate_once(monkeypatch):
    # one pass for the gradient and action of each iterate, one for the Hessian
    passes = []
    evaluate = ex.evaluate
    monkeypatch.setattr(ex, "evaluate", lambda *a: passes.append("evaluate") or evaluate(*a))
    monkeypatch.setattr(va, "action", None)  # the solver never calls it
    p = tv.make_problem(tv.explicit([1, 2, 4, 8, 16]), PAPERLIKE_L, 1, [1.0], [13.0])
    res = tv.solve_el(p)
    assert res.iterations == 1
    assert passes == ["evaluate"] * 3


def _count_cell_passes(monkeypatch):
    """Wraps the solver's cell pass; returns [passes, passes that raised EvalError]."""
    counts = [0, 0]
    action_and_gradient = va._action_and_gradient

    def counting(*args):
        counts[0] += 1
        try:
            return action_and_gradient(*args)
        except ex.EvalError:
            counts[1] += 1
            raise

    monkeypatch.setattr(va, "_action_and_gradient", counting)
    return counts


# These cases use only + - * /, integer powers and sqrt, which round the same on
# every platform, so their pass counts and messages are exact.


def test_line_search_halves_a_step_that_does_not_decrease_the_gradient(monkeypatch):
    counts = _count_cell_passes(monkeypatch)
    p = tv.make_problem(tv.integers(0, 4), "qd1^2/2 - 2*qs1^2 + qs1^4", 1, [0.5], [1.0])
    res = tv.solve_el(p)
    # one pass for the guess, one per accepted step, and one rejected full step
    assert res.iterations == 5
    assert counts == [7, 0]
    assert res.gradient_norm <= 1e-12 * (1 + abs(res.action_value))


def test_line_search_counts_a_failing_trial_as_no_decrease(monkeypatch):
    counts = _count_cell_passes(monkeypatch)
    p = tv.make_problem(tv.integers(0, 6), "qd1^2/2 + sqrt(qs1)", 1, [0.01], [4.0])
    with pytest.raises(NonConvergence) as err:
        tv.solve_el(p)
    assert str(err.value) == "line search failed at iteration 10 (gradient max-norm 5.884e-01)"
    assert err.value.iterations == 10
    assert counts == [186, 97]


def test_line_search_fails_at_the_rounding_floor(monkeypatch):
    counts = _count_cell_passes(monkeypatch)
    grid = tv.explicit([0, 0.3, 1.1, 1.7, 3.0])
    p = tv.make_problem(grid, "qd1^2/2 + qs1^2/2 + qs1^4/4", 1, [0.2], [1.3])
    with pytest.raises(NonConvergence) as err:
        tv.solve_el(p, tol=1e-300)
    assert str(err.value) == "line search failed at iteration 6 (gradient max-norm 1.110e-16)"
    assert err.value.iterations == 6
    # the guess and 5 accepted steps, then 31 trials at scales 1 to 2**-30, none lower
    assert counts == [37, 0]


def test_newton_driver_needs_no_grid():
    # the gradient x^3 - 1 of sum(x^4/4 - x), undefined where any x <= 0, on 3 unknowns;
    # no problem or grid, only the row times that a singular system would be reported at
    failed = []

    def gradient(x):
        if (x <= 0).any():
            failed.append(x)
            raise ex.EvalError("x <= 0", 0)
        return float(np.sum(x**4 / 4 - x)), x**3 - 1

    def hessian(x, sign=1.0):
        zero = np.zeros((len(x), 1, 1))
        return zero, sign * 3 * x[:, :, None] ** 2, zero

    times, x0 = np.arange(3.0), np.array([[0.2], [3.0], [1.0]])
    x, iterations, gnorm, act = va._newton(gradient, hessian, times, x0, 1e-12, 100)
    assert iterations == 8 and np.allclose(x, 1.0) and gnorm <= 1e-12 * (1 + abs(act))
    assert act == float(np.sum(x**4 / 4 - x))
    with pytest.raises(NonConvergence, match=r"^no convergence after 2 iterations "
                                             r"\(gradient max-norm 5\.680e\+00\)$"):
        va._newton(gradient, hessian, times, x0, 1e-12, 2)
    # negated bands give an ascent step: none of its 31 trials decreases, and 6 raise
    failed.clear()
    with pytest.raises(NonConvergence, match=r"^line search failed at iteration 1 "
                                             r"\(gradient max-norm 2\.600e\+01\)$"):
        va._newton(gradient, lambda x: hessian(x, -1.0), times, x0, 1e-12, 100)
    assert len(failed) == 6


def test_nonconvergence_reports_norm():
    # the gradient exp(q1) is positive everywhere: no stationary point exists
    p = tv.make_problem(tv.integers(0, 2), "exp(qs1)", 1, [0.0], [0.0])
    with pytest.raises(NonConvergence) as err:
        tv.solve_el(p, max_iter=5)
    assert err.value.gradient_norm > 0
    assert "5 iterations" in str(err.value)


def test_first_variation_second_order_in_eps():
    # discrete first variation at an extremal vanishes like eps^2 for smooth
    # non-quadratic Lagrangians
    p = tv.make_problem(tv.integers(0, 6), "qd1^2 + sin(qs1)", 1, [0.0], [1.0])
    base = tv.solve_el(p).trajectory.values
    rng = np.random.default_rng(27)
    h = np.zeros_like(base)
    h[1:-1] = rng.uniform(-1, 1, size=(5, 1))
    act = lambda eps: brute_action(p, base + eps * h)
    ratios = []
    for eps in (1e-2, 1e-3):
        ratios.append(abs(act(eps) - act(-eps)) / (2 * eps))
    assert ratios[1] <= ratios[0] * 0.05 + 1e-11  # at least quadratic decay


def test_solve_needs_three_points():
    p = tv.make_problem(tv.integers(0, 1), "qd1^2", 1, [0.0], [1.0])
    with pytest.raises(ValueError, match="at least 3"):
        tv.solve_el(p)


def test_trajectory_shape_validation():
    p = tv.make_problem(tv.integers(0, 3), "qd1^2", 1, [0.0], [3.0])
    with pytest.raises(ValueError, match="shape"):
        tv.as_trajectory(p, np.zeros((3, 1)))


def test_trajectory_must_live_on_the_problem_grid():
    # power2(0, 4) has as many points as integers(0, 4), but other times
    p = tv.make_problem(tv.integers(0, 4), "qd1^2", 1, [0.0], [4.0])
    q = tv.GridFunction(tv.power2(0, 4), np.arange(5.0)[:, None])
    gen = tv.make_generator(1, tau="0", xi=["1"])
    assert len(q.grid) == len(p.grid)
    for call in (
        lambda: tv.action(p, q),
        lambda: tv.el_residual(p, q),
        lambda: tv.noether_quantity(p, q, gen),
        lambda: tv.solve_el(p, guess=q),
    ):
        with pytest.raises(ValueError, match="^trajectory does not match the problem grid/dimension$"):
            call()
