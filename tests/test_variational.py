import numpy as np
import pytest

import tsvarlab as tv
from tsvarlab.variational import (
    NonConvergence,
    SingularJacobian,
    _cell_hessian,
    _interior_hessian,
)

from helpers import (
    brute_action,
    fd_action_gradient,
    random_grid,
    random_quadratic_lagrangian_text,
    random_smooth_lagrangian_text,
    recurrence_oracle_power2,
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
        d1, d2, d3 = lag.partials(t, y, v)
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
        blocks = [_cell_hessian(p, t[i], mu[i], vals[i], vals[i + 1]) for i in range(len(t))]
        assert np.array_equal(_cell_hessian(p, t, mu, vals[:-1], vals[1:]), blocks)


def test_overflowing_action_is_located_not_returned():
    # qd1^2 overflows on the linear guess while the gradient stays 0, so an
    # unchecked solve would stop at once and report action=inf
    p = tv.make_problem(tv.integers(0, 2), "qd1^2", 1, [0.0], [1e200])
    with pytest.raises(tv.EvalError, match=r"^cell 0 at t=0\.0: non-finite value inf"):
        tv.action(p, tv.linear_guess(p))
    with pytest.raises(tv.EvalError, match="non-finite value"):
        tv.solve_el(p)


def test_overflowing_cell_terms_are_located():
    # L = qd1^4 is inf on every cell while its partials stay finite: the
    # residual would be finite and the convergence test tol * (1 + inf) true
    p = tv.make_problem(tv.integers(0, 3), "qd1^4", 1, [0.0], [1e100])
    with pytest.raises(tv.EvalError, match=r"^cell 0 at t=0\.0: non-finite value inf"):
        tv.el_residual(p, tv.linear_guess(p))
    with pytest.raises(tv.EvalError, match=r"^cell 0 at t=0\.0: non-finite value inf"):
        tv.solve_el(p)


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
    for _ in range(25):  # 25 draws cover all five grid constructors
        dim = int(rng.integers(1, 4))
        g = random_grid(rng, max_points=8)
        p = tv.make_problem(
            g, random_smooth_lagrangian_text(rng, dim), dim,
            rng.uniform(-1, 1, size=dim), rng.uniform(-1, 1, size=dim),
        )
        vals = rng.uniform(-1.5, 1.5, size=(len(g), dim))
        diag, upper = _interior_hessian(p, vals)
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


def test_singular_jacobian_reports_pivot():
    # Lagrangian linear in the state: nonzero gradient, identically zero Hessian
    p = tv.make_problem(tv.integers(0, 3), "t * qs1", 1, [0.0], [0.0])
    with pytest.raises(SingularJacobian, match="interior point 0"):
        tv.solve_el(p)


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
