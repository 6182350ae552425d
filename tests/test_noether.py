import numpy as np
import pytest

import tsvarlab as tv
from tsvarlab import noether

from helpers import (
    fd_action_eps_derivative,
    gravity_oracle_trajectory,
    random_generator,
    random_grid,
    random_quadratic_lagrangian_text,
    recurrence_oracle_power2,
)

PAPERLIKE_L = "qs1^2 / t + t * qd1^2"
DILATION = dict(tau="t", xi=["0"], tbar="t * exp(eps)", qbar=["q1"])


def dilation_generator():
    return tv.make_generator(1, **DILATION)


def doubling_problem(n1=4, qb=13.0):
    return tv.make_problem(tv.power2(0, n1), PAPERLIKE_L, 1, [1.0], [qb])


# ---------------------------------------------------------------------------
# pointwise invariance residual


def test_residual_zero_for_translation_of_free_particle():
    p = tv.make_problem(tv.power2(0, 4), "qd1^2", 1, [0.0], [3.0])
    q = tv.linear_guess(p)
    gen = tv.make_generator(1, tau="0", xi=["1"])
    r = tv.invariance_residual_pointwise(p, q, gen)
    assert np.max(np.abs(r.values)) == 0.0
    assert r.grid.points == p.grid.points[:-1]


def test_residual_zero_for_rotation_of_planar_free_particle():
    rng = np.random.default_rng(31)
    p = tv.make_problem(tv.integers(0, 6), "qd1^2 + qd2^2", 2, [0.0, 1.0], [2.0, -1.0])
    q = tv.GridFunction(p.grid, rng.uniform(-2, 2, size=(7, 2)))
    gen = tv.make_generator(2, tau="0", xi=["-q2", "q1"])
    r = tv.invariance_residual_pointwise(p, q, gen)
    assert np.max(np.abs(r.values)) <= 1e-12


def test_residual_detects_non_invariance():
    p = tv.make_problem(tv.integers(0, 4), "qs1^2", 1, [1.0], [2.0])
    q = tv.linear_guess(p)
    gen = tv.make_generator(1, tau="0", xi=["1"])
    r = tv.invariance_residual_pointwise(p, q, gen)
    expected = 2.0 * q.values[1:, 0]  # twice the jumped state
    assert np.allclose(r.values, expected, rtol=1e-13, atol=0)


# ---------------------------------------------------------------------------
# fixed-time invariance check


def test_rotation_family_exactly_invariant():
    p = tv.make_problem(tv.integers(0, 5), "qd1^2 + qd2^2", 2, [0.0, 0.0], [1.0, 2.0])
    rng = np.random.default_rng(32)
    q = tv.GridFunction(p.grid, rng.uniform(-2, 2, size=(6, 2)))
    gen = tv.make_generator(
        2,
        tau="0",
        xi=["-q2", "q1"],
        tbar="t",
        qbar=["q1 * cos(eps) - q2 * sin(eps)", "q1 * sin(eps) + q2 * cos(eps)"],
    )
    rep = tv.check_invariance_fixed_time(p, q, gen, [-0.5, -0.1, 0.1, 0.5])
    assert rep.mode == "fixed-time"
    assert rep.max_discrepancy <= 1e-12
    assert abs(rep.action_eps_derivative) <= 1e-13 * (1 + abs(rep.action_value))


def test_translation_invariance_of_free_particle():
    p = tv.make_problem(tv.sampled(0, 1, 0.2), "qd1^2", 1, [0.0], [1.0])
    q = tv.linear_guess(p)
    gen = tv.make_generator(1, tau="0", xi=["1"])
    rep = tv.check_invariance_fixed_time(p, q, gen, [0.7, -0.3])
    assert rep.max_discrepancy <= 1e-13  # shifting all values leaves each quotient


def test_non_invariant_pair_matches_weighted_residual_sum():
    # d(action)/d(eps) at 0 equals the graininess-weighted residual sum
    p = tv.make_problem(tv.integers(0, 4), "qs1^2", 1, [1.0], [2.0])
    q = tv.linear_guess(p)
    gen = tv.make_generator(1, tau="0", xi=["1"])
    rep = tv.check_invariance_fixed_time(p, q, gen, [0.1])
    assert rep.max_discrepancy > 1e-3
    r = tv.invariance_residual_pointwise(p, q, gen)
    weighted = float(np.sum(tv.graininess(p.grid) * r.values))
    assert abs(rep.action_eps_derivative - weighted) <= 1e-13 * max(1.0, abs(weighted))


# ---------------------------------------------------------------------------
# time-transform invariance check


def test_dilation_family_invariant_on_doubling_grid():
    p = tv.make_problem(tv.power2(0, 10), PAPERLIKE_L, 1, [1.0], [13.0])
    q = tv.linear_guess(p)
    rep = tv.check_invariance_time_transform(p, q, dilation_generator(), [-0.5, -0.1, 0.1, 0.5])
    assert rep.mode == "time-transform"
    assert rep.max_discrepancy <= 1e-12
    assert abs(rep.action_eps_derivative) <= 1e-13 * (1 + abs(rep.action_value))


def test_time_shift_relabels_autonomous_action():
    # shifting an equally spaced grid keeps every graininess, so the cells
    # of an autonomous Lagrangian are reproduced exactly
    p = tv.make_problem(tv.integers(0, 6), "qd1^2 / 2", 1, [0.0], [2.0])
    rng = np.random.default_rng(33)
    q = tv.GridFunction(p.grid, rng.uniform(-1, 1, size=(7, 1)))
    gen = tv.make_generator(1, tau="1", xi=["0"], tbar="t + eps", qbar=["q1"])
    rep = tv.check_invariance_time_transform(p, q, gen, [-0.5, 0.25, 1.5])
    assert rep.max_discrepancy == 0.0


def test_time_shift_breaks_explicitly_time_dependent_action():
    p = tv.make_problem(tv.integers(0, 5), "t * qd1^2", 1, [0.0], [2.0])
    q = tv.linear_guess(p)
    gen = tv.make_generator(1, tau="1", xi=["0"])
    rep = tv.check_invariance_time_transform(p, q, gen, [0.1, 0.2, 0.4])
    # discrepancy grows linearly in eps for this family
    d1, d2, d4 = rep.per_eps_max
    assert d1 > 1e-6
    assert d2 == pytest.approx(2 * d1, rel=1e-6)
    assert d4 == pytest.approx(4 * d1, rel=1e-6)


def test_report_action_is_the_action_bit_for_bit():
    # the report sums the cells left to right, as action() does; a pairwise
    # sum differs from it in the last digits on long grids
    rng = np.random.default_rng(39)
    grids = [random_grid(rng, max_points=60, moderate=True) for _ in range(20)]
    grids.append(tv.explicit(np.cumsum(rng.uniform(0.05, 1.5, size=2001))))
    for g in grids:
        p = tv.make_problem(g, "qd1^2 / 2 + cos(qs1) + t * qs1", 1, [0.0], [1.0])
        q = tv.GridFunction(g, rng.uniform(-1, 1, size=(len(g), 1)))
        fixed = tv.check_invariance_fixed_time(p, q, tv.make_generator(1, xi=["1"]), [0.1])
        moved = tv.check_invariance_time_transform(p, q, tv.make_generator(1, tau="1"), [0.1])
        assert fixed.action_value == moved.action_value == tv.action(p, q)


def test_time_transform_builds_one_image_grid_per_eps(monkeypatch):
    # the eps-derivative comes from derivative trees, not from image grids at +-step;
    # an image grid's cells are the ones formed over times other than the problem grid's
    p = tv.make_problem(tv.power2(0, 6), PAPERLIKE_L, 1, [1.0], [13.0])
    built, cells = [], noether.grid_cells

    def counting(times, values):
        if not np.array_equal(times, p.grid.array):
            built.append(times)
        return cells(times, values)

    monkeypatch.setattr(noether, "grid_cells", counting)
    q = tv.linear_guess(p)
    rep = tv.check_invariance_time_transform(p, q, dilation_generator(), [-0.1, 0.2, 0.5])
    assert len(built) == len(rep.eps_values) == 3


def test_non_monotone_transform_rejected():
    p = tv.make_problem(tv.integers(0, 3), "qd1^2", 1, [0.0], [1.0])
    q = tv.linear_guess(p)
    gen = tv.make_generator(1, tau="-t", xi=["0"])  # collapses for eps >= 1
    with pytest.raises(ValueError, match="eps=2.0"):
        tv.check_invariance_time_transform(p, q, gen, [0.1, 2.0])


def test_family_must_match_generator():
    p = tv.make_problem(tv.integers(0, 3), "qd1^2", 1, [0.0], [1.0])
    q = tv.linear_guess(p)
    bad = tv.make_generator(1, tau="t", xi=["0"], tbar="t + eps", qbar=["q1"])
    with pytest.raises(ValueError, match="tau"):
        tv.check_invariance_time_transform(p, q, bad, [0.1])
    offset = tv.make_generator(1, tau="1", xi=["0"], tbar="t + eps + 0.001", qbar=["q1"])
    with pytest.raises(ValueError, match="eps=0"):
        tv.check_invariance_time_transform(p, q, offset, [0.1])
    wobble = tv.make_generator(1, xi=["1"], tbar="t", qbar=["q1 + sin(10000*eps)/5000"])
    with pytest.raises(ValueError, match=r"^d qbar/d eps at 0 does not match xi at t=0\.0$"):
        tv.check_invariance_time_transform(p, q, wobble, [0.1])


def test_validate_family_accepts_consistent_maps():
    gen = dilation_generator()
    tv.validate_family(gen, [1.0, 2.0, 4.0], np.array([[1.0], [0.5], [-2.0]]))
    tv.validate_family(gen, 2.0, [0.5])  # one point
    # d qbar/d eps at 0 is exactly 1; a central difference with step 1e-6
    # would give 0.99998 and reject the family
    wobble = tv.make_generator(1, xi=["1"], tbar="t", qbar=["q1 + sin(10000*eps)/10000"])
    g = tv.integers(0, 4)
    tv.validate_family(wobble, g.array, g.array[:, None])


def test_generator_samples_all_points_in_one_call():
    # constant components ("0", "1") must still give one value per point
    gen = tv.make_generator(
        2, tau="1", xi=["0", "q1 * t"], tbar="t + eps", qbar=["q1", "q2 + eps * q1 * t"]
    )
    rng = np.random.default_rng(38)
    t = rng.uniform(-2, 2, size=7)
    q = rng.uniform(-2, 2, size=(7, 2))
    for name, args in (("tau_at", ()), ("xi_at", ()), ("tbar_at", (0.3,)), ("qbar_at", (0.3,))):
        sample = getattr(gen, name)
        pointwise = np.array([sample(t[i], q[i], *args) for i in range(len(t))])
        assert np.array_equal(sample(t, q, *args), pointwise)
    assert np.array_equal(gen.xi_at(t, q)[:, 0], np.zeros(7))


def test_generator_domain_errors_name_the_lowest_point():
    p = tv.make_problem(tv.integers(0, 4), "qd1^2 / 2", 1, [-2.0], [2.0])
    q = tv.linear_guess(p)  # q1 = t - 2: zero at point 2, one at point 3
    # the left term fails first, at point 3; the lowest failing point is 2
    xi = "1 / (q1 - 1) + 1 / q1"
    gen = tv.make_generator(1, xi=[xi])
    family = tv.make_generator(1, xi=[xi], tbar="t", qbar=[f"q1 + eps * ({xi})"])
    message = r"^point 2 at t=2\.0: division by zero in '/' \(column \d+\)$"
    with pytest.raises(tv.EvalError, match=message):
        tv.check_invariance_fixed_time(p, q, gen, [0.1])
    with pytest.raises(tv.EvalError, match=message):
        tv.invariance_residual_pointwise(p, q, gen)
    with pytest.raises(tv.EvalError, match=message):
        tv.validate_family(family, p.grid.array, q.values)
    with pytest.raises(tv.EvalError, match=message):
        tv.check_invariance_time_transform(p, q, family, [0.1])
    with pytest.raises(tv.EvalError, match=message):
        tv.noether_quantity(p, q, gen)
    # the quantity lives on the N - 1 left points: xi need not exist at the final one
    last = tv.make_generator(1, tau="1", xi=["1 / (q1 - 2)"])
    assert np.all(np.isfinite(tv.noether_quantity(p, q, last).values))


# ---------------------------------------------------------------------------
# conserved quantities


def test_momentum_conserved_for_free_particle():
    for grid in (tv.integers(0, 8), tv.uniform(0, 1, 0.125), tv.power2(0, 5)):
        p = tv.make_problem(grid, "qd1^2", 1, [0.0], [2.0])
        res = tv.solve_el(p)
        gen = tv.make_generator(1, tau="0", xi=["1"])
        rep = tv.noether_quantity_fixed_time(p, res.trajectory, gen)
        # momentum 2 qd is one constant sequence
        spread = np.max(rep.values) - np.min(rep.values)
        assert spread <= 1e-10 * max(1.0, np.max(np.abs(rep.values)))
        assert rep.max_abs_residual <= 1e-10


def test_angular_momentum_conserved_for_planar_free_particle():
    p = tv.make_problem(tv.power2(0, 5), "qd1^2 + qd2^2", 2, [1.0, 0.0], [0.0, 2.0])
    res = tv.solve_el(p)
    gen = tv.make_generator(2, tau="0", xi=["-q2", "q1"])
    rep = tv.noether_quantity_fixed_time(p, res.trajectory, gen)
    assert rep.max_abs_residual <= 1e-10
    r = tv.invariance_residual_pointwise(p, res.trajectory, gen)
    assert np.max(np.abs(r.values)) <= 1e-10


def test_non_symmetry_residual_equals_pointwise_residual():
    # product-rule ledger along an extremal, for a generator that is NOT a
    # symmetry: the conservation defect is exactly the invariance defect
    p = tv.make_problem(tv.integers(0, 6), "qs1^2 + qd1^2", 1, [1.0], [0.5])
    res = tv.solve_el(p)
    gen = tv.make_generator(1, tau="0", xi=["1"])
    rep = tv.noether_quantity_fixed_time(p, res.trajectory, gen)
    r = tv.invariance_residual_pointwise(p, res.trajectory, gen)
    m = len(rep.residuals)
    assert np.max(np.abs(rep.residuals)) > 1e-3
    assert np.all(np.abs(rep.residuals - r.values[:m]) <= 1e-10)


def test_quantity_evaluates_only_the_partials_it_uses():
    # sqrt(t) has no slope at t = 0: the quantity needs dL/dt only where mu * tau != 0
    p = tv.make_problem(tv.integers(0, 4), "qd1^2/2 + sqrt(t)*qs1", 1, [0.0], [1.0])
    traj = tv.solve_el(p).trajectory
    momentum = tv.noether_quantity(p, traj, tv.make_generator(1, tau="0", xi=["1"]))
    fixed = tv.noether_quantity_fixed_time(p, traj, tv.make_generator(1, tau="1", xi=["1"]))
    assert np.array_equal(momentum.values, fixed.values)
    message = r"^cell 0 at t=0\.0: sqrt derivative undefined at 0 in sqrt\(\.\.\.\) \(column 11\)$"
    with pytest.raises(tv.EvalError, match=message):
        tv.noether_quantity(p, traj, tv.make_generator(1, tau="1", xi=["1"]))
    # closed form C = L_v xi + (L - L_v v - mu L_t) tau with mu = 1, L_v = v, L_t = y / (2 sqrt(t))
    t, y, v = p.grid.array[:-1], traj.values[1:, 0], np.diff(traj.values[:, 0])
    lval = v**2 / 2 + np.sqrt(t) * y
    dilation = tv.noether_quantity(p, traj, tv.make_generator(1, tau="t", xi=["1"]))
    assert dilation.values[0] == v[0]  # tau = 0 at t = 0: no bracket, no dL/dt
    closed = v[1:] + (lval[1:] - v[1:] ** 2 - y[1:] / (2 * np.sqrt(t[1:]))) * t[1:]
    assert np.all(np.abs(dilation.values[1:] - closed) <= 1e-12 * np.maximum(1.0, np.abs(closed)))
    # mu_mode="zero" drops mu L_t, so dL/dt is never evaluated
    shift = tv.noether_quantity(p, traj, tv.make_generator(1, tau="1", xi=["1"]), mu_mode="zero")
    closed = v + (lval - v**2)
    assert np.all(np.abs(shift.values - closed) <= 1e-12 * np.maximum(1.0, np.abs(closed)))


def test_non_finite_generator_values_fail_at_their_point():
    # q1 = 10.75 at point 1, where q1^300 overflows; no subtraction of inf may warn first
    p = tv.make_problem(tv.integers(0, 4), "qd1^2/2", 1, [1.0], [40.0])
    q = tv.solve_el(p).trajectory
    huge = "q1^300"
    moving = tv.make_generator(1, tau=huge)
    family = tv.make_generator(1, tau=huge, tbar=f"t + eps * {huge}", qbar=["q1"])
    state = tv.make_generator(1, xi=[huge])
    message = r"^point 1 at t=1\.0: non-finite value"
    with pytest.raises(tv.EvalError, match=message):
        tv.validate_family(family, p.grid.array, q.values)
    for gen in (moving, family):
        with pytest.raises(tv.EvalError, match=message):
            tv.check_invariance_time_transform(p, q, gen, [-0.5, 0.5])
    with pytest.raises(tv.EvalError, match=message):
        tv.check_invariance_fixed_time(p, q, state, [-0.5, 0.5])
    with pytest.raises(tv.EvalError, match=message):
        tv.noether_quantity(p, q, moving)
    with pytest.raises(tv.EvalError, match=message):
        tv.invariance_residual_pointwise(p, q, state)


def test_overflowing_report_terms_are_located_without_a_warning():
    # mu * L = 1e10 * 1e300 overflows on the image grid and on the original one
    g = tv.TimeScaleGrid((0.0, 1e10, 2e10, 3e10))
    p = tv.make_problem(g, "1e300 + qd1^2", 1, [0.0], [1.0])
    with pytest.raises(tv.EvalError, match=r"^cell 0 at t=0\.0: non-finite value inf"):
        tv.check_invariance_time_transform(p, tv.linear_guess(p), tv.make_generator(1, tau="1"), [0.1])
    # L is inf where t != 1; tau = 0 at t = 0 leaves C = L_v xi, and at t = 2 the
    # bracket L - L_v v is inf - inf
    p = tv.make_problem(tv.integers(0, 4), "qd1^2/2 + (1e10 - 1e10*t)^40", 1, [0.0], [1.0])
    with pytest.raises(tv.EvalError, match=r"^cell 2 at t=2\.0: non-finite value nan"):
        tv.noether_quantity(p, tv.linear_guess(p), tv.make_generator(1, tau="t", xi=["1"]))
    # C = L_v = 1e308 * qs1 is finite, and its forward difference -1e308 - 1e308 is not
    g = tv.integers(0, 3)
    p = tv.make_problem(g, "1e308*qd1*qs1", 1, [0.0], [0.0])
    q = tv.GridFunction(g, [[0.0], [1.0], [-1.0], [0.0]])
    with pytest.raises(tv.EvalError, match=r"^cell 0 at t=0\.0: non-finite value -inf"):
        tv.noether_quantity_fixed_time(p, q, tv.make_generator(1, xi=["1"]))


def test_overflowing_image_cell_is_located_without_a_warning():
    # at eps = 1e10 the images -1e308 and 1e308 of t = 0 and t = 1 are finite, and
    # the image cell between them, 1e308 - -1e308, is not
    p = tv.make_problem(tv.TimeScaleGrid((0.0, 1.0, 1.0000001)), "qd1^2/2 + 1", 1, [0.0], [0.0])
    gen = tv.make_generator(1, tau="1e298*(2*t - 1)", tbar="t + eps*1e298*(2*t - 1)", qbar=["q1"])
    with pytest.raises(tv.EvalError, match=r"^cell 0 at t=-1e\+308: non-finite value inf"):
        tv.check_invariance_time_transform(p, tv.linear_guess(p), gen, [1e10])


def test_overflowing_extended_partials_error_is_located():
    # with r = -1 the composite value L * r = -1e308 and L = 1e308 differ by -2e308
    p = tv.make_problem(tv.uniform(0, 1, 0.25), "qd1^2/2 + 1e308*cos(qs1)", 1, [0.0], [0.0])
    with pytest.raises(tv.EvalError, match=r"^cell 0 at t=0\.0: non-finite value inf"):
        tv.extended_lagrangian_partials(p, tv.linear_guess(p), r=-1.0)


def test_overflowing_family_check_fails_without_a_warning():
    # d qbar/d eps = -1e308 and xi = 1e308 differ by -inf
    family = tv.make_generator(1, xi=["1e308"], tbar="t", qbar=["q1 - eps*1e308"])
    with pytest.raises(ValueError, match=r"^d qbar/d eps at 0 does not match xi at t=0\.0$"):
        tv.validate_family(family, [0.0, 0.25], [[0.0], [0.0]])


@pytest.mark.parametrize("eps_list", [[0.1], [-0.1, 0.2, 0.5]])
def test_each_report_samples_its_family_once(monkeypatch, eps_list):
    # one evaluation samples the generator, one takes L, L_y and L_v (and one
    # dL/dt for a time transform), and each eps samples the maps once and L once
    p = doubling_problem()
    q = tv.linear_guess(p)
    calls, evaluate = [], noether.ex.evaluate
    monkeypatch.setattr(noether.ex, "evaluate", lambda *a: calls.append(a) or evaluate(*a))
    e = len(eps_list)
    for gen in (dilation_generator(), tv.make_generator(1, tau="t")):
        calls.clear()
        tv.check_invariance_time_transform(p, q, gen, eps_list)
        assert len(calls) == 3 + 2 * e
    for gen in (tv.make_generator(1, xi=["1 + q1"]), tv.make_generator(1, xi=["1"], tbar="t", qbar=["q1 + eps"])):
        calls.clear()
        tv.check_invariance_fixed_time(p, q, gen, eps_list)
        assert len(calls) == 2 + 2 * e


def test_time_transform_takes_the_time_slope_only_where_the_grid_moves():
    # the dilation fixes t = 0, where sqrt(t) has no slope: L_t dt is 0 on cell 0
    p = tv.make_problem(tv.explicit([0, 0.5, 1, 2]), "qd1^2/2 + sqrt(t)*qs1", 1, [0.0], [1.0])
    traj = tv.solve_el(p).trajectory
    rep = tv.check_invariance_time_transform(p, traj, dilation_generator(), [0.1])
    oracle = fd_action_eps_derivative(p, traj.values, dilation_generator(), True)
    assert abs(rep.action_eps_derivative - oracle) <= 1e-10 * abs(oracle)
    message = r"^cell 0 at t=0\.0: sqrt derivative undefined at 0 in sqrt\(\.\.\.\) \(column 11\)$"
    with pytest.raises(tv.EvalError, match=message):
        tv.check_invariance_time_transform(p, traj, tv.make_generator(1, tau="1", xi=["0"]), [0.1])
    # a slope error on a moving cell names that cell in the whole grid
    p = tv.make_problem(tv.integers(0, 3), "qd1^2/2 + sqrt(abs(t - 1))*qs1", 1, [0.0], [1.0])
    with pytest.raises(tv.EvalError, match=r"^cell 1 at t=1\.0: sqrt derivative undefined at 0"):
        tv.check_invariance_time_transform(p, tv.solve_el(p).trajectory, dilation_generator(), [0.1])


def test_product_rule_ledger_random_instances():
    rng = np.random.default_rng(34)
    for _ in range(30):
        dim = int(rng.integers(1, 3))
        g = random_grid(rng, max_points=10, moderate=True)
        p = tv.make_problem(
            g, random_quadratic_lagrangian_text(rng, dim), dim,
            rng.uniform(-1, 1, size=dim), rng.uniform(-1, 1, size=dim),
        )
        traj = tv.solve_el(p).trajectory
        gen = random_generator(rng, dim)
        rep = tv.noether_quantity_fixed_time(p, traj, gen)
        r = tv.invariance_residual_pointwise(p, traj, gen)
        m = len(rep.residuals)
        scale = np.maximum(1.0, np.abs(r.values[:m]))
        assert np.all(np.abs(rep.residuals - r.values[:m]) <= 1e-10 * scale)


def test_product_rule_ledger_general_form():
    # off extremals the conservation defect splits exactly into the
    # EL-residual term weighted by the jumped generator plus the pointwise
    # invariance defect
    rng = np.random.default_rng(36)
    for _ in range(20):
        dim = int(rng.integers(1, 3))
        g = random_grid(rng, max_points=12, moderate=True)
        p = tv.make_problem(
            g, random_quadratic_lagrangian_text(rng, dim), dim,
            rng.uniform(-1, 1, size=dim), rng.uniform(-1, 1, size=dim),
        )
        vals = rng.uniform(-1.5, 1.5, size=(len(g), dim))
        q = tv.GridFunction(g, vals)
        gen = random_generator(rng, dim)
        rep = tv.noether_quantity_fixed_time(p, q, gen)
        el = tv.el_residual(p, q).values
        r = tv.invariance_residual_pointwise(p, q, gen).values
        t = g.array
        m = len(rep.residuals)
        xi_sigma = np.array([gen.xi_at(t[i + 1], vals[i + 1]) for i in range(m)])
        ledger = np.sum(el * xi_sigma, axis=1) + r[:m]
        scale = np.maximum(1.0, np.abs(ledger))
        assert np.all(np.abs(rep.residuals - ledger) <= 1e-10 * scale)


def test_main_quantity_reduces_to_fixed_time_for_zero_tau():
    p = doubling_problem()
    traj = tv.solve_el(p).trajectory
    gen = tv.make_generator(1, tau="0", xi=["1 + q1"])
    full = tv.noether_quantity(p, traj, gen)
    fixed = tv.noether_quantity_fixed_time(p, traj, gen)
    assert np.array_equal(full.values, fixed.values)
    assert np.array_equal(full.residuals, fixed.residuals)


def test_main_quantity_matches_displayed_closed_form():
    # the bracket collapses to 2[(jumped q)^2/t - t v^2] * t on the doubling grid
    p = doubling_problem()
    traj = tv.as_trajectory(p, recurrence_oracle_power2(1.0, 13.0, 5))
    rep = tv.noether_quantity(p, traj, dilation_generator())
    t = p.grid.array[:-1]
    qs = traj.values[1:, 0]
    qd = np.diff(traj.values[:, 0]) / np.diff(p.grid.array)
    closed = 2.0 * (qs**2 / t - t * qd**2) * t
    assert np.all(np.abs(rep.values - closed) <= 1e-12 * np.maximum(1.0, np.abs(closed)))


def test_doubling_grid_profile_matches_brute_force_oracle():
    # independent oracle: recurrence extremal plus longhand evaluation of the
    # closed-form quantity; the discrete residuals are genuinely nonzero
    oracle_q = [1.0, 1.0, 2.0, 5.0, 13.0]
    t = [1.0, 2.0, 4.0, 8.0, 16.0]
    oracle_c = []
    for i in range(4):
        mu = t[i + 1] - t[i]
        v = (oracle_q[i + 1] - oracle_q[i]) / mu
        oracle_c.append(2.0 * (oracle_q[i + 1] ** 2 / t[i] - t[i] * v * v) * t[i])
    oracle_resid = [
        (oracle_c[i + 1] - oracle_c[i]) / (t[i + 1] - t[i]) for i in range(3)
    ]
    assert oracle_c == [2.0, 6.0, 32.0, 210.0]
    assert oracle_resid == [4.0, 13.0, 44.5]

    p = doubling_problem()
    rep = tv.noether_quantity(p, tv.as_trajectory(p, oracle_q), dilation_generator())
    assert np.all(np.abs(rep.values - oracle_c) <= 1e-9 * np.maximum(1.0, np.abs(oracle_c)))
    assert np.all(
        np.abs(rep.residuals - oracle_resid) <= 1e-9 * np.maximum(1.0, np.abs(oracle_resid))
    )


def test_gravity_residual_is_half_step():
    # closed-form oracle: velocity drops by mu per cell, the quantity gains
    # exactly mu^2/2 per cell, so the residual is mu/2 everywhere
    for h in (0.5, 0.1, 0.05):
        grid = tv.uniform(0.0, 1.0, h)
        p = tv.make_problem(grid, "qd1^2 / 2 - qs1", 1, [0.0], [0.0])
        oracle = gravity_oracle_trajectory(grid, 0.0, 0.0)
        traj = tv.solve_el(p).trajectory
        assert np.max(np.abs(traj.values[:, 0] - oracle)) <= 1e-9
        gen = tv.make_generator(1, tau="1", xi=["0"])
        rep = tv.noether_quantity(p, traj, gen)
        assert np.all(np.abs(rep.residuals - h / 2) <= 1e-9)


def test_autonomous_integer_grid_profile_matches_oracle():
    # independent recursion: v = (2, 1, 0, -1, -2), C = -v^2/2 - next q
    grid = tv.integers(0, 5)
    oracle_q = gravity_oracle_trajectory(grid, 0.0, 0.0)
    assert np.array_equal(oracle_q, [0.0, 2.0, 3.0, 3.0, 2.0, 0.0])
    oracle_c = [-4.0, -3.5, -3.0, -2.5, -2.0]
    oracle_resid = [0.5, 0.5, 0.5, 0.5]

    p = tv.make_problem(grid, "qd1^2 / 2 - qs1", 1, [0.0], [0.0])
    traj = tv.solve_el(p).trajectory
    gen = tv.make_generator(1, tau="1", xi=["0"])
    rep = tv.noether_quantity(p, traj, gen)
    assert np.all(np.abs(rep.values - oracle_c) <= 1e-9)
    assert np.all(np.abs(rep.residuals - oracle_resid) <= 1e-9)


def test_integer_grid_corollary_form():
    # on a unit-step grid the quantity carries the extra -dL/dt correction
    p = tv.make_problem(tv.integers(0, 5), "t * qd1^2 + qs1^2", 1, [0.0], [2.0])
    traj = tv.solve_el(p).trajectory
    gen = tv.make_generator(1, tau="1", xi=["0"])
    rep = tv.noether_quantity(p, traj, gen)
    t = p.grid.array
    vals = traj.values[:, 0]
    qplus = vals[1:]  # state one step ahead
    dq = np.diff(vals)
    lval = t[:-1] * dq**2 + qplus**2
    corollary = lval - (2 * t[:-1] * dq) * dq - dq**2  # L - dL/dv . dq - dL/dt
    assert np.allclose(rep.values, corollary, rtol=1e-12, atol=1e-12)


def test_continuum_mode_yields_classical_energy():
    p = tv.make_problem(tv.sampled(0, 1, 0.01), "qd1^2 / 2 - qs1", 1, [0.0], [0.0])
    traj = tv.solve_el(p).trajectory
    gen = tv.make_generator(1, tau="1", xi=["0"])
    rep = tv.noether_quantity(p, traj, gen, mu_mode="zero")
    t = p.grid.array
    vals = traj.values[:, 0]
    v = np.diff(vals) / np.diff(t)
    energy = (0.5 * v * v - vals[1:]) - v * v
    assert np.allclose(rep.values, energy, rtol=0, atol=1e-12)


def test_mu_mode_validated():
    p = tv.make_problem(tv.integers(0, 3), "qd1^2", 1, [0.0], [1.0])
    gen = tv.make_generator(1, tau="1", xi=["0"])
    with pytest.raises(ValueError, match="mu_mode"):
        tv.noether_quantity(p, tv.linear_guess(p), gen, mu_mode="continuum")


def test_conservation_residual_recomputes_from_samples():
    p = doubling_problem()
    traj = tv.as_trajectory(p, recurrence_oracle_power2(1.0, 13.0, 5))
    rep = tv.noether_quantity(p, traj, dilation_generator())
    prof = tv.conservation_residual(rep)
    assert np.array_equal(prof.residuals, rep.residuals)
    assert prof.max_abs == rep.max_abs_residual
    short = tv.ConservationReport(
        times=np.array([1.0]),
        values=np.array([2.0]),
        residual_times=np.array([]),
        residuals=np.array([]),
        max_abs_residual=0.0,
    )
    with pytest.raises(ValueError, match="at least 2"):
        tv.conservation_residual(short)
    constant = tv.noether_quantity_fixed_time(
        tv.make_problem(tv.integers(0, 5), "qd1^2", 1, [0.0], [5.0]),
        tv.linear_guess(tv.make_problem(tv.integers(0, 5), "qd1^2", 1, [0.0], [5.0])),
        tv.make_generator(1, tau="0", xi=["1"]),
    )
    assert np.max(np.abs(constant.residuals)) == 0.0


# ---------------------------------------------------------------------------
# extended-Lagrangian identities


def test_extended_partials_free_particle():
    p = tv.make_problem(tv.integers(0, 5), "qd1^2", 1, [0.0], [2.0])
    rng = np.random.default_rng(35)
    q = tv.GridFunction(p.grid, rng.uniform(-2, 2, size=(6, 1)))
    rep = tv.extended_lagrangian_partials(p, q)
    assert rep.max_value_error <= 1e-10
    assert rep.max_d4_error <= 1e-10
    assert rep.max_d5_error <= 1e-10


def test_extended_partials_doubling_grid_with_fd_cross_check():
    p = doubling_problem()
    traj = tv.as_trajectory(p, recurrence_oracle_power2(1.0, 13.0, 5))
    rep = tv.extended_lagrangian_partials(p, traj)
    assert rep.max_value_error <= 1e-10
    assert rep.max_d4_error <= 1e-10
    assert rep.max_d5_error <= 1e-10

    # finite-difference oracle in the r and v slots, step 1e-6
    lag = p.lagrangian
    t = p.grid.array
    mu = np.diff(t)
    vals = traj.values[:, 0]
    step = 1e-6
    for i in range(len(t) - 1):
        st = t[i + 1]
        y = [vals[i + 1]]
        v = (vals[i + 1] - vals[i]) / mu[i]

        def composite(r, vv):
            return lag.value(st - mu[i] * r, y, [vv / r]) * r

        fd_r = (composite(1 + step, v) - composite(1 - step, v)) / (2 * step)
        fd_v = (composite(1.0, v + step) - composite(1.0, v - step)) / (2 * step)
        assert abs(rep.d4_forward[i] - fd_r) <= 1e-5 * max(1.0, abs(fd_r))
        assert abs(rep.d5_forward[i, 0] - fd_v) <= 1e-5 * max(1.0, abs(fd_v))


def test_extended_partials_nontrivial_rate():
    # away from r = 1 the forward-mode values still match the closed forms
    p = doubling_problem()
    traj = tv.as_trajectory(p, recurrence_oracle_power2(1.0, 13.0, 5))
    rep = tv.extended_lagrangian_partials(p, traj, r=0.75)
    assert rep.r == 0.75
    assert rep.max_d4_error <= 1e-10
    assert rep.max_d5_error <= 1e-10


def test_extended_partials_zero_rate_guarded():
    p = doubling_problem()
    traj = tv.linear_guess(p)
    with pytest.raises(ValueError, match="nonzero"):
        tv.extended_lagrangian_partials(p, traj, r=0.0)


def test_a_dim_1_trajectory_may_be_given_as_a_flat_grid_function():
    # values of shape (N,) read as the (N, 1) form of the same trajectory
    p = doubling_problem()
    q = tv.solve_el(p).trajectory
    flat = tv.GridFunction(p.grid, q.values[:, 0])
    assert flat.values.shape == (len(p.grid),) and q.values.shape == (len(p.grid), 1)
    assert tv.action(p, flat) == tv.action(p, q)
    assert np.array_equal(tv.el_residual(p, flat).values, tv.el_residual(p, q).values)
    a, b = (tv.noether_quantity(p, x, dilation_generator()) for x in (flat, q))
    assert np.array_equal(a.values, b.values) and np.array_equal(a.residuals, b.residuals)
