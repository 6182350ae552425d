"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else; oracle values come from
hand-rolled summations and recursions implemented in this file and in
helpers.py, never from the code paths they check.
"""

import math
from pathlib import Path

import numpy as np

import tsvarlab as tv
from tsvarlab.cli import main as cli_main

from helpers import (
    fd_action_gradient,
    gravity_oracle_trajectory,
    max_abs,
    random_generator,
    random_grid,
    random_quadratic_lagrangian_text,
    random_smooth_lagrangian_text,
    recurrence_oracle_power2,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
PAPERLIKE_L = "qs1^2 / t + t * qd1^2"


def report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"criterion {num}: {label}: {detail}"


def test_criterion_01_calculus_identities():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(200):
        grid = random_grid(rng, max_points=50)
        n = len(grid)
        f = tv.GridFunction(grid, rng.uniform(-10, 10, size=n))
        g = tv.GridFunction(grid, rng.uniform(-10, 10, size=n))

        prod = tv.GridFunction(grid, f.values * g.values)
        lhs = tv.delta_derivative(prod).values
        t1 = tv.delta_derivative(f).values * tv.compose_sigma(g).values
        t2 = f.values[:-1] * tv.delta_derivative(g).values
        scale = np.maximum(1.0, np.abs(lhs) + np.abs(t1) + np.abs(t2))
        worst = max(worst, float(np.max(np.abs(lhs - t1 - t2) / scale)))

        fs = tv.compose_sigma(f).values
        fs_rhs = f.values[:-1] + tv.graininess(grid) * tv.delta_derivative(f).values
        scale = np.maximum(1.0, np.abs(fs))
        worst = max(worst, float(np.max(np.abs(fs - fs_rhs) / scale)))

        incr = rng.uniform(0.1, 2.0, size=n - 1)
        alpha = tv.GridFunction(grid, np.concatenate([[rng.uniform(-3, 3)], incr]).cumsum())
        res = tv.pushforward(alpha, f)
        worst = max(worst, abs(res.lhs - res.rhs) / max(1.0, abs(res.lhs), abs(res.rhs)))

    ok = worst <= 1e-12
    report(1, "calculus identities on 200 random instances", ok, f"worst relative defect {worst:.3e}")


def test_criterion_02_el_formulation_equivalence():
    rng = np.random.default_rng(1002)
    worst_identity = 0.0
    worst_fd = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 3))
        grid = random_grid(rng, max_points=8, moderate=True)
        p = tv.make_problem(
            grid, random_smooth_lagrangian_text(rng, dim), dim,
            rng.uniform(-1, 1, size=dim), rng.uniform(-1, 1, size=dim),
        )
        vals = rng.uniform(-1.5, 1.5, size=(len(grid), dim))
        q = tv.GridFunction(grid, vals)
        grad = tv.stationarity_gradient(p, q)
        resid = tv.el_residual(p, q).values
        mu = tv.graininess(grid)[: len(resid), None]
        scale = np.maximum(1.0, np.abs(grad))
        worst_identity = max(worst_identity, float(np.max(np.abs(grad + mu * resid) / scale)))
        fd = fd_action_gradient(p, vals)
        worst_fd = max(worst_fd, float(np.max(np.abs(grad - fd) / scale)))
    ok = worst_identity <= 1e-12 and worst_fd <= 1e-5
    report(
        2,
        "gradient/residual equivalence on 100 random instances",
        ok,
        f"identity defect {worst_identity:.3e}, finite-difference defect {worst_fd:.3e}",
    )


def test_criterion_03_doubling_grid_extremal():
    oracle = recurrence_oracle_power2(1.0, 13.0, 5)
    p = tv.make_problem(tv.power2(0, 4), PAPERLIKE_L, 1, [1.0], [13.0])
    res = tv.solve_el(p)
    err = float(np.max(np.abs(res.trajectory.values[:, 0] - oracle)))
    ok = err <= 1e-10 and res.iterations == 1
    report(
        3,
        "doubling-grid extremal matches the recurrence oracle",
        ok,
        f"interior {res.trajectory.values[1:-1, 0].tolist()}, error {err:.3e}, "
        f"iterations {res.iterations}",
    )


def test_criterion_04_dilation_invariance():
    p = tv.make_problem(tv.power2(0, 10), PAPERLIKE_L, 1, [1.0], [13.0])
    gen = tv.make_generator(1, tau="t", xi=["0"], tbar="t * exp(eps)", qbar=["q1"])
    rep = tv.check_invariance_time_transform(
        p, tv.linear_guess(p), gen, [-0.5, -0.1, 0.1, 0.5]
    )
    ok = max_abs(rep.discrepancies) <= 1e-12
    report(
        4,
        "time-dilation invariance on the doubling grid",
        ok,
        f"max cell discrepancy {max_abs(rep.discrepancies):.3e} over eps ±0.5, ±0.1",
    )


def test_criterion_05_fixed_time_exact_conservation():
    grids = (tv.integers(0, 8), tv.uniform(0, 1, 0.125), tv.power2(0, 5))
    worst = 0.0
    for grid in grids:
        p = tv.make_problem(grid, "qd1^2", 1, [0.0], [2.0])
        traj = tv.solve_el(p).trajectory
        gen = tv.make_generator(1, tau="0", xi=["1"])
        worst = max(worst, max_abs(tv.noether_quantity(p, traj, gen).residuals))

        p2 = tv.make_problem(grid, "qd1^2 + qd2^2", 2, [1.0, 0.0], [0.0, 2.0])
        traj2 = tv.solve_el(p2).trajectory
        rot = tv.make_generator(2, tau="0", xi=["-q2", "q1"])
        worst = max(worst, max_abs(tv.noether_quantity(p2, traj2, rot).residuals))
    ok = worst <= 1e-10
    report(
        5,
        "momentum and rotation quantities exactly conserved",
        ok,
        f"worst residual {worst:.3e} across integer, uniform and doubling grids",
    )


def test_criterion_06_product_rule_ledger():
    rng = np.random.default_rng(1006)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 3))
        grid = random_grid(rng, max_points=10, moderate=True)
        p = tv.make_problem(
            grid, random_quadratic_lagrangian_text(rng, dim), dim,
            rng.uniform(-1, 1, size=dim), rng.uniform(-1, 1, size=dim),
        )
        traj = tv.solve_el(p).trajectory
        gen = random_generator(rng, dim)
        rep = tv.noether_quantity(p, traj, gen)
        r = tv.invariance_residual_pointwise(p, traj, gen)
        m = len(rep.residuals)
        scale = np.maximum(1.0, np.abs(r.values[:m]))
        worst = max(worst, float(np.max(np.abs(rep.residuals - r.values[:m]) / scale)))
    ok = worst <= 1e-10
    report(
        6,
        "conservation defect equals invariance defect along extremals",
        ok,
        f"worst pointwise mismatch {worst:.3e} over 100 instances",
    )


def test_criterion_07_classical_limit():
    h_list = [1e-1, 1e-2, 1e-3]
    residuals = []
    for h in h_list:
        grid = tv.sampled(0.0, 1.0, h)
        p = tv.make_problem(grid, "qd1^2 / 2 - qs1", 1, [0.0], [0.0])
        traj = tv.solve_el(p).trajectory
        gen = tv.make_generator(1, tau="1", xi=["0"])
        residuals.append(max_abs(tv.noether_quantity(p, traj, gen).residuals))
    rel_errors = [abs(r - h / 2) / (h / 2) for r, h in zip(residuals, h_list)]
    orders = [
        math.log(residuals[k - 1] / residuals[k]) / math.log(h_list[k - 1] / h_list[k])
        for k in range(1, len(h_list))
    ]
    ok = max(rel_errors) <= 1e-6 and all(abs(o - 1.0) <= 0.2 for o in orders)
    report(
        7,
        "gravity drift is h/2 with first-order continuum limit",
        ok,
        f"residuals {['%.6e' % r for r in residuals]}, orders {['%.3f' % o for o in orders]}",
    )


def test_criterion_08_main_theorem_formula_fidelity():
    p = tv.make_problem(tv.power2(0, 4), PAPERLIKE_L, 1, [1.0], [13.0])
    traj = tv.as_trajectory(p, recurrence_oracle_power2(1.0, 13.0, 5))
    gen = tv.make_generator(1, tau="t", xi=["0"], tbar="t * exp(eps)", qbar=["q1"])
    rep = tv.noether_quantity(p, traj, gen)
    t = p.grid.array[:-1]
    qs = traj.values[1:, 0]
    qd = np.diff(traj.values[:, 0]) / np.diff(p.grid.array)
    closed = 2.0 * (qs**2 / t - t * qd**2) * t
    formula_err = float(np.max(np.abs(rep.values - closed) / np.maximum(1.0, np.abs(closed))))

    ext = tv.extended_lagrangian_partials(p, traj)
    dual_err = max(ext.max_value_error, ext.max_d4_error, ext.max_d5_error)

    # finite-difference cross-check of the composite in the r and v slots
    lag = p.lagrangian
    tt = p.grid.array
    mu = np.diff(tt)
    vals = traj.values[:, 0]
    step = 1e-6
    fd_err = 0.0
    for i in range(len(tt) - 1):
        st = tt[i + 1]
        y = [vals[i + 1]]
        v = (vals[i + 1] - vals[i]) / mu[i]
        comp = lambda r, vv: lag.value(st - mu[i] * r, y, [vv / r]) * r
        fd_r = (comp(1 + step, v) - comp(1 - step, v)) / (2 * step)
        fd_v = (comp(1.0, v + step) - comp(1.0, v - step)) / (2 * step)
        fd_err = max(
            fd_err,
            abs(ext.d4_forward[i] - fd_r) / max(1.0, abs(fd_r)),
            abs(ext.d5_forward[i, 0] - fd_v) / max(1.0, abs(fd_v)),
        )
    ok = formula_err <= 1e-12 and dual_err <= 1e-10 and fd_err <= 1e-5
    report(
        8,
        "displayed quantity and reparameterization identities",
        ok,
        f"formula {formula_err:.3e}, dual identities {dual_err:.3e}, fd cross-check {fd_err:.3e}",
    )


def test_criterion_09_discrete_residuals_match_oracle_not_zero():
    # doubling grid: longhand oracle for the C profile along the recurrence extremal
    oracle_q = [1.0, 1.0, 2.0, 5.0, 13.0]
    t = [1.0, 2.0, 4.0, 8.0, 16.0]
    oracle_c = []
    for i in range(4):
        mu = t[i + 1] - t[i]
        v = (oracle_q[i + 1] - oracle_q[i]) / mu
        oracle_c.append(2.0 * (oracle_q[i + 1] ** 2 / t[i] - t[i] * v * v) * t[i])
    oracle_resid = [(oracle_c[i + 1] - oracle_c[i]) / (t[i + 1] - t[i]) for i in range(3)]
    assert oracle_c == [2.0, 6.0, 32.0, 210.0]
    assert oracle_resid == [4.0, 13.0, 44.5]

    p = tv.make_problem(tv.power2(0, 4), PAPERLIKE_L, 1, [1.0], [13.0])
    gen = tv.make_generator(1, tau="t", xi=["0"], tbar="t * exp(eps)", qbar=["q1"])
    rep = tv.noether_quantity(p, tv.as_trajectory(p, oracle_q), gen)
    err_double = max(
        float(np.max(np.abs(rep.values - oracle_c) / np.maximum(1.0, np.abs(oracle_c)))),
        float(np.max(np.abs(rep.residuals - oracle_resid) / np.maximum(1.0, np.abs(oracle_resid)))),
    )

    # autonomous integer-grid problem under time translation: recursion oracle
    grid = tv.integers(0, 5)
    oq = gravity_oracle_trajectory(grid, 0.0, 0.0)
    ov = np.diff(oq)  # unit steps
    oc = [-ov[i] ** 2 / 2 - oq[i + 1] for i in range(5)]
    ores = np.diff(oc)
    pg = tv.make_problem(grid, "qd1^2 / 2 - qs1", 1, [0.0], [0.0])
    traj = tv.solve_el(pg).trajectory
    repg = tv.noether_quantity(pg, traj, tv.make_generator(1, tau="1", xi=["0"]))
    err_int = max(
        float(np.max(np.abs(repg.values - oc))),
        float(np.max(np.abs(repg.residuals - ores))),
    )

    nonzero = max_abs(rep.residuals) > 1.0 and max_abs(repg.residuals) > 0.1
    ok = err_double <= 1e-9 and err_int <= 1e-9 and nonzero
    report(
        9,
        "discrete residuals reported against brute-force oracles, not zero",
        ok,
        f"doubling-grid agreement {err_double:.3e}, integer-grid agreement {err_int:.3e}, "
        f"max residuals {max_abs(rep.residuals):.3g} and {max_abs(repg.residuals):.3g}",
    )


def test_criterion_10_cli_contract(tmp_path):
    free = str(SCENARIOS / "free_particle.problem")
    gravity = str(SCENARIOS / "gravity_uniform.problem")
    doubling = str(SCENARIOS / "power2_dilation.problem")
    checks = []

    def expect(code, argv):
        actual = cli_main(argv)
        checks.append((argv, code, actual))
        return actual == code

    ok = True
    # solve: exit 0 everywhere, doubling-grid solution matches the oracle
    for name in (free, gravity, doubling):
        out = tmp_path / (Path(name).stem + "_sol.csv")
        ok &= expect(0, ["solve", name, "--out", str(out), "--quiet"])
    sol = (tmp_path / "power2_dilation_sol.csv").read_text().splitlines()
    q_col = [float(r.split(",")[1]) for r in sol[1:]]
    ok &= np.allclose(q_col, [1, 1, 2, 5, 13], atol=1e-10)

    # check: el clean everywhere; invariance clean where a symmetry holds;
    # conservation gates on tolerance, report-only always exits 0
    for name in (free, gravity, doubling):
        ok &= expect(0, ["check", name, "el", "--out", str(tmp_path / "el.csv"), "--quiet"])
    ok &= expect(0, ["check", free, "invariance", "--out", str(tmp_path / "i1.csv"), "--quiet"])
    ok &= expect(0, ["check", gravity, "invariance", "--out", str(tmp_path / "i2.csv"), "--quiet"])
    ok &= expect(
        0,
        ["check", doubling, "invariance", "--tol", "1e-12", "--out", str(tmp_path / "i3.csv"), "--quiet"],
    )
    ok &= expect(0, ["check", free, "conservation", "--out", str(tmp_path / "c1.csv"), "--quiet"])
    ok &= expect(4, ["check", gravity, "conservation", "--out", str(tmp_path / "c2.csv"), "--quiet"])
    ok &= expect(
        0,
        ["check", gravity, "conservation", "--report-only", "--out", str(tmp_path / "c3.csv"), "--quiet"],
    )
    ok &= expect(4, ["check", doubling, "conservation", "--out", str(tmp_path / "c4.csv"), "--quiet"])

    # sweep: refinement on sampled/uniform kinds only
    ok &= expect(0, ["sweep", gravity, "--h-list", "0.1,0.01,0.001", "--out", str(tmp_path / "s1.csv"), "--quiet"])
    ok &= expect(0, ["sweep", free, "--h-list", "0.5,0.25", "--out", str(tmp_path / "s2.csv"), "--quiet"])
    ok &= expect(3, ["sweep", doubling, "--h-list", "0.1,0.01", "--out", str(tmp_path / "s3.csv"), "--quiet"])

    # invalid input and solver failure
    ok &= expect(3, ["solve", str(tmp_path / "missing.problem"), "--quiet"])
    diverging = tmp_path / "diverging.problem"
    diverging.write_text(
        "[timescale]\nkind = integers\na = 0\nb = 2\n"
        '[problem]\ndim = 1\nlagrangian = "exp(qs1)"\nqa = [0]\nqb = [0]\n'
        "[solver]\nmax_iter = 5\n"
    )
    ok &= expect(2, ["solve", str(diverging), "--quiet"])

    # bit stability: re-run the three flows and compare bytes
    stable = True
    for argv, out_name in (
        (["solve", doubling], "power2_dilation_sol.csv"),
        (["check", gravity, "conservation", "--report-only"], "c3.csv"),
        (["sweep", gravity, "--h-list", "0.1,0.01,0.001"], "s1.csv"),
    ):
        again = tmp_path / ("again_" + out_name)
        code = cli_main(argv + ["--out", str(again), "--quiet"])
        stable &= code in (0, 4)
        stable &= again.read_bytes() == (tmp_path / out_name).read_bytes()
    ok &= stable

    bad = [(argv, want, got) for argv, want, got in checks if want != got]
    report(
        10,
        "scenario files drive solve/check/sweep with the exit-code contract",
        ok,
        f"{len(checks)} invocations, mismatches {bad if bad else 'none'}, bit-stable={stable}",
    )
