"""Benchmark workloads: seeded problem files, the CLI commands of one pass,
and checks of the written outputs that do not use the package.

Each build function writes its problem files into a work directory and
returns a ``Plan``.  The checks read only the CSV files and the exit codes,
and recompute what they assert from closed-form formulas.
"""

from __future__ import annotations

import csv
import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DILATION_EPS = (
    -0.5, -0.3, -0.2, -0.1, -0.05, -0.02, -0.01, -0.001,
    0.001, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5,
)
SOLVER_TOL = 1e-10
# Newton's final gradient must sit this far below the stopping threshold, so
# that a change of rounding alone cannot change the iteration count.
NEWTON_MARGIN = 10.0


@dataclass(frozen=True)
class Plan:
    commands: list[list[str]]  # argv lists for tsvarlab.cli.main, run in order
    cells: int  # sum of (N - 1) over the commands and sweep steps
    outputs: list[Path]  # CSV files the commands write; outputs[0] is checked strictly
    # verifies the outputs and returns error messages; raises OSError,
    # ValueError or IndexError on a missing or malformed file
    check: Callable[[], list[str]]


def _num(x: float) -> str:
    return repr(float(x))


def _numlist(xs) -> str:
    return "[" + ", ".join(_num(x) for x in xs) + "]"


def _write_problem(path: Path, timescale: dict, lagrangian: str, qa, qb, extra: str = "") -> None:
    lines = ["[timescale]"]
    lines += [f"{key} = {value}" for key, value in timescale.items()]
    lines += [
        "",
        "[problem]",
        f"dim = {len(qa)}",
        f'lagrangian = "{lagrangian}"',
        f"qa = {_numlist(qa)}",
        f"qb = {_numlist(qb)}",
        "",
        "[solver]",
        f"tol = {_num(SOLVER_TOL)}",
    ]
    path.write_text("\n".join(lines) + "\n" + extra, encoding="utf-8")


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path.name}: empty file")
    return rows[0], rows[1:]


def _columns(path: Path, names: list[str]) -> list[list[float]]:
    header, rows = read_csv(path)
    idx = [header.index(name) for name in names]
    return [[float(row[i]) for row in rows if row[i] != ""] for i in idx]


def _trajectory(path: Path, dim: int) -> tuple[list[float], list[list[float]]]:
    cols = _columns(path, ["t"] + [f"q_{k + 1}" for k in range(dim)])
    t = cols[0]
    q = [list(point) for point in zip(*cols[1:])]
    return t, q


def _check_stationary(path: Path, dim: int, qa, qb, n_points: int, t_end: float,
                      lagrangian, partial_y) -> list[str]:
    """Hand-rolled stationarity check of a solve CSV.

    Cell i has y = q[i+1] and v = (q[i+1] - q[i]) / mu[i].  The action
    gradient at interior point j is mu[j-1] dL/dy + dL/dv at cell j-1 minus
    dL/dv at cell j, with dL/dv = v for the kinetic term q'^2/2; this is the
    discrete Euler-Lagrange equation multiplied by mu.
    """
    t, q = _trajectory(path, dim)
    errors = []
    if len(t) != n_points or t[0] != 0.0 or t[-1] != t_end:
        return [f"{path.name}: grid is not {n_points} points on [0, {t_end}]"]
    if q[0] != list(qa) or q[-1] != list(qb):
        errors.append(f"{path.name}: boundary values not held exactly")
    mu = [b - a for a, b in zip(t, t[1:])]
    v = [[(q[i + 1][k] - q[i][k]) / mu[i] for k in range(dim)] for i in range(len(mu))]
    act = sum(mu[i] * lagrangian(q[i + 1], v[i]) for i in range(len(mu)))
    worst = 0.0
    for j in range(1, len(t) - 1):
        dy = partial_y(q[j])
        for k in range(dim):
            g = mu[j - 1] * dy[k] + v[j - 1][k] - v[j][k]
            worst = max(worst, abs(g))
    limit = SOLVER_TOL * (1.0 + abs(act)) / NEWTON_MARGIN
    if not worst <= limit:
        errors.append(
            f"{path.name}: action gradient max-norm {worst:.3e} exceeds {limit:.3e}"
        )
    return errors


# ---------------------------------------------------------------------------
# solve-1d-long


def build_solve_1d_long(work: Path, seed: int, n_cells: int = 4000) -> Plan:
    rng = random.Random(seed)
    qa, qb = [0.0], [1.5 + rng.random()]
    problem = work / "pendulum.problem"
    out = work / "pendulum_solution.csv"
    _write_problem(problem, {"kind": "uniform", "a": "0", "b": "2", "h": _num(2.0 / n_cells)},
                   "qd1^2/2 + cos(qs1)", qa, qb)

    def check() -> list[str]:
        return _check_stationary(
            out, 1, qa, qb, n_cells + 1, 2.0,
            lambda y, v: v[0] * v[0] / 2 + math.cos(y[0]),
            lambda y: [-math.sin(y[0])],
        )

    return Plan([["solve", str(problem), "--out", str(out), "--quiet"]], n_cells, [out], check)


# ---------------------------------------------------------------------------
# solve-chain-6d

CHAIN_DIM = 6


def build_solve_chain_6d(work: Path, seed: int, n_cells: int = 200) -> Plan:
    rng = random.Random(seed)
    n = CHAIN_DIM
    c = [0.1 + 0.2 * rng.random() for _ in range(n - 1)]
    qa = [0.0] * n
    qb = [0.2 + 0.4 * rng.random() for _ in range(n)]
    kinetic = " + ".join(f"qd{k}^2/2" for k in range(1, n + 1))
    coupling = " + ".join(f"{_num(c[k - 1])}*cos(qs{k} - qs{k + 1})" for k in range(1, n))
    problem = work / "chain.problem"
    out = work / "chain_solution.csv"
    _write_problem(problem, {"kind": "uniform", "a": "0", "b": "1", "h": _num(1.0 / n_cells)},
                   f"{kinetic} + {coupling} + cos(qs1)", qa, qb)

    def lagrangian(y, v):
        return (sum(x * x for x in v) / 2
                + sum(c[k] * math.cos(y[k] - y[k + 1]) for k in range(n - 1))
                + math.cos(y[0]))

    def partial_y(y):
        d = [0.0] * n
        for k in range(n - 1):
            s = c[k] * math.sin(y[k] - y[k + 1])
            d[k] -= s
            d[k + 1] += s
        d[0] -= math.sin(y[0])
        return d

    def check() -> list[str]:
        return _check_stationary(out, n, qa, qb, n_cells + 1, 1.0, lagrangian, partial_y)

    return Plan([["solve", str(problem), "--out", str(out), "--quiet"]], n_cells, [out], check)


# ---------------------------------------------------------------------------
# check-dilation-nonuniform


def build_check_dilation(work: Path, seed: int, n_cells: int = 2000) -> Plan:
    rng = random.Random(seed)
    ratio = 1000.0 ** (1.0 / n_cells)
    # geometric points on [1, 1000], each moved by up to a quarter of its gap
    points = [1.0]
    points += [ratio**i * (1.0 + 0.25 * (ratio - 1.0) * (2.0 * rng.random() - 1.0))
               for i in range(1, n_cells)]
    points.append(1000.0)
    qa, qb = [1.0], [5.0 + 10.0 * rng.random()]
    problem = work / "dilation.problem"
    out = work / "dilation_invariance.csv"
    symmetry = '\n[symmetry]\ntau = "t"\nxi = ["0"]\ntbar = "t * exp(eps)"\nqbar = ["q1"]\n'
    _write_problem(problem, {"kind": "explicit", "points": _numlist(points)},
                   "qs1^2 / t + t * qd1^2", qa, qb, extra=symmetry)
    eps_arg = "--eps=" + ",".join(_num(e) for e in DILATION_EPS)
    expected_header = ["t"] + [f"disc_eps={e:g}" for e in DILATION_EPS]

    def check() -> list[str]:
        header, rows = read_csv(out)
        if header != expected_header or len(rows) != n_cells:
            return [f"{out.name}: expected {n_cells} rows with header {expected_header}"]
        if [float(row[0]) for row in rows] != points[:-1]:
            return [f"{out.name}: cell times differ from the problem grid"]
        worst = max(abs(float(x)) for row in rows for x in row[1:])
        # the dilation is an exact symmetry, so every cell agrees to rounding
        if not worst <= 1e-8:
            return [f"{out.name}: invariance discrepancy {worst:.3e} exceeds 1e-8"]
        return []

    command = ["check", str(problem), "invariance", eps_arg, "--tol", "1e-8",
               "--out", str(out), "--quiet"]
    return Plan([command], n_cells, [out], check)


# ---------------------------------------------------------------------------
# scenarios-small

# shipped scenario files and their grid sizes
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SCENARIOS = {"power2_dilation": 5, "free_particle": 5, "gravity_uniform": 11}
SWEEP_H = (0.1, 0.05, 0.025, 0.0125)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def build_scenarios_small(work: Path, seed: int) -> Plan:
    del seed  # the shipped files are fixed; the seed does not apply
    commands, outputs, cells = [], [], 0
    out = {}
    for name, n_points in SCENARIOS.items():
        problem = work / f"{name}.problem"
        shutil.copyfile(SCENARIO_DIR / f"{name}.problem", problem)
        for kind, args in (("solution", ["solve"]), ("el", ["check", "el"]),
                           ("invariance", ["check", "invariance", "--report-only"]),
                           ("conservation", ["check", "conservation", "--report-only"])):
            path = work / f"{name}_{kind}.csv"
            out[name, kind] = path
            outputs.append(path)
            commands.append(args[:1] + [str(problem)] + args[1:] + ["--out", str(path), "--quiet"])
            cells += n_points - 1
    sweep_out = work / "gravity_uniform_sweep.csv"
    outputs.append(sweep_out)
    commands.append(["sweep", str(work / "gravity_uniform.problem"),
                     "--h-list", ",".join(_num(h) for h in SWEEP_H),
                     "--out", str(sweep_out), "--quiet"])
    cells += sum(round(1.0 / h) for h in SWEEP_H)

    def check() -> list[str]:
        errors = []
        for name, n_points in SCENARIOS.items():
            if len(_columns(out[name, "solution"], ["t"])[0]) != n_points:
                errors.append(f"{name}: solution does not have {n_points} points")
            (el,) = _columns(out[name, "el"], ["r_1"])
            if not max(map(abs, el)) <= 1e-9:
                errors.append(f"{name}: Euler-Lagrange residual is not zero")
        (q,) = _columns(out["power2_dilation", "solution"], ["q_1"])
        if not all(_close(a, b, 1e-12) for a, b in zip(q, [1, 1, 2, 5, 13], strict=True)):
            errors.append(f"power2_dilation: trajectory {q} is not 1, 1, 2, 5, 13")
        (disc,) = _columns(out["power2_dilation", "invariance"], ["disc_eps=0.5"])
        if not max(map(abs, disc)) <= 1e-9:
            errors.append("power2_dilation: the exact dilation is not invariant")
        (resid,) = _columns(out["free_particle", "conservation"], ["residual"])
        if not max(map(abs, resid)) <= 1e-12:
            errors.append("free_particle: momentum drifts")
        (resid,) = _columns(out["gravity_uniform", "conservation"], ["residual"])
        if not all(_close(abs(r), 0.1 / 2, 1e-9) for r in resid):
            errors.append("gravity_uniform: conservation residual is not h/2")
        h, resid, order = _columns(sweep_out, ["h", "max_residual", "order"])
        if h != list(SWEEP_H) or not all(_close(r, x / 2, 1e-9) for r, x in zip(resid, h)):
            errors.append("sweep: max_residual is not h/2 at every step")
        if len(order) != len(SWEEP_H) - 1 or not all(_close(o, 1.0, 1e-6) for o in order):
            errors.append(f"sweep: orders {order} are not first order")
        return errors

    return Plan(commands, cells, outputs, check)


# name -> build function; why each workload was chosen is in BENCHMARK.json
WORKLOADS: dict[str, Callable[..., Plan]] = {
    "solve-1d-long": build_solve_1d_long,
    "solve-chain-6d": build_solve_chain_6d,
    "check-dilation-nonuniform": build_check_dilation,
    "scenarios-small": build_scenarios_small,
}
