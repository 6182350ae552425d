"""Action functionals, Euler-Lagrange residuals, and the extremal solver.

The action is the delta integral of L(t, q at the next point, forward
difference quotient) over the grid window.  Stationarity of that sum with
respect to the interior values yields the discrete Euler-Lagrange system;
:func:`solve_el` solves it by Newton iteration with an exact block
tridiagonal Jacobian assembled from nested dual numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import expr as ex
from ._dual import Dual
from .calculus import GridFunction
from .timescale import TimeScaleGrid, graininess, kappa


class SolverError(RuntimeError):
    pass


class NonConvergence(SolverError):
    def __init__(self, message: str, gradient_norm: float, iterations: int):
        super().__init__(message)
        self.gradient_norm = gradient_norm
        self.iterations = iterations


class SingularJacobian(SolverError):
    def __init__(self, block_index: int, time: float):
        super().__init__(
            f"singular Jacobian pivot at interior point {block_index} (t={time!r})"
        )
        self.block_index = block_index
        self.time = time


@dataclass(frozen=True)
class Lagrangian:
    """Evaluator of L(t, y, v) with y the jumped state and v the delta derivative.

    Takes one point (t a float, y and v of shape (n,)) or c cells at once
    (t of shape (c,), y and v of shape (c, n)) in one walk of the tree.
    Partials come from forward-mode duals; t may be any real.
    """

    dim: int
    expression: ex.Expression
    source: str

    @classmethod
    def from_text(cls, text: str, dim: int) -> "Lagrangian":
        if dim < 1:
            raise ValueError("Lagrangian dimension must be >= 1")
        tree = ex.parse(text, dim, allow=("t", "qs", "qd"))
        return cls(dim, tree, text)

    def _env(self, t, y, v) -> dict:
        y, v = np.asarray(y), np.asarray(v)
        env = {"t": t}
        for k in range(self.dim):
            env[f"qs{k + 1}"] = y[..., k]
            env[f"qd{k + 1}"] = v[..., k]
        return env

    def value(self, t, y, v):
        return _on_cells(ex.evaluate(self.expression, self._env(t, y, v)), _cell_shape(t, y, v))

    def value_and_partials(self, t, y, v):
        """(L, dL/dt, dL/dy, dL/dv) in one dual pass; shapes (c,), (c,), (c, n), (c, n)."""
        n = self.dim
        m = 1 + 2 * n
        cells = _cell_shape(t, y, v)
        basis = np.eye(m).reshape((m, m) + (1,) * len(cells))
        seed = {"t": basis[0]}
        for k in range(n):
            seed[f"qs{k + 1}"] = basis[1 + k]
            seed[f"qd{k + 1}"] = basis[1 + n + k]
        val, grad = ex.diff_eval(self.expression, self._env(t, y, v), seed)
        grad = np.moveaxis(np.broadcast_to(grad, (m,) + cells), 0, -1).copy()
        return _on_cells(val, cells), grad[..., 0][()], grad[..., 1 : 1 + n], grad[..., 1 + n :]

    def partials(self, t, y, v):
        _, d1, d2, d3 = self.value_and_partials(t, y, v)
        return d1, d2, d3


def _cell_shape(t, *vectors) -> tuple:
    """The cell axes shared by t and the (..., n) vectors: () for one point."""
    return np.broadcast_shapes(np.shape(t), *(np.shape(x)[:-1] for x in vectors))


def _on_cells(x, cells: tuple):
    """x as a new float array over the cells; a scalar for one point."""
    return np.array(np.broadcast_to(x, cells), dtype=float)[()]


@dataclass(frozen=True)
class Problem:
    """Fundamental variational problem: grid, Lagrangian, boundary values."""

    grid: TimeScaleGrid
    lagrangian: Lagrangian
    qa: np.ndarray
    qb: np.ndarray

    def __post_init__(self):
        qa = np.atleast_1d(np.array(self.qa, dtype=float))
        qb = np.atleast_1d(np.array(self.qb, dtype=float))
        n = self.lagrangian.dim
        if qa.shape != (n,) or qb.shape != (n,):
            raise ValueError(f"boundary values must have shape ({n},)")
        qa.setflags(write=False)
        qb.setflags(write=False)
        object.__setattr__(self, "qa", qa)
        object.__setattr__(self, "qb", qb)

    @property
    def dim(self) -> int:
        return self.lagrangian.dim


Trajectory = GridFunction  # vector-valued grid function with (N, n) values


def make_problem(grid: TimeScaleGrid, lagrangian_text: str, dim: int, qa, qb) -> Problem:
    return Problem(grid, Lagrangian.from_text(lagrangian_text, dim), qa, qb)


def as_trajectory(p: Problem, values) -> GridFunction:
    vals = np.array(values, dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.shape != (len(p.grid), p.dim):
        raise ValueError(
            f"trajectory values must have shape ({len(p.grid)}, {p.dim}), got {vals.shape}"
        )
    return GridFunction(p.grid, vals)


def linear_guess(p: Problem) -> GridFunction:
    """Componentwise linear interpolation between the boundary values."""
    t = p.grid.array
    w = (t - t[0]) / (t[-1] - t[0])
    vals = p.qa[None, :] + w[:, None] * (p.qb - p.qa)[None, :]
    vals[0] = p.qa
    vals[-1] = p.qb
    return GridFunction(p.grid, vals)


def _traj_values(p: Problem, q: GridFunction) -> np.ndarray:
    vals = q.values
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.shape != (len(p.grid), p.dim):
        raise ValueError("trajectory does not match the problem grid/dimension")
    return vals


def _cell_error(exc: ex.EvalError, i: int, t: float) -> ex.EvalError:
    return ex.EvalError(f"cell {i} at t={float(t)!r}: {exc.message}", exc.column, i)


def _located(times, fn, args):
    """fn(times, *args), with an EvalError located at the lowest failing cell."""
    try:
        return fn(times, *args)
    except ex.EvalError as exc:
        if exc.cell:  # a node evaluated later may fail at an earlier cell
            _located(times[: exc.cell], fn, [a[: exc.cell] for a in args])
        raise _cell_error(exc, exc.cell, times[exc.cell]) from None


def _over_cells(times, fn, *per_cell_args):
    """Evaluates fn(times, *per_cell_args) once over all cells, cell axis first.

    An EvalError is located as ``cell i at t=...`` at the lowest failing
    cell, and so is the first cell whose results hold an inf or nan.
    Returns fn's result (an array, or a tuple of them) as float arrays.
    """
    results = _located(times, fn, per_cell_args)
    is_tuple = isinstance(results, tuple)
    arrays = [np.array(r, dtype=float) for r in (results if is_tuple else [results])]
    finite = np.logical_and.reduce(
        [np.isfinite(a).all(axis=tuple(range(1, a.ndim))) for a in arrays]
    )
    if not finite.all():
        i = int(np.argmin(finite))
        cell = np.concatenate([a[i].ravel() for a in arrays])
        bad = float(cell[~np.isfinite(cell)][0])
        raise _cell_error(ex.EvalError(f"non-finite value {bad!r}", 1), i, times[i])
    return tuple(arrays) if is_tuple else arrays[0]


def _cell_states(vals: np.ndarray, mu: np.ndarray):
    """Per cell: the jumped state and the difference quotient."""
    return vals[1:], np.diff(vals, axis=0) / mu[:, None]


def action(p: Problem, q: GridFunction) -> float:
    """Delta integral of the composed integrand over the whole window."""
    vals = _traj_values(p, q)
    mu = graininess(p.grid)
    values = _over_cells(p.grid.array[:-1], p.lagrangian.value, *_cell_states(vals, mu))
    return np.cumsum(np.append(0.0, mu * values))[-1]  # left to right; np.sum pairs terms


def _cell_partials(p: Problem, vals: np.ndarray):
    """d2 and d3 of L at every cell (left endpoints of the grid)."""
    states = _cell_states(vals, graininess(p.grid))
    _, _, d2, d3 = _over_cells(p.grid.array[:-1], p.lagrangian.value_and_partials, *states)
    return d2, d3


def el_residual(p: Problem, q: GridFunction) -> GridFunction:
    """Euler-Lagrange defect on the doubly truncated grid.

    residual(t_i) = delta-derivative of dL/dv minus dL/dy, evaluated with
    all L arguments at (t, jumped state, difference quotient); one n-vector
    for each of the first N - 2 grid points.
    """
    if len(p.grid) < 3:
        raise ValueError("Euler-Lagrange residual needs a grid with at least 3 points")
    vals = _traj_values(p, q)
    mu = graininess(p.grid)
    d2, d3 = _cell_partials(p, vals)
    resid = (d3[1:] - d3[:-1]) / mu[: len(d3) - 1, None] - d2[:-1]
    return GridFunction(kappa(kappa(p.grid)), resid)


def stationarity_gradient(p: Problem, q: GridFunction) -> np.ndarray:
    """Exact gradient of the action with respect to the interior values.

    Assembled cell by cell from the partials of each cell term: the cell
    left of point j contributes mu * dL/dy + dL/dv, the cell right of j
    contributes -dL/dv.  Shape (N - 2, n).
    """
    if len(p.grid) < 3:
        raise ValueError("stationarity gradient needs a grid with at least 3 points")
    vals = _traj_values(p, q)
    mu = graininess(p.grid)
    d2, d3 = _cell_partials(p, vals)
    return mu[:-1, None] * d2[:-1] + d3[:-1] - d3[1:]


@dataclass(frozen=True)
class SolveResult:
    trajectory: GridFunction
    iterations: int
    gradient_norm: float
    action_value: float


def _cell_hessian(p: Problem, t, mu, q_left, q_right):
    """Symmetric (2n, 2n) Hessians of the cell terms in (q_left, q_right), (c, 2n, 2n) on c cells.

    One nested-dual pass: inner tangents (2n, 1, c) and outer ones (1, 2n, c)
    broadcast the second-order part to every block, with the same IEEE
    operations per entry as seeding one direction on one cell at a time.
    """
    n = p.dim
    m = 2 * n
    mu = np.asarray(mu)
    basis = np.eye(m).reshape((m, m) + (1,) * mu.ndim)
    y = np.asarray(q_right)
    v = (y - q_left) / mu[..., None]
    env = {"t": t}
    for k in range(n):
        seed_qs = basis[n + k]
        seed_qd = (basis[n + k] - basis[k]) / mu
        env[f"qs{k + 1}"] = Dual(Dual(y[..., k], seed_qs[:, None]), Dual(seed_qs[None], 0.0))
        env[f"qd{k + 1}"] = Dual(Dual(v[..., k], seed_qd[:, None]), Dual(seed_qd[None], 0.0))
    out = ex.evaluate(p.lagrangian.expression, env)
    second = out.b.b if isinstance(out, Dual) and isinstance(out.b, Dual) else 0.0
    blocks = np.moveaxis(np.broadcast_to(second, (m, m) + mu.shape), (0, 1), (-2, -1))
    return mu[..., None, None] * blocks


def _interior_hessian(p: Problem, vals: np.ndarray):
    """Block tridiagonal Hessian of the action over interior points."""
    t = p.grid.array
    n = p.dim
    m = len(t) - 2
    hc = _over_cells(t[:-1], partial(_cell_hessian, p), graininess(p.grid), vals[:-1], vals[1:])
    diag = hc[:m, n:, n:] + hc[1 : m + 1, :n, :n]
    upper = hc[1:m, :n, n:]
    return diag, upper


def _block_tridiag_solve(p: Problem, diag, upper, rhs):
    """Thomas elimination on n-by-n blocks; singular pivots are reported."""
    m = diag.shape[0]
    dhat = diag.copy()
    rhat = rhs.copy()
    interior_times = p.grid.points[1:-1]
    for j in range(1, m):
        try:
            w = np.linalg.solve(dhat[j - 1].T, upper[j - 1]).T
        except np.linalg.LinAlgError:
            raise SingularJacobian(j - 1, interior_times[j - 1]) from None
        dhat[j] = dhat[j] - w @ upper[j - 1]
        rhat[j] = rhat[j] - w @ rhat[j - 1]
    x = np.empty_like(rhat)
    try:
        x[m - 1] = np.linalg.solve(dhat[m - 1], rhat[m - 1])
    except np.linalg.LinAlgError:
        raise SingularJacobian(m - 1, interior_times[m - 1]) from None
    for j in range(m - 2, -1, -1):
        try:
            x[j] = np.linalg.solve(dhat[j], rhat[j] - upper[j] @ x[j + 1])
        except np.linalg.LinAlgError:
            raise SingularJacobian(j, interior_times[j]) from None
    return x


def solve_el(
    p: Problem,
    guess: GridFunction | None = None,
    *,
    tol: float = 1e-12,
    max_iter: int = 100,
) -> SolveResult:
    """Newton iteration for an extremal of the discrete action.

    Convergence when the gradient max-norm drops below tol * (1 + |action|);
    backtracking halves the step up to 30 times on non-decrease of the
    gradient norm.  Boundary values are held bit-exactly; the result is a
    stationary point, not necessarily a minimizer.
    """
    if len(p.grid) < 3:
        raise ValueError("boundary-value solve needs a grid with at least 3 points")
    vals = _traj_values(p, guess if guess is not None else linear_guess(p)).copy()
    vals[0] = p.qa
    vals[-1] = p.qb

    def grad_norm(candidate):
        g = stationarity_gradient(p, GridFunction(p.grid, candidate))
        return g, float(np.max(np.abs(g)))

    g, gnorm = grad_norm(vals)
    for it in range(max_iter + 1):
        act = action(p, GridFunction(p.grid, vals))
        if gnorm <= tol * (1.0 + abs(act)):
            return SolveResult(GridFunction(p.grid, vals), it, gnorm, act)
        if it == max_iter:
            raise NonConvergence(
                f"no convergence after {max_iter} iterations "
                f"(gradient max-norm {gnorm:.3e})",
                gnorm,
                it,
            )
        diag, upper = _interior_hessian(p, vals)
        step = _block_tridiag_solve(p, diag, upper, -g)
        accepted = False
        scale = 1.0
        for _ in range(31):
            trial = vals.copy()
            trial[1:-1] += scale * step
            try:
                g_trial, gnorm_trial = grad_norm(trial)
            except ex.EvalError:
                gnorm_trial = np.inf
            if gnorm_trial < gnorm:
                vals, g, gnorm = trial, g_trial, gnorm_trial
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            raise NonConvergence(
                f"line search failed at iteration {it + 1} "
                f"(gradient max-norm {gnorm:.3e})",
                gnorm,
                it + 1,
            )
    raise AssertionError("unreachable")
