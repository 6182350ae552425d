"""Action functionals, Euler-Lagrange residuals, and the extremal solver.

The action is the delta integral of L(t, q at the next point, forward
difference quotient) over the grid window.  Stationarity of that sum with
respect to the interior values yields the discrete Euler-Lagrange system;
:func:`solve_el` solves it by Newton iteration with an exact block
tridiagonal Jacobian assembled from the symbolic second derivatives of the
Lagrangian, each step by block cyclic reduction.
"""

from __future__ import annotations

from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from . import expr as ex
from .calculus import GridFunction, finite_cells, grid_cells, integral, over_cells, sample
from .timescale import Frozen, TimeScaleGrid, kappa


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
            f"singular Jacobian pivot at interior point {block_index} (t={float(time)!r})"
        )
        self.block_index = block_index
        self.time = float(time)


class Lagrangian(Frozen):
    """Evaluator of L(t, y, v) with y the jumped state and v the delta derivative.

    Takes one point (t a float, y and v of shape (n,)) or c cells at once
    (t of shape (c,), y and v of shape (c, n)) in one walk of the tree.
    Partials come from derivative trees built once, and a pass evaluates
    only those it asks for; t may be any real.  Equal and hashed by
    ``dim`` and ``expression``.
    """

    def __init__(self, dim: int, expression: ex.Expression):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "expression", expression)

    @property
    def _key(self) -> tuple:
        return self.dim, self.expression

    @classmethod
    def from_text(cls, text: str, dim: int) -> "Lagrangian":
        if dim < 1:
            raise ValueError("Lagrangian dimension must be >= 1")
        tree = ex.parse(text, dim, allow=("t", "qs", "qd"))
        return cls(dim, tree)

    @cached_property
    def _names(self) -> dict[str, list[str]]:
        """The variables of each kind of partial: ["t"], qs1..qsn and qd1..qdn."""
        return {"t": ["t"], **{kind: [f"{kind}{k + 1}" for k in range(self.dim)]
                               for kind in ("qs", "qd")}}

    @cached_property
    def _second_partials(self) -> dict[tuple[int, int], ex.Expression]:
        """d2L/da db at (i, j), i <= j, over a and b in (qs1..qsn, qd1..qdn), where not a literal 0.

        d2L/da db is built only where b occurs in dL/da.
        """
        names = self._names["qs"] + self._names["qd"]
        first = [ex.derivative(self.expression, a) for a in names]
        second = {(i, j): ex.derivative(first[i], b) for i in range(len(names))
                  for j, b in enumerate(names) if i <= j and b in first[i].variables}
        return {ij: d for ij, d in second.items() if not ex._is_num(d, 0.0)}

    def _sample(self, trees, t, y, v, **extra) -> np.ndarray:
        """The trees, over t, y and v (and ``extra`` variables), one per entry of the last axis."""
        y, v = np.asarray(y), np.asarray(v)
        env = {"t": t, **extra}
        names = self._names
        for k, (qs, qd) in enumerate(zip(names["qs"], names["qd"])):
            env[qs] = y[..., k]
            env[qd] = v[..., k]
        return sample(trees, env, np.broadcast(t, env["qs1"], env["qd1"]).shape)

    def value(self, t, y, v):
        return self._sample([self.expression], t, y, v)[..., 0][()]

    def value_and_partials(self, t, y, v, kinds=("t", "qs", "qd")):
        """L and its partials in ``kinds``, in one pass: (L, dL/dt, dL/dy, dL/dv) by default.

        dL/dt ("t") has shape (c,), dL/dy ("qs") and dL/dv ("qd") (c, n); no other is evaluated.
        """
        names = [self._names[kind] for kind in kinds]
        trees = [ex.derivative(self.expression, w) for group in names for w in group]
        stacked = self._sample([self.expression, *trees], t, y, v)
        out, stacked = [stacked[..., 0][()]], stacked[..., 1:]
        for kind, group in zip(kinds, names):
            block, stacked = stacked[..., : len(group)], stacked[..., len(group) :]
            out.append(block[..., 0][()] if kind == "t" else block)
        return tuple(out)


class Problem(Frozen):
    """Fundamental variational problem: grid, Lagrangian, boundary values; equal only to itself."""

    def __init__(self, grid: TimeScaleGrid, lagrangian: Lagrangian, qa, qb):
        qa = np.atleast_1d(np.array(qa, dtype=float))
        qb = np.atleast_1d(np.array(qb, dtype=float))
        n = lagrangian.dim
        if qa.shape != (n,) or qb.shape != (n,):
            raise ValueError(f"boundary values must have shape ({n},)")
        qa.setflags(write=False)
        qb.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "lagrangian", lagrangian)
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
    if vals.shape != (len(p.grid), p.dim) or not np.array_equal(q.grid.array, p.grid.array):
        raise ValueError("trajectory does not match the problem grid/dimension")
    return vals


def action(p: Problem, q: GridFunction) -> float:
    """Delta integral of the composed integrand over the whole window."""
    t, mu, _, y, v = grid_cells(p.grid.array, _traj_values(p, q))
    return integral(t, mu, over_cells(t, p.lagrangian.value, y, v))


def _cell_terms(p: Problem, vals: np.ndarray):
    """t and mu, and L, d2 and d3 of L at every cell (left endpoints of the grid), in one pass."""
    t, mu, _, y, v = grid_cells(p.grid.array, vals)
    terms = partial(p.lagrangian.value_and_partials, kinds=("qs", "qd"))
    return t, mu, *over_cells(t, terms, y, v)


def el_residual(p: Problem, q: GridFunction) -> GridFunction:
    """Euler-Lagrange defect on the doubly truncated grid.

    residual(t_i) = delta-derivative of dL/dv minus dL/dy, evaluated with
    all L arguments at (t, jumped state, difference quotient); one n-vector
    for each of the first N - 2 grid points.
    """
    if len(p.grid) < 3:
        raise ValueError("Euler-Lagrange residual needs a grid with at least 3 points")
    t, _, _, d2, d3 = _cell_terms(p, _traj_values(p, q))
    t, _, _, _, d3_delta = grid_cells(t, d3)
    with np.errstate(all="ignore"):
        resid = d3_delta - d2[:-1]
    return GridFunction(kappa(kappa(p.grid)), finite_cells(t, resid))


def stationarity_gradient(p: Problem, q: GridFunction) -> np.ndarray:
    """Exact gradient of the action with respect to the interior values.

    Assembled cell by cell from the partials of each cell term: the cell
    left of point j contributes mu * dL/dy + dL/dv, the cell right of j
    contributes -dL/dv.  Shape (N - 2, n).
    """
    if len(p.grid) < 3:
        raise ValueError("stationarity gradient needs a grid with at least 3 points")
    return _action_and_gradient(p, _traj_values(p, q))[1]


def _action_and_gradient(p: Problem, vals: np.ndarray):
    """The action and its stationarity gradient, from one pass over the cells."""
    t, mu, lval, d2, d3 = _cell_terms(p, vals)
    with np.errstate(all="ignore"):
        gradient = mu[:-1, None] * d2[:-1] + d3[:-1] - d3[1:]
    return integral(t, mu, lval), finite_cells(t[:-1], gradient)


class SolveResult(NamedTuple):
    trajectory: GridFunction
    iterations: int
    gradient_norm: float
    action_value: float


def _cell_hessian(p: Problem, t, mu, y, v):
    """Hessian blocks of the cell terms in (q_left, q_right): left-left, left-right, right-right.

    Each block is (n, n) for one cell and (c, n, n) on c cells.  The nonzero
    second derivatives of L in (y, v) are evaluated in one pass with L
    itself, whose domain errors come first as in the other passes, and fill
    the n-by-n blocks of d2L in (y, y), (v, y) and (v, v), with no 2n-by-2n
    array; the chain rule of y = q_right, v = (q_right - q_left) / mu maps
    them entry by entry, so one cell alone gives the same blocks as in a
    batch.
    """
    n = p.dim
    second = p.lagrangian._second_partials
    values = p.lagrangian._sample([p.lagrangian.expression, *second.values()], t, y, v)
    # d2L/dy_i dy_j, d2L/dv_i dy_j and d2L/dv_i dv_j at [..., i, j], cells first
    h_yy, h_vy, h_vv = (np.zeros(np.shape(mu) + (n, n)) for _ in range(3))
    for k, (i, j) in enumerate(second, start=1):
        if j < n:
            h_yy[..., i, j] = h_yy[..., j, i] = values[..., k]
        elif i < n:
            h_vy[..., j - n, i] = values[..., k]
        else:
            h_vv[..., i - n, j - n] = h_vv[..., j - n, i - n] = values[..., k]
    mu = np.reshape(mu, np.shape(mu) + (1, 1))
    left = h_vv / mu
    return left, -(h_vy + left), mu * h_yy + (np.swapaxes(h_vy, -1, -2) + h_vy) + left


def _interior_hessian(p: Problem, vals: np.ndarray):
    """Block tridiagonal Hessian of the action over interior points: diagonal and upper blocks."""
    t, mu, _, y, v = grid_cells(p.grid.array, vals)
    left, cross, right = over_cells(t, partial(_cell_hessian, p), mu, y, v)
    return right[:-1] + left[1:], cross[1:-1]


# Largest normwise backward error accepted from cyclic reduction: about
# 450 units of rounding; the benchmark systems give at most 2.2e-16.
_BACKWARD_TOL = 1e-13


def _block_tridiag_solve(times, diag, upper, rhs):
    """Solves the symmetric block tridiagonal system by block cyclic reduction.

    ``diag`` holds the m diagonal n-by-n blocks, ``upper`` the m - 1 blocks
    right of the diagonal (the lower ones are their transposes), ``rhs`` is
    (m, n), and ``times`` gives each row's time, for the report of a
    singular system.  Each stage eliminates the rows at even positions with
    one batched solve and recurses on the others: ceil(log2(m + 1)) solves
    in all (Buzbee, Golub & Nielson 1970); for n = 1 a solve is one
    multiplication by the reciprocals of the pivots.  Cyclic reduction
    pivots on diagonal blocks, which may be singular or nearly so in an
    invertible indefinite system.  So when a pivot block is singular, or the
    solution's normwise backward error exceeds ``_BACKWARD_TOL``, the system
    is solved again by block Thomas elimination, which reports
    SingularJacobian at the first row whose Schur complement is singular.
    """
    lower, padded = np.zeros(diag.shape), np.zeros(diag.shape)
    lower[1:] = upper.swapaxes(1, 2)
    padded[:-1] = upper
    with np.errstate(all="ignore"):
        try:
            x = _cyclic_reduction(lower, diag, padded, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:  # a singular pivot block
            pass
        else:
            residual = rhs - _block_matvec(diag, x)
            residual[:-1] -= _block_matvec(upper, x[1:])
            residual[1:] -= _block_matvec(lower[1:], x[:-1])
            row_sums, abs_upper = np.abs(diag).sum(axis=2), np.abs(upper)
            row_sums[:-1] += abs_upper.sum(axis=2)
            row_sums[1:] += abs_upper.sum(axis=1)
            scale = row_sums.max() * np.abs(x).max() + np.abs(rhs).max()
            if np.isfinite(scale) and np.abs(residual).max() <= _BACKWARD_TOL * scale:
                return x
    return _block_thomas(times, diag, upper, rhs)


def _block_matvec(blocks, x):
    """blocks[i] @ x[i] for every row i; 1-by-1 blocks multiply elementwise.

    For n = 1 that is about 5 times faster than a stack of 1-by-1 matmuls.
    It differs from them only in the sign of a zero product, which the
    backward error's abs removes, so the same solves fall back.
    """
    return blocks[..., 0] * x if x.shape[1] == 1 else (blocks @ x[..., None])[..., 0]


def _cyclic_reduction(lower, diag, upper, rhs):
    """Row i reads lower[i] x[i-1] + diag[i] x[i] + upper[i] x[i+1] = rhs[i], rhs (m, n, 1).

    lower[0] and upper[-1] are zero.  A singular pivot block raises LinAlgError.
    1-by-1 blocks (n = 1) take _scalar_cyclic_reduction.
    """
    m, n = diag.shape[:2]
    if n == 1:
        x = _scalar_cyclic_reduction(lower.ravel(), diag.ravel(), upper.ravel(), rhs.ravel())
        return x.reshape(rhs.shape)
    sol = np.linalg.solve(
        diag[0::2], np.concatenate([lower[0::2], upper[0::2], rhs[0::2]], axis=2)
    )
    if m == 1:
        return sol[..., 2 * n :]
    if m % 2 == 0:  # the last odd row has no right neighbour: a zero one stands in
        sol = np.concatenate([sol, np.zeros_like(sol[:1])])
    a, b, y = sol[..., :n], sol[..., n : 2 * n], sol[..., 2 * n :]
    lo, up = lower[1::2], upper[1::2]
    x_odd = _cyclic_reduction(
        -lo @ a[:-1],
        diag[1::2] - lo @ b[:-1] - up @ a[1:],
        -up @ b[1:],
        rhs[1::2] - lo @ y[:-1] - up @ y[1:],
    )
    pad = np.zeros_like(x_odd[:1])
    x_near = np.concatenate([pad, x_odd, pad])
    x_even = y - a @ x_near[:-1] - b @ x_near[1:]
    x = np.empty_like(rhs)
    x[0::2] = x_even[: (m + 1) // 2]
    x[1::2] = x_odd
    return x


def _scalar_cyclic_reduction(lower, diag, upper, rhs):
    """_cyclic_reduction of 1-by-1 blocks, on (m,) arrays, by elementwise arithmetic.

    It rounds as the block route does, so x has the same bits.  OpenBLAS,
    numpy's LAPACK on x86-64, solves a 1-by-1 system with several
    right-hand sides by multiplying with the reciprocal of the pivot, which
    a division would not match; and a 1-by-1 matmul adds its product to
    +0.0, so a product of -0.0 comes out as +0.0.  A zero pivot raises
    LinAlgError.
    """
    m = len(diag)
    pivot = diag[0::2]
    if not pivot.all():
        raise np.linalg.LinAlgError("Singular matrix")
    k = len(pivot)
    # rows a, b and y of the even rows; for an even m the last odd row has no right
    # neighbour, and a zero column stands in
    sol = np.zeros((3, m // 2 + 1))
    sol[0, :k], sol[1, :k], sol[2, :k] = lower[0::2], upper[0::2], rhs[0::2]
    sol[:, :k] *= 1.0 / pivot
    if m == 1:
        return sol[2]
    left = lower[1::2] * sol[:, :-1] + 0.0  # lo a, lo b and lo y of the odd rows
    right = upper[1::2] * sol[:, 1:] + 0.0  # up a, up b and up y
    x = np.zeros(m + 2)  # x[i + 1] is row i's unknown, between two zero neighbours
    x[2 : m + 1 : 2] = _scalar_cyclic_reduction(
        -left[0], diag[1::2] - left[1] - right[0], -right[1], rhs[1::2] - left[2] - right[2]
    )
    a, b, y = sol[:, :k]
    x[1 : 2 * k : 2] = y - (a * x[0 : 2 * k : 2] + 0.0) - (b * x[2 : 2 * k + 1 : 2] + 0.0)
    return x[1:-1]


def _block_thomas(times, diag, upper, rhs):
    """Thomas elimination on n-by-n blocks; a singular pivot is reported with its row's time."""
    m = len(diag)
    dhat, rhat, x = diag.copy(), rhs.copy(), np.empty_like(rhs)
    try:
        for row in range(m - 1):
            w = np.linalg.solve(dhat[row].T, upper[row]).T
            dhat[row + 1] -= w @ upper[row]
            rhat[row + 1] -= w @ rhat[row]
        row = m - 1
        x[row] = np.linalg.solve(dhat[row], rhat[row])
        for row in range(m - 2, -1, -1):
            x[row] = np.linalg.solve(dhat[row], rhat[row] - upper[row] @ x[row + 1])
    except np.linalg.LinAlgError:
        raise SingularJacobian(row, times[row]) from None
    return x


def solve_el(
    p: Problem,
    guess: GridFunction | None = None,
    *,
    tol: float = 1e-12,
    max_iter: int = 100,
) -> SolveResult:
    """Newton iteration for an extremal of the discrete action.

    Convergence when the gradient max-norm drops below tol * (1 + |action|).
    A step is accepted at the first of the scales 1, 1/2, ..., 2**-30 whose
    trial lowers the gradient max-norm; a trial whose cell pass fails counts
    as no decrease.  Boundary values are held bit-exactly; the result is a
    stationary point, not necessarily a minimizer.
    """
    if len(p.grid) < 3:
        raise ValueError("boundary-value solve needs a grid with at least 3 points")
    vals = _traj_values(p, guess if guess is not None else linear_guess(p)).copy()
    vals[0] = p.qa
    vals[-1] = p.qb
    act, g = _action_and_gradient(p, vals)
    for it in range(max_iter + 1):
        gnorm = float(np.max(np.abs(g)))
        if gnorm <= tol * (1.0 + abs(act)):
            return SolveResult(GridFunction(p.grid, vals), it, gnorm, act)
        if it == max_iter:
            raise NonConvergence(f"no convergence after {max_iter} iterations "
                                 f"(gradient max-norm {gnorm:.3e})", gnorm, it)
        step = _block_tridiag_solve(p.grid.array[1:-1], *_interior_hessian(p, vals), -g)
        for halvings in range(31):
            trial = vals.copy()
            trial[1:-1] += 0.5**halvings * step
            try:
                act_trial, g_trial = _action_and_gradient(p, trial)
            except ex.EvalError:
                continue
            if (np.abs(g_trial) < gnorm).all():  # its max-norm is lower
                break
        else:
            raise NonConvergence(f"line search failed at iteration {it + 1} "
                                 f"(gradient max-norm {gnorm:.3e})", gnorm, it + 1)
        vals, act, g = trial, act_trial, g_trial
