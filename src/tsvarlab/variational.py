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
from .calculus import GridFunction, grid_cells, integral, over_cells, sample
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
    span = [float(b) - float(a) for a, b in zip(p.qa, p.qb)]  # Python floats: inf, unwarned
    for k, (a, b, d) in enumerate(zip(p.qa, p.qb, span)):
        if not np.isfinite(d):
            raise ValueError(f"linear guess of component {k + 1} from {float(a)!r} to "
                             f"{float(b)!r} spans more than a double")
    t = p.grid.array
    w = (t - t[0]) / (t[-1] - t[0])
    vals = p.qa[None, :] + w[:, None] * np.array(span)[None, :]
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
    return GridFunction(kappa(kappa(p.grid)), over_cells(t, lambda _, a, b: a - b, d3_delta, d2[:-1]))


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
    return integral(t, mu, lval), over_cells(
        t[:-1], lambda _, mu, d2, d3, d3_next: mu[:, None] * d2 + d3 - d3_next,
        mu[:-1], d2[:-1], d3[:-1], d3[1:])


class SolveResult(NamedTuple):
    trajectory: GridFunction
    iterations: int
    gradient_norm: float
    action_value: float


def _interior_hessian(p: Problem, vals: np.ndarray):
    """The action's Hessian over interior points, as the three bands of _block_tridiag_solve.

    One located pass evaluates L, whose domain errors come first as in the
    other passes, and its nonzero second derivatives in (y, v) = (q_right,
    (q_right - q_left) / mu), each written by the chain rule into its entry of
    the cell's left-left, cross or right-right block.  A second located pass
    adds cell k+1's left-left into cell k's right-right in place, point k+1's
    diagonal block, and names cell k if it fails.
    """
    n = p.dim
    lagrangian, second = p.lagrangian, p.lagrangian._second_partials

    def blocks(t, mu, y, v):
        values = lagrangian._sample([lagrangian.expression, *second.values()], t, y, v)
        # mu d2L/dy_i dy_j, d2L/dv_i dy_j and d2L/dv_i dv_j / mu at [cell, i, j]
        right, cross, left = (np.zeros((len(mu), n, n)) for _ in range(3))
        for k, (i, j) in enumerate(second, start=1):
            if j < n:
                right[:, i, j] = right[:, j, i] = mu * values[:, k]
            elif i < n:
                cross[:, j - n, i] = values[:, k]
            else:
                left[:, i - n, j - n] = left[:, j - n, i - n] = values[:, k] / mu
        right += cross.swapaxes(1, 2) + cross
        right += left
        return left, -(cross + left), right

    t, mu, _, y, v = grid_cells(p.grid.array, vals)
    left, cross, right = over_cells(t, blocks, mu, y, v)
    cross[[0, -1]] = 0.0  # the first and last cells couple an interior point to a boundary value
    diag = over_cells(t[:-1], lambda _, a, b: np.add(a, b, out=a), right[:-1], left[1:])
    # lower is a copy: numpy's matmul rounds a transposed view differently
    return np.ascontiguousarray(cross[:-1].swapaxes(1, 2)), diag, cross[1:]


# Largest normwise backward error accepted from cyclic reduction: about
# 450 units of rounding; the benchmark systems give at most 2.2e-16.
_BACKWARD_TOL = 1e-13


def _block_tridiag_solve(times, lower, diag, upper, rhs):
    """Solves the symmetric block tridiagonal system by block cyclic reduction.

    Row i reads lower[i] x[i-1] + diag[i] x[i] + upper[i] x[i+1] = rhs[i], rhs
    (m, n), with (m, n, n) bands: lower[0] and upper[-1] are zero and lower[i]
    is upper[i - 1] transposed.  ``times`` gives each row's time, for the
    report of a singular system.  Each stage of one loop eliminates the rows
    at even positions with one batched solve and hands the others to the next:
    ceil(log2(m + 1)) solves in all (Buzbee, Golub & Nielson 1970); for n = 1
    a solve is one multiplication by the reciprocals of the pivots.  Cyclic
    reduction pivots on diagonal blocks, which may be singular or nearly so in
    an invertible indefinite system.  So when a pivot block is singular, or
    the solution's normwise backward error exceeds ``_BACKWARD_TOL``, block
    Thomas elimination solves the same bands again and reports
    SingularJacobian at the first row whose Schur complement is singular.
    """
    with np.errstate(all="ignore"):
        try:
            x = _cyclic_reduction(lower, diag, upper, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:  # a singular pivot block
            pass
        else:
            residual = rhs - _block_matvec(diag, x)
            residual[:-1] -= _block_matvec(upper[:-1], x[1:])
            residual[1:] -= _block_matvec(lower[1:], x[:-1])
            row_sums = sum(np.abs(band).sum(axis=2) for band in (diag, upper, lower))
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
    1-by-1 blocks (n = 1) take _scalar_cyclic_reduction, larger ones a loop over stages.
    """
    n = diag.shape[1]
    if n == 1:
        x = _scalar_cyclic_reduction(lower.ravel(), diag.ravel(), upper.ravel(), rhs.ravel())
        return x.reshape(rhs.shape)
    stages = []  # each stage's a, b and y, solved on its even rows
    while True:
        m, k = len(diag), (len(diag) + 1) // 2
        sol = np.zeros((m // 2 + 1, n, 2 * n + rhs.shape[2]))  # zero right of an even m's last row
        a, b, y = sol[..., :n], sol[..., n : 2 * n], sol[..., 2 * n :]
        a[:k], b[:k], y[:k] = lower[0::2], upper[0::2], rhs[0::2]
        sol[:k] = np.linalg.solve(diag[0::2], sol[:k])
        stages.append((a[:k], b[:k], y[:k]))
        if m == 1:
            break
        lower, diag, upper, rhs = (  # the odd rows' system; rebinding frees this stage's own bands
            -lower[1::2] @ a[:-1], diag[1::2] - lower[1::2] @ b[:-1] - upper[1::2] @ a[1:],
            -upper[1::2] @ b[1:], rhs[1::2] - lower[1::2] @ y[:-1] - upper[1::2] @ y[1:])
    x = stages.pop()[2]
    for a, b, y in reversed(stages):  # the odd rows' unknowns x give the even rows'
        k, m = len(y), len(y) + len(x)
        full = np.zeros((m + 2, *x.shape[1:]))  # full[i + 1] is row i's unknown, between zero rows
        full[2 : m + 1 : 2] = x
        full[1 : 2 * k : 2] = y - a @ full[0 : 2 * k : 2] - b @ full[2 : 2 * k + 1 : 2]
        x = full[1:-1]
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
