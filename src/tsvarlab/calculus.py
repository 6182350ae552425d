"""Grid functions, the cell layer, and the change-of-variables map.

On a finite grid every non-final point is right-scattered, so the delta
derivative is the exact forward difference (f(next) - f(t)) / mu(t) and the
delta integral is the exact left-endpoint cell sum.  There is no quadrature
and no limit-taking; identities such as the product rule hold pointwise up
to floating-point rounding.

This is the one cell layer: it forms cells (:func:`grid_cells`), evaluates
trees over them (:func:`sample`), names the lowest cell where a pass fails or
is not finite (:func:`over_cells`, :func:`finite_cells`) and sums them
(:func:`integral`); the variational and Noether modules only state formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .timescale import TimeScaleGrid, graininess, kappa


@dataclass(frozen=True)
class GridFunction:
    """Values (scalars or n-vectors) attached to the points of a grid."""

    grid: TimeScaleGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim not in (1, 2):
            raise ValueError("grid function values must be a 1-D or 2-D array")
        if vals.shape[0] != len(self.grid):
            raise ValueError(
                f"value count {vals.shape[0]} does not match grid size {len(self.grid)}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function values must all be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def dim(self) -> int:
        return 1 if self.values.ndim == 1 else self.values.shape[1]


def _on_cell_axis(mu: np.ndarray, values: np.ndarray) -> np.ndarray:
    """mu shaped to multiply or divide ``values`` along their leading cell axis."""
    return mu.reshape(mu.shape + (1,) * (np.ndim(values) - 1))


def grid_cells(grid: TimeScaleGrid, values):
    """Per cell k of the grid: (t_k, mu_k, q_k, q_{k+1}, q^Delta_k), cell axis first.

    ``values`` holds q at the grid's points, shape (N,) or (N, n).
    """
    values = np.asarray(values)
    mu = graininess(grid)
    left, right = values[:-1], values[1:]
    return grid.array[:-1], mu, left, right, (right - left) / _on_cell_axis(mu, values)


def sample(trees, env: dict, cells: tuple) -> np.ndarray:
    """The trees over ``env`` in one evaluation: a float array, cells + (len(trees),).

    Equal subtrees of several trees are computed once; a lone tree keeps only the operands in use.
    """
    values = ex.evaluate(trees, env) if len(trees) > 1 else [ex.evaluate(trees[0], env)]
    return np.stack([np.broadcast_to(x, cells) for x in values], axis=-1, dtype=float)


def over_cells(times, fn, *per_cell_args, what: str = "cell"):
    """Evaluates fn(times, *per_cell_args) once over all cells (or points), cell axis first.

    An EvalError is located as ``cell i at t=...`` (or ``point i``) at the
    lowest failing cell, and so is the first cell whose results hold an inf
    or nan; arithmetic in fn that overflows raises no numpy warning.  Returns
    fn's result (an array, or a tuple of them) as float arrays.
    """
    with np.errstate(all="ignore"):  # an inf or nan is located below, not warned about
        try:
            results = fn(times, *per_cell_args)
        except ex.EvalError as exc:
            while exc.cell:  # a node evaluated later may fail at an earlier cell
                try:
                    fn(times[: exc.cell], *(a[: exc.cell] for a in per_cell_args))
                    break
                except ex.EvalError as earlier:
                    exc = earlier
            message = f"{what} {exc.cell} at t={float(times[exc.cell])!r}: {exc.message}"
            raise ex.EvalError(message, exc.column, exc.cell) from None
    is_tuple = isinstance(results, tuple)
    arrays = [np.array(r, dtype=float) for r in (results if is_tuple else [results])]
    if not all(np.isfinite(a).all() for a in arrays):  # the lowest such cell among all results
        finite_cells(times, np.concatenate([a.reshape(len(a), -1) for a in arrays], axis=1), what)
    return tuple(arrays) if is_tuple else arrays[0]


def finite_cells(times, values, what: str = "cell"):
    """values (cell axis first), unless a cell holds an inf or nan: then an EvalError at the first."""
    if not np.isfinite(values).all():
        first = tuple(np.argwhere(~np.isfinite(values))[0])
        i = int(first[0])
        message = f"{what} {i} at t={float(times[i])!r}: non-finite value {float(values[first])!r}"
        raise ex.EvalError(message, 1, i)
    return values


def integral(times, mu: np.ndarray, values: np.ndarray):
    """Delta integral of cell values, (c,) or (c, n), on cells at ``times`` of graininess mu.

    mu_k * values_k is summed left to right from 0: a fixed order makes every
    caller round alike (np.sum pairs terms).  The first cell whose partial
    sum is inf or nan fails as ``cell i at t=...``; the partial sums before
    a non-finite term are finite, so that is the first cell whose term is
    not finite, or else where the sum overflows.
    """
    with np.errstate(all="ignore"):
        terms = _on_cell_axis(mu, values) * values
        sums = np.cumsum(np.concatenate([np.zeros((1,) + terms.shape[1:]), terms]), axis=0)
    finite_cells(times, sums[1:])
    return sums[-1]


def delta_derivative(f: GridFunction) -> GridFunction:
    """Forward-difference derivative, defined on the kappa truncation."""
    if len(f.grid) < 2:
        raise ValueError("delta derivative needs a grid with at least 2 points")
    return GridFunction(kappa(f.grid), grid_cells(f.grid, f.values)[4])


def compose_sigma(f: GridFunction) -> GridFunction:
    """f composed with the forward jump, defined on the kappa truncation."""
    if len(f.grid) < 2:
        raise ValueError("sigma composition needs a grid with at least 2 points")
    return GridFunction(kappa(f.grid), f.values[1:])


def delta_integral(f: GridFunction, r: float, s: float) -> float:
    """Cauchy cell sum of mu(t) * f(t) over grid points in [r, s).

    The partial sums form the antiderivative: their delta derivative
    reproduces f at every non-final point.
    """
    ir = f.grid.index_of(r)
    is_ = f.grid.index_of(s)
    if ir > is_:
        raise ValueError(f"integration bounds out of order: r={r!r} > s={s!r}")
    mu = np.zeros(len(f.grid) - 1)  # cells outside [r, s) weigh 0: a failure names its grid cell
    mu[ir:is_] = graininess(f.grid)[ir:is_]
    total = integral(f.grid.array[:-1], mu, f.values[:-1])
    return total if f.values.ndim == 2 else float(total)


@dataclass(frozen=True)
class PushforwardResult:
    """Image grid and transported values, plus both sides of the substitution identity."""

    image_grid: TimeScaleGrid
    transported: GridFunction
    lhs: float  # integral of f(alpha(t)) * alpha^delta(t) over the source grid
    rhs: float  # integral of the transported values over the image grid

    @property
    def discrepancy(self) -> float:
        return abs(self.lhs - self.rhs)


def pushforward(alpha: GridFunction, f: GridFunction) -> PushforwardResult:
    """Change of variables along a strictly increasing grid map.

    ``alpha`` carries the image point alpha(t_i) for each source point;
    ``f`` carries the integrand samples f(alpha(t_i)) aligned with the same
    indices.  The image of an increasing map is a new time scale, and the
    two integrals agree cell by cell.
    """
    if not np.array_equal(alpha.grid.array, f.grid.array):
        raise ValueError("alpha and f must live on the same grid")
    if alpha.values.ndim != 1 or f.values.ndim != 1:
        raise ValueError("pushforward expects scalar grid functions")
    avals = alpha.values
    if not np.all(np.diff(avals) > 0):
        raise ValueError("alpha must be strictly increasing on the grid")

    image = TimeScaleGrid(avals, intent=alpha.grid.intent)
    transported = GridFunction(image, f.values)

    t, mu, _, _, alpha_delta = grid_cells(alpha.grid, avals)
    with np.errstate(all="ignore"):  # an overflow is located by the integral
        integrand = f.values[:-1] * alpha_delta
    lhs = float(integral(t, mu, integrand))
    rhs = float(integral(avals[:-1], graininess(image), f.values[:-1]))
    return PushforwardResult(image, transported, lhs, rhs)
