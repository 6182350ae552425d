"""Grid functions, the cell layer, and the change-of-variables map.

On a finite grid every non-final point is right-scattered, so the delta
derivative is the exact forward difference (f(next) - f(t)) / mu(t) and the
delta integral is the exact left-endpoint cell sum.  There is no quadrature
and no limit-taking; identities such as the product rule hold pointwise up
to floating-point rounding.

This is the one cell layer: it forms cells (:func:`grid_cells`), evaluates
trees over them (:func:`sample`), names the lowest cell where a pass fails or
is not finite (:func:`over_cells`, :func:`finite_cells`, the located quotient
:func:`difference_quotient`) and sums them (:func:`integral`).  Other modules
silence no numpy warning on cell values: they form such arithmetic in :func:`over_cells`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import expr as ex
from .timescale import Frozen, TimeScaleGrid, kappa


class GridFunction(Frozen):
    """Values (scalars or n-vectors) attached to the points of a grid; equal only to itself."""

    def __init__(self, grid: TimeScaleGrid, values):
        vals = np.array(values, dtype=float)
        if vals.ndim not in (1, 2):
            raise ValueError("grid function values must be a 1-D or 2-D array")
        if vals.shape[0] != len(grid):
            raise ValueError(
                f"value count {vals.shape[0]} does not match grid size {len(grid)}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function values must all be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", vals)

    @property
    def dim(self) -> int:
        return 1 if self.values.ndim == 1 else self.values.shape[1]


def _on_cell_axis(mu: np.ndarray, values: np.ndarray) -> np.ndarray:
    """mu shaped to multiply or divide ``values`` along their leading cell axis."""
    return mu.reshape(mu.shape + (1,) * (np.ndim(values) - 1))


def grid_cells(times: np.ndarray, values):
    """Per cell k of the points ``times``: (t_k, mu_k, q_k, q_{k+1}, q^Delta_k), cell axis first.

    ``values`` holds q at the points, shape (N,) or (N, n).  Every cell pass
    forms its graininess and forward difference quotients here; a graininess or
    quotient that overflows is left inf or nan, unwarned, for the located pass to name.
    """
    values = np.asarray(values)
    left, right = values[:-1], values[1:]
    with np.errstate(all="ignore"):
        mu = times[1:] - times[:-1]  # the bits of np.diff, without its wrapper's cost
        delta = (right - left) / _on_cell_axis(mu, values)
    return times[:-1], mu, left, right, delta


def sample(trees, env: dict, cells: tuple) -> np.ndarray:
    """The trees over ``env`` in one ``ex.evaluate`` call: a float array, cells + (len(trees),).

    A value constant over the cells (a number, or a variable such as t at one
    point) is broadcast into its column.
    """
    out = np.empty(cells + (len(trees),))
    for k, x in enumerate(ex.evaluate(trees, env)):
        out[..., k] = x
    return out


def over_cells(times, fn, *per_cell_args, what: str = "cell"):
    """Evaluates fn(times, *per_cell_args) once over all cells (or points), cell axis first.

    An EvalError is located as ``cell i at t=...`` (or ``point i``) at the
    lowest failing cell, and so is the first cell whose results hold an inf
    or nan; arithmetic in fn that overflows raises no numpy warning.  Returns
    fn's result (an array, or a tuple of them) as fn built it.
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
    arrays = results if isinstance(results, tuple) else (results,)
    if not all(np.isfinite(a).all() for a in arrays):  # the lowest such cell among all results
        finite_cells(times, np.concatenate([a.reshape(len(a), -1) for a in arrays], axis=1), what)
    return results


def finite_cells(times, values, what: str = "cell"):
    """values (cell axis first), unless a cell holds an inf or nan: then an EvalError at the first."""
    if not np.isfinite(values).all():
        first = tuple(np.argwhere(~np.isfinite(values))[0])
        i = int(first[0])
        message = f"{what} {i} at t={float(times[i])!r}: non-finite value {float(values[first])!r}"
        raise ex.EvalError(message, 1, i)
    return values


def difference_quotient(times, values) -> np.ndarray:
    """q^Delta on the cells of ``times``, unless one is inf or nan: then an EvalError at its cell."""
    return finite_cells(times[:-1], grid_cells(times, values)[4])


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
        sums = np.concatenate([np.zeros((1,) + terms.shape[1:]), terms]).cumsum(axis=0)
    finite_cells(times, sums[1:])
    return sums[-1]


def delta_derivative(f: GridFunction) -> GridFunction:
    """Forward-difference derivative, defined on the kappa truncation."""
    if len(f.grid) < 2:
        raise ValueError("delta derivative needs a grid with at least 2 points")
    return GridFunction(kappa(f.grid), difference_quotient(f.grid.array, f.values))


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
    t, mu, left = grid_cells(f.grid.array, f.values)[:3]
    mu[:ir] = mu[is_:] = 0.0  # cells outside [r, s) weigh 0: a failure names its grid cell
    total = integral(t, mu, left)
    return total if f.values.ndim == 2 else float(total)


class PushforwardResult(NamedTuple):
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
    image = TimeScaleGrid(avals, intent=alpha.grid.intent)
    transported = GridFunction(image, f.values)

    t, mu, _, _, alpha_delta = grid_cells(alpha.grid.array, avals)
    with np.errstate(all="ignore"):  # an overflow is located by the integral
        integrand = f.values[:-1] * alpha_delta
    lhs = float(integral(t, mu, integrand))
    rhs = float(integral(*grid_cells(avals, f.values)[:3]))
    return PushforwardResult(image, transported, lhs, rhs)
