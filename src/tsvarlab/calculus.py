"""Grid functions, delta derivative/integral, and the change-of-variables map.

On a finite grid every non-final point is right-scattered, so the delta
derivative is the exact forward difference (f(next) - f(t)) / mu(t) and the
delta integral is the exact left-endpoint cell sum.  There is no quadrature
and no limit-taking; identities such as the product rule hold pointwise up
to floating-point rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def cell_sum(mu: np.ndarray, values: np.ndarray):
    """Delta integral of cell values, (c,) or (c, n): mu_k * values_k summed left to right.

    A fixed order makes every caller round alike (np.sum pairs terms).
    """
    terms = _on_cell_axis(mu, values) * values
    return np.cumsum(np.concatenate([np.zeros((1,) + terms.shape[1:]), terms]), axis=0)[-1]


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
    total = cell_sum(graininess(f.grid)[ir:is_], f.values[ir:is_])
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
    if alpha.grid.points != f.grid.points:
        raise ValueError("alpha and f must live on the same grid")
    if alpha.values.ndim != 1 or f.values.ndim != 1:
        raise ValueError("pushforward expects scalar grid functions")
    avals = alpha.values
    if not np.all(np.diff(avals) > 0):
        raise ValueError("alpha must be strictly increasing on the grid")

    image = TimeScaleGrid(tuple(avals), intent=alpha.grid.intent)
    transported = GridFunction(image, f.values)

    _, mu, _, _, alpha_delta = grid_cells(alpha.grid, avals)
    lhs = float(cell_sum(mu, f.values[:-1] * alpha_delta))
    rhs = float(cell_sum(graininess(image), f.values[:-1]))
    return PushforwardResult(image, transported, lhs, rhs)
