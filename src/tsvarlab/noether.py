"""Symmetry generators, invariance checks, and conserved-quantity reports.

Two invariance notions are implemented: state transformations at fixed time
(compared integrand by integrand) and joint time/state transformations
(compared cell integral by cell integral over the image grid; equality on
every elementary cell is equivalent to equality on every subwindow).  The
associated conserved quantities are evaluated along trajectories and their
forward-difference residuals are reported, never asserted: the residual
profile is the measured object.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import expr as ex
from .calculus import GridFunction
from .timescale import TimeScaleGrid, graininess, kappa
from .variational import (
    Problem,
    _cell_shape,
    _cell_states,
    _delta_integral,
    _located,
    _over_cells,
    _traj_values,
)


@dataclass(frozen=True)
class SymmetryGenerator:
    """Infinitesimal generator (tau, xi), optionally with exact finite maps.

    ``tau`` and each ``xi`` component are expressions over (t, q1..qn); the
    optional exact family ``tbar``/``qbar`` may also reference eps.  Without
    it the family is the trees t + eps*tau and q + eps*xi; ``slopes_at`` takes
    either family's exact derivative trees in eps.  The ``*_at`` samplers take
    one point (t a float, q of shape (n,)) or many (a leading point axis).
    """

    dim: int
    tau: ex.Expression
    xi: tuple[ex.Expression, ...]
    tbar: ex.Expression | None = None
    qbar: tuple[ex.Expression, ...] | None = None

    def __post_init__(self):
        if len(self.xi) != self.dim:
            raise ValueError(f"xi must have {self.dim} components")
        if (self.tbar is None) != (self.qbar is None):
            raise ValueError("exact family needs both tbar and qbar")
        if self.qbar is not None and len(self.qbar) != self.dim:
            raise ValueError(f"qbar must have {self.dim} components")

    @property
    def has_family(self) -> bool:
        return self.tbar is not None

    def _sample(self, trees, t, qvec, eps=None) -> np.ndarray:
        """The trees at the points, one tree per component on the last axis."""
        qvec = np.asarray(qvec)
        env = {"t": t}
        for k in range(self.dim):
            env[f"q{k + 1}"] = qvec[..., k]
        if eps is not None:
            env["eps"] = eps
        points = _cell_shape(t, qvec)
        return np.stack([np.broadcast_to(ex.evaluate(c, env), points) for c in trees], axis=-1)

    def tau_at(self, t, qvec):
        return self._sample((self.tau,), t, qvec)[..., 0][()]

    def xi_at(self, t, qvec) -> np.ndarray:
        return self._sample(self.xi, t, qvec)

    @cached_property
    def _maps(self) -> tuple[ex.Expression, ...]:
        """(tbar, *qbar): the exact family, or the trees t + eps*tau and q_k + eps*xi_k."""
        if self.has_family:
            return (self.tbar, *self.qbar)
        names = ["t", *(f"q{k + 1}" for k in range(self.dim))]
        return tuple(ex.BinOp("+", ex.Var(w), ex.BinOp("*", ex.Var("eps"), c))
                     for w, c in zip(names, (self.tau, *self.xi)))

    def tbar_at(self, t, qvec, eps: float):
        return self._sample(self._maps[:1], t, qvec, eps)[..., 0][()]

    def qbar_at(self, t, qvec, eps: float) -> np.ndarray:
        return self._sample(self._maps[1:], t, qvec, eps)

    def slopes_at(self, t, qvec, with_time: bool = True) -> np.ndarray:
        """Exact d/d eps at eps = 0 of (tbar, *qbar), or of qbar alone, on the last axis."""
        maps = self._maps if with_time else self._maps[1:]
        return self._sample([ex.derivative(m, "eps") for m in maps], t, qvec, 0.0)


def make_generator(dim: int, tau: str = "0", xi=None, tbar: str | None = None, qbar=None) -> SymmetryGenerator:
    """Parse generator expressions; xi defaults to all-zero components."""
    if xi is None:
        xi = ("0",) * dim
    tau_tree = ex.parse(tau, dim, allow=("t", "q"))
    xi_trees = tuple(ex.parse(c, dim, allow=("t", "q")) for c in xi)
    tbar_tree = ex.parse(tbar, dim, allow=("t", "q", "eps")) if tbar is not None else None
    qbar_trees = (
        tuple(ex.parse(c, dim, allow=("t", "q", "eps")) for c in qbar) if qbar is not None else None
    )
    return SymmetryGenerator(dim, tau_tree, xi_trees, tbar_tree, qbar_trees)


def validate_family(gen: SymmetryGenerator, times, qvals) -> None:
    """Check the exact family against its generator on sampled arguments.

    At eps = 0 the maps must reproduce (t, q) to 1e-12, and their exact
    eps-derivative must match (tau, xi) to 1e-6.  Raises ValueError on the
    first violation.
    """
    if not gen.has_family:
        return
    t, q = np.asarray(times, dtype=float), np.asarray(qvals, dtype=float)

    def samples(t, q):
        return (gen.tbar_at(t, q, 0.0), gen.qbar_at(t, q, 0.0), gen.slopes_at(t, q),
                gen.tau_at(t, q), gen.xi_at(t, q))

    t0, q0, slopes, tau, xi = _located(t, samples, [q], what="point")
    dt, dq = slopes[..., 0], slopes[..., 1:]
    bad = np.array([
        np.abs(t0 - t) > 1e-12 * np.maximum(1.0, np.abs(t)),
        np.any(np.abs(q0 - q) > 1e-12 * np.maximum(1.0, np.abs(q)), axis=-1),
        np.abs(dt - tau) > 1e-6 * np.maximum(1.0, np.abs(tau)),
        np.any(np.abs(dq - xi) > 1e-6 * np.maximum(1.0, np.abs(xi)), axis=-1),
    ])
    if bad.any():
        i = int(np.argmax(bad.any(axis=0)))
        ti = f"t={float(t[i])!r}"
        raise ValueError((
            f"tbar at eps=0 is {float(t0[i])!r}, expected {ti}",
            f"qbar at eps=0 differs from q at {ti}",
            f"d tbar/d eps at 0 is {float(dt[i])!r} but tau={float(tau[i])!r} at {ti}",
            f"d qbar/d eps at 0 does not match xi at {ti}",
        )[int(np.argmax(bad[:, i]))])


# ---------------------------------------------------------------------------
# Invariance


def invariance_residual_pointwise(p: Problem, q: GridFunction, gen: SymmetryGenerator) -> GridFunction:
    """Pointwise defect dL/dy . xi-jumped + dL/dv . xi-differenced.

    The generator is sampled along the trajectory as a grid function
    t -> xi(t, q(t)); its jump composition and delta derivative are the
    grid operations, exactly as the necessary condition composes them.
    """
    vals = _traj_values(p, q)
    xi_grid = _located(p.grid.array, gen.xi_at, [vals], what="point")
    return GridFunction(kappa(p.grid), _first_variation(p, vals, xi_grid)[1])


def _first_variation(p: Problem, vals: np.ndarray, dq: np.ndarray, dt=None):
    """L and the necessary condition of invariance on every cell, for eps-slopes at the points.

    L_y . dq^sigma + L_v . dq^Delta for state slopes dq (N, n), plus L_t dt + (L - L_v . v)
    dt^Delta for time slopes dt (N,): the eps-derivative of the cell term over mu.
    """
    mu = graininess(p.grid)
    states = [*_cell_states(vals, mu), *_cell_states(dq, mu)]
    kinds = ("qs", "qd") if dt is None else ("t", "qs", "qd")
    time_slopes = [] if dt is None else [dt[:-1], np.diff(dt) / mu]

    def condition(t_i, y, v, dq_sigma, dq_delta, *dt_i):
        lval, *d1, d2, d3 = p.lagrangian.value_and_partials(t_i, y, v, kinds)
        c = _dot(d2, dq_sigma) + _dot(d3, dq_delta)
        if dt_i:  # the grid moves: dt at the left point, and its delta derivative
            c = c + d1[0] * dt_i[0] + (lval - _dot(d3, v)) * dt_i[1]
        return lval, c

    return _over_cells(p.grid.array[:-1], condition, *states, *time_slopes)


@dataclass(frozen=True)
class InvarianceReport:
    mode: str  # "fixed-time" or "time-transform"
    eps_values: tuple[float, ...]
    cell_times: np.ndarray  # left endpoint of each compared cell
    discrepancies: np.ndarray  # (n_eps, n_cells) absolute differences
    per_eps_max: np.ndarray
    max_discrepancy: float
    action_value: float  # the action of the trajectory, as action() sums it
    action_eps_derivative: float  # exact d(action)/d(eps) at 0: delta integral of the condition


def _dot(a, b):
    """a . b along the last axis, each row by the same dot product as a single pair."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _cell_integrals(p: Problem, grid: TimeScaleGrid, vals: np.ndarray) -> np.ndarray:
    """mu * L on every cell of ``grid``, with the states ``vals`` at its points."""
    mu = graininess(grid)

    def integral(t_i, mu_i, y, v):
        return mu_i * p.lagrangian.value(t_i, y, v)

    return _over_cells(grid.array[:-1], integral, mu, *_cell_states(vals, mu))


def check_invariance_fixed_time(
    p: Problem, q: GridFunction, gen: SymmetryGenerator, eps_list
) -> InvarianceReport:
    """Compare the integrand along transformed states against the original.

    The transformation moves only the state; cells keep their graininess, so
    integrand equality per cell is the subinterval-quantified definition.
    """
    return _invariance_report(p, q, gen, eps_list, "fixed-time")


def check_invariance_time_transform(
    p: Problem, q: GridFunction, gen: SymmetryGenerator, eps_list
) -> InvarianceReport:
    """Compare cell integrals over the transformed time scale with the originals.

    The grid map t -> tbar(t, q(t), eps) must be strictly increasing; its
    image is a new time scale on which the jump operator automatically
    commutes with the map.  Cell-by-cell equality of the two integrals is
    the subinterval-quantified definition of invariance.
    """
    return _invariance_report(p, q, gen, eps_list, "time-transform")


def _invariance_report(p, q, gen, eps_list, mode) -> InvarianceReport:
    """Compares the transformed cells with the originals for each eps; d/d eps is exact."""
    vals = _traj_values(p, q)
    t = p.grid.array
    mu = graininess(p.grid)
    validate_family(gen, t, vals)
    moves_time = mode == "time-transform"

    def along(sample, *args):
        return _located(t, lambda t, q: sample(t, q, *args), [vals], what="point")

    def cells(eps: float) -> np.ndarray:
        if not moves_time:  # the integrands along the transformed states
            qbar = along(gen.qbar_at, eps)
            return _over_cells(t[:-1], p.lagrangian.value, *_cell_states(qbar, mu))
        tbar = along(gen.tbar_at, eps)
        if not np.all(np.diff(tbar) > 0):
            raise ValueError(f"transformed times are not strictly increasing at eps={eps!r}")
        # the image of the grid map is itself a time scale; its jump operator
        # is index-aligned with the original, so transported cells line up
        image = TimeScaleGrid(tbar, intent=p.grid.intent)
        return _cell_integrals(p, image, along(gen.qbar_at, eps))

    base = _cell_integrals(p, p.grid, vals) if moves_time else cells(0.0)
    eps_values = tuple(float(e) for e in eps_list)
    disc = np.empty((len(eps_values), len(base)))
    for e, eps in enumerate(eps_values):
        disc[e] = np.abs(cells(eps) - base)
    slopes = along(gen.slopes_at, moves_time)
    dt = slopes[:, 0] if moves_time else None
    lval, condition = _first_variation(p, vals, slopes[:, -p.dim :], dt)
    per_eps = disc.max(axis=1) if len(base) else np.zeros(len(eps_values))
    return InvarianceReport(
        mode=mode,
        eps_values=eps_values,
        cell_times=t[:-1].copy(),
        discrepancies=disc,
        per_eps_max=per_eps,
        max_discrepancy=float(per_eps.max(initial=0.0)),
        action_value=float(_delta_integral(mu, lval)),
        action_eps_derivative=float(_delta_integral(mu, condition)),
    )


# ---------------------------------------------------------------------------
# Conserved quantities


@dataclass(frozen=True)
class ResidualProfile:
    times: np.ndarray
    residuals: np.ndarray
    max_abs: float


@dataclass(frozen=True)
class ConservationReport:
    """Sampled conserved-quantity values and their forward-difference residuals."""

    times: np.ndarray  # kappa-truncated grid points carrying C
    values: np.ndarray
    residual_times: np.ndarray  # doubly truncated points carrying delta C / delta t
    residuals: np.ndarray
    max_abs_residual: float


def _profile(times: np.ndarray, values: np.ndarray) -> ResidualProfile:
    resid = (values[1:] - values[:-1]) / (times[1:] - times[:-1])
    return ResidualProfile(
        times=times[:-1].copy(),
        residuals=resid,
        max_abs=float(np.max(np.abs(resid), initial=0.0)),
    )


def conservation_residual(report: ConservationReport) -> ResidualProfile:
    """Recompute delta C / delta t from the C samples by forward differencing.

    No chain rule is involved anywhere: the residual is literally the
    difference quotient of the sampled quantity.
    """
    if len(report.values) < 2:
        raise ValueError("conservation residual needs at least 2 C samples")
    return _profile(report.times, report.values)


def _report_from_samples(times: np.ndarray, values: np.ndarray) -> ConservationReport:
    prof = _profile(times, values)
    return ConservationReport(
        times=times,
        values=values,
        residual_times=prof.times,
        residuals=prof.residuals,
        max_abs_residual=prof.max_abs,
    )


def noether_quantity_fixed_time(
    p: Problem, q: GridFunction, gen: SymmetryGenerator
) -> ConservationReport:
    """C = dL/dv . xi(t, q) along the trajectory, with residual profile: tau taken as 0."""
    return noether_quantity(p, q, replace(gen, tau=ex.Num(0.0)))


def noether_quantity(
    p: Problem, q: GridFunction, gen: SymmetryGenerator, *, mu_mode: str = "grid"
) -> ConservationReport:
    """Full conserved quantity with both the state and the time generator.

    C = dL/dv . xi + [L - dL/dv . v - dL/dt * mu] * tau, every L argument at
    (t, jumped state, difference quotient), tau and xi at (t, q(t)).  With
    mu_mode="zero" the graininess term is dropped (continuum-intent
    evaluation), which reproduces the classical energy-momentum quantity.
    A tau that is literally 0 leaves out the bracket, and with it dL/dt.
    """
    if mu_mode not in ("grid", "zero"):
        raise ValueError("mu_mode must be 'grid' or 'zero'")
    vals = _traj_values(p, q)
    t = p.grid.array
    mu = graininess(p.grid)
    moves_time = gen.tau != ex.Num(0.0)
    kinds = ("t", "qd") if moves_time else ("qd",)

    def quantity(t_i, mu_i, q_i, y, v):
        lval, *d1, d3 = p.lagrangian.value_and_partials(t_i, y, v, kinds)
        c = np.sum(d3 * gen.xi_at(t_i, q_i), axis=-1)
        if not moves_time:
            return c
        mu_term = mu_i if mu_mode == "grid" else 0.0
        bracket = lval - _dot(d3, v) - d1[0] * mu_term
        return c + bracket * gen.tau_at(t_i, q_i)

    c = _over_cells(t[:-1], quantity, mu, vals[:-1], *_cell_states(vals, mu))
    return _report_from_samples(t[:-1].copy(), c)


# ---------------------------------------------------------------------------
# Extended-Lagrangian identities (time-reparameterization device)


@dataclass(frozen=True)
class ExtendedPartialsReport:
    times: np.ndarray
    r: float
    value_composite: np.ndarray  # reparameterized Lagrangian value
    value_reference: np.ndarray  # plain integrand L(t, jumped q, v)
    d4_forward: np.ndarray  # derivative in the time-rate slot, of the composite tree
    d4_formula: np.ndarray  # L - dL/dv . v/r - dL/dt * mu * r at shifted args
    d5_forward: np.ndarray  # (K, n) derivative in the velocity slot, of the composite tree
    d5_formula: np.ndarray
    max_value_error: float
    max_d4_error: float
    max_d5_error: float


def extended_lagrangian_partials(p: Problem, q: GridFunction, r: float = 1.0) -> ExtendedPartialsReport:
    """Differentiate the reparameterized Lagrangian L(s - mu*r, q, v/r) * r.

    The composite tree (``t`` is the jumped time s) is differentiated in r and
    in the velocity slot and compared against the closed-form right-hand sides.
    At r = 1 the composite value reproduces the plain integrand, and the two
    partials reduce to dL/dv and L - dL/dv . v - dL/dt * mu.
    """
    if r == 0.0:
        raise ValueError("time-rate r must be nonzero")
    vals = _traj_values(p, q)
    t = p.grid.array
    mu = graininess(p.grid)
    rate = ex.Var("r")
    velocities = [f"qd{k + 1}" for k in range(p.dim)]
    slots = {"t": ex.BinOp("-", ex.Var("t"), ex.BinOp("*", ex.Var("mu"), rate))}
    slots.update({w: ex.BinOp("/", ex.Var(w), rate) for w in velocities})
    composite = ex.BinOp("*", ex.substitute(p.lagrangian.expression, slots), rate)
    trees = [composite] + [ex.derivative(composite, name) for name in ["r", *velocities]]

    def cell(t_i, st, mu_i, y, v):
        env = {**p.lagrangian._env(st, y, v), "mu": mu_i, "r": float(r)}
        value_c, d4_fwd, *d5_fwd = (np.broadcast_to(x, t_i.shape) for x in ex.evaluate(trees, env))

        vr = v / r
        lval, d1, d3 = p.lagrangian.value_and_partials(st - mu_i * r, y, vr, ("t", "qd"))
        value_ref = p.lagrangian.value(t_i, y, v)
        d4_form = lval - _dot(d3, vr) - d1 * mu_i * r
        return value_c, value_ref, d4_fwd, d4_form, np.stack(d5_fwd, axis=-1), d3

    value_c, value_ref, d4_fwd, d4_form, d5_fwd, d5_form = _over_cells(
        t[:-1], cell, t[1:], mu, *_cell_states(vals, mu)
    )

    return ExtendedPartialsReport(
        times=t[:-1].copy(),
        r=float(r),
        value_composite=value_c,
        value_reference=value_ref,
        d4_forward=d4_fwd,
        d4_formula=d4_form,
        d5_forward=d5_fwd,
        d5_formula=d5_form,
        max_value_error=float(np.max(np.abs(value_c - value_ref), initial=0.0)),
        max_d4_error=float(np.max(np.abs(d4_fwd - d4_form), initial=0.0)),
        max_d5_error=float(np.max(np.abs(d5_fwd - d5_form), initial=0.0)),
    )
