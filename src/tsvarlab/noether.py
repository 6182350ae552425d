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

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from ._dual import Dual
from .calculus import GridFunction
from .timescale import TimeScaleGrid, graininess, kappa
from .variational import Problem, _cell_shape, _cell_states, _over_cells, _traj_values

_EPS_STEP = 1e-5  # central-difference step for d/deps at 0


@dataclass(frozen=True)
class SymmetryGenerator:
    """Infinitesimal generator (tau, xi), optionally with exact finite maps.

    ``tau`` and each ``xi`` component are expressions over (t, q1..qn); the
    optional exact family ``tbar``/``qbar`` may also reference eps.  When no
    family is given, the first-order family t + eps*tau, q + eps*xi is used
    (higher-order terms identically zero).  The ``*_at`` samplers take one
    point (t a float, q of shape (n,)) or many (a leading point axis).
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

    def tbar_at(self, t, qvec, eps: float):
        if self.tbar is not None:
            return self._sample((self.tbar,), t, qvec, eps)[..., 0][()]
        return t + eps * self.tau_at(t, qvec)

    def qbar_at(self, t, qvec, eps: float) -> np.ndarray:
        if self.qbar is not None:
            return self._sample(self.qbar, t, qvec, eps)
        return np.asarray(qvec) + eps * self.xi_at(t, qvec)


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

    At eps = 0 the maps must reproduce (t, q) to 1e-12; their central
    finite-difference eps-derivative (step 1e-6) must match (tau, xi) to
    1e-6.  Raises ValueError on the first violation.
    """
    if not gen.has_family:
        return
    h = 1e-6
    t, q = np.asarray(times, dtype=float), np.asarray(qvals, dtype=float)
    t0, q0 = gen.tbar_at(t, q, 0.0), gen.qbar_at(t, q, 0.0)
    dt = (gen.tbar_at(t, q, h) - gen.tbar_at(t, q, -h)) / (2 * h)
    dq = (gen.qbar_at(t, q, h) - gen.qbar_at(t, q, -h)) / (2 * h)
    tau, xi = gen.tau_at(t, q), gen.xi_at(t, q)
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
    t = p.grid.array
    mu = graininess(p.grid)
    xi_grid = gen.xi_at(t, vals)

    def defect(t_i, y, v, xi_sigma, xi_delta):
        _, _, d2, d3 = p.lagrangian.value_and_partials(t_i, y, v)
        return _dot(d2, xi_sigma) + _dot(d3, xi_delta)

    r = _over_cells(t[:-1], defect, *_cell_states(vals, mu), *_cell_states(xi_grid, mu))
    return GridFunction(kappa(p.grid), r)


@dataclass(frozen=True)
class InvarianceReport:
    mode: str  # "fixed-time" or "time-transform"
    eps_values: tuple[float, ...]
    cell_times: np.ndarray  # left endpoint of each compared cell
    discrepancies: np.ndarray  # (n_eps, n_cells) absolute differences
    per_eps_max: np.ndarray
    max_discrepancy: float
    action_value: float
    action_eps_derivative: float  # central difference at eps = 0


def _dot(a, b):
    """a . b along the last axis, each row by the same dot product as a single pair."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _cell_integrals(p: Problem, grid: TimeScaleGrid, vals: np.ndarray) -> np.ndarray:
    """mu * L on every cell of ``grid``, with the states ``vals`` at its points."""
    mu = graininess(grid)

    def integral(t_i, mu_i, y, v):
        return mu_i * p.lagrangian.value(t_i, y, v)

    return _over_cells(grid.array[:-1], integral, mu, *_cell_states(vals, mu))


def _invariance_report(mode, t, eps_list, base, cells, weight) -> InvarianceReport:
    """Compares cells(eps) with base for each eps; weight * cells sums to the action."""
    eps_values = tuple(float(e) for e in eps_list)
    disc = np.empty((len(eps_values), len(base)))
    for e, eps in enumerate(eps_values):
        disc[e] = np.abs(cells(eps) - base)
    d_action = float(
        np.sum(weight * cells(_EPS_STEP)) - np.sum(weight * cells(-_EPS_STEP))
    ) / (2 * _EPS_STEP)
    per_eps = disc.max(axis=1) if len(base) else np.zeros(len(eps_values))
    return InvarianceReport(
        mode=mode,
        eps_values=eps_values,
        cell_times=t[:-1].copy(),
        discrepancies=disc,
        per_eps_max=per_eps,
        max_discrepancy=float(per_eps.max(initial=0.0)),
        action_value=float(np.sum(weight * base)),
        action_eps_derivative=d_action,
    )


def check_invariance_fixed_time(
    p: Problem, q: GridFunction, gen: SymmetryGenerator, eps_list
) -> InvarianceReport:
    """Compare the integrand along transformed states against the original.

    The transformation moves only the state; cells keep their graininess, so
    integrand equality per cell is the subinterval-quantified definition.
    """
    vals = _traj_values(p, q)
    t = p.grid.array
    mu = graininess(p.grid)
    validate_family(gen, t, vals)

    def integrands(eps: float) -> np.ndarray:
        qbar = gen.qbar_at(t, vals, eps)
        return _over_cells(t[:-1], p.lagrangian.value, *_cell_states(qbar, mu))

    return _invariance_report("fixed-time", t, eps_list, integrands(0.0), integrands, mu)


def check_invariance_time_transform(
    p: Problem, q: GridFunction, gen: SymmetryGenerator, eps_list
) -> InvarianceReport:
    """Compare cell integrals over the transformed time scale with the originals.

    The grid map t -> tbar(t, q(t), eps) must be strictly increasing; its
    image is a new time scale on which the jump operator automatically
    commutes with the map.  Cell-by-cell equality of the two integrals is
    the subinterval-quantified definition of invariance.
    """
    vals = _traj_values(p, q)
    t = p.grid.array
    mu = graininess(p.grid)
    validate_family(gen, t, vals)

    def transformed_cells(eps: float) -> np.ndarray:
        tbar = gen.tbar_at(t, vals, eps)
        if not np.all(np.diff(tbar) > 0):
            raise ValueError(
                f"transformed times are not strictly increasing at eps={eps!r}"
            )
        # the image of the grid map is itself a time scale; its jump operator
        # is index-aligned with the original, so transported cells line up
        image = TimeScaleGrid(tuple(tbar), intent=p.grid.intent)
        return _cell_integrals(p, image, gen.qbar_at(t, vals, eps))

    base = _cell_integrals(p, p.grid, vals)
    return _invariance_report("time-transform", t, eps_list, base, transformed_cells, 1.0)


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
    """C = dL/dv . xi(t, q) along the trajectory, with residual profile."""
    vals = _traj_values(p, q)
    t = p.grid.array

    def quantity(t_i, q_i, y, v):
        _, _, _, d3 = p.lagrangian.value_and_partials(t_i, y, v)
        return np.sum(d3 * gen.xi_at(t_i, q_i), axis=-1)

    c = _over_cells(t[:-1], quantity, vals[:-1], *_cell_states(vals, graininess(p.grid)))
    return _report_from_samples(t[:-1].copy(), c)


def noether_quantity(
    p: Problem, q: GridFunction, gen: SymmetryGenerator, *, mu_mode: str = "grid"
) -> ConservationReport:
    """Full conserved quantity with both the state and the time generator.

    C = dL/dv . xi + [L - dL/dv . v - dL/dt * mu] * tau, every L argument at
    (t, jumped state, difference quotient), tau and xi at (t, q(t)).  With
    mu_mode="zero" the graininess term is dropped (continuum-intent
    evaluation), which reproduces the classical energy-momentum quantity.
    """
    if mu_mode not in ("grid", "zero"):
        raise ValueError("mu_mode must be 'grid' or 'zero'")
    vals = _traj_values(p, q)
    t = p.grid.array
    mu = graininess(p.grid)

    def quantity(t_i, mu_i, q_i, y, v):
        lval, d1, _, d3 = p.lagrangian.value_and_partials(t_i, y, v)
        mu_term = mu_i if mu_mode == "grid" else 0.0
        bracket = lval - _dot(d3, v) - d1 * mu_term
        return np.sum(d3 * gen.xi_at(t_i, q_i), axis=-1) + bracket * gen.tau_at(t_i, q_i)

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
    d4_forward: np.ndarray  # derivative in the time-rate slot, dual route
    d4_formula: np.ndarray  # L - dL/dv . v/r - dL/dt * mu * r at shifted args
    d5_forward: np.ndarray  # (K, n) derivative in the velocity slot, dual route
    d5_formula: np.ndarray
    max_value_error: float
    max_d4_error: float
    max_d5_error: float


def extended_lagrangian_partials(p: Problem, q: GridFunction, r: float = 1.0) -> ExtendedPartialsReport:
    """Differentiate the reparameterized Lagrangian L(s - mu*r, q, v/r) * r.

    Forward-mode duals differentiate the composite in the (r, v) slots; the
    results are compared against the closed-form right-hand sides.  At r = 1
    the composite value reproduces the plain integrand, and the two partials
    reduce to dL/dv and L - dL/dv . v - dL/dt * mu.
    """
    if r == 0.0:
        raise ValueError("time-rate r must be nonzero")
    vals = _traj_values(p, q)
    t = p.grid.array
    mu = graininess(p.grid)
    m = 1 + p.dim
    basis = np.eye(m)[:, :, None]

    def cell(t_i, st, mu_i, y, v):
        # st is the jumped time; the time state follows s(t) = t
        r_dual = Dual(float(r), basis[0])
        env = {"t": st - mu_i * r_dual}
        for k in range(p.dim):
            env[f"qs{k + 1}"] = y[:, k]
            env[f"qd{k + 1}"] = Dual(v[:, k], basis[1 + k]) / r_dual
        out = ex.evaluate(p.lagrangian.expression, env) * r_dual
        grads = np.broadcast_to(out.b, (m, len(t_i)))

        vr = v / r
        lval, d1, _, d3 = p.lagrangian.value_and_partials(st - mu_i * r, y, vr)
        value_ref = p.lagrangian.value(t_i, y, v)
        d4_form = lval - _dot(d3, vr) - d1 * mu_i * r
        return np.broadcast_to(out.a, t_i.shape), value_ref, grads[0], d4_form, grads[1:].T, d3

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
