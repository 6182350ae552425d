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

from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from . import expr as ex
from .calculus import GridFunction, difference_quotient, grid_cells, integral, over_cells, sample
from .timescale import Frozen, kappa
from .variational import Problem, _traj_values


class SymmetryGenerator(Frozen):
    """Infinitesimal generator (tau, xi), optionally with exact finite maps.

    ``tau`` and each ``xi`` component are expressions over (t, q1..qn); the
    optional exact family ``tbar``/``qbar`` may also reference eps.  Without
    it the family is the trees t + eps*tau and q + eps*xi.  The ``*_at``
    samplers take one point (t a float, q of shape (n,)) or many (a leading
    point axis).  Equal and hashed by (dim, tau, xi, tbar, qbar).
    """

    def __init__(self, dim: int, tau: ex.Expression, xi: tuple[ex.Expression, ...],
                 tbar: ex.Expression | None = None, qbar: tuple[ex.Expression, ...] | None = None):
        if len(xi) != dim:
            raise ValueError(f"xi must have {dim} components")
        if (tbar is None) != (qbar is None):
            raise ValueError("exact family needs both tbar and qbar")
        if qbar is not None and len(qbar) != dim:
            raise ValueError(f"qbar must have {dim} components")
        for name, value in zip(("dim", "tau", "xi", "tbar", "qbar"), (dim, tau, xi, tbar, qbar)):
            object.__setattr__(self, name, value)

    @property
    def _key(self) -> tuple:
        return self.dim, self.tau, self.xi, self.tbar, self.qbar

    @property
    def has_family(self) -> bool:
        return self.tbar is not None

    def _sample(self, trees, t, qvec, eps=None) -> np.ndarray:
        """The trees at the points in one evaluation, one tree per component on the last axis."""
        qvec = np.asarray(qvec)
        env = {"t": t}
        for k in range(self.dim):
            env[f"q{k + 1}"] = qvec[..., k]
        if eps is not None:
            env["eps"] = eps
        return sample(trees, env, np.broadcast(t, env["q1"]).shape)

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
    first violation, and EvalError at the lowest point where a sample fails
    or is not finite.
    """
    if gen.has_family:  # one point (t a float, q of shape (n,)) or many
        _family_slopes(gen, np.atleast_1d(times).astype(float), np.atleast_2d(qvals).astype(float))


def _family_slopes(gen: SymmetryGenerator, t: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(tbar, *qbar)'s exact d/d eps at eps = 0, (N, 1 + n), checked as in validate_family."""
    maps = gen._maps
    trees = (*maps, *(ex.derivative(m, "eps") for m in maps), gen.tau, *gen.xi)
    m = len(maps)

    def checked(t, q):  # the samples and the four checks per point, unwarned if they overflow
        s = gen._sample(trees, t, q, eps=0.0)
        t0, q0, dt, dq = s[:, 0], s[:, 1:m], s[:, m], s[:, m + 1 : 2 * m]
        tau, xi = s[:, 2 * m], s[:, 2 * m + 1 :]
        return s, np.stack([
            np.abs(t0 - t) > 1e-12 * np.maximum(1.0, np.abs(t)),
            np.any(np.abs(q0 - q) > 1e-12 * np.maximum(1.0, np.abs(q)), axis=-1),
            np.abs(dt - tau) > 1e-6 * np.maximum(1.0, np.abs(tau)),
            np.any(np.abs(dq - xi) > 1e-6 * np.maximum(1.0, np.abs(xi)), axis=-1),
        ], axis=1)

    s, bad = over_cells(t, checked, q, what="point")
    t0, dt, tau = s[:, 0], s[:, m], s[:, 2 * m]
    if bad.any():
        i = int(np.argmax(bad.any(axis=1)))
        ti = f"t={float(t[i])!r}"
        raise ValueError((
            f"tbar at eps=0 is {float(t0[i])!r}, expected {ti}",
            f"qbar at eps=0 differs from q at {ti}",
            f"d tbar/d eps at 0 is {float(dt[i])!r} but tau={float(tau[i])!r} at {ti}",
            f"d qbar/d eps at 0 does not match xi at {ti}",
        )[int(np.argmax(bad[i]))])
    return s[:, m : 2 * m]


# ---------------------------------------------------------------------------
# Invariance


def invariance_residual_pointwise(p: Problem, q: GridFunction, gen: SymmetryGenerator) -> GridFunction:
    """Pointwise defect dL/dy . xi-jumped + dL/dv . xi-differenced.

    The generator is sampled along the trajectory as a grid function
    t -> xi(t, q(t)); its jump composition and delta derivative are the
    grid operations, exactly as the necessary condition composes them.
    """
    vals = _traj_values(p, q)
    xi_grid = over_cells(p.grid.array, gen.xi_at, vals, what="point")
    return GridFunction(kappa(p.grid), _first_variation(p, vals, xi_grid)[1])


def _time_partial(p: Problem, weight, t, y, v) -> np.ndarray:
    """dL/dt evaluated only where ``weight`` != 0, else 0; errors name the cell among all cells."""
    moving = np.flatnonzero(weight)
    l_t = np.zeros(len(t))
    try:
        if moving.size:
            l_t[moving] = p.lagrangian.value_and_partials(t[moving], y[moving], v[moving], ("t",))[1]
    except ex.EvalError as exc:
        raise ex.EvalError(exc.message, exc.column, int(moving[exc.cell])) from None
    return l_t


def _h(lval, d3, v):
    """H = L - L_v . v, which the time generator tau multiplies in every time-transform formula."""
    return lval - _dot(d3, v)


def _first_variation(p: Problem, vals: np.ndarray, dq: np.ndarray, dt=None):
    """L and the necessary condition of invariance on every cell, for eps-slopes at the points.

    L_y . dq^sigma + L_v . dq^Delta for state slopes dq (N, n), plus L_t dt + (L - L_v . v)
    dt^Delta for time slopes dt (N,): the eps-derivative of the cell term over mu.
    """
    t, _, _, y, v = grid_cells(p.grid.array, vals)
    _, _, _, dq_sigma, dq_delta = grid_cells(p.grid.array, dq)
    time_slopes = [] if dt is None else grid_cells(p.grid.array, dt)[2::2]

    def condition(t_i, y, v, dq_sigma, dq_delta, *dt_i):
        lval, d2, d3 = p.lagrangian.value_and_partials(t_i, y, v, ("qs", "qd"))
        c = _dot(d2, dq_sigma) + _dot(d3, dq_delta)
        if dt_i:  # the grid moves: dt at the left point, and its delta derivative
            l_t = _time_partial(p, dt_i[0], t_i, y, v)
            c = c + l_t * dt_i[0] + _h(lval, d3, v) * dt_i[1]
        return lval, c

    return over_cells(t, condition, y, v, dq_sigma, dq_delta, *time_slopes)


class InvarianceReport(NamedTuple):
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
    slopes = _family_slopes(gen, t, vals)
    dt = slopes[:, 0] if mode == "time-transform" else None
    lval, condition = _first_variation(p, vals, slopes[:, 1:], dt)
    cell_t, mu = grid_cells(t, vals)[:2]
    maps = gen._maps if dt is not None else gen._maps[1:]

    def cells(eps: float) -> np.ndarray:
        """L along the transformed states at fixed time, or mu * L on the image grid."""
        mapped = over_cells(t, partial(gen._sample, maps, eps=eps), vals, what="point")
        if dt is not None and not np.all(rising := mapped[1:, 0] > mapped[:-1, 0]):
            i = int(np.argmin(rising)) + 1  # the first image not above the one before
            raise ValueError(f"point {i} at t={float(t[i])!r}: transformed times are not strictly "
                             f"increasing at eps={eps!r} ({float(mapped[i - 1, 0])!r} followed "
                             f"by {float(mapped[i, 0])!r})")
        # the image of the grid map is itself a time scale; its jump operator
        # is index-aligned with the original, so transported cells line up
        t_e, mu_e, _, y, v = grid_cells(t if dt is None else mapped[:, 0], mapped[:, -p.dim :])
        if dt is None:
            return over_cells(t_e, p.lagrangian.value, y, v)
        return over_cells(t_e, lambda t_i, mu_i, y_i, v_i: mu_i * p.lagrangian.value(t_i, y_i, v_i),
                          mu_e, y, v)

    base = lval if dt is None else over_cells(cell_t, lambda _, mu, lval: mu * lval, mu, lval)
    eps_values = tuple(float(e) for e in eps_list)
    disc = np.empty((len(eps_values), len(base)))
    for e, eps in enumerate(eps_values):
        disc[e] = over_cells(cell_t, lambda _, image, base: np.abs(image - base), cells(eps), base)
    per_eps = disc.max(axis=1) if len(base) else np.zeros(len(eps_values))
    return InvarianceReport(
        mode=mode,
        eps_values=eps_values,
        cell_times=cell_t.copy(),
        discrepancies=disc,
        per_eps_max=per_eps,
        max_discrepancy=float(per_eps.max(initial=0.0)),
        action_value=float(integral(cell_t, mu, lval)),
        action_eps_derivative=float(integral(cell_t, mu, condition)),
    )


# ---------------------------------------------------------------------------
# Conserved quantities


class ResidualProfile(NamedTuple):
    times: np.ndarray
    residuals: np.ndarray
    max_abs: float


class ConservationReport(NamedTuple):
    """Sampled conserved-quantity values and their forward-difference residuals."""

    times: np.ndarray  # kappa-truncated grid points carrying C
    values: np.ndarray
    residual_times: np.ndarray  # doubly truncated points carrying delta C / delta t
    residuals: np.ndarray
    max_abs_residual: float


def _profile(times: np.ndarray, values: np.ndarray) -> ResidualProfile:
    """delta C / delta t, unless a quotient is inf or nan: then an EvalError at its cell."""
    resid = difference_quotient(times, values)
    return ResidualProfile(times[:-1].copy(), resid, float(np.max(np.abs(resid), initial=0.0)))


def conservation_residual(report: ConservationReport) -> ResidualProfile:
    """Recompute delta C / delta t from the C samples by forward differencing.

    No chain rule is involved anywhere: the residual is literally the
    difference quotient of the sampled quantity.
    """
    if len(report.values) < 2:
        raise ValueError("conservation residual needs at least 2 C samples")
    return _profile(report.times, report.values)


def noether_quantity_fixed_time(
    p: Problem, q: GridFunction, gen: SymmetryGenerator
) -> ConservationReport:
    """C = dL/dv . xi(t, q) along the trajectory, with residual profile: tau taken as 0."""
    without_tau = SymmetryGenerator(gen.dim, ex.Num(0.0), gen.xi, gen.tbar, gen.qbar)
    return noether_quantity(p, q, without_tau)


def noether_quantity(
    p: Problem, q: GridFunction, gen: SymmetryGenerator, *, mu_mode: str = "grid"
) -> ConservationReport:
    """Full conserved quantity with both the state and the time generator.

    C = dL/dv . xi + [L - dL/dv . v - dL/dt * mu] * tau, every L argument at
    (t, jumped state, difference quotient), tau and xi at (t, q(t)), sampled
    at the N - 1 points that carry C before the cell pass.  With
    mu_mode="zero" the graininess term is dropped (continuum-intent
    evaluation), which reproduces the classical energy-momentum quantity.
    C is dL/dv . xi where tau = 0, and dL/dt is evaluated only where mu * tau != 0.
    """
    if mu_mode not in ("grid", "zero"):
        raise ValueError("mu_mode must be 'grid' or 'zero'")
    t, mu, q_left, y, v = grid_cells(p.grid.array, _traj_values(p, q))
    xi_tau = over_cells(t, partial(gen._sample, (*gen.xi, gen.tau)), q_left, what="point")
    mu_term = mu if mu_mode == "grid" else np.zeros_like(mu)

    def quantity(t_i, mu_i, y, v, xi, tau):
        lval, d3 = p.lagrangian.value_and_partials(t_i, y, v, ("qd",))
        l_t = _time_partial(p, mu_i * tau, t_i, y, v)
        c = np.sum(d3 * xi, axis=-1)
        k = tau != 0
        c[k] += (_h(lval[k], d3[k], v[k]) - l_t[k] * mu_i[k]) * tau[k]
        return c

    c = over_cells(t, quantity, mu_term, y, v, xi_tau[:, :-1], xi_tau[:, -1])
    prof = _profile(t, c)
    return ConservationReport(t.copy(), c, prof.times, prof.residuals, prof.max_abs)


# ---------------------------------------------------------------------------
# Extended-Lagrangian identities (time-reparameterization device)


class ExtendedPartialsReport(NamedTuple):
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
    t, mu, _, y, v = grid_cells(p.grid.array, _traj_values(p, q))
    rate = ex.Var("r")
    velocities = [f"qd{k + 1}" for k in range(p.dim)]
    slots = {"t": ex.BinOp("-", ex.Var("t"), ex.BinOp("*", ex.Var("mu"), rate))}
    slots.update({w: ex.BinOp("/", ex.Var(w), rate) for w in velocities})
    composite = ex.BinOp("*", ex.substitute(p.lagrangian.expression, slots), rate)
    trees = [composite] + [ex.derivative(composite, name) for name in ["r", *velocities]]

    def cell(t_i, st, mu_i, y, v):
        forward = p.lagrangian._sample(trees, st, y, v, mu=mu_i, r=float(r))
        vr = v / r
        lval, d1, d3 = p.lagrangian.value_and_partials(st - mu_i * r, y, vr, ("t", "qd"))
        value_ref = p.lagrangian.value(t_i, y, v)
        d4_form = _h(lval, d3, vr) - d1 * mu_i * r
        value_c, d4_fwd, d5_fwd = forward[:, 0], forward[:, 1], forward[:, 2:]
        return (value_c, value_ref, d4_fwd, d4_form, d5_fwd, d3, np.abs(value_c - value_ref),
                np.abs(d4_fwd - d4_form), np.abs(d5_fwd - d3))

    value_c, value_ref, d4_fwd, d4_form, d5_fwd, d5_form, value_err, d4_err, d5_err = over_cells(
        t, cell, p.grid.array[1:], mu, y, v
    )

    return ExtendedPartialsReport(
        times=t.copy(),
        r=float(r),
        value_composite=value_c,
        value_reference=value_ref,
        d4_forward=d4_fwd,
        d4_formula=d4_form,
        d5_forward=d5_fwd,
        d5_formula=d5_form,
        max_value_error=float(np.max(value_err, initial=0.0)),
        max_d4_error=float(np.max(d4_err, initial=0.0)),
        max_d5_error=float(np.max(d5_err, initial=0.0)),
    )
