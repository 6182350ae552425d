"""Calculus of variations on time-scale grids.

Solve Euler-Lagrange boundary-value problems on arbitrary discrete or
nonuniform grids, evaluate conserved quantities generated by variational
symmetries, and measure invariance and conservation defects exactly where
the grid makes them exact.
"""

from .calculus import (
    GridFunction,
    PushforwardResult,
    compose_sigma,
    delta_derivative,
    delta_integral,
    pushforward,
)
from .expr import EvalError, ParseError, evaluate, parse, render
from .noether import (
    ConservationReport,
    ExtendedPartialsReport,
    InvarianceReport,
    SymmetryGenerator,
    check_invariance_fixed_time,
    check_invariance_time_transform,
    extended_lagrangian_partials,
    invariance_residual_pointwise,
    make_generator,
    noether_quantity,
    validate_family,
)
from .timescale import (
    TimeScaleGrid,
    classify,
    explicit,
    graininess,
    integers,
    kappa,
    make_timescale,
    mu,
    power2,
    rho,
    sampled,
    sigma,
    uniform,
)
from .variational import (
    Lagrangian,
    NonConvergence,
    Problem,
    SingularJacobian,
    SolveResult,
    SolverError,
    action,
    as_trajectory,
    el_residual,
    linear_guess,
    make_problem,
    solve_el,
    stationarity_gradient,
)

__version__ = "0.1.0"

__all__ = [
    "ConservationReport",
    "EvalError",
    "ExtendedPartialsReport",
    "GridFunction",
    "InvarianceReport",
    "Lagrangian",
    "NonConvergence",
    "ParseError",
    "Problem",
    "PushforwardResult",
    "SingularJacobian",
    "SolveResult",
    "SolverError",
    "SymmetryGenerator",
    "TimeScaleGrid",
    "action",
    "as_trajectory",
    "check_invariance_fixed_time",
    "check_invariance_time_transform",
    "classify",
    "compose_sigma",
    "delta_derivative",
    "delta_integral",
    "el_residual",
    "evaluate",
    "explicit",
    "extended_lagrangian_partials",
    "graininess",
    "integers",
    "invariance_residual_pointwise",
    "kappa",
    "linear_guess",
    "make_generator",
    "make_problem",
    "make_timescale",
    "mu",
    "noether_quantity",
    "parse",
    "power2",
    "pushforward",
    "render",
    "rho",
    "sampled",
    "sigma",
    "solve_el",
    "stationarity_gradient",
    "uniform",
    "validate_family",
]
