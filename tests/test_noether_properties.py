"""Property test of the exact eps-derivative of the transformed action."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

import tsvarlab as tv

from helpers import fd_action_eps_derivative, random_grid, random_smooth_lagrangian_text

# Hypothesis caches what it reads from source files in its home directory;
# with database=None as well, a run writes nothing into the checkout
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "tsvarlab-hypothesis")


def _family(rng, dim, time_transform, exact):
    """A generator that is no symmetry; with ``exact``, maps with eps^2 terms."""
    xi = [f"{a:.6f} + {b:.6f} * q{k + 1} + {c:.6f} * t"
          for k, (a, b, c) in enumerate(rng.uniform(-1, 1, size=(dim, 3)))]
    a, b, c = rng.uniform(-0.5, 0.5, size=3)
    tau = f"{a:.6f} + {b:.6f} * t + {c:.6f} * q1" if time_transform else "0"
    if not exact:
        return tv.make_generator(dim, tau=tau, xi=xi)
    d = rng.uniform(-1, 1, size=dim + 1)
    tbar = f"t + eps * ({tau}) + {d[0]:.6f} * eps^2" if time_transform else "t"
    qbar = [f"q{k + 1} + eps * ({x}) + {d[k + 1]:.6f} * eps^2 * q{k + 1}" for k, x in enumerate(xi)]
    return tv.make_generator(dim, tau=tau, xi=xi, tbar=tbar, qbar=qbar)


SEEDS = st.integers(0, 2**32 - 1)


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(st.integers(0, 4), st.integers(1, 2), st.booleans(), st.booleans(), SEEDS)
def test_eps_derivative_matches_central_differences(kind, dim, time_transform, exact, seed):
    # kind numbers the grid constructor; both modes, first-order and exact families
    rng = np.random.default_rng(seed)
    g = random_grid(rng, max_points=12, moderate=True, kind=kind)
    text = random_smooth_lagrangian_text(rng, dim)
    p = tv.make_problem(g, text, dim, np.zeros(dim), np.zeros(dim))
    t = g.array[:, None]
    a, b, c = rng.uniform(-1, 1, size=(3, dim))
    q = tv.GridFunction(g, a + b * t + c * np.cos(t))  # smooth: tbar stays increasing
    gen = _family(rng, dim, time_transform, exact)
    check = tv.check_invariance_time_transform if time_transform else tv.check_invariance_fixed_time
    rep = check(p, q, gen, [0.1])
    oracle = fd_action_eps_derivative(p, q.values, gen, time_transform)
    # relative to the sum of |mu L| over the cells; the oracle's own error is
    # about 1e-12 of it, a central difference with step 1e-5 is off by up to 4e-9
    mu = tv.graininess(g)
    v = np.diff(q.values, axis=0) / mu[:, None]
    cells = mu * p.lagrangian.value(g.array[:-1], q.values[1:], v)
    scale = max(1.0, float(np.sum(np.abs(cells))), abs(oracle))
    assert abs(rep.action_eps_derivative - oracle) <= 1e-10 * scale
