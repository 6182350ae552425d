"""Property test of the Newton system's located Hessian pass at extreme graininess."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

import tsvarlab as tv
from tsvarlab.variational import _interior_hessian

from helpers import dense_bands, dense_blocks, random_smooth_lagrangian_text

# Hypothesis caches what it reads from source files in its home directory;
# with database=None as well, a run writes nothing into the checkout
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "tsvarlab-hypothesis")

# from the least subnormal up: 1 / mu overflows below about 5.6e-309
_GAPS = [5e-324, 1e-320, 3e-310, 1e-308, 6e-308, 1e-300, 1e-150, 0.01, 0.75]


def _points(below, above):
    """Grid points around 0 with gaps ``below`` and ``above`` it, the smallest next to 0."""
    left = -np.cumsum(sorted(below))[::-1]
    return np.concatenate([left, [0.0], np.cumsum(sorted(above))])


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_GAPS), max_size=6), st.lists(st.sampled_from(_GAPS), min_size=2,
       max_size=8), st.sampled_from(_GAPS[:7]), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_hessian_bands_at_subnormal_graininess_equal_the_dense_route_or_name_the_cell(
        below, above, least, dim, seed):
    # a cell's blocks fail at that cell; if all are finite, interior point k+1's
    # diagonal block fails at cell k; else the bands are the dense route's bits
    rng = np.random.default_rng(seed)
    g = tv.explicit(_points([max(gap, least) for gap in below], [max(gap, least) for gap in above]))
    vals = rng.choice([-1.5, -0.0, 0.0, 5e-324, 1e-310, 0.5, 2.0], size=(len(g), dim))
    p = tv.make_problem(g, random_smooth_lagrangian_text(rng, dim), dim, vals[0], vals[-1])
    bands = dense_bands(p, vals)
    bad = ~np.isfinite(np.concatenate(dense_blocks(p, vals), axis=1)).all(axis=(1, 2))
    if not bad.any():
        bad = ~np.isfinite(bands[1]).all(axis=(1, 2))
    if not bad.any():
        for got, want in zip(_interior_hessian(p, vals), bands, strict=True):
            assert got.tobytes() == want.tobytes()
        return
    cell = int(np.argmax(bad))
    at = re.escape(f"cell {cell} at t={float(g.array[cell])!r}: non-finite value ")
    with pytest.raises(tv.EvalError, match="^" + at):
        _interior_hessian(p, vals)
