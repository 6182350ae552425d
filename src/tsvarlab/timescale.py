"""Finite time-scale grids and their structural operators.

A grid is a strictly increasing, finite sequence of real time points.  The
forward/backward jump operators, graininess and point classification all
reduce to neighbor lookups; the endpoint conventions are sigma(last) = last
and rho(first) = first.  Continuum windows are represented as densely
sampled grids carrying a ``sampled-continuum`` intent tag; every computation
downstream works on the literal points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

EXACT_DISCRETE = "exact-discrete"
SAMPLED_CONTINUUM = "sampled-continuum"
MAX_POINTS = 10**7  # largest grid the constructors build


@dataclass(frozen=True)
class TimeScaleGrid:
    """Immutable finite grid of time points with an intent tag.

    ``points`` must be strictly increasing.  Public constructors
    (:func:`make_timescale` and friends) guarantee at least two points;
    :func:`kappa` may produce a single-point truncation.
    """

    points: tuple[float, ...]
    intent: str = EXACT_DISCRETE
    array: np.ndarray = field(init=False, repr=False, compare=False)  # read-only copy of points

    def __post_init__(self):
        if len(self.points) == 0:
            raise ValueError("time scale grid needs at least one point")
        arr = np.array(self.points, dtype=float)
        if arr.ndim != 1:
            raise ValueError("time scale grid points must be a flat sequence")
        if not np.isfinite(arr).all():
            raise ValueError("time scale grid points must be finite")
        rising = arr[1:] > arr[:-1]
        if not rising.all():
            i = int(np.argmin(rising))
            raise ValueError(
                f"time scale grid points must be strictly increasing "
                f"(got {float(arr[i])!r} followed by {float(arr[i + 1])!r})"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "points", tuple(arr.tolist()))
        object.__setattr__(self, "array", arr)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def a(self) -> float:
        return self.points[0]

    @property
    def b(self) -> float:
        return self.points[-1]

    @cached_property
    def _index(self) -> dict[float, int]:
        return {t: i for i, t in enumerate(self.points)}

    def index_of(self, t: float) -> int:
        """Index of a stored grid point; exact-equality lookup by design."""
        try:
            return self._index[float(t)]
        except KeyError:
            raise ValueError(f"t={t!r} is not a point of this time scale grid") from None


@dataclass(frozen=True)
class PointClassification:
    t: float
    right_scattered: bool
    right_dense: bool
    left_scattered: bool
    left_dense: bool
    isolated: bool
    dense: bool
    intent: str


def _check_size(what: str, count: float) -> None:
    """Rejects a grid of ``count`` points (inf or nan included) before it is built."""
    if not count <= MAX_POINTS:
        raise ValueError(f"{what} would have {count:.10g} points; the limit is {MAX_POINTS}")


def integers(a: int, b: int) -> TimeScaleGrid:
    """All integers in [a, b]."""
    _check_size("integers(a, b)", float(b) - float(a) + 1)
    a, b = int(a), int(b)
    if b - a < 1:
        raise ValueError("integers(a, b) needs b >= a + 1 (at least 2 points)")
    return TimeScaleGrid(tuple(float(k) for k in range(a, b + 1)))


def uniform(a: float, b: float, h: float) -> TimeScaleGrid:
    """Equally spaced points a, a+h, ..., b; (b - a) must be a multiple of h."""
    if not h > 0:
        raise ValueError("uniform step h must be positive")
    span = float(b) - float(a)
    _check_size("uniform(a, b, h)", abs(span) / h + 1)
    n = round(span / h)
    if n < 1 or abs(n * h - span) > 1e-9 * max(abs(span), h):
        raise ValueError(f"uniform(a, b, h): (b - a) = {span!r} is not a multiple of h = {h!r}")
    pts = [float(a) + i * float(h) for i in range(n)]
    pts.append(float(b))
    return TimeScaleGrid(tuple(pts))


def power2(n0: int, n1: int) -> TimeScaleGrid:
    """Points 2**n for n = n0..n1."""
    if not n1 < 1024:
        raise ValueError(f"power2(n0, n1) needs n1 < 1024 (2**1024 overflows a float), got {n1!r}")
    _check_size("power2(n0, n1)", float(n1) - float(n0) + 1)
    n0, n1 = int(n0), int(n1)
    if n1 - n0 < 1:
        raise ValueError("power2(n0, n1) needs n1 >= n0 + 1 (at least 2 points)")
    return TimeScaleGrid(tuple(2.0 ** n for n in range(n0, n1 + 1)))


def explicit(points) -> TimeScaleGrid:
    """Grid from an explicit strictly increasing list of times."""
    pts = tuple(float(t) for t in points)
    if len(pts) < 2:
        raise ValueError("explicit grid needs at least 2 points")
    return TimeScaleGrid(pts)


def sampled(a: float, b: float, h: float) -> TimeScaleGrid:
    """Sampled continuum window: steps of h from a, clipped so b is included.

    The final step is shortened when h does not divide b - a; a near-integral
    step count never produces a micro-cell at the end.
    """
    if not h > 0:
        raise ValueError("sampled step h must be positive")
    a, b, h = float(a), float(b), float(h)
    if b - a <= 0:
        raise ValueError("sampled(a, b, h) needs b > a")
    _check_size("sampled(a, b, h)", (b - a) / h + 1)
    pts = [a]
    i = 1
    while True:
        t = a + i * h
        if t >= b - 1e-9 * h:
            break
        pts.append(t)
        i += 1
    pts.append(b)
    return TimeScaleGrid(tuple(pts), intent=SAMPLED_CONTINUUM)


_CONSTRUCTORS = {
    "integers": integers,
    "uniform": uniform,
    "power2": power2,
    "explicit": explicit,
    "sampled": sampled,
}


def make_timescale(kind: str, **params) -> TimeScaleGrid:
    """Dispatching constructor: kind is one of integers | uniform | power2 | explicit | sampled."""
    try:
        ctor = _CONSTRUCTORS[kind]
    except KeyError:
        raise ValueError(
            f"unknown time scale kind {kind!r}; expected one of {sorted(_CONSTRUCTORS)}"
        ) from None
    return ctor(**params)


def sigma(ts: TimeScaleGrid, t: float) -> float:
    """Forward jump: next stored point, or t itself at the maximum."""
    i = ts.index_of(t)
    return ts.points[i + 1] if i + 1 < len(ts.points) else ts.points[i]


def rho(ts: TimeScaleGrid, t: float) -> float:
    """Backward jump: previous stored point, or t itself at the minimum."""
    i = ts.index_of(t)
    return ts.points[i - 1] if i > 0 else ts.points[i]


def mu(ts: TimeScaleGrid, t: float) -> float:
    """Graininess sigma(t) - t; zero at the final point."""
    i = ts.index_of(t)
    return ts.points[i + 1] - ts.points[i] if i + 1 < len(ts.points) else 0.0


def graininess(ts: TimeScaleGrid) -> np.ndarray:
    """Graininess at every non-final point, as an array of length N - 1."""
    return np.diff(ts.array)


def kappa(ts: TimeScaleGrid) -> TimeScaleGrid:
    """The grid without its final point (the maximum is left-scattered)."""
    if len(ts.points) < 2:
        raise ValueError("kappa truncation would leave an empty grid")
    return TimeScaleGrid(ts.points[:-1], intent=ts.intent)


def classify(ts: TimeScaleGrid, t: float) -> PointClassification:
    """Scattered/dense flags for a stored point, honoring endpoint conventions."""
    i = ts.index_of(t)
    right_scattered = i + 1 < len(ts.points)
    left_scattered = i > 0
    right_dense = not right_scattered
    left_dense = not left_scattered
    return PointClassification(
        t=ts.points[i],
        right_scattered=right_scattered,
        right_dense=right_dense,
        left_scattered=left_scattered,
        left_dense=left_dense,
        isolated=right_scattered and left_scattered,
        dense=right_dense and left_dense,
        intent=ts.intent,
    )
