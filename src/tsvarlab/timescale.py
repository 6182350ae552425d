"""Finite time-scale grids and their structural operators.

A grid is a strictly increasing, finite sequence of real time points.  The
forward/backward jump operators, graininess and point classification all
reduce to neighbor lookups; the endpoint conventions are sigma(last) = last
and rho(first) = first.  Continuum windows are represented as densely
sampled grids carrying a ``sampled-continuum`` intent tag; every computation
downstream works on the literal points.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

EXACT_DISCRETE = "exact-discrete"
SAMPLED_CONTINUUM = "sampled-continuum"
MAX_POINTS = 10**7  # largest grid the constructors build


class Frozen:
    """Base of the formula nodes and core objects: assigning or deleting any attribute
    raises AttributeError, and objects of one class are equal when their ``_key`` is.

    A constructor sets its fields with ``object.__setattr__``; a ``cached_property``
    writes the instance's ``__dict__`` and still caches.  Where ``_key`` is None an
    object is equal only to itself.  Python drops the inherited ``__hash__`` of a
    class that defines ``__eq__``, so a class that overrides one defines both.  A
    copy or an unpickled object gets its fields back, every array read-only, and
    none of the cached values.
    """

    _key = None

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        key = self._key
        if key is None or other.__class__ is not self.__class__:
            return True if self is other else NotImplemented
        return key == other._key

    def __hash__(self) -> int:
        key = self._key
        return object.__hash__(self) if key is None else hash(key)

    def __getstate__(self) -> dict:
        """The fields, without the values that a ``cached_property`` keeps."""
        cls = type(self)
        return {name: value for name, value in self.__dict__.items()
                if not isinstance(getattr(cls, name, None), cached_property)}

    def __setstate__(self, state: dict) -> None:
        for value in state.values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        self.__dict__.update(state)


class TimeScaleGrid(Frozen):
    """Immutable finite grid of time points with an intent tag, equal by value.

    ``points`` must be strictly increasing, and the last minus the first a finite
    double; ``array`` holds them as read-only float64, the grid's one stored copy.
    Public constructors guarantee at least two points; :func:`kappa` may produce a
    single-point truncation.
    """

    def __init__(self, points, intent: str = EXACT_DISCRETE):
        arr = np.array(points, dtype=float)
        if len(arr) == 0:
            raise ValueError("time scale grid needs at least one point")
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
        a, b = float(arr[0]), float(arr[-1])  # Python floats: b - a overflows to inf unwarned
        if not np.isfinite(b - a):  # else no difference of two points overflows
            raise ValueError(f"time scale grid points from {a!r} to {b!r} span more than a double")
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)
        object.__setattr__(self, "intent", intent)

    def __eq__(self, other):
        return (other.__class__ is self.__class__ and self.intent == other.intent
                and np.array_equal(self.array, other.array))

    def __hash__(self) -> int:
        return hash((self.intent, (self.array + 0.0).tobytes()))  # -0.0 + 0.0 is 0.0

    @cached_property
    def points(self) -> tuple[float, ...]:
        """The points as a tuple of Python floats, built from ``array`` on first read."""
        return tuple(self.array.tolist())

    def __len__(self) -> int:
        return len(self.array)

    @property
    def a(self) -> float:
        return float(self.array[0])

    @property
    def b(self) -> float:
        return float(self.array[-1])

    def index_of(self, t: float) -> int:
        """Index of a stored grid point; exact-equality lookup by design."""
        i = int(np.searchsorted(self.array, float(t)))
        if i < len(self) and self.array[i] == float(t):
            return i
        raise ValueError(f"t={t!r} is not a point of this time scale grid")


class PointClassification(NamedTuple):
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
    # base is exact as a float and a - base + k < 2**25: one rounding gives float(a + k)
    base = a >> 24 << 24
    return TimeScaleGrid(float(base) + np.arange(a - base, b - base + 1, dtype=float))


def uniform(a: float, b: float, h: float) -> TimeScaleGrid:
    """Equally spaced points a, a+h, ..., b; b > a, and (b - a) must be a multiple of h."""
    if not h > 0:
        raise ValueError("uniform step h must be positive")
    span = float(b) - float(a)
    if span <= 0:
        raise ValueError("uniform(a, b, h) needs b > a")
    _check_size("uniform(a, b, h)", span / h + 1)
    n = round(span / h)
    if n < 1 or abs(n * h - span) > 1e-9 * max(span, h):
        raise ValueError(f"uniform(a, b, h): (b - a) = {span!r} is not a multiple of h = {h!r}")
    pts = float(a) + float(h) * np.arange(n + 1.0)
    pts[-1] = float(b)
    return TimeScaleGrid(pts)


def power2(n0: int, n1: int) -> TimeScaleGrid:
    """Points 2**n for n = n0..n1."""
    if not n1 < 1024:
        raise ValueError(f"power2(n0, n1) needs n1 < 1024 (2**1024 overflows a float), got {n1!r}")
    _check_size("power2(n0, n1)", float(n1) - float(n0) + 1)
    n0, n1 = int(n0), int(n1)
    if n1 - n0 < 1:
        raise ValueError("power2(n0, n1) needs n1 >= n0 + 1 (at least 2 points)")
    return TimeScaleGrid(np.ldexp(1.0, np.arange(n0, n1 + 1)))


def explicit(points) -> TimeScaleGrid:
    """Grid from an explicit strictly increasing list of times."""
    _check_size("explicit(points)", len(points))
    pts = np.array(points, dtype=float)
    if len(pts) < 2:
        raise ValueError("explicit grid needs at least 2 points")
    return TimeScaleGrid(pts)


def sampled(a: float, b: float, h: float) -> TimeScaleGrid:
    """Sampled continuum window: steps of h from a, clipped so b is included.

    The final step is shortened when h does not divide b - a.  A step within
    1e-9 * h of b (absolute), or past it, is dropped; any shorter last cell is
    kept: sampled(0, 1 + 2e-10, 0.1) has 12 points and a last cell of 2e-10.
    """
    if not h > 0:
        raise ValueError("sampled step h must be positive")
    a, b, h = float(a), float(b), float(h)
    if b - a <= 0:
        raise ValueError("sampled(a, b, h) needs b > a")
    _check_size("sampled(a, b, h)", (b - a) / h + 1)
    # a + i*h rises with i; keep those below b - 1e-9 h (i runs 2 past (b - a)/h, for rounding)
    steps = a + h * np.arange(1.0, int((b - a) / h) + 3)
    inner = steps[: np.searchsorted(steps, b - 1e-9 * h)]
    return TimeScaleGrid(np.concatenate(([a], inner, [b])), intent=SAMPLED_CONTINUUM)


# kind -> (its constructor, the constructor's parameters)
KINDS = {
    "integers": (integers, ("a", "b")),
    "uniform": (uniform, ("a", "b", "h")),
    "power2": (power2, ("n0", "n1")),
    "explicit": (explicit, ("points",)),
    "sampled": (sampled, ("a", "b", "h")),
}


def make_timescale(kind: str, **params) -> TimeScaleGrid:
    """Dispatching constructor: kind is one of integers | uniform | power2 | explicit | sampled."""
    try:
        ctor = KINDS[kind][0]
    except KeyError:
        raise ValueError(
            f"unknown time scale kind {kind!r}; expected one of {sorted(KINDS)}"
        ) from None
    return ctor(**params)


def sigma(ts: TimeScaleGrid, t: float) -> float:
    """Forward jump: next stored point, or t itself at the maximum."""
    return float(ts.array[min(ts.index_of(t) + 1, len(ts) - 1)])


def rho(ts: TimeScaleGrid, t: float) -> float:
    """Backward jump: previous stored point, or t itself at the minimum."""
    return float(ts.array[max(ts.index_of(t) - 1, 0)])


def mu(ts: TimeScaleGrid, t: float) -> float:
    """Graininess sigma(t) - t; zero at the final point."""
    i = ts.index_of(t)
    return float(ts.array[min(i + 1, len(ts) - 1)] - ts.array[i])


def graininess(ts: TimeScaleGrid) -> np.ndarray:
    """Graininess at every non-final point, as an array of length N - 1."""
    return np.diff(ts.array)


def kappa(ts: TimeScaleGrid) -> TimeScaleGrid:
    """The grid without its final point (the maximum is left-scattered)."""
    if len(ts) < 2:
        raise ValueError("kappa truncation would leave an empty grid")
    return TimeScaleGrid(ts.array[:-1], intent=ts.intent)


def classify(ts: TimeScaleGrid, t: float) -> PointClassification:
    """Scattered/dense flags for a stored point, honoring endpoint conventions."""
    i = ts.index_of(t)
    right_scattered = i + 1 < len(ts)
    left_scattered = i > 0
    return PointClassification(
        t=float(ts.array[i]),
        right_scattered=right_scattered,
        right_dense=not right_scattered,
        left_scattered=left_scattered,
        left_dense=not left_scattered,
        isolated=right_scattered and left_scattered,
        dense=not (right_scattered or left_scattered),
        intent=ts.intent,
    )
