"""Forward-mode dual numbers, nestable for exact second derivatives.

A Dual holds a value part and a tangent part.  Components may be floats,
numpy arrays over cells (tangent directions before the cell axis, so one
pass covers every cell and direction), or further Duals (nesting yields
exact mixed second derivatives).  Domain guards inspect the innermost value
via :func:`primal` and report the first offending cell.
"""

from __future__ import annotations

import numpy as np


class DomainError(ValueError):
    """Evaluation left the domain of a function; ``cell`` is the first offending cell."""

    def __init__(self, message: str, cell: int = 0):
        super().__init__(message)
        self.cell = cell


def primal(x):
    """Innermost value of a possibly nested dual."""
    while isinstance(x, Dual):
        x = x.a
    return x


def _guard(x, bad, message: str) -> None:
    """Raises DomainError at the first cell where bad(primal(x)); {} takes its value."""
    v = primal(x)
    mask = bad(v)
    if np.any(mask):
        cell = int(np.argmax(mask))
        raise DomainError(message.format(float(np.ravel(v)[cell])), cell)


class Dual:
    __slots__ = ("a", "b")
    # numpy defers to the reflected operators below, so ndarray * Dual is a
    # Dual and never an object array
    __array_ufunc__ = None

    def __init__(self, a, b=0.0):
        self.a = a
        self.b = b

    def __repr__(self):
        return f"Dual({self.a!r}, {self.b!r})"

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.a + other.a, self.b + other.b)
        return Dual(self.a + other, self.b)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.a - other.a, self.b - other.b)
        return Dual(self.a - other, self.b)

    def __rsub__(self, other):
        return Dual(other - self.a, -self.b)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.a * other.a, self.a * other.b + self.b * other.a)
        return Dual(self.a * other, self.b * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            return Dual(
                self.a / other.a, (self.b * other.a - self.a * other.b) / (other.a * other.a)
            )
        return Dual(self.a / other, self.b / other)

    def __rtruediv__(self, other):
        return Dual(other / self.a, -other * self.b / (self.a * self.a))

    def __neg__(self):
        return Dual(-self.a, -self.b)


def div(x, y):
    _guard(y, lambda v: v == 0.0, "division by zero")
    return x / y


def sin(x):
    if isinstance(x, Dual):
        return Dual(sin(x.a), cos(x.a) * x.b)
    return np.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(cos(x.a), -sin(x.a) * x.b)
    return np.cos(x)


def exp(x):
    if isinstance(x, Dual):
        e = exp(x.a)
        return Dual(e, e * x.b)
    e = np.exp(x)
    _guard(x, lambda v: np.isinf(e) & np.isfinite(v), "overflow")
    return e


def ln(x):
    if isinstance(x, Dual):
        return Dual(ln(x.a), x.b / x.a)
    _guard(x, lambda v: v <= 0.0, "ln of non-positive value {!r}")
    return np.log(x)


def sqrt(x):
    if isinstance(x, Dual):
        root = sqrt(x.a)
        _guard(x, lambda v: v == 0.0, "sqrt derivative undefined at 0")
        return Dual(root, x.b / (2.0 * root))
    _guard(x, lambda v: v < 0.0, "sqrt of negative value {!r}")
    return np.sqrt(x)


def absval(x):
    if isinstance(x, Dual):
        return Dual(absval(x.a), x.b * np.sign(primal(x.a)))
    return np.abs(x)


def _tangent_free(x) -> bool:
    """True when x carries no derivative information at any nesting level."""
    return not isinstance(x, Dual) or (_is_zero(x.b) and _tangent_free(x.a))


def _is_zero(x) -> bool:
    return _tangent_free(x) and bool(np.all(primal(x) == 0.0))


def power(base, expo):
    """x^p with an integer fast path.

    A tangent-free exponent that is one integer on every cell is evaluated
    by repeated multiplication, so t^2 stays defined for negative t.  Any
    other exponent (t over cells at several integer times, say) takes
    exp(p ln x) and requires a strictly positive base.
    """
    pe = np.ravel(primal(expo))
    if _tangent_free(expo) and pe.size and np.all(pe == pe[0]) and float(pe[0]).is_integer():
        k = int(pe[0])
        if k < 0:
            _guard(base, lambda v: v == 0.0, "0 raised to a negative power")
            return div(1.0, _ipow(base, -k))
        return _ipow(base, k)
    message = "non-integer or cell-varying exponent requires a positive base (base={!r})"
    _guard(base, lambda v: v <= 0.0, message)
    return exp(expo * ln(base))


def _ipow(x, k: int):
    result = 1.0
    acc = x
    while k:
        if k & 1:
            result = result * acc
        acc = acc * acc
        k >>= 1
    return result
