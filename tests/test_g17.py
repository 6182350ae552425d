"""The array %.17g kernel against format(x, ".17g"), value by value."""

import math
from fractions import Fraction
from itertools import repeat

import numpy as np

from tsvarlab._g17 import SMALL_TABLE, encode, encode_table, fmt


def _exact_ties(x: np.ndarray) -> int:
    """How many values sit exactly halfway between two 17-digit decimals, in exact arithmetic.

    x = a / 2^j with a odd is a tie when 2 x 10^(16 - E) is an odd integer,
    which needs j = 17 - E; only values within one of that (the float E may
    be one off) are checked with fractions.
    """
    mag = np.abs(x[np.isfinite(x) & (x != 0)])
    mantissa, exp2 = np.frexp(mag)
    bits = (mantissa * 2.0**53).astype(np.int64)
    j = 53 - exp2 - np.log2((bits & -bits).astype(float)).astype(np.int64)
    ties = 0
    for value in mag[np.abs(j - 17 + np.floor(np.log10(mag))) <= 1].tolist():
        v = Fraction(value)
        e = math.floor(math.log10(value))
        e += (v >= Fraction(10) ** (e + 1)) - (v < Fraction(10) ** e)
        n2 = 2 * v * Fraction(10) ** (16 - e)
        ties += n2.denominator == 1 and n2.numerator % 2 == 1
    return ties


def _check(x) -> int:
    """Encodes x in blocks through the kernel, compares every value, returns the fallback count."""
    x = np.asarray(x, dtype=float)
    fallbacks = 0
    for start in range(0, len(x), 1 << 16):
        block = x[start : start + (1 << 16)]
        seps = np.full(len(block), ord("\n"), dtype=np.uint8)
        data, slow = encode(block, seps)
        expected = ("\n".join(map(format, block.tolist(), repeat(".17g"))) + "\n").encode()
        if data != expected:
            got = data.decode().splitlines()
            bad = [(v, g) for v, g in zip(block.tolist(), got) if g != fmt(v)]
            raise AssertionError(f"{len(bad)} values differ, first {bad[:3]}")
        fallbacks += slow
    return fallbacks


def _expected_fallbacks(x) -> int:
    x = np.asarray(x, dtype=float)
    return int(np.count_nonzero(~np.isfinite(x))) + _exact_ties(x)


def test_random_bit_patterns():
    rng = np.random.default_rng(17)
    x = rng.integers(0, 2**64, size=10**6, dtype=np.uint64).view(np.float64)
    assert np.signbit(x).any() and not np.signbit(x).all()
    assert _check(x) == _expected_fallbacks(x) > 0


def test_powers_of_two_and_of_ten_with_neighbours():
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    assert _check(twos) == _expected_fallbacks(twos) == 1  # 2^-25 = 5^24 / 10^24 / 2
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = [tens]
    for direction in (np.inf, -np.inf):
        step = tens
        for _ in range(2):
            step = np.nextafter(step, direction)
            near.append(step)
    near = np.concatenate(near)
    assert _check(near) == _expected_fallbacks(near)
    assert _check(-near) == _expected_fallbacks(near)


def test_subnormals_zeros_and_non_finite_values():
    rng = np.random.default_rng(18)
    sub = rng.integers(1, 2**52, size=20000, dtype=np.uint64).view(np.float64)
    assert _check(np.concatenate([sub, -sub, [5e-324, -5e-324]])) == 0
    assert _check([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 1.0]) == 4


def test_exact_decimal_ties_take_the_fallback():
    m = 4 * 10**15 + 2 * np.arange(4000) + 1  # odd m: m / 4 * 10 ends in .5
    ties = m / 4.0
    assert _exact_ties(ties) == len(ties)
    assert _check(np.concatenate([ties, -ties])) == 2 * len(ties)


def test_integers_and_layout_boundaries():
    rng = np.random.default_rng(19)
    ints = np.concatenate([np.arange(-20000, 20000), rng.integers(-(2**62), 2**62, 20000)])
    edges = [1e16, 1e17, 99999999999999999.0, 1e-4, 1e-5, 0.00012345, 1.2345e-5, 123456.789,
             0.1, 0.5, 2.2250738585072014e-308, 1.7976931348623157e308]
    values = np.concatenate([ints.astype(float), edges, -np.array(edges)])
    assert _check(values) == _expected_fallbacks(values)


def test_rows_above_the_size_constant_equal_rows_below_it():
    rng = np.random.default_rng(20)
    table = rng.standard_normal((SMALL_TABLE, 3)) * 10.0 ** rng.integers(-8, 20, (SMALL_TABLE, 3))
    table[0] = [0.0, math.inf, -math.nan]
    expected = "".join(",".join(map(fmt, row)) + "\n" for row in table.tolist()).encode()
    assert b"".join(encode_table(table)) == expected  # through the kernel
    assert b"".join(encode_table(table[:2])) == b"".join(expected.splitlines(keepends=True)[:2])
