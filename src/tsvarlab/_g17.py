"""Array-wide ``%.17g``: the bytes of ``format(x, ".17g")`` for every float of an array.

Each finite nonzero x = m 2^e (``np.frexp``, 1/2 <= m < 1) is scaled to
N = |x| 10^(16 - E), E = floor(log10 |x|), so that its correctly rounded
17-digit integer is round(N).  10^s is a double-double, H + L =
10^s 2^-b (1 + d) with 1 <= H <= 2 and |d| <= 2^-106 + 2^-109, computed
from exact Python integers on first use of each power.  The product
m (H + L) is formed with Dekker's exact two-product; with the rounding of
m L (at most 2^-106 of the product) and of the sum of the low parts
(2^-104), the double-double hi + lo is N (1 + d') with |d'| < 2^-103, as
in Loitsch, "Printing floating-point numbers quickly and accurately with
integers" (PLDI 2010).  N < 2^57, so hi + lo is within 2^-46 of N, and the fraction
of N read off it within 2^-45.  A fraction within ``_GUARD`` = 2^-30 of 1/2
might round either way, or be an exact tie that Python rounds to even:
such values take the fallback, as do inf and nan.  A fraction near 0 or 1
needs no guard, since both sides of an integer round to it.  E is
corrected once from the truncated N (log10 may be one off next to a power
of ten), and a rounding carry to 10^17 moves E up afterwards, as ``%g``
picks its notation from the rounded exponent.

The digits are laid out by ``%g``'s rules: plain notation for -4 <= E < 17,
otherwise d.ddd e+XX with at least two exponent digits; trailing zeros of
the fraction and a bare point are dropped; ``-`` is written when the sign
bit is set, so -0.0 is ``-0``.  Each value owns a slot of 45 uint8, one row
of a (45, values) array per place a byte may take: the sign, the prefix of
0.000ddd, 17 digits with a place for the point after each but the last,
the exponent and the separator.  Unused places hold padding (0); rows that are padding
in every slot are dropped, and one ``bytes.translate`` deletes the rest.
The fallback, and the reference the tests compare against, is
``format(x, ".17g")`` itself.
"""

from __future__ import annotations

import functools
from itertools import repeat

import numpy as np

# Fewer values than this are formatted one by one.  The kernel costs about
# 150-200 us a call whatever its size, format() about 1 us a value; the two
# met between 100 and 200 values on a 2-vCPU x86-64 machine.
SMALL_TABLE = 200
# Values per kernel call when a table is written.  The working arrays take a
# few hundred bytes a value; on check-dilation-nonuniform 16384 gave the same
# pass time as 4096 and 3 MB more peak RSS.
CHUNK_VALUES = 4096

_GUARD = 2.0**-30
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting constant
_PAD = 0
_MIX = 6364136223846793005  # odd, so that multiplying by it permutes the int64 bit patterns


def fmt(x: float) -> str:
    """One value as %.17g: the fallback, and the reference of the array kernel."""
    return format(x, ".17g")


@functools.cache
def _pow10(s: int) -> tuple[float, float, int]:
    """(H, L, b) with H + L = 10^s 2^-b to 2^-106 and 1 <= H <= 2."""
    num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
    b = num.bit_length() - den.bit_length()
    if (num << max(0, -b)) < (den << max(0, b)):
        b -= 1  # now 2^b <= 10^s < 2^(b+1)
    k = 109 - b  # 10^s 2^k truncated is a 110-bit integer
    x = (num << k) // den if k >= 0 else num // (den << -k)
    hi = float(x)
    return hi * 2.0**-109, float(x - int(hi)) * 2.0**-109, b


def _split(a):
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _scaled(m, e, exp10):
    """floor(N) as int64 and N's fraction, N = m 2^e 10^(16 - exp10), 1/2 <= m < 1."""
    s = 16 - exp10
    low = int(s.min())  # a table of the powers present, each computed once per process
    present = np.bincount(s - low).tolist()
    table = np.array([_pow10(low + i) if n else (1.0, 0.0, 0) for i, n in enumerate(present)])
    h, l, b = np.take(table.T, s - low, axis=1)
    p = m * h  # Dekker: p + pe = m * h exactly
    (mh, ml), (hh, hl) = _split(m), _split(h)
    pe = ((mh * hh - p) + mh * hl + ml * hh) + ml * hl
    s1 = pe + m * l
    hi = p + s1
    lo = s1 - (hi - p)
    # 2^k from its exponent bits; k is about 52-57, so both products are exact
    scale = ((e + b.astype(np.int64) + 1023) << 52).view(np.float64)
    hi, lo = hi * scale, lo * scale
    whole = np.floor(hi)
    r = (hi - whole) + lo
    r_floor = np.floor(r)
    return whole.astype(np.int64) + r_floor.astype(np.int64), r - r_floor


_E_MIN, _E_MAX = -324, 308  # decimal exponents of the nonzero doubles
_DIGITS = np.arange(1, 18, dtype=np.uint8)[:, None]  # 1 + the index of each digit
_POINTS = np.arange(16)[:, None]  # the point may follow digit 0..15


@functools.cache
def _layouts() -> tuple[np.ndarray, np.ndarray]:
    """Per decimal exponent E (column E - _E_MIN): the bytes around the digits, and the point.

    The (10, K) uint8 rows are the prefix of 0.000ddd (0, point, three zeros)
    and the exponent suffix (e, sign, three digits), padded; the point follows
    digit E in plain notation E >= 0, digit 0 in exponent form, and no digit
    (-1) in 0.000ddd.
    """
    exp10 = np.arange(_E_MIN, _E_MAX + 1)
    plain = (exp10 >= -4) & (exp10 < 17)
    fraction, scientific = plain & (exp10 < 0), ~plain
    a = np.abs(exp10)
    affixes = np.array([
        fraction * 48, fraction * 46, *((fraction & (exp10 < -1 - k)) * 48 for k in range(3)),
        scientific * 101, scientific * np.where(exp10 < 0, 45, 43),
        (scientific & (a >= 100)) * (48 + a // 100), scientific * (48 + a // 10 % 10),
        scientific * (48 + a % 10),
    ], dtype=np.uint8)
    return affixes, np.where(plain, np.where(fraction, -1, exp10), 0)


def _below(whole, frac):
    """N < 10^16 by more than the guard: E is one too high.

    Within the guard below 10^16, N is 10^16 up to rounding, and both
    exponents round it to 10^16; from 10^17 up to 10^17 + 1, both round it
    to 10^17, which carries.  So neither case moves E, and E cannot swing
    back and forth where N is a power of ten.
    """
    return (whole < 10**16 - 1) | ((whole == 10**16 - 1) & (frac <= 1 - _GUARD))


def _digits(n):
    """The 17 ASCII digits of each n < 10^17 (leading zeros included), digit-major (17, c)."""
    high = (n // 10**8).astype(np.int32)
    parts = (high, (n - high * np.int64(10**8)).astype(np.int32))
    out = np.empty((17, len(n)), dtype=np.uint8)
    for part, rows in zip(parts, (range(8, -1, -1), range(16, 8, -1))):
        for row in rows:
            quotient = part // 10
            out[row] = part - 10 * quotient + 48
            part = quotient
    return out


def encode(x: np.ndarray, seps: np.ndarray) -> tuple[bytes, int]:
    """The bytes of format(x_i, ".17g") + chr(seps_i) for a 1-D float array x.

    Returns them with the number of values that took the fallback.
    """
    x = np.asarray(x, dtype=float)
    if not x.size:
        return b"", 0
    mag = np.abs(x)
    regular = np.isfinite(mag) & (mag != 0)
    safe = np.where(regular, mag, 1.0)
    m, e = np.frexp(safe)
    exp10 = np.floor(np.log10(safe)).astype(np.int64)
    whole, frac = _scaled(m, e, exp10)
    down = _below(whole, frac)
    off = np.flatnonzero(down | (whole > 10**17))  # log10 is one off near a power of ten
    if off.size:
        exp10[off] += np.where(down[off], -1, 1)
        whole[off], frac[off] = _scaled(m[off], e[off], exp10[off])
    fallback = ~np.isfinite(mag) | (np.abs(frac - 0.5) < _GUARD)
    fallback |= _below(whole, frac) | (whole > 10**17)
    ok = regular & ~fallback
    n = np.where(ok, np.minimum(whole + (frac > 0.5), 10**17), 0)
    carry = n == 10**17
    n[carry] = 10**16
    column = np.where(ok, exp10 + carry, 0) - _E_MIN

    affixes, points = _layouts()
    affixes, point = np.take(affixes, column, axis=1), points.take(column)
    digits = _digits(n)
    nsig = np.maximum((digits != 48) * _DIGITS, 1).max(axis=0)  # 0 is the digit "0"
    digits *= _DIGITS <= np.maximum(nsig, point + 1)  # trailing zeros of the fraction
    out = np.empty((45, len(x)), dtype=np.uint8)
    out[0] = np.signbit(x) * np.uint8(45)
    out[1:6] = affixes[:5]
    out[6:39:2] = digits
    out[7:38:2] = (_POINTS == np.where(nsig > point + 1, point, -1)) * np.uint8(46)
    out[39:44] = affixes[5:]
    out[44] = seps
    slow = np.flatnonzero(fallback)
    for i in slow:
        text = np.frombuffer(fmt(float(x[i])).encode(), dtype=np.uint8)
        out[:44, i] = _PAD
        out[: len(text), i] = text
    out = out[out.any(axis=1)]  # rows that are padding in every slot
    return out.T.tobytes().translate(None, bytes([_PAD])), len(slow)


def encode_rows(vals: np.ndarray) -> bytes:
    """CSV lines of a 2-D block of floats: values joined by ',', each row ended by LF.

    The text of a float is a function of its bits.  So where at most half of the
    block's bit patterns are distinct, each distinct one is encoded once and the
    cells take their texts from it; -0.0 and every nan payload are patterns apart.
    """
    if vals.size < SMALL_TABLE:
        lines = [",".join(map(format, row, repeat(".17g"))) + "\n" for row in vals.tolist()]
        return "".join(lines).encode()
    bits = np.ascontiguousarray(vals, dtype=np.float64).view(np.int64).ravel()
    # Each distinct pattern fills one of 8192 buckets (the top 13 bits of bits * _MIX),
    # so a block that fills more than half its size in buckets is more than half
    # distinct.  Such a block goes to the kernel without a sort, which costs time and
    # maps numpy's sort code into memory.
    filled = np.count_nonzero(np.bincount((bits * _MIX >> 51) & 8191))
    if 2 * filled <= bits.size:
        distinct, inverse = np.unique(bits, return_inverse=True)
        if 2 * len(distinct) <= bits.size:
            texts = encode(distinct.view(np.float64), np.full(len(distinct), ord(","), np.uint8))[0]
            cells = np.array(texts.split(b",")[:-1], dtype=object)[inverse.ravel()]
            rows, cols = vals.shape
            return (b",".join([b"%s"] * cols) + b"\n") * rows % tuple(cells.tolist())
    seps = np.full(vals.shape, ord(","), dtype=np.uint8)
    seps[:, -1] = ord("\n")
    return encode(vals.ravel(), seps.ravel())[0]
