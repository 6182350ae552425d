"""encode_rows on blocks whose values repeat, against format(x, ".17g"), value by value.

A block in which at most half of the bit patterns are distinct encodes each
distinct pattern once; the tests record what reaches the kernel.
"""

import numpy as np
import pytest

from tsvarlab import _g17

SIGNED_NANS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                        0xFFF0000000000001], dtype=np.uint64).view(np.float64)
TIES = (4 * 10**15 + 2 * np.arange(8) + 1) / 4.0  # exactly halfway between 17-digit decimals
POOL = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072009e-308, 1e16, 1e17,
     99999999999999999.0, 1e-5, 0.1, 1.0, -1.0, 1.7976931348623157e308],
    SIGNED_NANS, TIES, -TIES,
    np.random.default_rng(23).standard_normal(40) * 10.0 ** np.arange(-20, 20),
])


def _expected(block: np.ndarray) -> bytes:
    return "".join(",".join(format(v, ".17g") for v in row) + "\n"
                   for row in block.tolist()).encode()


def _encoded(block: np.ndarray, monkeypatch) -> tuple[bytes, list[tuple[int, int]]]:
    """encode_rows(block) and, per kernel call it made, the number of values and of line ends.

    The whole block goes to the kernel with a line end per row, a block of repeats
    as its distinct patterns with none.
    """
    sizes = []
    kernel = _g17.encode

    def counted(x, seps):
        sizes.append((len(x), int(np.count_nonzero(seps == ord("\n")))))
        return kernel(x, seps)

    monkeypatch.setattr(_g17, "encode", counted)
    return _g17.encode_rows(block), sizes


def _block(shape, n_distinct, seed) -> np.ndarray:
    """A block of the given shape holding exactly n_distinct bit patterns of POOL."""
    rng = np.random.default_rng(seed)
    size = shape[0] * shape[1]
    picked = rng.permutation(np.unique(POOL.view(np.int64)))[:n_distinct]
    cells = np.concatenate([picked, rng.choice(picked, size - n_distinct)])
    return rng.permutation(cells).view(np.float64).reshape(shape)


@pytest.mark.parametrize("shape", [(40, 17), (300, 1), (1, 256)], ids=["block", "column", "row"])
def test_repeated_values_are_encoded_once(shape, monkeypatch):
    n_distinct = min(len(np.unique(POOL.view(np.int64))), shape[0] * shape[1] // 4)
    block = _block(shape, n_distinct, seed=shape[0])
    data, sizes = _encoded(block, monkeypatch)
    assert data == _expected(block)
    assert sizes == [(n_distinct, 0)]


@pytest.mark.parametrize("extra, sizes", [(0, [(128, 0)]), (1, [(256, 16)])], ids=["half", "half+1"])
def test_the_gate_is_half_of_the_block_distinct(extra, sizes, monkeypatch):
    # 256 values: 128 distinct patterns take the repeat path, 129 the full kernel
    pool = np.concatenate([POOL, np.arange(200.0) + 0.5])
    rng = np.random.default_rng(24 + extra)
    distinct = np.unique(pool.view(np.int64))[:128 + extra]
    cells = np.concatenate([distinct, rng.choice(distinct, 128 - extra)])
    block = rng.permutation(cells).view(np.float64).reshape(16, 16)
    data, got = _encoded(block, monkeypatch)
    assert data == _expected(block)
    assert got == sizes


def test_patterns_that_share_hash_buckets_are_counted_exactly(monkeypatch):
    # b and b + 1/_MIX (mod 2^64) land in one bucket: 256 distinct patterns in
    # 128 buckets pass the bucket count, and the exact count sends them to the kernel
    rng = np.random.default_rng(25)
    low = rng.integers(0, 2**52, 128, dtype=np.uint64) | np.uint64(0x3FF0000000000000)
    partner = (low + np.uint64(pow(_g17._MIX, -1, 2**64))).view(np.float64)
    block = np.concatenate([low.view(np.float64), partner]).reshape(16, 16)
    data, sizes = _encoded(block, monkeypatch)
    assert data == _expected(block)
    assert sizes == [(256, 16)]


@pytest.mark.parametrize("value", [0.0, -0.0, np.nan, -np.nan, np.inf, TIES[3], 5e-324, 1e17])
def test_a_block_of_one_repeated_value(value, monkeypatch):
    block = np.full((20, 17), value)
    data, sizes = _encoded(block, monkeypatch)
    assert data == _expected(block)
    assert sizes == [(1, 0)]


def test_signed_zeros_and_nan_payloads_stay_apart(monkeypatch):
    values = np.concatenate([[0.0, -0.0], SIGNED_NANS])
    block = np.tile(values, (50, 1))
    data, sizes = _encoded(block, monkeypatch)
    assert data == _expected(block)
    assert sizes == [(len(values), 0)]
    assert data.splitlines()[0] == b"0,-0,nan,nan,nan,nan"
