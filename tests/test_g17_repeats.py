"""encode_table on tables whose values repeat, against format(x, ".17g"), value by
value.

A block in which at most half of the bit patterns are distinct encodes each
distinct pattern once, and consecutive such blocks share one kernel call; the
tests record what reaches the kernel.
"""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from tsvarlab import _g17

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "tsvarlab-hypothesis")

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


def _counted(monkeypatch) -> list[tuple[int, int]]:
    """Per kernel call from now on, the number of values and of line ends.

    A mostly distinct block goes to the kernel whole with a line end per row, a
    group of blocks of repeats as its distinct patterns with none.
    """
    sizes = []
    kernel = _g17.encode

    def counted(x, seps):
        sizes.append((len(x), int(np.count_nonzero(seps == ord("\n")))))
        return kernel(x, seps)

    monkeypatch.setattr(_g17, "encode", counted)
    return sizes


def _encoded(block: np.ndarray, monkeypatch) -> tuple[bytes, list[tuple[int, int]]]:
    """encode_table(block) joined, and the sizes of the kernel calls it made."""
    sizes = _counted(monkeypatch)
    return b"".join(_g17.encode_table(block)), sizes


def _fill(shape, patterns, rng) -> np.ndarray:
    """A block of the given shape holding exactly the given int64 bit patterns, shuffled."""
    cells = np.concatenate([patterns, rng.choice(patterns, shape[0] * shape[1] - len(patterns))])
    return rng.permutation(cells).view(np.float64).reshape(shape)


def _block(shape, n_distinct, seed) -> np.ndarray:
    """A block of the given shape holding exactly n_distinct bit patterns of POOL."""
    rng = np.random.default_rng(seed)
    return _fill(shape, rng.permutation(np.unique(POOL.view(np.int64)))[:n_distinct], rng)


@pytest.mark.parametrize("shape", [(40, 17), (500, 1), (1, 512)], ids=["block", "column", "row"])
def test_repeated_values_are_encoded_once(shape, monkeypatch):
    n_distinct = min(len(np.unique(POOL.view(np.int64))), shape[0] * shape[1] // 4)
    block = _block(shape, n_distinct, seed=shape[0])
    data, sizes = _encoded(block, monkeypatch)
    assert data == _expected(block)
    assert sizes == [(n_distinct, 0)]


@pytest.mark.parametrize("extra, sizes", [(0, [(256, 0)]), (1, [(512, 32)])], ids=["half", "half+1"])
def test_the_gate_is_half_of_the_block_distinct(extra, sizes, monkeypatch):
    # 512 values: 256 distinct patterns take the repeat path, 257 the full kernel
    pool = np.concatenate([POOL, np.arange(200.0) + 0.5])
    rng = np.random.default_rng(24 + extra)
    distinct = np.unique(pool.view(np.int64))[:256 + extra]
    cells = np.concatenate([distinct, rng.choice(distinct, 256 - extra)])
    block = rng.permutation(cells).view(np.float64).reshape(32, 16)
    data, got = _encoded(block, monkeypatch)
    assert data == _expected(block)
    assert got == sizes


def test_patterns_that_share_hash_buckets_are_counted_exactly(monkeypatch):
    # b and b + 1/_MIX (mod 2^64) land in one bucket: 512 distinct patterns in at
    # most 256 buckets pass the bucket count, and the exact count sends them to the kernel
    rng = np.random.default_rng(25)
    low = rng.integers(0, 2**52, 256, dtype=np.uint64) | np.uint64(0x3FF0000000000000)
    partner = (low + np.uint64(pow(_g17._MIX, -1, 2**64))).view(np.float64)
    block = np.concatenate([low.view(np.float64), partner]).reshape(32, 16)
    data, sizes = _encoded(block, monkeypatch)
    assert data == _expected(block)
    assert sizes == [(512, 32)]


@pytest.mark.parametrize("value", [0.0, -0.0, np.nan, -np.nan, np.inf, TIES[3], 5e-324, 1e17])
def test_a_block_of_one_repeated_value(value, monkeypatch):
    block = np.full((30, 17), value)
    data, sizes = _encoded(block, monkeypatch)
    assert data == _expected(block)
    assert sizes == [(1, 0)]


def test_signed_zeros_and_nan_payloads_stay_apart(monkeypatch):
    values = np.concatenate([[0.0, -0.0], SIGNED_NANS])
    block = np.tile(values, (70, 1))
    data, sizes = _encoded(block, monkeypatch)
    assert data == _expected(block)
    assert sizes == [(len(values), 0)]
    assert data.splitlines()[0] == b"0,-0,nan,nan,nan,nan"


# ---------------------------------------------------------------------------
# Tables of several blocks

ROWS = 4096 // 17  # the rows of a block of a 17-column table, as encode_table cuts it
PATTERNS = np.unique(np.concatenate([
    POOL, np.random.default_rng(26).standard_normal(6000) * 10.0 ** np.arange(-30, 30).repeat(100),
]).view(np.int64))
PATTERNS = PATTERNS[~np.isnan(PATTERNS.view(np.float64))]  # a test places the nan payloads it needs


def _table(counts, seed, shared=False) -> list[np.ndarray]:
    """One (ROWS, 17) block per count, holding that many distinct patterns: the next
    ones of a shuffled PATTERNS from one block to the next (disjoint while they
    last), or all drawn from the first count's patterns."""
    rng = np.random.default_rng(seed)
    patterns = rng.permutation(PATTERNS)
    blocks, start = [], 0
    for n in counts:
        picked = (rng.permutation(patterns[: counts[0]])[:n] if shared
                  else patterns.take(range(start, start + n), mode="wrap"))
        blocks.append(_fill((ROWS, 17), picked, rng))
        start += n
    return blocks


def _encoded_blocks(blocks, monkeypatch) -> tuple[list[bytes], list[tuple[int, int]]]:
    """What encode_table yields for the table of the blocks, checked against format()
    block by block, and the sizes of the kernel calls it made."""
    sizes = _counted(monkeypatch)
    out = list(_g17.encode_table(np.concatenate(blocks)))
    assert out == [_expected(block) for block in blocks]
    return out, sizes


@pytest.mark.parametrize("counts, sizes", [
    ((1024, 1024, 10), [(2048, 0), (10, 0)]),
    ((1024, 1025, 10), [(1024, 0), (1035, 0)]),
], ids=["2048", "2049"])
def test_a_group_closes_before_its_distinct_counts_pass_half_a_chunk(counts, sizes, monkeypatch):
    assert _g17.CHUNK_VALUES // 2 == 2048
    assert _encoded_blocks(_table(counts, seed=27), monkeypatch)[1] == sizes


@pytest.mark.parametrize("counts, shared, sizes", [
    ((100,) * 9, True, [(100, 0), (100, 0)]),  # 8 blocks, then 1
    ((300,) * 9, False, [(1800, 0), (900, 0)]),  # 6 blocks of 300, then 3
], ids=["block-count", "pattern-count"])
def test_nine_blocks_of_repeats_take_one_kernel_call_per_group(counts, shared, sizes, monkeypatch):
    assert _g17.GROUP_BLOCKS == 8
    assert _encoded_blocks(_table(counts, seed=28, shared=shared), monkeypatch)[1] == sizes


def test_a_mostly_distinct_block_closes_the_group(monkeypatch):
    _, sizes = _encoded_blocks(_table((300, ROWS * 17, 200), seed=29), monkeypatch)
    assert sizes == [(300, 0), (ROWS * 17, ROWS), (200, 0)]


def test_a_final_short_block(monkeypatch):
    # a short final block of repeats joins the group; one under SMALL_TABLE is
    # formatted one value at a time after the group
    for rows in (80, 5):
        blocks = _table((100, 100, 40), seed=30, shared=True)
        blocks[2] = blocks[2][:rows]
        assert (blocks[2].size < _g17.SMALL_TABLE) == (rows == 5)
        assert _encoded_blocks(blocks, monkeypatch)[1] == [(100, 0)]


def test_signed_zeros_and_nan_payloads_first_seen_in_different_blocks(monkeypatch):
    # 0.0 and a nan, then -0.0 and another payload, then two more payloads
    firsts = np.array([[0.0, SIGNED_NANS[0]], [-0.0, SIGNED_NANS[1]], SIGNED_NANS[2:]])
    blocks = _table((50, 50, 50), seed=31, shared=True)
    for block, pair in zip(blocks, firsts):
        block[:, 0] = np.resize(pair, ROWS)
    out, sizes = _encoded_blocks(blocks, monkeypatch)
    union = np.unique(np.concatenate([block.view(np.int64).ravel() for block in blocks]))
    assert sizes == [(len(union), 0)] and len(union) > 50
    assert [[row.split(b",")[0] for row in rows.splitlines()[:2]] for rows in out] == [
        [b"0", b"nan"], [b"-0", b"nan"], [b"nan", b"nan"]]


@pytest.mark.parametrize("seed", range(32, 36))
def test_no_kernel_call_on_repeats_exceeds_half_a_chunk(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    counts = 1 + rng.integers(0, ROWS * 17 // 2, 12) // rng.choice([1, 4, 16], 12)
    _, sizes = _encoded_blocks(_table(tuple(counts), seed), monkeypatch)
    assert all(n <= _g17.CHUNK_VALUES // 2 for n, line_ends in sizes if not line_ends)
    assert len(sizes) < len(counts)


def _peak(table) -> int:
    tracemalloc.start()
    try:
        for _ in _g17.encode_table(table):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_a_table_of_repeats():
    # 64 patterns: a group would take 32 blocks by its distinct count alone
    rng = np.random.default_rng(36)
    table = rng.choice(PATTERNS[:64], (10**5, 17)).view(np.float64)
    short = table[: 10**4].copy()
    assert _peak(table) < 1.2 * _peak(short)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(1, 20), st.integers(1, 3), st.integers(-1, 1), st.integers(0, 2),
       st.sampled_from([0, 8192]), st.integers(0, 2**32 - 1))
def test_tables_cut_at_block_boundaries_equal_format(width, blocks, offset, tail_width, spread,
                                                     seed):
    # full rows at, just below and just above a multiple of the rows of a block; the
    # values repeat, or are mostly distinct where ``spread`` adds random ones
    tail_width = min(tail_width, width - 1)
    full = blocks * (_g17.CHUNK_VALUES // width) + offset
    rng = np.random.default_rng(seed)
    pool = np.concatenate([POOL, rng.standard_normal(spread)])
    cells = rng.choice(pool, (full + (tail_width > 0), width))
    tail = cells[:-1, width - tail_width :] if tail_width else None
    if tail_width == 1:
        tail = tail[:, 0]  # one column as a 1-D array, as check conservation passes it
    lines = [",".join(map(_g17.fmt, row)) for row in cells.tolist()]
    if tail_width:
        lines[-1] = lines[-1].rsplit(",", tail_width)[0] + "," * tail_width
    pieces = list(_g17.encode_table(cells[:, : width - tail_width], tail))
    assert b"".join(pieces) == ("\n".join(lines) + "\n").encode()
    assert max(piece.count(b"\n") for piece in pieces) == min(full, _g17.CHUNK_VALUES // width)
