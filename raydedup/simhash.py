"""64-bit SimHash fingerprints + Hamming distance, vectorized.

SimHash (Charikar 2002, public): each shingle hash votes ±1 on each of 64
bit positions; the fingerprint's bit i is 1 iff the summed vote is > 0.
Near-duplicates have small Hamming distance. Used as a cheap secondary
filter next to MinHash in the verify stage.
"""

from __future__ import annotations

import numpy as np

from .shingle import row_blocks

U64 = np.uint64
# bit positions of the 8 bits of each little-endian hash byte
_SHIFTS = np.arange(64, dtype=np.uint64).reshape(8, 1, 8)


def simhash_signatures(flat_shingles: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """(n_rows,) uint64 fingerprints; empty rows get 0.

    Bit i of the fingerprint is set iff a majority of the row's shingle
    hashes have bit i set (±1-vote formulation: 2·ones > count). Per row
    block (shingle.row_blocks), one little-endian byte of the hash is
    expanded at a time with ``np.unpackbits`` and its 8 bit columns are
    summed per row with one ``reduceat``; the block's 8 passes stay in
    cache. Vote sums accumulate in int64."""
    offsets = np.asarray(offsets, dtype=np.int64)
    n = len(offsets) - 1
    out = np.zeros(n, dtype=np.uint64)
    flat = np.ascontiguousarray(flat_shingles, dtype=np.uint64)
    u8 = flat.view(np.uint8).reshape(-1, 8)  # little-endian: byte j = bits 8j..8j+7
    lens = np.diff(offsets)
    for rows in row_blocks(offsets, np.flatnonzero(lens > 0)):
        e0, e1 = offsets[rows[0]], offsets[rows[-1] + 1]
        starts = offsets[rows] - e0
        counts = lens[rows][:, None]
        fp = np.zeros(len(rows), dtype=np.uint64)
        for j in range(8):
            bits = np.unpackbits(u8[e0:e1, j], bitorder="little").reshape(-1, 8)
            sums = np.add.reduceat(bits, starts, axis=0, dtype=np.int64)
            fpb = (2 * sums > counts).astype(np.uint64)
            fp |= (fpb << _SHIFTS[j]).sum(axis=1, dtype=np.uint64)
        out[rows] = fp
    return out


def hamming_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized popcount of XOR (uint64)."""
    x = np.asarray(a, dtype=np.uint64) ^ np.asarray(b, dtype=np.uint64)
    return popcount64(x)


def popcount64(x: np.ndarray) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=np.uint64))
    m1 = U64(0x5555555555555555)
    m2 = U64(0x3333333333333333)
    m4 = U64(0x0F0F0F0F0F0F0F0F)
    h01 = U64(0x0101010101010101)
    x = x - ((x >> U64(1)) & m1)
    x = (x & m2) + ((x >> U64(2)) & m2)
    x = (x + (x >> U64(4))) & m4
    with np.errstate(over="ignore"):
        return ((x * h01) >> U64(56)).astype(np.int64)
