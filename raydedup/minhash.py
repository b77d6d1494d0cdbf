"""Batched MinHash signatures (k=128 permutations), fully vectorized.

A permutation is the bijection h ↦ a_i*h + b_i (mod 2^64) with odd a_i —
constants derived deterministically from the config seed via SplitMix64.
The signature of a shingle-hash set S is (min over s∈S of p_i(s)) for each
of the num_perm permutations. J(A,B) ≈ fraction of matching components
(the classic Broder estimator; the reference's KMV/theta sketch is the
bottom-k analog, theta/HeapQuickSelectSketch.java:300-312).

Cost: num_perm * total_shingles multiplies per batch, run one row block
(shingle.row_blocks) and one permutation at a time so each multiply +
np.minimum.reduceat pass stays in cache; no python loop per row.
"""

from __future__ import annotations

import numpy as np

from .hashing import splitmix64
from .shingle import row_blocks

U64 = np.uint64
EMPTY_SLOT = np.uint64(0xFFFFFFFFFFFFFFFF)  # signature value for empty rows


def perm_constants(num_perm: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    base = ((seed & 0xFFFFFFFFFFFFFFFF) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    idx = np.arange(2 * num_perm, dtype=np.uint64) + U64(base)
    c = splitmix64(idx)
    a = c[:num_perm] | U64(1)  # odd multiplier → bijection mod 2^64
    b = c[num_perm:]
    return a, b


def minhash_signatures(
    flat_shingles: np.ndarray,
    offsets: np.ndarray,
    num_perm: int,
    seed: int,
) -> np.ndarray:
    """Returns (n_rows, num_perm) uint64 signature matrix.

    Rows with zero shingles get all-EMPTY_SLOT signatures (never collide).
    Each row block's shingles take one 1-D multiply + reduceat pass per
    permutation, in a reused block-sized buffer.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    n = len(offsets) - 1
    a, b = perm_constants(num_perm, seed)
    out = np.full((n, num_perm), EMPTY_SLOT, dtype=np.uint64)
    flat = np.ascontiguousarray(flat_shingles, dtype=np.uint64)
    # reduceat needs segment starts; an empty segment would read the next
    # segment's first element, so only nonempty rows are blocked
    for rows in row_blocks(offsets, np.flatnonzero(np.diff(offsets) > 0)):
        e0, e1 = offsets[rows[0]], offsets[rows[-1] + 1]
        seg = flat[e0:e1]
        starts = offsets[rows] - e0
        vals = np.empty_like(seg)
        mins = np.empty((num_perm, len(rows)), dtype=np.uint64)
        for i in range(num_perm):
            np.multiply(seg, a[i], out=vals)
            np.add(vals, b[i], out=vals)
            np.minimum.reduceat(vals, starts, out=mins[i])
        out[rows] = mins.T
    return out


def minhash_jaccard_est(sig_a: np.ndarray, sig_b: np.ndarray) -> np.ndarray:
    """Pairwise estimate: fraction of equal components. Accepts (p,) or (n,p)."""
    eq = np.asarray(sig_a) == np.asarray(sig_b)
    return eq.mean(axis=-1)
