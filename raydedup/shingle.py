"""k-token shingle hashing over per-row token-hash arrays, vectorized.

A w-token shingle's hash is xxHash64 of the w token hashes' little-endian
byte image (one fixed-stride vectorized call per row block — no per-row
work). Rows with fewer than w tokens contribute a single shingle over all
their tokens (so a one-token file still has a signature; the reference's
SingleItemSketch analog, theta/SingleItemSketch.java:43).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .hashing import xxh64_u64s

#: elements per row block of the per-row kernels: a block's temporaries
#: (a (rows, k) window gather, a multiply+reduceat pass, an unpackbits
#: pass) stay in cache
BLOCK_ELEMS = 1 << 15


def row_blocks(offsets: np.ndarray, rows: np.ndarray):
    """Yield consecutive slices of the ascending row indices ``rows``,
    each holding about :data:`BLOCK_ELEMS` elements of the segments
    ``offsets`` delimits (a longer row is a block by itself)."""
    if len(rows) == 0:
        return
    ends = np.cumsum(offsets[rows + 1] - offsets[rows])
    cuts = np.searchsorted(
        ends, np.arange(BLOCK_ELEMS, ends[-1], BLOCK_ELEMS), side="left"
    ) + 1
    bounds = np.unique(np.concatenate([[0], cuts, [len(rows)]]))
    for i0, i1 in zip(bounds[:-1], bounds[1:]):
        yield rows[i0:i1]


def shingle_hashes(
    flat_tokens: np.ndarray, offsets: np.ndarray, k: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Compute shingle hashes for every row.

    Returns ``(flat_shingles: uint64[], sh_offsets: int64[n+1])``.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    lens = np.diff(offsets)

    counts = np.where(lens >= k, lens - k + 1, np.where(lens > 0, 1, 0))
    sh_offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    out = np.empty(int(sh_offsets[-1]), dtype=np.uint64)

    # rows with >= k tokens: their windows, gathered one row block at a time
    if int(offsets[-1]) >= k:
        windows = sliding_window_view(flat_tokens, k)
        for rows in row_blocks(offsets, np.flatnonzero(lens >= k)):
            c = counts[rows]
            intra = _intra_offsets(c)
            starts = np.repeat(offsets[rows], c) + intra
            out[np.repeat(sh_offsets[rows], c) + intra] = xxh64_u64s(
                windows[starts], seed=seed
            )

    # short rows (0 < lens < k): one shingle over all tokens, grouped by length
    short = np.flatnonzero((lens > 0) & (lens < k))
    if len(short):
        for L in np.unique(lens[short]):
            rows = short[lens[short] == L]
            gather = offsets[rows][:, None] + np.arange(L)
            out[sh_offsets[rows]] = xxh64_u64s(flat_tokens[gather], seed=seed)

    return out, sh_offsets


def _intra_offsets(counts: np.ndarray) -> np.ndarray:
    """[0..c0-1, 0..c1-1, ...] for segment-local indices, vectorized."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    seg_starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return np.arange(total, dtype=np.int64) - np.repeat(seg_starts, counts)


def segment_unique(
    flat: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row distinct values (sorted).

    Rows are grouped into power-of-two width classes; each class is one
    ``(rows, 2^c)`` matrix padded with the dtype's largest value, sorted
    along its rows, and its real cells are written back in place (a pad
    sorts last, and a real cell equal to the pad is the same value). An
    adjacent compare then drops the repeats inside each row.

    Returns ``(flat_unique_sorted, new_offsets)``. The per-row result is the
    row's distinct shingle-hash set in ascending order — the engine's
    'compact ordered sketch' form (theta/CompactOperations.java:61-120).
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    lens = np.diff(offsets)
    sf = np.array(flat[: offsets[-1]])
    multi = np.flatnonzero(lens > 1)
    width = np.ceil(np.log2(lens[multi])).astype(np.int64)
    pad = np.iinfo(sf.dtype).max
    for c in np.unique(width):
        rows = multi[width == c]
        cl = lens[rows]
        intra = _intra_offsets(cl)
        src = np.repeat(offsets[rows], cl) + intra
        dst = np.repeat(np.arange(len(rows), dtype=np.int64) << c, cl) + intra
        mat = np.full(len(rows) << c, pad, dtype=sf.dtype)
        mat[dst] = sf[src]
        mat.reshape(len(rows), 1 << c).sort(axis=1)
        sf[src] = mat[dst]
    keep = np.ones(len(sf), dtype=bool)
    keep[1:] = sf[1:] != sf[:-1]
    keep[offsets[:-1][lens > 0]] = True
    kept_before = np.concatenate([[0], np.cumsum(keep)]).astype(np.int64)
    return sf[keep], kept_before[offsets]
