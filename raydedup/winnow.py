"""Winnowing fingerprints for verbatim-substring duplicate detection.

Standard winnowing (Schleimer, Wilkerson, Aiken, SIGMOD 2003 — public): hash
every k-token gram, slide a w-gram window, keep each window's minimum
(rightmost on ties). Guarantee: any shared token run of length
>= t = k + w - 1 shares at least one fingerprint, so grouping by fingerprint
surfaces every pair with a verbatim block >= t tokens. This implements the
north_star's suffix-array tier's *candidate generation*; precise LCS
verification happens in the actor-pool stage (suffix.py).
"""

from __future__ import annotations

import numpy as np

from .hashing import poly_rolling_hashes
from .shingle import _intra_offsets, row_blocks

# the O(T) rolling gram hash lives in hashing.poly_rolling_hashes (shared
# with the shingle tier); kept under the local name the tests lock
_gram_hashes = poly_rolling_hashes


def winnow_fingerprints(
    flat_tokens: np.ndarray,
    offsets: np.ndarray,
    k: int,
    w: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row winnowed fingerprints.

    Returns ``(fp_hashes: uint64[], fp_positions: uint64[], fp_offsets)``
    where row i's fingerprints are the slice ``fp_offsets[i]:fp_offsets[i+1]``
    (position = gram start token index within the row), in position order.

    A row of g >= w grams has g - w + 1 windows of w grams; a row of
    1 <= g < w grams has one window of all of them. Rows with fewer than k
    tokens produce no fingerprints (nothing to substring-match at length
    >= t). Rows are processed in blocks (shingle.row_blocks); a window's
    pick is non-decreasing as it slides, so repeats are adjacent.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    n = len(offsets) - 1
    lens = np.diff(offsets)
    flat = np.ascontiguousarray(flat_tokens, dtype=np.uint64)
    gram_counts = np.where(lens >= k, lens - k + 1, 0)
    fp_counts = np.zeros(n, dtype=np.int64)
    fp_h: list[np.ndarray] = [np.zeros(0, dtype=np.uint64)]
    fp_p: list[np.ndarray] = [np.zeros(0, dtype=np.uint64)]
    for rows in row_blocks(offsets, np.flatnonzero(gram_counts)):
        e0 = offsets[rows[0]]
        grams_all = _gram_hashes(flat[e0 : offsets[rows[-1] + 1]], k, seed)
        g = gram_counts[rows]
        grams = grams_all[np.repeat(offsets[rows] - e0, g) + _intra_offsets(g)]
        gram_start = np.concatenate([[0], np.cumsum(g)[:-1]])
        nw = np.maximum(g - w + 1, 1)
        sel = _rightmost_min(
            grams,
            np.repeat(gram_start, nw) + _intra_offsets(nw),
            np.repeat(np.minimum(g, w), nw),
        )
        keep = np.ones(len(sel), dtype=bool)
        keep[1:] = sel[1:] != sel[:-1]
        cnt = np.add.reduceat(keep, np.cumsum(nw) - nw, dtype=np.int64)
        sel = sel[keep]
        fp_counts[rows] = cnt
        fp_h.append(grams[sel])
        fp_p.append((sel - np.repeat(gram_start, cnt)).astype(np.uint64))
    fp_offsets = np.concatenate([[0], np.cumsum(fp_counts)]).astype(np.int64)
    return np.concatenate(fp_h), np.concatenate(fp_p), fp_offsets


def _rightmost_min(v: np.ndarray, starts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Index of the rightmost minimum of ``v[s : s + width]`` per window.

    Doubling passes over (value, index): level j holds the rightmost
    minimum of every run of 2^j values, from two runs of level j - 1 with
    the right one winning ties. A window of width x reads level
    floor(log2 x) at its two (possibly overlapping) ends, again right on
    ties."""
    vals, idx = [v], [np.arange(len(v), dtype=np.int64)]
    while 2 << (len(vals) - 1) <= widths.max():
        h = 1 << (len(vals) - 1)
        take_r = vals[-1][h:] <= vals[-1][:-h]
        vals.append(np.where(take_r, vals[-1][h:], vals[-1][:-h]))
        idx.append(np.where(take_r, idx[-1][h:], idx[-1][:-h]))
    level = np.log2(widths).astype(np.int64)
    out = np.empty(len(starts), dtype=np.int64)
    for j in np.unique(level):
        at = np.flatnonzero(level == j)
        s = starts[at]
        r = s + widths[at] - (1 << j)
        take_r = vals[j][r] <= vals[j][s]
        out[at] = np.where(take_r, idx[j][r], idx[j][s])
    return out
