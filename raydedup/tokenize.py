"""Tokenization of content columns → per-row token-hash arrays, vectorized.

Strategy (hot path, no per-row python):
  1. :func:`split_tokens` on whitespace runs → Arrow ``ListArray`` of
     tokens (one C-level pass).
  2. ``pc.dictionary_encode`` the flat token child array → (indices, dict).
  3. xxHash64 the *unique* dictionary strings only (vectorized over the
     dictionary's zero-copy offsets/data buffers), then fancy-index back.

This mirrors the reference's ingest surface where every datum is immediately
mapped into the 64-bit hash domain (theta/UpdateSketch.java:220-324) — here a
token plays the role of a datum and the per-row token-hash array is the
hashed stream.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .hashing import xxh64_flat

_WS = r"\s+"
_VT = 0x0B  # \v: whitespace to Arrow's ASCII split, not to RE2's \s
# Every SQL-oracled text operator trims exactly this ASCII whitespace set on
# both sides. DuckDB's trim() strips only spaces and Arrow's
# utf8_trim_whitespace strips all Unicode whitespace; the explicit set
# (mirrored in the oracles as trim(text, ' ' || chr(9) || ...)) makes the
# match exact by construction.
_ASCII_WS = " \t\n\r\v\f"


def _string_array_np(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """Zero-copy (flat_u8, offsets int64) view of a string/large_string array."""
    arr = pc.cast(arr, pa.large_string()) if pa.types.is_string(arr.type) else arr
    arr = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
    buffers = arr.buffers()
    offsets = np.frombuffer(buffers[1], dtype=np.int64, count=len(arr) + 1 + arr.offset)
    offsets = offsets[arr.offset : arr.offset + len(arr) + 1]
    data = np.frombuffer(buffers[2], dtype=np.uint8) if buffers[2] is not None else np.zeros(0, np.uint8)
    return data, offsets


def split_tokens(trimmed: pa.Array | pa.ChunkedArray) -> pa.Array | pa.ChunkedArray:
    """Split each string on runs of RE2 ``\\s`` (``[\\t\\n\\f\\r ]``) — the
    repo-wide token rule, mirrored by the oracle SQL.

    ``pc.ascii_split_whitespace`` splits on the same bytes plus ``\\v``
    and is several times faster than the regex split, so it runs unless a
    ``\\v`` byte is present."""
    chunks = trimmed.chunks if isinstance(trimmed, pa.ChunkedArray) else [trimmed]
    for arr in chunks:
        data = arr.buffers()[2]
        if data is not None and (np.frombuffer(data, dtype=np.uint8) == _VT).any():
            return pc.split_pattern_regex(trimmed, _WS)
    return pc.ascii_split_whitespace(trimmed)


def tokenize_hashes(
    content: pa.Array | pa.ChunkedArray, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Hash whitespace-separated tokens of each row.

    Returns ``(flat_hashes: uint64[], offsets: int64[n+1])`` where row i's
    token hashes are ``flat_hashes[offsets[i]:offsets[i+1]]``. Rows that are
    empty/whitespace-only get zero tokens.
    """
    if isinstance(content, pa.ChunkedArray):
        content = content.combine_chunks()
    content = pc.fill_null(content, "")
    # Trim ONLY the explicit ASCII whitespace set, matching the DuckDB
    # oracles' trim(content, ' '||chr(9)||chr(10)||chr(13)||chr(11)||chr(12))
    # by construction (utf8_trim_whitespace strips Unicode WS like U+00A0,
    # which the oracle's trim() keeps — same parity rule as textstats.py).
    trimmed = pc.utf8_trim(content, _ASCII_WS)
    toks = split_tokens(trimmed)
    toks = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
    offsets = np.asarray(toks.offsets, dtype=np.int64)
    values = toks.values  # flat StringArray of all tokens

    n_tokens = len(values)
    if n_tokens == 0:
        return np.zeros(0, dtype=np.uint64), offsets

    # empty rows produce a single '' token — detect and drop below
    dict_arr = pc.dictionary_encode(values)
    indices = np.asarray(dict_arr.indices, dtype=np.int64)
    dictionary = dict_arr.dictionary

    dflat, doff = _string_array_np(dictionary)
    dict_hashes = xxh64_flat(dflat, doff, seed=seed)

    # mark the '' dictionary slot (if present) for removal
    dlens = np.diff(doff)
    empty_slots = np.flatnonzero(dlens == 0)
    flat_hashes = dict_hashes[indices]

    if len(empty_slots):
        keep = indices != empty_slots[0]
        # new per-row counts after dropping empties
        row_ids = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
        counts = np.bincount(row_ids[keep], minlength=len(offsets) - 1)
        offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        flat_hashes = flat_hashes[keep]

    return flat_hashes, offsets
