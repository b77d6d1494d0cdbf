"""Corpus-vocabulary operators: top-V vocabulary extraction and
out-of-vocabulary (OOV) rate scoring — the "fraction of tokens outside the
reference vocabulary" quality signal of web-corpus curation (a cheap,
exactly-reproducible stand-in for LM-perplexity filtering; see e.g. CCNet /
Gopher pipelines). The whitespace-token convention is EXACTLY the
ws_tokens convention of textstats.token_counts (trim the shared ASCII
whitespace set, split on ``\\s+``, empty-after-trim → zero tokens), so the
DuckDB oracle mirrors both passes verbatim.

Scale shape:

1. **count pass** — ``map_batches`` tokenizes, xxh64-hashes, and emits
   per-batch PARTIAL counts ``(h, t, c)`` (one row per distinct token per
   batch — the combiner step; shuffle volume is per-batch-vocab, never the
   token stream). A hash-partitioned sum (pipeline.grouped_blocks) totals
   each token's global count — a token's count lives entirely in one
   partition, so each partition's local top-V pre-cut is lossless (global
   top-V ⊆ union of partition top-Vs). The driver merges nparts × V rows.
   Tie-break at the boundary: count DESC, token ASC (numpy ``U`` dtype
   compares UTF-32 code points — identical to DuckDB's binary UTF-8
   collation, so ties resolve the same on both sides).
2. **score pass** — the V vocabulary hashes broadcast once (``ray.put``),
   stateless ``map_batches`` computes per-document n_tokens / n_oov /
   oov_frac via one searchsorted. Fractions floor-quantized to 1e-6 (the
   repo convention) so the oracle compares bit-exactly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .hashing import xxh64_flat
from .shingle import segment_unique
from .tokenize import _ASCII_WS, _string_array_np, split_tokens

_TOK_SEED = 0


def _ws_tokens(text_col) -> tuple[pa.StringArray, np.ndarray]:
    """(flat whitespace tokens, tokens-per-row) under the token_counts
    convention. Rows that are empty after trimming contribute zero tokens
    (split of "" yields one "" element; masked out here AND subtracted
    from the per-row count)."""
    if isinstance(text_col, pa.ChunkedArray):
        text_col = text_col.combine_chunks()
    trimmed = pc.utf8_trim(pc.fill_null(text_col, ""), _ASCII_WS)
    toks = split_tokens(trimmed)
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    per_row = pc.list_value_length(toks).to_numpy().astype(np.int64)
    flat = toks.flatten()
    empty_doc = pc.equal(trimmed, "").to_numpy(zero_copy_only=False)
    per_row = per_row - empty_doc.astype(np.int64)  # drop the lone "" token
    return flat, per_row


def _token_hashes(flat: pa.StringArray) -> tuple[np.ndarray, np.ndarray]:
    fb, off = _string_array_np(flat)
    return xxh64_flat(fb, off, seed=_TOK_SEED), np.diff(off).astype(np.int64)


def _topv_cut(h: np.ndarray, t: np.ndarray, c: np.ndarray, v: int):
    """Top-v rows by (count DESC, token ASC); t must be a numpy unicode
    array so the tie-break matches DuckDB's binary collation."""
    order = np.lexsort((t, -c))[:v]
    return h[order], t[order], c[order]


def top_vocab(
    ds: "ray.data.Dataset",  # noqa: F821 - forward ref; ray imported lazily
    text_col: str = "text",
    v: int = 1000,
) -> tuple[np.ndarray, pa.Table]:
    """The corpus's ``v`` most frequent whitespace tokens.

    Returns ``(sorted uint64 xxh64 hashes, vocab table (token, count)
    ordered by count DESC, token ASC)``. Streaming: only per-batch and
    per-partition vocabularies ever move; the driver holds nparts × v rows.
    """
    if v <= 0:
        raise ValueError("v must be positive")
    from .pipeline import grouped_blocks

    empty = pa.table(
        {
            "h": pa.array([], pa.int64()),
            "t": pa.array([], pa.string()),
            "c": pa.array([], pa.int64()),
        }
    )

    def partial_counts(batch: pa.Table) -> pa.Table:
        flat, _ = _ws_tokens(batch.column(text_col))
        h, blen = _token_hashes(flat)
        keep = blen > 0
        h = h[keep]
        if len(h) == 0:
            return empty
        hu, first_idx, cnt = np.unique(h, return_index=True, return_counts=True)
        rep = flat.filter(pa.array(keep)).take(pa.array(first_idx, pa.int64()))
        return pa.table(
            {
                "h": pa.array(hu.view(np.int64), pa.int64()),
                "t": rep,
                "c": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    def sum_topv(block: pa.Table) -> pa.Table:
        if block.num_rows == 0:
            return empty
        h = block.column("h").to_numpy()
        c = block.column("c").to_numpy()
        order = np.argsort(h, kind="stable")
        h_s, c_s = h[order], c[order]
        starts = np.ones(len(h_s), dtype=bool)
        starts[1:] = h_s[1:] != h_s[:-1]
        idx = np.flatnonzero(starts)
        sums = np.add.reduceat(c_s, idx)
        reps = (
            block.column("t")
            .take(pa.array(order[idx], pa.int64()))
            .to_numpy(zero_copy_only=False)
            .astype(str)
        )
        hh, tt, cc = _topv_cut(h_s[idx], reps, sums, v)
        return pa.table(
            {
                "h": pa.array(hh, pa.int64()),
                "t": pa.array(tt),
                "c": pa.array(cc, pa.int64()),
            }
        )

    partials = ds.map_batches(partial_counts, batch_format="pyarrow")
    per_part = grouped_blocks(partials, "h", sum_topv)
    # nparts × v rows — small by construction
    tbls = [b for b in per_part.iter_batches(batch_format="pyarrow") if b.num_rows]
    if not tbls:
        return np.array([], np.uint64), pa.table({"token": pa.array([], pa.string()), "count": pa.array([], pa.int64())})
    merged = pa.concat_tables(tbls)
    h = merged.column("h").to_numpy()
    c = merged.column("c").to_numpy()
    t = merged.column("t").to_numpy(zero_copy_only=False).astype(str)
    hh, tt, cc = _topv_cut(h, t, c, v)
    hashes = hh.view(np.uint64).copy()
    hashes.sort()
    return hashes, pa.table(
        {"token": pa.array(tt), "count": pa.array(cc, pa.int64())}
    )


def _doc_freq_partial(text, vocab: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(vocabulary hash, number of ``text``'s documents containing it),
    hashes ascending; ``vocab`` sorted."""
    flat, per_row = _ws_tokens(text)
    h, blen = _token_hashes(flat)
    doc_idx = np.repeat(np.arange(len(text), dtype=np.int64), np.maximum(per_row, 1))
    if len(vocab) == 0 or len(h) == 0:
        return h[:0], np.zeros(0, dtype=np.int64)
    pos = np.minimum(np.searchsorted(vocab, h), len(vocab) - 1)
    keep = (vocab[pos] == h) & (blen > 0)
    # doc_idx is non-decreasing: each document's kept tokens are a segment
    offsets = np.searchsorted(doc_idx[keep], np.arange(len(text) + 1))
    distinct, _ = segment_unique(h[keep], offsets)
    return np.unique(distinct, return_counts=True)


def doc_freq(
    ds: "ray.data.Dataset",  # noqa: F821
    vocab_hashes: np.ndarray,
    text_col: str = "text",
) -> np.ndarray:
    """Document frequency (number of distinct documents containing the
    token) for each vocabulary hash, aligned with ``vocab_hashes`` (which
    must be sorted). One per-batch distinct-(doc, token) partial-count pass
    + a hash-partitioned sum; the result is vocabulary-sized."""
    import ray

    from .pipeline import grouped_blocks

    vocab_ref = ray.put(np.ascontiguousarray(vocab_hashes, dtype=np.uint64))
    empty = pa.table(
        {"h": pa.array([], pa.int64()), "c": pa.array([], pa.int64())}
    )

    def partials(batch: pa.Table) -> pa.Table:
        hu, c = _doc_freq_partial(batch.column(text_col), ray.get(vocab_ref))
        return pa.table({"h": pa.array(hu.view(np.int64), pa.int64()),
                         "c": pa.array(c.astype(np.int64), pa.int64())})

    def sums(block: pa.Table) -> pa.Table:
        if block.num_rows == 0:
            return empty
        h = block.column("h").to_numpy()
        c = block.column("c").to_numpy()
        order = np.argsort(h, kind="stable")
        h_s, c_s = h[order], c[order]
        starts = np.ones(len(h_s), dtype=bool)
        starts[1:] = h_s[1:] != h_s[:-1]
        idx = np.flatnonzero(starts)
        return pa.table(
            {
                "h": pa.array(h_s[idx], pa.int64()),
                "c": pa.array(np.add.reduceat(c_s, idx), pa.int64()),
            }
        )

    totals = grouped_blocks(
        ds.map_batches(partials, batch_format="pyarrow"), "h", sums
    )
    df = np.zeros(len(vocab_hashes), dtype=np.int64)
    for b in totals.iter_batches(batch_format="pyarrow"):
        if b.num_rows == 0:
            continue
        hh = b.column("h").to_numpy().view(np.uint64)
        df[np.searchsorted(vocab_hashes, hh)] = b.column("c").to_numpy()
    return df


def tfidf_top_terms(
    docs: "ray.data.Dataset",  # noqa: F821
    text_col: str = "text",
    id_col: str = "doc_id",
    v: int = 1000,
    k: int = 3,
) -> "ray.data.Dataset":  # noqa: F821
    """Per-document top-``k`` terms by tf-idf over the corpus top-``v``
    vocabulary: ``(id_col, term, rank, score)`` with
    ``score = tf * n_docs / df`` (raw document-frequency idf — pure integer
    ratio arithmetic, so both sides compute bit-identical doubles; no
    transcendental log to drift). Ranking uses the UNQUANTIZED score with
    (score DESC, term ASC) tie-break; the emitted score is floor-quantized
    to 1e-6 for the value-hash oracle. Documents with zero in-vocabulary
    tokens emit no rows.

    Three streaming passes (vocabulary count, document frequency, score) —
    each shuffles only per-batch vocabulary partials; the per-document
    top-k runs vectorized inside one map_batches (run-rank cut, no window
    shuffle).
    """
    import ray

    n_docs = docs.count()
    vocab_hashes, vocab_tbl = top_vocab(docs, text_col=text_col, v=v)
    df = doc_freq(docs, vocab_hashes, text_col=text_col)
    terms = vocab_tbl.column("token").to_numpy(zero_copy_only=False).astype(str)
    if len(terms):
        term_hash, _ = _token_hashes(pa.array(list(terms)))
    else:
        term_hash = np.array([], np.uint64)
    # align term strings with the SORTED vocab_hashes order
    align = np.searchsorted(vocab_hashes, term_hash)
    terms_sorted = np.empty(len(vocab_hashes), dtype=terms.dtype if len(terms) else "U1")
    terms_sorted[align] = terms
    # tie-break helper: rank of each vocab entry in token-ASC order
    term_rank = np.empty(len(terms_sorted), dtype=np.int64)
    term_rank[np.argsort(terms_sorted, kind="stable")] = np.arange(len(terms_sorted))
    bundle_ref = ray.put((vocab_hashes, terms_sorted, df, term_rank, int(n_docs)))

    def score(batch: pa.Table) -> pa.Table:
        vocab, vterms, vdf, vrank, nd = ray.get(bundle_ref)
        out_empty = pa.table(
            {
                id_col: pa.array([], batch.schema.field(id_col).type),
                "term": pa.array([], pa.string()),
                "rank": pa.array([], pa.int64()),
                "score": pa.array([], pa.float64()),
            }
        )
        if len(vocab) == 0 or batch.num_rows == 0:
            return out_empty
        flat, per_row = _ws_tokens(batch.column(text_col))
        h, blen = _token_hashes(flat)
        raw = np.maximum(per_row, 1)
        doc_idx = np.repeat(np.arange(batch.num_rows, dtype=np.int64), raw)
        pos = np.minimum(np.searchsorted(vocab, h), len(vocab) - 1)
        keep = (vocab[pos] == h) & (blen > 0)
        vidx, doc_idx = pos[keep], doc_idx[keep]
        if len(vidx) == 0:
            return out_empty
        # tf per (doc, vocab term)
        order = np.lexsort((vidx, doc_idx))
        d_s, v_s = doc_idx[order], vidx[order]
        first = np.ones(len(d_s), dtype=bool)
        first[1:] = (d_s[1:] != d_s[:-1]) | (v_s[1:] != v_s[:-1])
        starts = np.flatnonzero(first)
        tf = np.diff(np.append(starts, len(d_s)))
        d_r, v_r = d_s[starts], v_s[starts]
        sc = tf.astype(np.float64) * nd / vdf[v_r]
        # per-doc top-k by (score DESC, term ASC)
        o2 = np.lexsort((vrank[v_r], -sc, d_r))
        d2 = d_r[o2]
        idx = np.arange(len(d2))
        new_doc = np.ones(len(d2), dtype=bool)
        new_doc[1:] = d2[1:] != d2[:-1]
        run_start = np.maximum.accumulate(np.where(new_doc, idx, 0))
        rank = idx - run_start
        cut = rank < k
        sel = o2[cut]
        ids = batch.column(id_col).take(pa.array(d_r[sel], pa.int64()))
        return pa.table(
            {
                id_col: ids,
                "term": pa.array(vterms[v_r[sel]].astype(object), pa.string()),
                "rank": pa.array(rank[cut] + 1, pa.int64()),
                "score": pa.array(np.floor(sc[sel] * 1e6) / 1e6, pa.float64()),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow")


def oov_stats(
    docs: "ray.data.Dataset",  # noqa: F821
    text_col: str = "text",
    id_col: str = "doc_id",
    v: int = 1000,
    vocab_hashes: np.ndarray | None = None,
) -> "ray.data.Dataset":  # noqa: F821
    """Per-document OOV statistics vs the corpus top-``v`` vocabulary:
    ``(id_col, n_tokens, n_oov, oov_frac)``. ``vocab_hashes`` lets a caller
    reuse a vocabulary built on another corpus/sample; by default the count
    pass runs on ``docs`` itself."""
    import ray

    if vocab_hashes is None:
        vocab_hashes, _ = top_vocab(docs, text_col=text_col, v=v)
    vocab_ref = ray.put(np.ascontiguousarray(vocab_hashes, dtype=np.uint64))

    def score(batch: pa.Table) -> pa.Table:
        vocab = ray.get(vocab_ref)
        flat, per_row = _ws_tokens(batch.column(text_col))
        h, blen = _token_hashes(flat)
        real = blen > 0
        if len(vocab):
            pos = np.minimum(np.searchsorted(vocab, h), len(vocab) - 1)
            inv = vocab[pos] == h
        else:
            inv = np.zeros(len(h), dtype=bool)
        oov = real & ~inv
        n_rows = batch.num_rows
        # per_row excludes the lone "" token of empty docs, but the FLAT
        # array still contains it (split always yields >= 1 element per
        # row), so row boundaries use the raw lengths:
        raw = np.maximum(per_row, 1)
        doc_idx = np.repeat(np.arange(n_rows, dtype=np.int64), raw)
        n_oov = np.bincount(doc_idx[oov], minlength=n_rows).astype(np.int64)
        denom = np.maximum(per_row, 1).astype(np.float64)
        oov_frac = np.floor(n_oov / denom * 1e6) / 1e6
        return pa.table(
            {
                id_col: batch.column(id_col),
                "n_tokens": pa.array(per_row, pa.int64()),
                "n_oov": pa.array(n_oov, pa.int64()),
                "oov_frac": pa.array(oov_frac, pa.float64()),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow")
