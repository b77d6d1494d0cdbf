"""Exact substring (span-level) deduplication — the rolling-window
approximation of suffix-array exact-substring dedup (Lee et al. 2022,
"Deduplicating Training Data Makes Language Models Better": remove every
repeated >=50-token span from all but one occurrence).

Semantics (mirrored exactly by the DuckDB oracle in __ray_entry__):

* a document's tokens are ``\\s+`` splits of its ASCII-trimmed content
  (identical to every other dedup tier — tokenize.py's parity rule);
* a *window* is ``window`` consecutive tokens (stride 1); documents with
  fewer than ``window`` tokens contribute no windows (a too-short doc
  cannot contain a duplicated span of that length — whole-short-doc
  duplication is the exact sha tier's job);
* a window occurrence is *removable* iff an identical token window occurs
  at a lexicographically smaller (id, pos) site anywhere in the corpus —
  i.e. per distinct window text, the globally first occurrence is
  canonical and every other occurrence is removable (keep-first, matching
  the cluster_id = min(id) convention of the other tiers);
* :func:`duplicate_spans` reports removable coverage per document as
  MAXIMAL merged spans ``[span_start, span_end)`` in 1-based token
  positions (overlapping/adjacent removable windows coalesce);
* :func:`strip_duplicate_spans` rewrites every document with covered
  tokens dropped and the survivors re-joined with single spaces (token-
  normalized output, same convention as the SQL mirror's
  ``string_agg(tok, ' ')``).

Identity convention: a window's identity is xxh64 over its ``window``
token hashes (shingle.py), the repo-wide hashed-item-stream convention
(reference theta/UpdateSketch.java:220-324 maps every datum into the
64-bit hash domain at ingest); collisions are 2^-64-scale and shared with
the oracle's exact-string assumption, exactly as in njaccard/paragraphs.

Scale shape (three narrow shuffles, never the text):

1. **postings** — map_batches explodes each doc into 24 B/window
   ``(w: u64, id: i64, pos: i64)`` rows; ONE hash-partitioned all-to-all
   on ``w`` (pipeline.grouped_blocks — one vectorized call per partition,
   not per window) keeps, per window key, every occurrence except the
   (id, pos)-minimum → removable sites. Volume is linear in corpus tokens.
2. **merge** — removable sites are hash-partitioned by ``id`` (16 B/row,
   bounded by duplicated-window volume) and coalesced into maximal spans
   per doc with one vectorized gaps-and-islands pass.
3. **rewrite** — the merged span table is ordinarily a small fraction of
   the corpus, so it is collected once, ``ray.put`` once, and applied
   map-side (searchsorted per batch + one ``pc.binary_join``); above
   ``broadcast_limit`` rows it falls back to a distributed left-outer
   join on packed per-doc span lists (``mode="join"``) — no driver state
   at any size.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .config import DEFAULT_CONFIG, SigConfig
from .shingle import shingle_hashes
from .tokenize import _ASCII_WS, split_tokens, tokenize_hashes

DEFAULT_WINDOW = 20


class WindowExplode:
    """corpus batch → (w: uint64, id: int64, pos: int64) — one posting per
    L-token window OCCURRENCE (every site, with its 1-based token
    position; contrast njaccard.ShingleExplode's per-doc distinct sets)."""

    def __init__(self, window: int, seed: int):
        if window < 2:
            raise ValueError("window must be >= 2")
        self.window = window
        self.seed = seed

    def __call__(self, batch: pa.Table) -> pa.Table:
        flat_tok, tok_off = tokenize_hashes(batch.column("content"), seed=self.seed)
        w, w_off = shingle_hashes(flat_tok, tok_off, self.window, self.seed)
        lens = np.diff(tok_off)
        wlens = np.diff(w_off)
        ids = batch.column("id").to_numpy()
        pos = (
            np.arange(len(w), dtype=np.int64)
            - np.repeat(w_off[:-1], wlens)
            + 1
        )
        # shingle_hashes gives short rows (0 < len < window) one whole-doc
        # shingle — a signature convenience this operator must NOT count
        keep = np.repeat(lens >= self.window, wlens)
        return pa.table(
            {
                "w": pa.array(w[keep], pa.uint64()),
                "id": pa.array(np.repeat(ids, wlens)[keep], pa.int64()),
                "pos": pa.array(pos[keep], pa.int64()),
            }
        )


def _removable_block(block: pa.Table) -> pa.Table:
    """One hash partition of whole posting lists → the non-canonical
    occurrences: per window-key run, every site but the (id, pos)-minimum."""
    empty = pa.table(
        {"id": pa.array([], pa.int64()), "pos": pa.array([], pa.int64())}
    )
    if block.num_rows == 0:
        return empty
    w = block.column("w").to_numpy()
    ids = block.column("id").to_numpy()
    pos = block.column("pos").to_numpy()
    order = np.lexsort((pos, ids, w))
    w, ids, pos = w[order], ids[order], pos[order]
    first = np.ones(len(w), dtype=bool)
    first[1:] = w[1:] != w[:-1]
    rem = ~first
    if not rem.any():
        return empty
    return pa.table(
        {
            "id": pa.array(ids[rem], pa.int64()),
            "pos": pa.array(pos[rem], pa.int64()),
        }
    )


def _merge_block(window: int):
    """One hash partition of whole documents' removable sites → maximal
    merged spans per doc (vectorized gaps-and-islands; intervals all have
    length ``window``, so an island breaks when pos > prev_pos + window)."""

    def merge(block: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "id": pa.array([], pa.int64()),
                "span_start": pa.array([], pa.int64()),
                "span_end": pa.array([], pa.int64()),
            }
        )
        n = block.num_rows
        if n == 0:
            return empty
        ids = block.column("id").to_numpy()
        pos = block.column("pos").to_numpy()
        order = np.lexsort((pos, ids))
        ids, pos = ids[order], pos[order]
        brk = np.ones(n, dtype=bool)
        brk[1:] = (ids[1:] != ids[:-1]) | (pos[1:] > pos[:-1] + window)
        starts = np.flatnonzero(brk)
        last = np.concatenate([starts[1:] - 1, [n - 1]])
        return pa.table(
            {
                "id": pa.array(ids[starts], pa.int64()),
                "span_start": pa.array(pos[starts], pa.int64()),
                "span_end": pa.array(pos[last] + window, pa.int64()),
            }
        )

    return merge


def duplicate_spans(
    corpus: "ray.data.Dataset",  # noqa: F821 - ray imported lazily
    window: int = DEFAULT_WINDOW,
    cfg: SigConfig = DEFAULT_CONFIG,
) -> "ray.data.Dataset":
    """→ Dataset(id: int64, span_start: int64, span_end: int64) — maximal
    merged removable spans, 1-based token positions, ``span_end``
    exclusive (covered tokens are ``span_start .. span_end - 1``)."""
    from .pipeline import grouped_blocks

    postings = corpus.select_columns(["id", "content"]).map_batches(
        WindowExplode(window, cfg.seed), batch_format="pyarrow"
    )
    removable = grouped_blocks(postings, "w", _removable_block)
    return grouped_blocks(removable, "id", _merge_block(window))


def _split_tokens(content) -> tuple[pa.Array, pa.Array, np.ndarray]:
    """(list-of-tokens, flat tokens, tokens-per-row) with the corpus-wide
    tokenization rule (ASCII trim + ``\\s+`` split; an empty/whitespace-only
    row yields the single '' token, as in DuckDB's string_split_regex)."""
    if isinstance(content, pa.ChunkedArray):
        content = content.combine_chunks()
    trimmed = pc.utf8_trim(pc.fill_null(content, ""), _ASCII_WS)
    toks = split_tokens(trimmed)
    toks = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
    per_row = pc.list_value_length(toks).to_numpy().astype(np.int64)
    return toks, toks.flatten(), per_row


def _rewrite_batch(
    batch: pa.Table,
    id_col: str,
    content_col: str,
    row_idx: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    keep_cols: tuple = (),
) -> pa.Table:
    """Drop span-covered tokens and re-join with single spaces. ``row_idx``
    indexes batch rows; spans are 1-based [start, end) token intervals.
    ``keep_cols`` are passed through from the batch unchanged."""
    _, flat, per_row = _split_tokens(batch.column(content_col))
    tok_off = np.zeros(len(per_row) + 1, dtype=np.int64)
    np.cumsum(per_row, out=tok_off[1:])
    total = int(tok_off[-1])
    delta = np.zeros(total + 1, dtype=np.int64)
    if len(row_idx):
        fs = tok_off[row_idx] + starts - 1
        fe = tok_off[row_idx] + np.minimum(ends - 1, per_row[row_idx])
        np.add.at(delta, fs, 1)
        np.add.at(delta, fe, -1)
    covered = np.cumsum(delta[:-1]) > 0
    keep = ~covered
    kept_per_row = per_row.copy()
    if covered.any():
        doc_of_tok = np.repeat(np.arange(len(per_row), dtype=np.int64), per_row)
        kept_per_row = np.bincount(
            doc_of_tok[keep], minlength=len(per_row)
        ).astype(np.int64)
    offsets = np.zeros(len(per_row) + 1, dtype=np.int64)
    np.cumsum(kept_per_row, out=offsets[1:])
    kept_flat = flat.filter(pa.array(keep)) if covered.any() else flat
    if isinstance(kept_flat, pa.ChunkedArray):
        kept_flat = kept_flat.combine_chunks()
    rebuilt = pa.LargeListArray.from_arrays(
        pa.array(offsets, pa.int64()), kept_flat
    )
    cols = {
        id_col: batch.column(id_col),
        content_col: pc.cast(pc.binary_join(rebuilt, " "), pa.string()),
        "n_removed": pa.array(per_row - kept_per_row, pa.int64()),
    }
    for c in keep_cols:
        cols[c] = batch.column(c)
    return pa.table(cols)


def _rewrite_block(keep_cols: tuple = ()):
    """One hash partition of side-tagged rows (side 0 = whole documents,
    side 1 = their span rows — co-located by the id hash partition):
    vectorized span→row mapping via searchsorted over the partition's doc
    ids, then the shared rewrite kernel. ``keep_cols`` ride the doc side
    of the union (null on the span side) and pass through unchanged."""

    def go(block: pa.Table) -> pa.Table:
        side = block.column("side").to_numpy()
        docs = block.filter(pa.array(side == 0)).select(
            ["id", "content", *keep_cols]
        )
        if docs.num_rows == 0:
            cols = {
                "id": pa.array([], pa.int64()),
                "content": pa.array([], pa.string()),
                "n_removed": pa.array([], pa.int64()),
            }
            for c in keep_cols:
                cols[c] = pa.array([], block.schema.field(c).type)
            return pa.table(cols)
        order = np.argsort(docs.column("id").to_numpy(), kind="stable")
        docs = docs.take(pa.array(order))
        doc_ids = docs.column("id").to_numpy()
        spans = block.filter(pa.array(side == 1))
        sid = spans.column("id").to_numpy()
        ss = spans.column("span_start").to_numpy().astype(np.int64)
        ee = spans.column("span_end").to_numpy().astype(np.int64)
        row_idx = np.searchsorted(doc_ids, sid)
        # spans whose id has no doc row here (e.g. a precomputed span
        # table applied to a filtered corpus) must be IGNORED, matching
        # broadcast mode's equality-bounded lo/hi semantics — a raw
        # searchsorted insertion point would alias another doc's row
        pos = np.minimum(row_idx, len(doc_ids) - 1)
        valid = doc_ids[pos] == sid
        if not valid.all():
            row_idx, ss, ee = pos[valid], ss[valid], ee[valid]
        return _rewrite_batch(
            docs, "id", "content", row_idx, ss, ee, keep_cols
        )

    return go


def strip_duplicate_spans(
    corpus: "ray.data.Dataset",  # noqa: F821
    window: int = DEFAULT_WINDOW,
    cfg: SigConfig = DEFAULT_CONFIG,
    spans: "ray.data.Dataset | None" = None,  # noqa: F821
    id_col: str = "id",
    content_col: str = "content",
    mode: str = "broadcast",
    broadcast_limit: int = 50_000_000,
    keep_cols: tuple = (),
) -> "ray.data.Dataset":
    """Rewrite every document with removable duplicated spans dropped.

    → Dataset(id, content, n_removed[, *keep_cols]) over ALL input rows;
    ``content`` is token-normalized (single-space joined — by-design
    whitespace normalization, shared with the SQL mirror). ``spans`` lets
    a caller reuse a precomputed :func:`duplicate_spans` result.
    ``keep_cols`` pass extra input columns through unchanged in BOTH
    modes — in join mode they ride the doc side of the side-tagged union
    (null on the span side) — so a composed caller like curate_corpus_v2
    degrades gracefully to join mode above ``broadcast_limit`` instead of
    hard-failing.
    """
    import ray

    if mode not in ("broadcast", "join"):
        raise ValueError(f"unknown mode {mode!r}")
    if spans is None:
        src = corpus.select_columns([id_col, content_col])
        if (id_col, content_col) != ("id", "content"):
            src = src.map_batches(
                lambda b: b.rename_columns(["id", "content"]),
                batch_format="pyarrow",
            )
        spans = duplicate_spans(src, window, cfg)
    docs = corpus.select_columns([id_col, content_col, *keep_cols])

    if mode == "broadcast":
        spans_mat = spans.materialize()
        if spans_mat.count() > broadcast_limit:
            mode = "join"
            spans = spans_mat
        else:
            tables = [
                b
                for b in spans_mat.iter_batches(batch_format="pyarrow")
                if b.num_rows
            ]
            if tables:
                t = pa.concat_tables(tables)
                sid = t.column("id").to_numpy()
                ss = t.column("span_start").to_numpy()
                ee = t.column("span_end").to_numpy()
                order = np.lexsort((ss, sid))
                sid, ss, ee = sid[order], ss[order], ee[order]
            else:
                sid = ss = ee = np.zeros(0, dtype=np.int64)
            ref = ray.put((sid, np.ascontiguousarray(ss), np.ascontiguousarray(ee)))

            def rewrite_bcast(batch: pa.Table) -> pa.Table:
                sid_, ss_, ee_ = ray.get(ref)
                ids = batch.column(id_col).to_numpy()
                lo = np.searchsorted(sid_, ids, side="left")
                hi = np.searchsorted(sid_, ids, side="right")
                cnt = hi - lo
                row_idx = np.repeat(np.arange(len(ids), dtype=np.int64), cnt)
                gather = (
                    np.repeat(lo, cnt)
                    + np.arange(int(cnt.sum()), dtype=np.int64)
                    - np.repeat(np.concatenate([[0], np.cumsum(cnt)])[:-1], cnt)
                )
                return _rewrite_batch(
                    batch,
                    id_col,
                    content_col,
                    row_idx,
                    ss_[gather],
                    ee_[gather],
                    keep_cols,
                )

            return docs.map_batches(rewrite_bcast, batch_format="pyarrow")

    # join mode: side-tagged union co-partitioned by id (sessions.py's
    # pattern — Ray's hash join rejects list payload columns, and a
    # groupby-co-partition costs the same single shuffle anyway)
    from .pipeline import grouped_blocks

    # keep_cols ride the doc side; the span side carries typed nulls so
    # the union schema agrees (types read once from the doc schema)
    keep_types = {}
    if keep_cols:
        doc_schema = docs.schema().base_schema
        keep_types = {c: doc_schema.field(c).type for c in keep_cols}

    def tag_docs(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {
            "id": pc.cast(batch.column(id_col), pa.int64()),
            "content": pc.cast(batch.column(content_col), pa.string()),
            "span_start": pa.nulls(n, pa.int64()),
            "span_end": pa.nulls(n, pa.int64()),
            "side": pa.array(np.zeros(n, np.int8)),
        }
        for c in keep_cols:
            cols[c] = pc.cast(batch.column(c), keep_types[c])
        return pa.table(cols)

    def tag_spans(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {
            "id": batch.column("id"),
            "content": pa.nulls(n, pa.string()),
            "span_start": batch.column("span_start"),
            "span_end": batch.column("span_end"),
            "side": pa.array(np.ones(n, np.int8)),
        }
        for c in keep_cols:
            cols[c] = pa.nulls(n, keep_types[c])
        return pa.table(cols)

    union = docs.map_batches(tag_docs, batch_format="pyarrow").union(
        spans.map_batches(tag_spans, batch_format="pyarrow")
    )
    out = grouped_blocks(union, "id", _rewrite_block(keep_cols))
    if id_col != "id" or content_col != "content":
        out = out.map_batches(
            lambda b: b.rename_columns(
                [id_col, content_col, "n_removed", *keep_cols]
            ),
            batch_format="pyarrow",
        )
    return out
