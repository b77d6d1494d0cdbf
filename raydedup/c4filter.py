"""C4-style line and page filtering (Raffel et al. 2020 §2.2 — the
cleaning pass that produced C4 from Common Crawl; the template for every
line-level web-text filter since).

Line rule — a line survives iff (evaluated on its whitespace-trimmed
form):

* it ends in a terminal punctuation mark (``.``, ``!``, ``?`` or a
  closing double quote — C4's rule verbatim);
* it has at least ``min_line_words`` whitespace words (C4: 5);
* it does not contain the word ``javascript`` (case-insensitive).

Page rule — a page survives iff:

* it contains none of the ``block_substrings`` anywhere in the RAW text
  (C4 drops pages containing ``lorem ipsum`` or a curly bracket ``{``;
  C4's naughty-word blocklist is the same mechanism with a longer list —
  pass it in);
* its kept text has at least ``min_sentences`` sentences, counted as
  terminal-punctuation marks ``[.!?]`` in the kept text (C4: 3; the
  driver query passes 1 because the synthetic fixture pages carry ~2
  sentences).

Output: one row per SURVIVING page — ``page_id``, ``text_clean`` (the
trimmed kept lines joined by newline), ``n_lines_kept``, ``n_sentences``.

Scale shape: stateless ``map_batches`` — no shuffle, no state. One split
per page, all line predicates on the FLAT child array (Arrow kernels:
trim, regex-match, non-overlapping ``\\S+`` count), kept lines re-listed
by offset arithmetic and joined with ONE ``binary_join``. The DuckDB
oracle mirrors each predicate with the same RE2 regexes.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .tokenize import _ASCII_WS

TERMINAL_PUNCT_RE = '[.!?"]$'
SENTENCE_MARK_RE = "[.!?]"
MIN_LINE_WORDS = 5
MIN_SENTENCES = 3
BLOCK_SUBSTRINGS = ("lorem ipsum", "{")
JS_WORD = "javascript"


def c4_page_filter(
    batch: pa.Table,
    text_col: str = "text",
    id_col: str = "page_id",
    min_line_words: int = MIN_LINE_WORDS,
    min_sentences: int = MIN_SENTENCES,
    block_substrings: tuple = BLOCK_SUBSTRINGS,
) -> pa.Table:
    text = batch.column(text_col)
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    text = pc.fill_null(text, "")
    n_pages = len(text)

    lines = pc.split_pattern(text, "\n")
    if isinstance(lines, pa.ChunkedArray):
        lines = lines.combine_chunks()
    per_page = pc.list_value_length(lines).to_numpy().astype(np.int64)
    flat = pc.utf8_trim(lines.flatten(), _ASCII_WS)
    row_of = np.repeat(np.arange(n_pages, dtype=np.int64), per_page)

    ends_ok = pc.match_substring_regex(flat, TERMINAL_PUNCT_RE).to_numpy(
        zero_copy_only=False
    )
    n_words = pc.count_substring_regex(flat, r"\S+").to_numpy(
        zero_copy_only=False
    )
    no_js = np.logical_not(
        pc.match_substring(pc.utf8_lower(flat), JS_WORD).to_numpy(
            zero_copy_only=False
        )
    )
    keep_line = ends_ok & (n_words >= min_line_words) & no_js

    n_kept = np.bincount(row_of, weights=keep_line, minlength=n_pages).astype(
        np.int64
    )
    kept_flat = flat.filter(pa.array(keep_line))
    # int64 offsets + LargeList: an int32 cumsum would silently wrap past
    # 2^31 cumulative kept lines and corrupt the list layout
    kept_off = np.concatenate([[0], np.cumsum(n_kept)]).astype(np.int64)
    kept_list = pa.LargeListArray.from_arrays(
        pa.array(kept_off, pa.int64()), kept_flat
    )
    text_clean = pc.binary_join(kept_list, "\n")
    n_sentences = pc.count_substring_regex(
        text_clean, SENTENCE_MARK_RE
    ).to_numpy(zero_copy_only=False).astype(np.int64)

    blocked = np.zeros(n_pages, dtype=bool)
    lower_text = pc.utf8_lower(text)
    for s in block_substrings:
        blocked |= pc.match_substring(lower_text, s).to_numpy(
            zero_copy_only=False
        )
    survives = (~blocked) & (n_sentences >= min_sentences)

    mask = pa.array(survives)
    return pa.table(
        {
            id_col: batch.column(id_col).filter(mask),
            "text_clean": text_clean.filter(mask),
            "n_lines_kept": pa.array(n_kept, pa.int64()).filter(mask),
            "n_sentences": pa.array(n_sentences, pa.int64()).filter(mask),
        }
    )


def c4_filter(
    ds: "ray.data.Dataset",  # noqa: F821 - ray imported lazily by callers
    text_col: str = "text",
    id_col: str = "page_id",
    min_line_words: int = MIN_LINE_WORDS,
    min_sentences: int = MIN_SENTENCES,
    block_substrings: tuple = BLOCK_SUBSTRINGS,
) -> "ray.data.Dataset":
    """Dataset-level convenience: prune the read to (id, text), apply
    :func:`c4_page_filter` map-side."""

    def fn(batch: pa.Table) -> pa.Table:
        return c4_page_filter(
            batch,
            text_col=text_col,
            id_col=id_col,
            min_line_words=min_line_words,
            min_sentences=min_sentences,
            block_substrings=block_substrings,
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        fn, batch_format="pyarrow"
    )
