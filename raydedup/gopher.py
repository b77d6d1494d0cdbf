"""Gopher quality-rule document filtering (Rae et al. 2021, Appendix A1
"Quality filtering heuristics") — the rule set MassiveText applied to every
web page before training, and the standard first-pass filter of every
large-scale text pipeline since (RefinedWeb, Dolma, FineWeb all ship a
variant). Complements :func:`raydedup.textstats.repetition_signals`, which
covers the same appendix's within-document repetition signals (§A1.1);
this module covers the document-shape rules:

1.  ``word_count_ok``  — 50 <= n_words <= 100_000;
2.  ``mean_word_len_ok`` — mean word length in [3, 10] characters;
3.  ``symbol_ok``      — symbol-to-word ratio <= 0.1 for EACH symbol
    class separately (the paper's "either the hash symbol or the
    ellipsis" wording): ``#`` occurrences, and ellipsis occurrences
    counting both ``...`` and the unicode ``…``;
4.  ``bullet_ok``      — <= 90% of lines start with a bullet prefix
    (``- ``, ``* ``, ``• ``);
5.  ``ellipsis_ok``    — <= 30% of lines end with ``...`` or ``…``;
6.  ``alpha_ok``       — >= 80% of words contain at least one alphabetic
    character;
7.  ``stop_ok``        — at least 2 DISTINCT stop words from Gopher's
    8-word list appear as whitespace tokens.

``gopher_pass`` is the conjunction. Every threshold is evaluated in
INTEGER arithmetic (e.g. ``mean length >= 3``  ⇔  ``3*n_words <=
total_word_chars``), so there is no float to drift and the DuckDB oracle
value-hash-matches bit for bit — the same exactness convention as
:func:`raydedup.textstats.quality_score` (which floor-quantizes instead
because its output IS a float).

Scale shape: stateless ``map_batches`` — no shuffle, no state, no driver
materialization; prune the read to (id, text). All kernels are one
vectorized pass: one regex split for words, one plain split for lines,
per-token predicates via Arrow compute on the FLAT child arrays, per-doc
integer reductions via ``np.bincount`` over the repeated row index.

Tokenization is the repo-wide rule (ASCII-trim + ``\\s+`` split, empty
trimmed text = 0 words; reference-style hashed-stream ingest is not needed
here because the rules read token SHAPE, not identity). Word "characters"
are Unicode code points (``pc.utf8_length`` / DuckDB ``length``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .tokenize import _ASCII_WS, split_tokens

# Gopher A1's "must contain at least 2 of the following English words"
STOP_WORDS = ("the", "be", "to", "of", "and", "that", "have", "with")
BULLET_PREFIXES = ("- ", "* ", "• ")
ELLIPSIS_SUFFIXES = ("...", "…")
ELLIPSIS_SUFFIX = "..."  # back-compat alias (first of ELLIPSIS_SUFFIXES)

MIN_WORDS = 50
MAX_WORDS = 100_000
MIN_MEAN_WORD_LEN = 3  # chars, inclusive
MAX_MEAN_WORD_LEN = 10
# symbol_to_word <= 1/10, bullet_lines <= 9/10, ellipsis_lines <= 3/10,
# alpha_words >= 4/5, expressed as integer cross-multiplications below
MIN_STOP_HITS = 2

# Gopher A1.1 line/paragraph-repetition removal thresholds (computed by
# raydedup.textstats.repetition_signals / para_repetition_signals)
DUP_LINE_FRAC_MAX = 0.30
DUP_LINE_CHAR_FRAC_MAX = 0.20
DUP_PARA_FRAC_MAX = 0.30
DUP_PARA_CHAR_FRAC_MAX = 0.20


def _flat_words(text: pa.Array) -> tuple[pa.Array, np.ndarray]:
    """(flat word array, per-row word counts) under the repo tokenization
    rule — whitespace-only rows contribute zero words."""
    trimmed = pc.utf8_trim(pc.fill_null(text, ""), _ASCII_WS)
    toks = split_tokens(trimmed)
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    counts = pc.list_value_length(toks).to_numpy().astype(np.int64)
    empty = pc.equal(trimmed, "").to_numpy(zero_copy_only=False)
    counts = np.where(empty, 0, counts)
    flat = toks.flatten()
    if empty.any():
        # split('') yields [''] — drop those phantom single-empty-token rows
        keep = np.repeat(~empty, pc.list_value_length(toks).to_numpy())
        flat = flat.filter(pa.array(keep))
    return flat, counts


def gopher_rules(
    batch: pa.Table, text_col: str = "text", id_col: str = "doc_id"
) -> pa.Table:
    """→ one row per input row: the integer counts each rule reads, the 7
    per-rule booleans, and ``gopher_pass``."""
    text = batch.column(text_col)
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    text = pc.fill_null(text, "")
    n_docs = len(text)

    # ---- words ----
    flat_w, n_words = _flat_words(text)
    row_w = np.repeat(np.arange(n_docs, dtype=np.int64), n_words)
    wlen = pc.utf8_length(flat_w).to_numpy(zero_copy_only=False).astype(np.int64)
    word_chars = np.bincount(row_w, weights=wlen, minlength=n_docs).astype(np.int64)
    is_alpha = (
        pc.match_substring_regex(flat_w, "[A-Za-z]")
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    n_alpha_words = np.bincount(row_w, weights=is_alpha, minlength=n_docs).astype(
        np.int64
    )
    n_stop_hits = np.zeros(n_docs, dtype=np.int64)
    for sw in STOP_WORDS:
        eq = pc.equal(flat_w, sw).to_numpy(zero_copy_only=False).astype(np.int64)
        present = np.bincount(row_w, weights=eq, minlength=n_docs) > 0
        n_stop_hits += present

    # ---- symbols (counted over the RAW text; '...' non-overlapping
    # left-to-right, the shared str.count/replace-length semantics) ----
    n_hash = (
        pc.count_substring(text, "#").to_numpy(zero_copy_only=False).astype(np.int64)
    )
    n_ell_sym = np.zeros(n_docs, dtype=np.int64)
    for e in ELLIPSIS_SUFFIXES:
        n_ell_sym += (
            pc.count_substring(text, e)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )

    # ---- lines (plain '\n' split; '' has one empty line, same as SQL) ----
    lines = pc.split_pattern(text, "\n")
    if isinstance(lines, pa.ChunkedArray):
        lines = lines.combine_chunks()
    n_lines = pc.list_value_length(lines).to_numpy().astype(np.int64)
    flat_l = lines.flatten()
    row_l = np.repeat(np.arange(n_docs, dtype=np.int64), n_lines)
    bullet = np.zeros(len(flat_l), dtype=np.int64)
    for p in BULLET_PREFIXES:
        bullet |= pc.starts_with(flat_l, p).to_numpy(zero_copy_only=False)
    n_bullet = np.bincount(row_l, weights=bullet, minlength=n_docs).astype(np.int64)
    ell = np.zeros(len(flat_l), dtype=np.int64)
    for e in ELLIPSIS_SUFFIXES:
        ell |= pc.ends_with(flat_l, e).to_numpy(zero_copy_only=False)
    n_ellipsis = np.bincount(row_l, weights=ell, minlength=n_docs).astype(np.int64)

    # ---- rules, all integer comparisons ----
    word_count_ok = (n_words >= MIN_WORDS) & (n_words <= MAX_WORDS)
    mean_word_len_ok = (MIN_MEAN_WORD_LEN * n_words <= word_chars) & (
        word_chars <= MAX_MEAN_WORD_LEN * n_words
    )
    symbol_ok = (10 * n_hash <= n_words) & (10 * n_ell_sym <= n_words)
    bullet_ok = 10 * n_bullet <= 9 * n_lines
    ellipsis_ok = 10 * n_ellipsis <= 3 * n_lines
    alpha_ok = 5 * n_alpha_words >= 4 * n_words
    stop_ok = n_stop_hits >= MIN_STOP_HITS
    gopher_pass = (
        word_count_ok
        & mean_word_len_ok
        & symbol_ok
        & bullet_ok
        & ellipsis_ok
        & alpha_ok
        & stop_ok
    )
    return pa.table(
        {
            id_col: batch.column(id_col),
            "n_words": pa.array(n_words, pa.int64()),
            "word_chars": pa.array(word_chars, pa.int64()),
            "n_hash_symbols": pa.array(n_hash, pa.int64()),
            "n_ellipsis_symbols": pa.array(n_ell_sym, pa.int64()),
            "n_lines": pa.array(n_lines, pa.int64()),
            "n_bullet_lines": pa.array(n_bullet, pa.int64()),
            "n_ellipsis_lines": pa.array(n_ellipsis, pa.int64()),
            "n_alpha_words": pa.array(n_alpha_words, pa.int64()),
            "n_stop_hits": pa.array(n_stop_hits, pa.int64()),
            "word_count_ok": pa.array(word_count_ok),
            "mean_word_len_ok": pa.array(mean_word_len_ok),
            "symbol_ok": pa.array(symbol_ok),
            "bullet_ok": pa.array(bullet_ok),
            "ellipsis_ok": pa.array(ellipsis_ok),
            "alpha_ok": pa.array(alpha_ok),
            "stop_ok": pa.array(stop_ok),
            "gopher_pass": pa.array(gopher_pass),
        }
    )


def gopher_full_filter(
    ds: "ray.data.Dataset",  # noqa: F821 - ray imported lazily by callers
    text_col: str = "text",
    id_col: str = "doc_id",
    keep_cols: tuple = (),
) -> "ray.data.Dataset":
    """The COMPLETE Gopher quality filter (Rae et al. 2021 Table A1):
    the 7 document-shape rules (:func:`gopher_rules`) AND the four
    line/paragraph-repetition thresholds (dup fraction <= 0.30, dup char
    fraction <= 0.20 at both granularities, via
    :func:`raydedup.textstats.repetition_signals` /
    :func:`~raydedup.textstats.para_repetition_signals`) AND the nine
    n-gram repetition thresholds (top-{2,3,4} / dup-{5..10} char
    fractions, via :func:`raydedup.ngramrep.ngram_repetition_signals`).
    Survivors only, id + keep_cols. All four signal families are
    computed on the same batch in ONE stateless map_batches — no shuffle,
    nothing materialized."""
    from .ngramrep import (
        DUP_THRESHOLDS,
        TOP_THRESHOLDS,
        ngram_repetition_signals,
    )
    from .textstats import para_repetition_signals, repetition_signals

    def fn(batch: pa.Table) -> pa.Table:
        rules = gopher_rules(batch, text_col=text_col, id_col=id_col)
        shape_ok = rules.column("gopher_pass").to_numpy(zero_copy_only=False)
        # the cheap shape rules reject most of a real web corpus — compute
        # the 11 repetition signals only on their survivors (pure AND
        # composition, so the short-circuit cannot change the result)
        sub = batch.filter(pa.array(shape_ok))
        if sub.num_rows == 0:
            return sub.select([id_col, *keep_cols])
        mask = np.ones(sub.num_rows, dtype=bool)
        rep = repetition_signals(sub, text_col=text_col, id_col=id_col)
        mask &= (
            rep.column("dup_line_frac").to_numpy() <= DUP_LINE_FRAC_MAX
        )
        mask &= (
            rep.column("dup_char_frac").to_numpy() <= DUP_LINE_CHAR_FRAC_MAX
        )
        par = para_repetition_signals(sub, text_col=text_col, id_col=id_col)
        mask &= par.column("dup_para_frac").to_numpy() <= DUP_PARA_FRAC_MAX
        mask &= (
            par.column("dup_para_char_frac").to_numpy()
            <= DUP_PARA_CHAR_FRAC_MAX
        )
        ng = ngram_repetition_signals(sub, text_col=text_col, id_col=id_col)
        for n, thr in TOP_THRESHOLDS.items():
            mask &= ng.column(f"top_{n}gram_char_frac").to_numpy() <= thr
        for n, thr in DUP_THRESHOLDS.items():
            mask &= ng.column(f"dup_{n}gram_char_frac").to_numpy() <= thr
        return sub.select([id_col, *keep_cols]).filter(pa.array(mask))

    return ds.select_columns(
        list(dict.fromkeys([id_col, text_col, *keep_cols]))
    ).map_batches(fn, batch_format="pyarrow")


def gopher_filter(
    ds: "ray.data.Dataset",  # noqa: F821 - ray imported lazily by callers
    text_col: str = "text",
    id_col: str = "doc_id",
    keep_cols: tuple = (),
) -> "ray.data.Dataset":
    """Survivors-only convenience: rows passing every Gopher rule, with
    ``id_col`` + ``keep_cols`` retained. Stateless map-side filter."""

    def fn(batch: pa.Table) -> pa.Table:
        rules = gopher_rules(batch, text_col=text_col, id_col=id_col)
        mask = rules.column("gopher_pass")
        out = batch.select([id_col, *keep_cols]).filter(mask)
        return out

    return ds.select_columns(
        list(dict.fromkeys([id_col, text_col, *keep_cols]))
    ).map_batches(fn, batch_format="pyarrow")
