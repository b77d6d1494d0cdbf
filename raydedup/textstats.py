"""Text-analysis stages for training-data pipelines (vectorized map_batches).

Operators: token counting, quality scoring (length/punct/stopword ratios),
n-gram-heuristic language ID, and rolling-hash document fingerprints.
All pure pyarrow.compute / numpy over string columns; quality metrics are
SQL-mirrorable so they get DuckDB oracles.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .hashing import xxh64_flat
from .tokenize import _ASCII_WS, _string_array_np, split_tokens, tokenize_hashes

# Character-trigram language profiles, expanded deterministically from the
# per-language common-word lists in raydedup/langdata.py (27 languages).
# The DuckDB oracle is generated from the SAME expanded table, so the two
# sides can never drift. Minimum score-per-character to call a language:
LANG_MIN_RATIO = 1.0


def _pack3(cps: np.ndarray) -> np.ndarray:
    """Pack 3 consecutive code points into one uint64 key (cp < 2^21)."""
    c = cps.astype(np.uint64)
    return c[:-2] | (c[1:-1] << np.uint64(21)) | (c[2:] << np.uint64(42))


def _trigram_profiles() -> dict[str, dict[str, int]]:
    """lang → {trigram: weight}. Each rank-r word (space-padded) contributes
    its trigrams at weight len(words)-r; a gram seen at several ranks keeps
    the max weight, so every (lang, gram) row is unique — the SQL join and
    the engine lookup count occurrences identically."""
    from .langdata import LANG_WORDS

    out: dict[str, dict[str, int]] = {}
    for lang, words in LANG_WORDS.items():
        grams: dict[str, int] = {}
        k = len(words)
        for r, w in enumerate(words):
            padded = f" {w.lower()} "
            for i in range(len(padded) - 2):
                g = padded[i : i + 3]
                grams[g] = max(grams.get(g, 0), k - r)
        out[lang] = grams
    return out


def _combined_profile():
    """Merged profile across ALL languages: (sorted unique packed gram keys,
    CSR offsets, per-entry lang ids, per-entry weights, lang names in
    declaration order). One searchsorted against this table classifies every
    trigram position for all 27 languages at once; the CSR expansion feeds a
    single bincount — no per-language pass over the position stream."""
    profs = _trigram_profiles()
    lang_names = np.array(list(profs))
    entries: dict[int, list[tuple[int, int]]] = {}
    for li, grams in enumerate(profs.values()):
        for g, w in grams.items():
            k = int(_pack3(np.frombuffer(g.encode("utf-32-le"), dtype=np.uint32))[0])
            entries.setdefault(k, []).append((li, w))
    keys = np.array(sorted(entries), dtype=np.uint64)
    nnz = np.array([len(entries[int(k)]) for k in keys], dtype=np.int64)
    off = np.zeros(len(keys) + 1, dtype=np.int64)
    np.cumsum(nnz, out=off[1:])
    lang_ids = np.array(
        [li for k in keys for li, _ in entries[int(k)]], dtype=np.int64
    )
    weights = np.array(
        [w for k in keys for _, w in entries[int(k)]], dtype=np.float64
    )
    return keys, off, lang_ids, weights, lang_names


_COMBINED_PROFILE = None


def text_stats(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Per-row stats: n_chars, n_tokens, punct_ratio, upper_ratio,
    digit_ratio. Mirrors straightforward SQL."""
    text = batch.column(text_col)
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    text = pc.fill_null(text, "")
    n_chars = pc.utf8_length(text)
    trimmed = pc.utf8_trim(text, _ASCII_WS)
    toks = split_tokens(trimmed)
    # split('') yields [''] — empty/whitespace-only rows have zero tokens
    n_tokens = pc.if_else(
        pc.equal(trimmed, ""), pa.scalar(0, pa.int32()), pc.list_value_length(toks)
    )
    # counts via regex extraction
    punct = pc.count_substring_regex(text, r"[^\w\s]")
    upper = pc.count_substring_regex(text, r"[A-Z]")
    digit = pc.count_substring_regex(text, r"[0-9]")
    nc = np.maximum(n_chars.to_numpy(zero_copy_only=False), 1).astype(np.float64)
    cols = {name: batch.column(name) for name in batch.column_names if name != text_col}
    cols["n_chars"] = n_chars
    cols["n_tokens"] = pc.cast(n_tokens, pa.int64())
    cols["punct_ratio"] = pa.array(punct.to_numpy(zero_copy_only=False) / nc)
    cols["upper_ratio"] = pa.array(upper.to_numpy(zero_copy_only=False) / nc)
    cols["digit_ratio"] = pa.array(digit.to_numpy(zero_copy_only=False) / nc)
    return pa.table(cols)


def quality_score(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Composite quality heuristic in [0,1]: favors mid-length docs with low
    punctuation/digit noise. Every arithmetic step is a fixed IEEE-double op
    sequence mirrored verbatim by the DuckDB oracle (floor-quantized to 1e-6
    so the value-hash compare is bit-exact)."""
    stats = text_stats(batch, text_col)
    nt = stats.column("n_tokens").to_numpy().astype(np.float64)
    length_score = np.clip(nt / 50.0, 0.0, 1.0) * np.clip(2.0 - nt / 5000.0, 0.0, 1.0)
    punct = stats.column("punct_ratio").to_numpy()
    digit = stats.column("digit_ratio").to_numpy()
    noise_score = np.clip(1.0 - 3.0 * (punct + digit), 0.0, 1.0)
    score = 0.6 * length_score + 0.4 * noise_score
    return stats.append_column("quality", pa.array(np.floor(score * 1e6) / 1e6))


def lang_id(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Character-trigram language ID over 27 languages with 'und' fallback.

    Model: each language's profile is the trigram expansion of its most
    frequent function words (raydedup/langdata.py), rank-weighted. Score =
    Σ weight over every trigram POSITION of the normalized text (lowered,
    whitespace-collapsed, space-padded); prediction = first-max language in
    declaration order, 'und' when score/char < LANG_MIN_RATIO.

    Vectorized: the batch's texts join into ONE code-point array (NUL×2
    separators can never match a profile gram), trigrams pack into uint64
    keys, ONE searchsorted against the merged all-language gram table tags
    every position, and a CSR expansion + single bincount scores all 27
    languages at once — no per-language pass, no Python per row."""
    global _COMBINED_PROFILE
    if _COMBINED_PROFILE is None:
        _COMBINED_PROFILE = _combined_profile()
    ukeys, off, p_lang, p_w, names = _COMBINED_PROFILE
    n_lang = len(names)
    text = batch.column(text_col)
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    lowered = pc.utf8_lower(pc.utf8_trim(pc.fill_null(text, ""), _ASCII_WS))
    collapsed = pc.replace_substring_regex(lowered, r"\s+", " ")
    padded_arr = pc.binary_join_element_wise(" ", collapsed, " ", "")
    n_rows = len(padded_arr)
    lens = pc.utf8_length(padded_arr).to_numpy(zero_copy_only=False).astype(np.int64)
    joined = "\x00\x00".join(padded_arr.to_pylist())
    cps = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32)
    starts = np.zeros(n_rows, dtype=np.int64)
    if n_rows > 1:
        starts[1:] = np.cumsum(lens[:-1] + 2)
    scores = np.zeros((n_lang, n_rows), dtype=np.int64)
    if len(cps) >= 3:
        keys = _pack3(cps)
        idx = np.searchsorted(ukeys, keys)
        idxc = np.minimum(idx, len(ukeys) - 1)
        m = ukeys[idxc] == keys
        if m.any():
            mpos = np.nonzero(m)[0]
            row = np.searchsorted(starts, mpos, side="right") - 1
            gi = idxc[mpos]
            cnt = off[gi + 1] - off[gi]
            tot = int(cnt.sum())
            if tot:
                # CSR range gather: entry indices for each matched gram
                rep = np.repeat(np.arange(len(gi)), cnt)
                ent = np.arange(tot) - np.repeat(np.cumsum(cnt) - cnt, cnt)
                ent += off[gi][rep]
                flat = p_lang[ent] * n_rows + np.repeat(row, cnt)
                scores = (
                    np.bincount(flat, weights=p_w[ent], minlength=n_lang * n_rows)
                    .reshape(n_lang, n_rows)
                    .astype(np.int64)
                )
    best_idx = np.argmax(scores, axis=0)  # first max wins = declaration order
    best = scores[best_idx, np.arange(n_rows)].astype(np.float64)
    ratio = best / np.maximum(lens, 1).astype(np.float64)
    langs = np.where((best > 0) & (ratio >= LANG_MIN_RATIO), names[best_idx], "und")
    out_score = np.floor(ratio * 1e6) / 1e6
    cols = {name: batch.column(name) for name in batch.column_names if name != text_col}
    cols["lang_pred"] = pa.array(langs.tolist(), type=pa.string())
    cols["lang_score"] = pa.array(out_score, type=pa.float64())
    return pa.table(cols)


def fingerprint(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """64-bit whole-document fingerprint: xxh64 over the normalized
    (whitespace-collapsed) token stream — stable under reformatting."""
    text = batch.column(text_col)
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    norm = pc.replace_substring_regex(
        pc.utf8_trim_whitespace(pc.fill_null(text, "")), r"\s+", " "
    )
    flat, off = _string_array_np(norm)
    fp = xxh64_flat(flat, off, seed=0)
    return pa.table(
        {
            id_col: batch.column(id_col),
            "fingerprint": pa.array(fp, type=pa.uint64()),
        }
    )


def para_repetition_signals(
    batch: pa.Table, text_col: str = "text", id_col: str = "doc_id"
) -> pa.Table:
    """The PARAGRAPH half of Gopher §A1.1's repetition signals: identical
    kernel to :func:`repetition_signals` with units split on blank lines
    (``\\n\\n``) instead of ``\\n`` — columns ``n_paras``,
    ``dup_para_frac``, ``dup_para_char_frac``."""
    return repetition_signals(
        batch,
        text_col=text_col,
        id_col=id_col,
        sep="\n\n",
        names=("n_paras", "dup_para_frac", "dup_para_char_frac"),
    )


def repetition_signals(
    batch: pa.Table,
    text_col: str = "text",
    id_col: str = "doc_id",
    sep: str = "\n",
    names: tuple = ("n_lines", "dup_line_frac", "dup_char_frac"),
) -> pa.Table:
    """Gopher-style within-document repetition signals (Rae et al. 2021
    §A1.1): per doc, over its NON-EMPTY units (``sep``-separated — lines
    by default; :func:`para_repetition_signals` passes ``\\n\\n`` for the
    appendix's paragraph variant) —

    * ``n_lines``        — count of non-empty units;
    * ``dup_line_frac``  — fraction of units that are repeats of an
      earlier identical unit, (n_lines − n_distinct) / n_lines;
    * ``dup_char_frac``  — fraction of characters sitting in those repeat
      occurrences, Σ(cnt−1)·len / Σ cnt·len.

    Docs with no non-empty units get (0, 0.0, 0.0). Fractions are
    floor-quantized to 1e-6 (same convention as :func:`quality_score`) so
    the DuckDB oracle compares bit-exactly. Fully vectorized: one split,
    one xxh64 pass over the flat unit buffer, one lexsort; unit equality is
    64-bit-hash equality (the repo-wide convention — collisions are
    2^-64-scale and shared with the oracle's assumption)."""
    text = batch.column(text_col)
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    n_docs = len(text)
    lines = pc.split_pattern(pc.fill_null(text, ""), sep)
    if isinstance(lines, pa.ChunkedArray):
        lines = lines.combine_chunks()
    flat_lines = lines.flatten()
    per_doc = pc.list_value_length(lines).to_numpy().astype(np.int64)
    doc_idx = np.repeat(np.arange(n_docs), per_doc)
    lens = pc.utf8_length(flat_lines).to_numpy(zero_copy_only=False)
    fb, off = _string_array_np(flat_lines)
    h = xxh64_flat(fb, off, seed=0)
    keep = lens > 0
    doc_idx, lens, h = doc_idx[keep], lens[keep].astype(np.int64), h[keep]
    order = np.lexsort((h, doc_idx))
    d, hh, ll = doc_idx[order], h[order], lens[order]
    first = np.ones(len(d), dtype=bool)
    if len(d) > 1:
        first[1:] = (d[1:] != d[:-1]) | (hh[1:] != hh[:-1])
    n_lines = np.bincount(doc_idx, minlength=n_docs).astype(np.int64)
    n_distinct = np.bincount(d[first], minlength=n_docs).astype(np.int64)
    total_chars = np.bincount(doc_idx, weights=lens, minlength=n_docs)
    dup_chars = np.bincount(d[~first], weights=ll[~first], minlength=n_docs)
    denom_l = np.maximum(n_lines, 1).astype(np.float64)
    denom_c = np.maximum(total_chars, 1.0)
    dup_line_frac = np.floor((n_lines - n_distinct) / denom_l * 1e6) / 1e6
    dup_char_frac = np.floor(dup_chars / denom_c * 1e6) / 1e6
    return pa.table(
        {
            id_col: batch.column(id_col),
            names[0]: pa.array(n_lines, pa.int64()),
            names[1]: pa.array(dup_line_frac, pa.float64()),
            names[2]: pa.array(dup_char_frac, pa.float64()),
        }
    )


# BPE-ish pre-tokenizer pattern (GPT-2-style word/number/punct splits,
# lookaheads removed so the pattern stays inside RE2 — the engine both
# pyarrow's count_substring_regex and DuckDB's regexp_extract_all use,
# which is what makes this operator exactly SQL-oracle-able)
BPE_TOKEN_PATTERN = r"'(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+"


def token_counts(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Token counting, both conventions: whitespace tokens (ws_tokens) and
    BPE-ish subword-boundary tokens (bpe_tokens) — the pre-tokenization pass
    of byte-pair encoders, a cheap proxy for LLM token budgets."""
    text = batch.column(text_col)
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    text = pc.fill_null(text, "")
    trimmed = pc.utf8_trim(text, _ASCII_WS)
    ws = pc.if_else(
        pc.equal(trimmed, ""),
        pa.scalar(0, pa.int32()),
        pc.list_value_length(split_tokens(trimmed)),
    )
    bpe = pc.count_substring_regex(text, BPE_TOKEN_PATTERN)
    cols = {name: batch.column(name) for name in batch.column_names if name != text_col}
    cols["ws_tokens"] = pc.cast(ws, pa.int64())
    cols["bpe_tokens"] = pc.cast(bpe, pa.int64())
    return pa.table(cols)


# Markup-extraction patterns, applied in declaration order (all RE2 on both
# sides — pyarrow replace_substring_regex and DuckDB regexp_replace share
# the RE2 engine, so extraction is exactly SQL-oracle-able). script/style
# CONTENT is dropped first (two patterns — RE2 has no backreferences), then
# remaining tags, then whitespace runs collapse to one space.
MARKUP_PATTERNS: list[tuple[str, str]] = [
    (r"(?s)<script[^>]*>.*?</script>", " "),
    (r"(?s)<style[^>]*>.*?</style>", " "),
    (r"<[^>]*>", " "),
    (r"\s+", " "),
]


def strip_markup(
    batch: pa.Table, text_col: str = "html", out_col: str = "text_clean"
) -> pa.Table:
    """Markup extraction: HTML → visible text (the boilerplate-extraction
    pass of a web-corpus pipeline). Drops script/style elements wholesale,
    strips remaining tags, collapses whitespace, trims the shared ASCII
    whitespace set. Vectorized RE2 per batch; output appends ``out_col``
    and ``n_chars`` (clean length) next to the non-text columns."""
    text = batch.column(text_col)
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    clean = pc.fill_null(text, "")
    for pat, repl in MARKUP_PATTERNS:
        clean = pc.replace_substring_regex(clean, pat, repl)
    clean = pc.utf8_trim(clean, _ASCII_WS)
    cols = {
        name: batch.column(name) for name in batch.column_names if name != text_col
    }
    cols[out_col] = clean
    cols["n_chars"] = pc.cast(pc.utf8_length(clean), pa.int64())
    return pa.table(cols)


# PII patterns (RE2 on both sides: pyarrow replace_substring_regex and
# DuckDB regexp_replace(..., 'g') — same engine, so redaction is exactly
# SQL-oracle-able). Applied in declaration order; order matters (an email
# must be redacted before the phone pattern could eat its digit runs).
PII_PATTERNS: list[tuple[str, str]] = [
    (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    (r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
    (r"\b\d{3}[-.]\d{3}[-.]\d{4}\b", "<PHONE>"),
    (r"\+\d{9,15}\b", "<PHONE>"),
]


def redact_pii(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """PII scrubbing for training corpora: replace emails, IPv4 addresses
    and phone-shaped digit runs with typed placeholder tokens, entirely in
    Arrow's RE2 kernels (one replace_substring_regex pass per pattern, no
    per-row Python). Emits the redacted text plus ``has_pii`` (anything
    changed) — the pre-training hygiene pass every large text pipeline
    runs before tokenization."""
    text = batch.column(text_col)
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    original = pc.fill_null(text, "")
    redacted = original
    for pattern, token in PII_PATTERNS:
        redacted = pc.replace_substring_regex(redacted, pattern, token)
    cols = {name: batch.column(name) for name in batch.column_names if name != text_col}
    cols["redacted"] = redacted
    cols["has_pii"] = pc.invert(pc.equal(redacted, original))
    return pa.table(cols)
