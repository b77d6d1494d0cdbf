"""Per-row kernels of the signature stage and the near tier's verify,
checked bit for bit against the whole-batch sort kernels they replaced
(tests/reference_impls.py), plus a frozen digest of the SignatureStage
output."""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

import raydedup.shingle as shingle
import raydedup.stages as stages
from raydedup.config import SigConfig
from raydedup.minhash import minhash_signatures
from raydedup.pipeline import _explode_winnow
from raydedup.shingle import segment_unique, shingle_hashes
from raydedup.simhash import simhash_signatures
from raydedup.stages import SignatureStage, kmv_jaccard_many
from raydedup.tokenize import split_tokens, tokenize_hashes
from raydedup.winnow import winnow_fingerprints
from tests.reference_impls import (
    kmv_jaccard_many_lexsort,
    segment_unique_lexsort,
    split_tokens_regex,
    winnow_fingerprints_argmin,
)

MAX64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def _offsets(lens) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)


def _assert_same(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


# ---------------------------------------------------------------------------
# segment_unique
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.uint64, np.int64, np.uint32])
def test_segment_unique_matches_lexsort(dtype):
    rng = np.random.default_rng(5)
    # empty rows, 1-element rows, 2^c and 2^c + 1 elements
    lens = [0, 1, 0, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65, 1, 0]
    for trial in range(40):
        ls = rng.permutation(lens)
        off = _offsets(ls)
        hi = (3, 50, np.iinfo(dtype).max)[trial % 3]
        flat = rng.integers(0, hi, int(off[-1]), dtype=dtype, endpoint=True)
        flat[rng.random(len(flat)) < 0.2] = np.iinfo(dtype).max
        _assert_same(segment_unique(flat, off), segment_unique_lexsort(flat, off))


def test_segment_unique_edge_rows():
    cases = [
        ([], []),
        ([0, 0], []),
        ([1], [MAX64]),
        ([2, 1, 0], [MAX64, MAX64, 7]),
        ([3], [MAX64, 0, MAX64]),
        ([4, 4], [5, 5, 5, 5, 9, 8, 9, 8]),
    ]
    for lens, vals in cases:
        off = _offsets(np.array(lens, dtype=np.int64))
        flat = np.array(vals, dtype=np.uint64)
        _assert_same(segment_unique(flat, off), segment_unique_lexsort(flat, off))


def test_explode_winnow_matches_lexsort():
    cfg = SigConfig(winnow_k=3, winnow_window=2)
    sigs = SignatureStage(cfg)(_corpus(np.random.default_rng(3), 120))
    out = _explode_winnow(sigs.select(["id", "winnow"]))
    flat, off = stages._binary_col_flat_u64(sigs.column("winnow"))
    fps = flat.reshape(-1, 2)[:, 0]
    want, want_off = segment_unique_lexsort(fps, off // 2)
    ids = np.repeat(sigs.column("id").to_numpy(), np.diff(want_off))
    np.testing.assert_array_equal(out.column("fp").to_numpy(), want)
    np.testing.assert_array_equal(out.column("id").to_numpy(), ids)
    assert out.schema == pa.schema([("fp", pa.uint64()), ("id", pa.int64())])


# ---------------------------------------------------------------------------
# kmv_jaccard_many
# ---------------------------------------------------------------------------


def _sketches(rng, n, k, hash_bytes):
    dt = np.uint32 if hash_bytes == 4 else np.uint64
    top = (1 << 31) - 1 if hash_bytes == 4 else (1 << 63) - 1
    cells, thetas = [], []
    for _ in range(n):
        hi = int(rng.choice([40, top]))
        v = np.unique(rng.integers(0, hi, int(rng.integers(0, k + 3)))).astype(dt)
        cells.append(v)
        # exact mode, or a theta at / inside the retained cells
        t = hi if rng.random() < 0.5 or not len(v) else int(v[rng.integers(len(v))])
        thetas.append(t)
    off = _offsets([len(v) for v in cells])
    flat = np.concatenate(cells).astype(dt)
    return flat, off, np.array(thetas, dtype=dt)


@pytest.mark.parametrize("hash_bytes", [8, 4])
@pytest.mark.parametrize("block", [None, 8])
def test_kmv_jaccard_many_matches_lexsort(hash_bytes, block, monkeypatch):
    if block:  # slices of a few pairs each
        monkeypatch.setattr(stages, "BLOCK_ELEMS", block)
    rng = np.random.default_rng(hash_bytes)
    for _ in range(30):
        k = int(rng.integers(1, 12))
        n = int(rng.integers(1, 30))
        flat, off, th = _sketches(rng, n, k, hash_bytes)
        P = int(rng.integers(0, 80))
        a, b = rng.integers(0, n, P), rng.integers(0, n, P)
        args = (flat, off[a], off[a + 1], th[a], flat, off[b], off[b + 1], th[b], k)
        _assert_same([kmv_jaccard_many(*args)], [kmv_jaccard_many_lexsort(*args)])


def test_kmv_jaccard_many_unequal_and_empty_sketches():
    flat = np.array([1, 2, 3, 4, 5, 6, 9, 2, 4], dtype=np.uint64)
    off = np.array([0, 6, 7, 9, 9], dtype=np.int64)  # lengths 6, 1, 2, 0
    th = np.array([10, 10, 5, 10], dtype=np.uint64)
    a = np.array([0, 0, 1, 3, 2])
    b = np.array([1, 2, 3, 3, 0])
    for k in (1, 2, 3, 8):
        args = (flat, off[a], off[a + 1], th[a], flat, off[b], off[b + 1], th[b], k)
        _assert_same([kmv_jaccard_many(*args)], [kmv_jaccard_many_lexsort(*args)])


# ---------------------------------------------------------------------------
# winnow
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("block", [None, 5])
def test_winnow_matches_argmin(block, monkeypatch):
    if block:
        monkeypatch.setattr(shingle, "BLOCK_ELEMS", block)
    rng = np.random.default_rng(11)
    for k, w in ((1, 1), (2, 3), (3, 4), (4, 8), (5, 16)):
        # gram counts below, at and just above w, and rows under k tokens
        lens = [0, k - 1, k, k + w - 2, k + w - 1, k + w, k + 3 * w, 1]
        for alphabet in (2, 3, 1 << 40):  # small alphabets tie grams
            ls = rng.permutation(np.maximum(lens, 0))
            off = _offsets(ls)
            flat = rng.integers(0, alphabet, int(off[-1])).astype(np.uint64)
            _assert_same(
                winnow_fingerprints(flat, off, k, w, 7),
                winnow_fingerprints_argmin(flat, off, k, w, 7),
            )


def test_winnow_ties_pick_rightmost():
    # every gram of the row is equal: each window's pick is its last gram
    off = _offsets([12])
    flat = np.full(12, 4, dtype=np.uint64)
    h, p, fo = winnow_fingerprints(flat, off, 3, 4, 1)
    np.testing.assert_array_equal(p, np.arange(3, 10, dtype=np.uint64))
    _assert_same((h, p, fo), winnow_fingerprints_argmin(flat, off, 3, 4, 1))


# ---------------------------------------------------------------------------
# row blocks: blocked minhash / simhash / shingles equal one whole block
# ---------------------------------------------------------------------------


def test_row_blocks_cover_rows_in_order(monkeypatch):
    monkeypatch.setattr(shingle, "BLOCK_ELEMS", 10)
    off = _offsets([3, 0, 25, 4, 4, 4, 0, 1])
    rows = np.flatnonzero(np.diff(off) > 0)
    blocks = list(shingle.row_blocks(off, rows))
    np.testing.assert_array_equal(np.concatenate(blocks), rows)
    assert all(len(b) for b in blocks) and len(blocks) > 2
    assert list(shingle.row_blocks(off, rows[:0])) == []


def test_blocked_signatures_equal_one_block(monkeypatch):
    flat_tok, tok_off = tokenize_hashes(
        _corpus(np.random.default_rng(9), 60).column("content"), seed=3
    )

    def run():
        sh, sh_off = shingle_hashes(flat_tok, tok_off, 4, 3)
        return (
            sh, sh_off,
            minhash_signatures(sh, sh_off, 16, 3),
            simhash_signatures(sh, sh_off),
            *winnow_fingerprints(flat_tok, tok_off, 4, 3, 3),
        )

    whole = run()
    for block in (1, 7, 64):
        monkeypatch.setattr(shingle, "BLOCK_ELEMS", block)
        _assert_same(run(), whole)


# ---------------------------------------------------------------------------
# tokenizer split
# ---------------------------------------------------------------------------

_SPACES = [" ", "\t", "\n", "\r", "\f", "\v", "\x1c", "\x1d", "\x1e", "\x1f",
           "\xa0", "\u2028", "\u3000", "\x85"]


def test_split_tokens_matches_regex():
    fixed = ["", " ", "\v", "\t\n\r\f", "a\vb", "a \v b", "a\x1cb\x1dc\x1e\x1fd",
             "a\xa0b c", "x\u2028y", " lead", "trail\t", None, "one"]
    rng = np.random.default_rng(13)
    fuzz = [
        "".join(
            rng.choice(_SPACES) if rng.random() < 0.4 else rng.choice(list("ab\u20ac"))
            for _ in range(rng.integers(0, 12))
        )
        for _ in range(400)
    ]
    for texts in (fixed, fuzz, [t for t in fuzz if "\v" not in t]):
        for typ in (pa.string(), pa.large_string()):
            arr = pa.array(texts, typ)
            for a in (arr, pa.chunked_array([arr[:5], arr[5:]], typ)):
                assert split_tokens(a).equals(split_tokens_regex(a))
                trimmed = pc.utf8_trim(a, " \t\n\r\v\f")
                assert split_tokens(trimmed).equals(split_tokens_regex(trimmed))


# ---------------------------------------------------------------------------
# frozen SignatureStage output
# ---------------------------------------------------------------------------


def _corpus(rng, n) -> pa.Table:
    vocab = [f"w{i}" for i in range(60)]
    texts = [" ".join(rng.choice(vocab, rng.integers(0, 40))) for _ in range(n)]
    return pa.table({"id": pa.array(range(n), pa.int64()), "content": texts})


def _frozen_corpus() -> pa.Table:
    """Fixed corpus built without numpy's generators (stable across numpy
    versions): edge rows, rows of exactly 2^c and 2^c + 1 tokens, random
    rows with near and exact copies, and one row longer than a row block."""
    state = 20261020

    def rnd(n):
        nonlocal state
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        return (state >> 33) % n

    vocab = [f"w{i}" for i in range(300)]
    texts = [
        "", "   ", "\t\n \r\f", None, "\v", " \v ", "one", "a b", "x\vy z",
        "p\x1cq\x1dr\x1es\x1ft u", "u\xa0v w\xa0", "m\u2028n o\u3000p",
        "a a a a a a a a a a a a", "b c b c b c b c b c b c b c",
    ]
    for c in range(1, 8):
        for extra in (0, 1, 4):
            texts.append(" ".join(f"t{c}_{j}" for j in range((1 << c) + extra)))
    for _ in range(150):
        toks = [vocab[rnd(300)] for _ in range(rnd(90))]
        texts.append(" ".join(toks))
        if rnd(3) == 0:  # near copy
            t2 = list(toks)
            if t2:
                t2[rnd(len(t2))] = "edit"
            texts.append(" ".join(t2))
        if rnd(5) == 0:  # exact copy with other whitespace
            texts.append("\n".join(toks))
    texts.append(" ".join(vocab[rnd(40)] for _ in range(40_000)))
    return pa.table({
        "id": pa.array(range(len(texts)), pa.int64()),
        "content": pa.array(texts, pa.string()),
    })


def _stage_digest(out: pa.Table) -> str:
    h = hashlib.sha256()
    for name in out.column_names:
        h.update(name.encode())
        for buf in out.column(name).combine_chunks().buffers():
            h.update(b"-" if buf is None else buf.to_pybytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "cfg, digest",
    [
        (SigConfig(),
         "afc5107e2b6738284f1642982b6e9d7ceac932e6f7e4447ea959069e98aeec16"),
        (SigConfig(shingle_k=3, kmv_k=16, kmv_hash_bytes=4, winnow_k=4,
                   winnow_window=3),
         "e9aa96d54298819b1e5d9ba4ae0abdc31602a9c82abafc04edff8ad3ecac73e6"),
    ],
)
def test_signature_stage_output_is_frozen(cfg, digest):
    """Every buffer of every output column, against a digest recorded
    with the whole-batch sort kernels."""
    assert _stage_digest(SignatureStage(cfg)(_frozen_corpus())) == digest
