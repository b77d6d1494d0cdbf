"""Top-V vocabulary + OOV-rate operators (raydedup/vocab.py) vs string-level
brute force: tie-break at the V boundary, empty/null docs, pre-cut
losslessness across many partitions, and vocabulary reuse."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pyarrow as pa


def _ws(text: str | None) -> list[str]:
    return (text or "").split() if (text or "").strip() else []


def test_top_vocab_matches_bruteforce_with_ties(ray_session):
    import ray.data

    from raydedup.vocab import top_vocab

    # planted ties: 'bbb' and 'aaa' both occur 5 times; with v cutting the
    # boundary inside the tie, token-ASC must win deterministically
    texts = (
        ["aaa bbb ccc"] * 5
        + ["ddd eee"] * 3
        + ["zzz"] * 2
        + ["solo one", "solo two", None, "   "]
    )
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(np.arange(len(texts)), pa.int64()),
                  "text": texts})
    ).repartition(6)
    _, vocab = top_vocab(ds, v=4)
    counts = Counter(t for x in texts for t in _ws(x))
    want = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:4]
    got = list(zip(vocab.column("token").to_pylist(), vocab.column("count").to_pylist()))
    assert got == want
    # 'solo' (count 2, ties zzz) — boundary resolved by token asc
    assert got[-1][0] == min(t for t, c in counts.items() if c == got[-1][1])


def test_oov_stats_matches_bruteforce(ray_session):
    import ray.data

    from raydedup.vocab import oov_stats

    rng = np.random.default_rng(3)
    common = [f"w{i}" for i in range(10)]
    rare = [f"rare{i}" for i in range(30)]
    texts: list[str | None] = []
    for i in range(80):
        toks = list(rng.choice(common, size=rng.integers(3, 12)))
        toks += list(rng.choice(rare, size=rng.integers(0, 4)))
        rng.shuffle(toks)
        texts.append(" ".join(toks))
    texts[5] = None
    texts[11] = "  \t \n "  # whitespace-only → zero tokens
    v = 10
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(np.arange(len(texts)), pa.int64()),
                  "text": texts})
    ).repartition(7)
    out = (
        oov_stats(ds, v=v).to_pandas().sort_values("doc_id").reset_index(drop=True)
    )

    counts = Counter(t for x in texts for t in _ws(x))
    vocab = {t for t, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:v]}
    for i, x in enumerate(texts):
        toks = _ws(x)
        n_oov = sum(1 for t in toks if t not in vocab)
        assert out.loc[i, "n_tokens"] == len(toks)
        assert out.loc[i, "n_oov"] == n_oov
        want_frac = np.floor(n_oov / max(len(toks), 1) * 1e6) / 1e6
        assert out.loc[i, "oov_frac"] == want_frac
    assert out["n_oov"].sum() > 0  # the planted rare tokens actually score


def test_oov_stats_reuses_precomputed_vocab(ray_session):
    import ray.data

    from raydedup.vocab import oov_stats, top_vocab

    base = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(np.arange(4), pa.int64()),
                  "text": ["alpha beta"] * 4})
    )
    hashes, vocab = top_vocab(base, v=2)
    assert sorted(vocab.column("token").to_pylist()) == ["alpha", "beta"]
    fresh = pa.table(
        {"doc_id": pa.array([9], pa.int64()), "text": ["alpha gamma beta gamma"]}
    )
    out = oov_stats(
        ray.data.from_arrow(fresh), vocab_hashes=hashes
    ).to_pandas()
    assert out.loc[0, "n_tokens"] == 4
    assert out.loc[0, "n_oov"] == 2  # the two gammas


def test_doc_freq_partial_matches_lexsort_reference():
    """The per-batch document counts of ``doc_freq`` (per-document distinct
    sets by ``segment_unique``) equal the (hash, doc) lexsort they replaced,
    and a brute-force count, with empty documents and documents whose
    tokens are all out of vocabulary."""
    from raydedup.vocab import _doc_freq_partial, _token_hashes, _ws_tokens
    from tests.reference_impls import doc_distinct_counts_lexsort

    texts = ["a b a c", "", None, "   ", "zz yy zz", "c c c", "b\ta\nb",
             "oov1 oov2", "a", " \v ", "d e f g h i j k l m a"]
    in_vocab = ["a", "b", "c", "d", "k"]
    text = pa.array(texts, pa.string())
    vocab = np.sort(_token_hashes(pa.array(in_vocab))[0])
    hu, c = _doc_freq_partial(text, vocab)

    flat, per_row = _ws_tokens(text)
    h, blen = _token_hashes(flat)
    doc_idx = np.repeat(np.arange(len(texts)), np.maximum(per_row, 1))
    keep = np.isin(h, vocab) & (blen > 0)
    ref_h, ref_c = doc_distinct_counts_lexsort(h[keep], doc_idx[keep])
    np.testing.assert_array_equal(hu, ref_h)
    np.testing.assert_array_equal(c, ref_c)

    df = Counter(t for s in texts for t in set(_ws(s)) if t in in_vocab)
    tok_h = dict(zip(_token_hashes(pa.array(in_vocab))[0].tolist(), in_vocab))
    assert {tok_h[int(x)]: int(n) for x, n in zip(hu, c)} == df
    assert len(_doc_freq_partial(pa.array(["", "oov"]), vocab)[0]) == 0
