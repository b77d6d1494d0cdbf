"""Regression tests for the round-2 self-review findings: CPC ingest
parity, jaccard corner cases, embed star fallback coverage, oracle trim
parity, REQ empty image byte."""

import numpy as np
import pyarrow as pa
import pytest

from raydedup.kmv import MAX_THETA, KmvSketch, build_sketch, jaccard
from raydedup.sketches.tuple import TupleSketch, tuple_jaccard


def test_cpc_ingest_is_reference_hash_chain():
    # aggregates.cpc_distinct must feed BOTH murmur3-128 words
    # (CpcSketch.java:310-313), not the splitmix shortcut
    from raydedup.aggregates import _column_hash_pairs
    from raydedup.hashing import murmur3_128_bytes, murmur3_128_u64s
    from raydedup.sketches.cpc import CpcSketch

    block = pa.table({"v": pa.array([7, -3, 123456789], type=pa.int64())})
    h0, h1 = _column_hash_pairs(block, "v", 9001)
    import struct

    for i, v in enumerate([7, -3, 123456789]):
        w0, w1 = murmur3_128_bytes(struct.pack("<q", v), 9001)
        assert (int(h0[i]), int(h1[i])) == (w0, w1)
    # string datums hash their utf8 bytes (update(String) semantics)
    sblock = pa.table({"v": pa.array(["abc", "déjà"])})
    s0, s1 = _column_hash_pairs(sblock, "v", 9001)
    for i, s in enumerate(["abc", "déjà"]):
        w0, w1 = murmur3_128_bytes(s.encode("utf-8"), 9001)
        assert (int(s0[i]), int(s1[i])) == (w0, w1)
    # and the coupon mapping is row = h0 & (k-1), col = clz(h1)
    sk = CpcSketch(11)
    sk.update_hash_pairs(h0, h1)
    k = 1 << 11
    for w0, w1 in zip(h0.tolist(), h1.tolist()):
        row = w0 & (k - 1)
        col = min(64 - int(w1).bit_length() if w1 else 64, 63)
        assert sk.matrix[row] & (np.uint64(1) << np.uint64(col))


def test_jaccard_corner_cases_match_reference():
    # JaccardSimilarity.java:55-60 — both empty -> ONES, one empty -> ZEROS
    e1 = KmvSketch(theta=MAX_THETA, hashes=np.zeros(0, dtype=np.uint64), k=16)
    e2 = KmvSketch(theta=MAX_THETA, hashes=np.zeros(0, dtype=np.uint64), k=16)
    full = build_sketch(np.arange(1, 100, dtype=np.uint64), 4096)
    assert jaccard(e1, e2) == (1.0, 1.0, 1.0)
    assert jaccard(e1, full) == (0.0, 0.0, 0.0)
    assert jaccard(full, e2) == (0.0, 0.0, 0.0)


def test_tuple_jaccard_corner_cases_match_reference():
    te1 = TupleSketch.empty(16)
    te2 = TupleSketch.empty(16)
    h = np.arange(1, 50, dtype=np.uint64)
    tf = TupleSketch.empty(4096).update_many(h, np.ones((49, 1)))
    assert tuple_jaccard(te1, te2) == (1.0, 1.0, 1.0)
    assert tuple_jaccard(te1, tf) == (0.0, 0.0, 0.0)
    assert tuple_jaccard(tf, te2) == (0.0, 0.0, 0.0)


def test_oracle_trim_parity_on_edge_whitespace():
    # DuckDB trim(text, chars) vs Arrow utf8_trim over the shared ASCII set
    # must agree on docs with leading/trailing tabs/newlines
    import duckdb

    from raydedup.textstats import text_stats, token_counts

    texts = ["\ndef foo(): pass", "a b\t", "\t\n  x  \r\n", "plain text", ""]
    batch = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    eng = token_counts(batch)
    st = text_stats(batch)
    con = duckdb.connect()
    ws_chars = "' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)"
    for i, t in enumerate(texts):
        want = con.execute(
            f"select CASE WHEN trim(?, {ws_chars}) = '' THEN 0 "
            f"ELSE len(string_split_regex(trim(?, {ws_chars}), '\\s+')) END",
            [t, t],
        ).fetchone()[0]
        assert eng.column("ws_tokens")[i].as_py() == want, t
        assert st.column("n_tokens")[i].as_py() == want, t


def test_embed_star_fallback_covers_whole_bucket():
    # >max_bucket near-identical vectors: every member must appear in the
    # edge set (representative star), none silently dropped
    from raydedup.embed import make_embedding_block_verifier

    n = 64
    rng = np.random.default_rng(3)
    emb = np.tile(rng.normal(size=16), (n, 1)) + rng.normal(scale=1e-4, size=(n, 16))
    keys = np.full(n, 9, dtype=np.uint64)
    block = pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.array(list(emb)),
            "bucket": pa.array(keys, pa.uint64()),
            "table_idx": pa.array(np.zeros(n, dtype=np.int64)),
            "all_keys": pa.array([keys[:1].astype("<u8").tobytes()] * n, pa.binary(8)),
        }
    )
    verify = make_embedding_block_verifier(threshold=0.9, n_tables=1, max_bucket=16)
    out = verify(block)
    seen = set(out.column("src").to_pylist()) | set(out.column("dst").to_pylist())
    assert seen == set(range(n))


def test_req_empty_image_num_compactors_zero():
    # ReqSerDe.java:271: numCompactors byte is 0 for empty sketches
    from raydedup.interop_req import req_from_bytes, req_to_bytes
    from raydedup.sketches.req import ReqSketch

    raw = req_to_bytes(ReqSketch(12))
    assert raw[6] == 0
    back = req_from_bytes(raw)
    assert back.n == 0


def test_shard_ids_distinguish_equal_basenames(tmp_path):
    from raydedup.manifest import _shard_of_path

    a = tmp_path / "a" / "part-0.parquet"
    b = tmp_path / "b" / "part-0.parquet"
    assert _shard_of_path(str(a)) != _shard_of_path(str(b))
    assert _shard_of_path(str(a)) == _shard_of_path(str(a))


def test_resumable_signatures_scopes_to_requested_inputs(ray_session, tmp_path):
    """A second job over a DIFFERENT input file must not leak the first
    job's shards into its output, and same-basename inputs in different
    directories must both survive."""
    import pyarrow.parquet as pq

    from raydedup.config import DEFAULT_CONFIG as CFG
    from raydedup.manifest import resumable_signatures

    for sub, ids in (("a", [1, 2]), ("b", [3, 4, 5])):
        d = tmp_path / sub
        d.mkdir()
        pq.write_table(
            pa.table(
                {
                    "id": pa.array(ids, pa.int64()),
                    "content": pa.array([f"doc {i} words here now" for i in ids]),
                }
            ),
            str(d / "part-0.parquet"),  # same basename in both dirs
        )
    ck = str(tmp_path / "ckpt")
    both = resumable_signatures(
        [str(tmp_path / "a/part-0.parquet"), str(tmp_path / "b/part-0.parquet")],
        ck, CFG,
    )
    assert sorted(both.to_pandas()["id"]) == [1, 2, 3, 4, 5]
    only_b = resumable_signatures([str(tmp_path / "b/part-0.parquet")], ck, CFG)
    assert sorted(only_b.to_pandas()["id"]) == [3, 4, 5]


def test_detect_hot_band_keys_empty_corpus(ray_session):
    import ray.data

    from raydedup.config import DEFAULT_CONFIG as CFG
    from raydedup.pipeline import detect_hot_band_keys, signatures

    tbl = pa.table(
        {"id": pa.array([], pa.int64()), "content": pa.array([], pa.string())}
    )
    sigs = signatures(ray.data.from_arrow(tbl), CFG)
    assert detect_hot_band_keys(sigs, CFG) == {}


def test_kmv_4byte_cells_are_deduped():
    """Truncated 32-bit cells must be sorted-unique per row: the vectorized
    verifier counts an intra-sketch duplicate as a false intersection."""
    from raydedup.stages import _binary_col_flat_u64, _kmv_blobs

    # two 64-bit values sharing the same top 32 bits
    vals = np.sort(
        np.array(
            [0x1111, (7 << 32) | 1, (7 << 32) | 2, (9 << 32) | 5], dtype=np.uint64
        )
    )
    off = np.array([0, len(vals)], dtype=np.int64)
    blobs, thetas, _ = _kmv_blobs(vals, off, k=128, hash_bytes=4)
    flat, fo = _binary_col_flat_u64(blobs, 4)
    cells = flat[fo[0]:fo[1]]
    assert sorted(cells.tolist()) == [0, 7, 9]  # dup top-32 collapsed
    assert len(np.unique(cells)) == len(cells)


def test_capped_bucket_star_not_suppressed_by_owner_rule():
    """A pair in a capped bucket must be emitted there as a star edge even
    when its first co-bucketing band is a DIFFERENT (also capped) band —
    the old owner mask dropped such pairs everywhere."""
    from raydedup.config import SigConfig
    from raydedup.stages import SignatureStage, make_block_pair_emitter

    cfg = SigConfig(max_bucket_size=4)
    n = 8  # > max_bucket_size members, all identical signatures
    content = " ".join(f"tok{i}" for i in range(60))
    sigs = SignatureStage(cfg)(
        pa.table(
            {
                "id": pa.array(np.arange(n, dtype=np.int64)),
                "content": pa.array([content] * n),
            }
        )
    )
    from raydedup.lsh import make_band_key
    from raydedup.stages import _binary_col_flat_u64

    bh_flat, _ = _binary_col_flat_u64(sigs.column("bandhashes"))
    bh = bh_flat.reshape(n, cfg.bands)
    # identical docs co-bucket in EVERY band; simulate the band-5 bucket:
    # first co-band is 0, so the old rule suppressed all pairs here
    band = 5
    keys = make_band_key(np.full(n, band, dtype=np.uint64), bh[:, band])
    block = pa.table(
        {
            "band_key": pa.array(keys, pa.uint64()),
            "id": pa.array(np.arange(n, dtype=np.int64)),
            "band_idx": pa.array(np.full(n, band, dtype=np.uint8), pa.uint8()),
            "bandhashes": sigs.column("bandhashes"),
            "kmv_theta": sigs.column("kmv_theta"),
            "kmv": sigs.column("kmv"),
        }
    )
    out = make_block_pair_emitter(cfg, verify=True)(block)
    assert len(out) == n - 1  # full star emitted despite owner != my_band
    assert out.column("capped").to_numpy().all()


def test_freq_merge_preserves_upper_bound_invariant():
    """Keys retained only in self must absorb other's offset: a key purged
    from other's stream may have occurred up to other.offset times there
    (LongsSketch merge semantics: errors add)."""
    from raydedup.sketches.freq import NO_FALSE_NEGATIVES, FrequentKeysSketch

    rng = np.random.default_rng(1)
    a = FrequentKeysSketch(8)
    a.update_many(np.full(100, 7, dtype=np.int64))  # key 7 seen 100x in A
    b = FrequentKeysSketch(8)
    b.update_many(np.full(50, 7, dtype=np.int64))  # ... and 50x in B
    # force purges in B so key 7's count gets decremented/purged
    for salt in range(40):
        b.update_many(rng.integers(1000, 9000, size=30, dtype=np.int64))
    true_count = 150
    ab = FrequentKeysSketch(8)
    ab.merge(a).merge(b)
    ba = FrequentKeysSketch(8)
    ba.merge(b).merge(a)
    for m in (ab, ba):
        est = m.get_estimate(7)
        assert est >= true_count, (est, m.offset)  # UB invariant
        items = dict(m.get_frequent_items(120, NO_FALSE_NEGATIVES))
        assert 7 in items  # no false negative at threshold < true count


def test_reservoir_merge_unbiased_composition():
    """Merging two equal-n reservoirs must mix both sides ~evenly (the
    pseudo-stream acceptance is k*implied/total, not k/total)."""
    from raydedup.sketches.sampling import ReservoirSketch

    from_b = 0
    for t in range(200):
        a = ReservoirSketch(10, seed=t)
        a.update_many(list(range(0, 10_000)))
        b = ReservoirSketch(10, seed=1000 + t)
        b.update_many(list(range(100_000, 110_000)))
        a.merge(b)
        assert len(a.samples) == 10 and a.n == 20_000
        from_b += sum(1 for s in a.samples if s >= 100_000)
    frac_b = from_b / (200 * 10)
    assert 0.4 < frac_b < 0.6, frac_b  # ~half from each side


def test_reservoir_merge_into_empty_trims_to_k():
    from raydedup.sketches.sampling import ReservoirSketch

    big = ReservoirSketch(64, seed=1)
    big.update_many(list(range(1000)))
    empty = ReservoirSketch(16, seed=2)
    empty.merge(big)
    assert len(empty.samples) == 16 and empty.n == 1000


def test_ks_test_not_fooled_by_small_samples():
    """Two small same-distribution samples must NOT be declared different:
    the threshold needs the two-sample sampling-noise term
    (quantiles/KolmogorovSmirnov.java:82-93)."""
    from raydedup.sketches.kll import KllSketch

    rng = np.random.default_rng(5)
    rejections = 0
    for t in range(20):
        a = KllSketch(200)
        b = KllSketch(200)
        a.update_many(rng.normal(size=100))
        b.update_many(rng.normal(size=100))
        if KllSketch.ks_test(a, b):
            rejections += 1
    assert rejections <= 2  # ~alpha=0.046 false-positive rate, not ~100%
    # and clearly different distributions still get rejected
    a = KllSketch(200)
    b = KllSketch(200)
    a.update_many(rng.normal(size=5000))
    b.update_many(rng.normal(loc=3.0, size=5000))
    assert KllSketch.ks_test(a, b)


def test_priority_sample_partition_independent():
    """Same observations, different block/partition splits → identical
    retained sample and identical subset-sum estimates."""
    import pickle

    from raydedup.sketches.sampling import PrioritySample

    keys = np.arange(1, 201, dtype=np.int64)
    w = np.linspace(1, 50, 200)
    dup_keys = np.concatenate([keys, keys[:50]])  # 50 duplicate observations
    dup_w = np.concatenate([w, w[:50]])

    one = PrioritySample(32, seed=9)
    one.update_many(dup_keys, dup_w)

    two = PrioritySample(32, seed=9)
    two.update_many(dup_keys[:100], dup_w[:100])
    other = PrioritySample(32, seed=9)
    other.update_many(dup_keys[100:], dup_w[100:])
    two.merge(other)

    pred = lambda k: k % 3 == 0
    s1 = one.estimate_subset_sum(pred)
    s2 = two.estimate_subset_sum(pred)
    assert sorted(one.keys.tolist()) == sorted(two.keys.tolist())
    assert s1.estimate == s2.estimate
    assert s1.total_sketch_weight == s2.total_sketch_weight


def test_priority_sample_heavy_items_have_tight_bounds():
    """All-heavy samples (w_i >= tau) have zero estimator variance: bounds
    collapse to the estimate (the variance term is tau*(tau-w)+ per item)."""
    from raydedup.sketches.sampling import PrioritySample

    sk = PrioritySample(16, seed=3)
    # few huge-weight keys: all retained exactly, tau stays small
    sk.update_many(np.arange(1, 9, dtype=np.int64), np.full(8, 1e6))
    s = sk.estimate_subset_sum(lambda k: k <= 4)
    assert s.lower_bound == s.estimate == s.upper_bound == 4e6


def test_doubles_quantile_extremes_exact():
    from raydedup.sketches.doubles import DoublesSketch

    rng = np.random.default_rng(11)
    sk = DoublesSketch(128)
    vals = rng.normal(size=5000)
    sk.update_many(vals)
    assert sk.quantile(0.0) == vals.min()
    assert sk.quantile(1.0) == vals.max()


def test_kll_items_handles_tuples():
    from raydedup.sketches.kll_items import KllItemsSketch

    sk = KllItemsSketch()
    tups = [(i % 5, f"s{i}") for i in range(500)]
    sk.update_many(tups)
    assert sk.min_value == min(tups) and sk.max_value == max(tups)
    q = sk.quantile(0.5)
    assert isinstance(q, tuple)
    assert sk.rank(max(tups)) == 1.0


def test_xxh64_flat_sliced_layout():
    import pyarrow as pa

    from raydedup.hashing import xxh64_bytes, xxh64_flat
    from raydedup.tokenize import _string_array_np

    arr = pa.array(["alpha", "beta", "gamma", "delta"])
    sliced = arr.slice(1, 2)  # offsets no longer start at 0
    flat, off = _string_array_np(sliced)
    got = xxh64_flat(flat, off, 7)
    want = [xxh64_bytes(s.encode(), 7) for s in ["beta", "gamma"]]
    assert got.tolist() == want


def test_embedding_capped_star_not_suppressed_by_owner_table():
    """A pair whose FIRST co-bucketing table star-degraded must still be
    emitted by its capped bucket (owner-table rule bypassed when capped)."""
    from raydedup.embed import make_embedding_block_verifier

    # one bucket of table 1 with 2 identical vectors whose all_keys claim
    # co-bucketing in table 0 as well (owner would be 0, not 1)
    emb = np.tile(np.linspace(0.1, 0.9, 8), (3, 1))
    keys2 = np.array([5, 7], dtype="<u8").tobytes()  # same in both tables
    block = pa.table(
        {
            "vec_id": pa.array(np.arange(3, dtype=np.int64)),
            "embedding": pa.array(list(emb)),
            "bucket": pa.array(np.full(3, 7, dtype=np.uint64), pa.uint64()),
            "table_idx": pa.array(np.ones(3, dtype=np.int64)),
            "all_keys": pa.array([keys2] * 3, pa.binary(16)),
        }
    )
    # max_bucket=2 -> this 3-member bucket is capped (star)
    verify = make_embedding_block_verifier(threshold=0.9, n_tables=2, max_bucket=2)
    out = verify(block)
    assert len(out) == 2  # star pairs emitted despite owner == table 0
    assert out.column("capped").to_numpy().all()
    # and small buckets still apply the owner rule (this one is owned by 0)
    verify_small = make_embedding_block_verifier(threshold=0.9, n_tables=2, max_bucket=10)
    assert len(verify_small(block)) == 0


def test_media_size_feature_clamped():
    from raydedup.multimodal import DecodeStage

    stage = DecodeStage(codec="fake")
    big1 = bytes(np.random.default_rng(1).integers(0, 256, 1 << 20, dtype=np.uint8))
    big2 = bytes(np.random.default_rng(2).integers(0, 256, 1 << 20, dtype=np.uint8))
    f1 = stage._fake_features(big1)
    f2 = stage._fake_features(big2)
    from raydedup.embed import quantized_cosine

    cos = quantized_cosine(f1[None, :], f2[None, :])[0, 0]
    assert cos < 0.999  # different 1 MB payloads must NOT collide
