"""The batched bucket-pair kernel (stages.bucket_pairs) and its three
block callers agree with the per-bucket loops in reference_impls on
salted hot keys, capped stars, repeated (key, id) rows, delegate buckets
and the incremental cross_min_id filter."""

import dataclasses

import numpy as np
import pyarrow as pa
import pytest

from raydedup.config import SigConfig
from tests.reference_impls import (
    embedding_block_pairs_loop,
    near_block_pairs_loop,
    simhash_block_pairs_loop,
)

CFG = SigConfig(max_bucket_size=8)


def _rows(t: pa.Table) -> list[tuple]:
    """Order-free multiset view of a pair table (floats compared exactly)."""
    return sorted(zip(*(t.column(c).to_pylist() for c in t.column_names)))


def test_bucket_pairs_runs_stars_and_boundary():
    from raydedup.stages import bucket_pairs

    keys = np.array([1, 1, 1, 2, 3, 3, 3, 3, 3, 4, 4], dtype=np.uint64)
    ids = np.array([5, 5, 9, 4, 1, 2, 6, 7, 8, 3, 3], dtype=np.int64)
    ra, rb, cap, first = bucket_pairs(keys, ids, max_bucket=4)
    got = sorted(zip(ids[ra], ids[rb], cap, first))
    # key 1: the repeated (1, 5) row counts once; key 3 (5 members > 4)
    # is a star from its min id; key 4 is one id twice, so no pair
    assert got == [(1, 2, True, 4), (1, 6, True, 4), (1, 7, True, 4),
                   (1, 8, True, 4), (5, 9, False, 0)]
    ra, rb, cap, first = bucket_pairs(keys, ids, max_bucket=4, cross_min_id=7)
    assert sorted(zip(ids[ra], ids[rb])) == [(1, 7), (1, 8), (5, 9)]
    empty = bucket_pairs(keys[:0], ids[:0], 4)
    assert all(len(x) == 0 for x in empty)


def _near_fixture(cfg: SigConfig):
    """Band rows of a corpus with every bucket shape the near tier meets:
    200 copies of one text (hot in all bands; half the bands salted into
    small sub-buckets, half into sub-buckets over the cap), 12 one-token
    edits of it, 20 exact copies of a second text (a capped, unsalted
    bucket), 30 one-token edits of a third (multi-band co-bucketing, so
    the owner-band rule decides) and 150 unrelated docs."""
    from raydedup.stages import BandEmitStage, SignatureStage, delegate_reducer

    rng = np.random.default_rng(11)

    def words(n):
        return [f"w{x}" for x in rng.integers(0, 40000, n)]

    def edit(ws):
        ws = list(ws)
        ws[rng.integers(0, len(ws))] = "edit"
        return " ".join(ws)

    hot_text, capped_text, near_text = words(60), words(60), words(60)
    rows = [" ".join(hot_text)] * 200 + [edit(hot_text) for _ in range(12)]
    rows += [" ".join(capped_text)] * 20 + [edit(near_text) for _ in range(30)]
    rows += [" ".join(words(60)) for _ in range(150)]
    perm = rng.permutation(len(rows))
    tbl = pa.table(
        {
            "id": pa.array(np.arange(len(rows), dtype=np.int64)),
            "content": pa.array([rows[i] for i in perm]),
        }
    )
    sigs = SignatureStage(cfg)(tbl)
    plain = BandEmitStage(cfg, None)(sigs)
    keys, counts = np.unique(plain.column("band_key").to_numpy(), return_counts=True)
    hot_keys = sorted(int(k) for k in keys[counts > 100])
    assert len(hot_keys) == cfg.bands
    hot = {k: (40 if i % 2 else 3) for i, k in enumerate(hot_keys)}
    band = BandEmitStage(cfg, hot)(sigs)
    salted = band.filter(band.column("salted"))
    sk = salted.column("band_key").to_numpy()
    delegates = pa.concat_tables(
        [delegate_reducer(salted.filter(pa.array(sk == k))) for k in np.unique(sk)]
    )
    return band, delegates, hot


@pytest.mark.parametrize("hash_bytes", [8, 4])
@pytest.mark.parametrize("verify", [True, False])
@pytest.mark.parametrize("cross_min_id", [None, 300])
@pytest.mark.parametrize("pair_slice", [None, 7])
def test_near_emitter_matches_per_bucket_loop(
    hash_bytes, verify, cross_min_id, pair_slice, monkeypatch
):
    from raydedup import stages
    from raydedup.stages import make_block_pair_emitter

    if pair_slice is not None:
        # many owner-band slices per block, with a ragged last one
        monkeypatch.setattr(stages, "_PAIR_SLICE", pair_slice)
    cfg = dataclasses.replace(CFG, kmv_hash_bytes=hash_bytes)
    band, delegates, hot = _near_fixture(cfg)
    repeated = pa.concat_tables([band, band.slice(0, 700)])
    mixed = pa.concat_tables([band, delegates])
    kernel = make_block_pair_emitter(cfg, verify, hot, cross_min_id)
    loop = near_block_pairs_loop(cfg, verify, hot, cross_min_id)
    for block in (band, delegates, repeated, mixed):
        got, want = kernel(block), loop(block)
        assert got.column_names == want.column_names
        assert _rows(got) == _rows(want)
    out = _rows(kernel(mixed))
    # every bucket shape was exercised
    caps = [r[-1] for r in out]
    assert any(caps) and not all(caps)
    assert len(_rows(kernel(delegates))) > 0


def _simhash_fixture():
    from raydedup.simdedup import SimhashChunkEmit

    rng = np.random.default_rng(5)
    base = rng.integers(0, 2**63, 60, dtype=np.int64).astype(np.uint64)
    sims = [base]
    for _ in range(3):  # near copies: up to 4 flipped bits
        bits = rng.integers(0, 64, (60, 4)).astype(np.uint64)
        on = (rng.random((60, 4)) < 0.5).astype(np.uint64)
        sims.append(base ^ np.bitwise_or.reduce(on << bits, axis=1))
    sims.append(np.full(30, base[0]))  # 30 copies: buckets over the cap
    sim = np.concatenate(sims)
    tbl = pa.table(
        {
            "id": pa.array(rng.permutation(len(sim)).astype(np.int64)),
            "simhash": pa.array(sim, pa.uint64()),
            "n_shingles": pa.array(np.ones(len(sim), dtype=np.int32)),
        }
    )
    rows = SimhashChunkEmit(4)(tbl)
    return pa.concat_tables([rows, rows.slice(0, 50)])


def test_simhash_verifier_matches_per_bucket_loop():
    from raydedup.simdedup import make_simhash_block_verifier

    block = _simhash_fixture()
    got = make_simhash_block_verifier(3, 4, 8)(block)
    want = simhash_block_pairs_loop(3, 4, 8)(block)
    assert got.column_names == want.column_names
    assert _rows(got) == _rows(want)
    caps = got.column("capped").to_pylist()
    assert any(caps) and not all(caps)


def _embedding_fixture(n_tables):
    from raydedup.embed import HyperplaneBucketStage

    rng = np.random.default_rng(8)
    dim = 8
    centers = rng.standard_normal((20, dim))
    vecs = [centers + 0.01 * rng.standard_normal((20, dim)) for _ in range(3)]
    vecs.append(np.repeat(centers[:1], 25, axis=0))  # over the cap
    vecs.append(rng.standard_normal((40, dim)))
    m = np.concatenate(vecs)
    tbl = pa.table(
        {
            "vec_id": pa.array(rng.permutation(len(m)).astype(np.int64)),
            "embedding": pa.FixedSizeListArray.from_arrays(pa.array(m.ravel()), dim),
        }
    )
    rows = HyperplaneBucketStage(dim, n_bits=3, seed=4, n_tables=n_tables)(tbl)
    return pa.concat_tables([rows, rows.slice(0, 30)])


@pytest.mark.parametrize("n_tables", [1, 3])
def test_embedding_verifier_matches_per_bucket_loop(n_tables):
    from raydedup.embed import make_embedding_block_verifier

    block = _embedding_fixture(n_tables)
    got = make_embedding_block_verifier(0.9, n_tables, 8)(block)
    want = embedding_block_pairs_loop(0.9, n_tables, 8)(block)
    assert got.column_names == want.column_names
    assert _rows(got) == _rows(want)
    caps = got.column("capped").to_pylist()
    assert any(caps) and not all(caps)
