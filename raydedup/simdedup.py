"""SimHash near-duplicate pair detection (pigeonhole banding), Ray-native.

For 64-bit SimHash fingerprints and a Hamming radius d, split the
fingerprint into d+1 equal chunks: any pair within distance d must agree on
at least one chunk (pigeonhole). Group by (chunk_idx, chunk_value), verify
Hamming distance inside buckets — the classic Manku/Jain/Sarma 2007
near-duplicate scheme.

Scale shape (mirrors the MinHash-LSH tier in stages.py):

* one all-to-all on chunk keys, hash-partitioned into ~2×CPU partition
  groups (`grouped_blocks`) — each block's buckets turn into pairs in one
  `stages.bucket_pairs` call, NOT a python call per bucket;
* pair uniqueness via the OWNER-CHUNK rule: a qualifying pair is emitted
  only by the smallest chunk index on which the two fingerprints agree, so
  no downstream dedup shuffle is needed;
* buckets larger than ``max_bucket`` degrade to a representative star
  (min-id member vs every other member) instead of silently
  returning zero pairs — recall on skewed buckets is reduced, never void,
  and the rows are flagged ``capped``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from .config import DEFAULT_CONFIG, SigConfig
from .hashing import splitmix64
from .simhash import popcount64
from .stages import SignatureStage, bucket_pairs

U64 = np.uint64


class SimhashChunkEmit:
    """(id, simhash) → (chunk_key, chunk_idx, id, simhash) rows, n_chunks
    per input row."""

    def __init__(self, n_chunks: int):
        if 64 % n_chunks:
            raise ValueError("n_chunks must divide 64")
        self.n_chunks = n_chunks
        self.width = 64 // n_chunks

    def __call__(self, batch: pa.Table) -> pa.Table:
        sim = batch.column("simhash").to_numpy().astype(np.uint64)
        ids = batch.column("id").to_numpy()
        nsh = (
            batch.column("n_shingles").to_numpy()
            if "n_shingles" in batch.column_names
            else np.ones(len(ids), dtype=np.int64)
        )
        valid = nsh > 0
        sim, ids = sim[valid], ids[valid]
        n = len(ids)
        mask = U64((1 << self.width) - 1)
        keys = np.empty(n * self.n_chunks, dtype=np.uint64)
        cidx = np.empty(n * self.n_chunks, dtype=np.int64)
        for c in range(self.n_chunks):
            chunk = (sim >> U64(c * self.width)) & mask
            # mix chunk idx into the key so chunks never cross-collide
            mix = U64((0xC00C + c * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
            keys[c * n : (c + 1) * n] = splitmix64(chunk ^ mix)
            cidx[c * n : (c + 1) * n] = c
        return pa.table(
            {
                "chunk_key": pa.array(keys, type=pa.uint64()),
                "chunk_idx": pa.array(cidx, type=pa.int64()),
                "id": pa.array(np.tile(ids, self.n_chunks), type=pa.int64()),
                "simhash": pa.array(np.tile(sim, self.n_chunks), type=pa.uint64()),
            }
        )


def make_simhash_block_verifier(
    d: int,
    n_chunks: int,
    max_bucket: int = 4096,
):
    """Block processor for hash-partitioned chunk rows: the candidate pairs
    of every bucket in the partition come from one :func:`bucket_pairs`
    call, then one Hamming filter and one owner-chunk pass cover them all.

    Emits (src, dst, hamming, capped) with src < dst; each qualifying pair
    appears exactly once globally (owner-chunk rule)."""
    width = 64 // n_chunks
    mask = U64((1 << width) - 1)

    def _empty() -> pa.Table:
        return pa.table(
            {
                "src": pa.array([], pa.int64()),
                "dst": pa.array([], pa.int64()),
                "hamming": pa.array([], pa.int64()),
                "capped": pa.array([], pa.bool_()),
            }
        )

    def verify_block(block: pa.Table) -> pa.Table:
        if len(block) == 0:
            return _empty()
        keys = block.column("chunk_key").to_numpy()
        ids = block.column("id").to_numpy()
        order = np.lexsort((ids, keys))
        ids = ids[order]
        ra, rb, cap, first = bucket_pairs(keys[order], ids, max_bucket)
        sim = block.column("simhash").to_numpy().astype(np.uint64)[order]
        diff = sim[ra] ^ sim[rb]
        ham = popcount64(diff)
        hm = ham <= d
        ra, rb, cap, first, diff, ham = (
            x[hm] for x in (ra, rb, cap, first, diff, ham)
        )
        # owner-chunk rule: emit only from the smallest agreeing chunk.
        # Capped buckets skip the rule — the owner chunk's bucket may
        # itself be capped and not carry this pair as a star edge, so
        # suppressing here could drop it everywhere (a star pair may
        # duplicate one owned elsewhere: bounded by m per capped bucket
        # and deduped by simhash_dup_pairs).
        owner = np.full(len(diff), n_chunks, dtype=np.int64)
        for c in range(n_chunks - 1, -1, -1):
            owner[(diff >> U64(c * width)) & mask == 0] = c
        cidx = block.column("chunk_idx").to_numpy()[order]
        keep = cap | (owner == cidx[first])
        return pa.table(
            {
                "src": pa.array(ids[ra[keep]], type=pa.int64()),
                "dst": pa.array(ids[rb[keep]], type=pa.int64()),
                "hamming": pa.array(ham[keep].astype(np.int64), type=pa.int64()),
                "capped": pa.array(cap[keep], type=pa.bool_()),
            }
        )

    return verify_block


def simhash_dup_pairs(
    corpus: "ray.data.Dataset",
    cfg: SigConfig = DEFAULT_CONFIG,
    max_hamming: int | None = None,
    max_bucket: int = 4096,
) -> "ray.data.Dataset":
    """→ (src, dst, hamming) pairs with Hamming(simhash) <= max_hamming.

    Guaranteed-complete for max_hamming <= n_chunks - 1 (pigeonhole) when
    no bucket exceeds ``max_bucket``; over-size buckets degrade to a
    representative star instead of dropping out. Uses
    n_chunks = max_hamming + 1 rounded to a divisor of 64.
    """
    from .pipeline import grouped_blocks

    d = cfg.simhash_max_hamming if max_hamming is None else max_hamming
    n_chunks = next(c for c in (1, 2, 4, 8, 16) if c >= d + 1)

    sigs = corpus.map_batches(SignatureStage(cfg), batch_format="pyarrow")
    chunked = sigs.select_columns(["id", "simhash", "n_shingles"]).map_batches(
        SimhashChunkEmit(n_chunks), batch_format="pyarrow"
    )
    verify_block = make_simhash_block_verifier(d, n_chunks, max_bucket)
    pairs = grouped_blocks(chunked, "chunk_key", verify_block)
    # capped (star) rows bypass the owner-chunk rule, so the same star pair
    # can surface from several chunks; dedupe just that (tiny) subset to
    # keep the output's each-pair-exactly-once contract
    base = pairs.filter(expr="capped == False").select_columns(
        ["src", "dst", "hamming"]
    )
    capped_unique = (
        pairs.filter(expr="capped == True")
        .groupby(["src", "dst"])
        .min("hamming")
        .map_batches(
            lambda b: pa.table(
                {
                    "src": b.column("src"),
                    "dst": b.column("dst"),
                    "hamming": b.column("min(hamming)"),
                }
            ),
            batch_format="pyarrow",
        )
    )
    return base.union(capped_unique)
