"""Ray Data map_batches stages (zero-copy Arrow in, Arrow out).

Stage layout (SURVEY §3.2 engine trace):

  read_parquet(corpus)
    → SignatureStage            (stateless map_batches, pyarrow)
    → [exact tier]   grouped by sha256     → exact edges
    → [near tier]    band emission         → grouped by band_key (±salt)
                     → candidate pairs + KMV verify, per partition block
    → [substring]    winnow fingerprints   → grouped by fp → candidates
    → union-find     label propagation     → cluster_id

Design notes for 100 TB scale:
  * The signature stage reads ONLY (id, content, …) columns and drops
    ``content`` on output — everything downstream ships ≤ ~2 KB/row.
  * Every bucketed tier turns a hash-partition block into pairs with one
    kernel, :func:`bucket_pairs`: no Python loop per bucket, only one per
    distinct bucket size. The near tier applies the owner-band rule and
    the KMV verify to all of a block's pairs at once.
  * Near-tier shuffle layout is switchable (see BandEmitStage): the KMV
    sketch carried in the band rows (verify in the band shuffle's block;
    one all-to-all; measured fastest here), or sketch-free band rows whose
    unique pairs verify against a broadcast sketch table. Both verify
    with the same theta Jaccard semantics.
  * Hot band keys (boilerplate) are detected by a Misra-Gries heavy-hitter
    pre-pass (frequencies/LongsSketch.java:55-94 analog) and split into salt
    sub-buckets with a delegate round so connectivity survives
    (hllmap-tiered-promotion precedent, hllmap/UniqueCountMap.java:24-48).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .config import SigConfig
from .hashing import splitmix64
from .kmv import MAX_THETA
from .lsh import band_hashes, make_band_key
from .minhash import minhash_signatures
from .shingle import BLOCK_ELEMS, _intra_offsets, segment_unique, shingle_hashes
from .simhash import simhash_signatures
from .tokenize import tokenize_hashes
from .winnow import winnow_fingerprints

U64 = np.uint64


def _sha256_hex(content: pa.Array) -> pa.Array:
    # per-row C-speed digest; no vectorized sha256 exists in pyarrow
    return pa.array(
        [hashlib.sha256(s.as_py().encode()).hexdigest() for s in content],
        type=pa.string(),
    )


class SignatureStage:
    """content → signatures. Stateless; usable as a plain function in
    map_batches (class form keeps the config construction out of the
    per-batch path, actor-pool style).

    ``normalizer``: optional pluggable content normalizer
    (pa.Array → pa.Array), the engine's user-extension point analogous to
    the reference's ArrayOfItemsSerDe (common/ArrayOfItemsSerDe.java:30-50)
    — e.g. per-language comment stripping or case folding. It must be a
    top-level callable (cloudpickled to workers)."""

    def __init__(self, cfg: SigConfig, normalizer=None):
        self.cfg = cfg
        self.normalizer = normalizer

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        content = batch.column("content")
        if isinstance(content, pa.ChunkedArray):
            content = content.combine_chunks()
        content = pc.fill_null(content, "")  # null content ≡ empty file
        if self.normalizer is not None:
            content = self.normalizer(content)
        elif cfg.lowercase:
            content = pc.utf8_lower(content)

        flat_tok, tok_off = tokenize_hashes(content, seed=cfg.seed)
        sh, sh_off = shingle_hashes(flat_tok, tok_off, cfg.shingle_k, cfg.seed)
        uniq, uniq_off = segment_unique(sh, sh_off)

        mh = minhash_signatures(sh, sh_off, cfg.num_perm, cfg.seed)
        sim = simhash_signatures(sh, sh_off)

        # per-row KMV sketch in the theta domain (h >> 1, drop 0) —
        # theta/UpdateSketch.java:222 masking semantics
        theta_dom = uniq >> U64(1)
        kmv_blobs, thetas, n_retained = _kmv_blobs(
            theta_dom, uniq_off, cfg.kmv_k, cfg.kmv_hash_bytes
        )

        wfp, wpos, w_off = winnow_fingerprints(
            flat_tok, tok_off, cfg.winnow_k, cfg.winnow_window, cfg.seed
        )

        n = len(batch)
        cols: dict[str, pa.Array] = {}
        for name in ("id", "repo", "path", "commit", "lang"):
            if name in batch.column_names:
                cols[name] = batch.column(name)
        cols["sha256"] = _sha256_hex(content)
        cols["n_tokens"] = pa.array(np.diff(tok_off).astype(np.int32))
        cols["n_shingles"] = pa.array(np.diff(uniq_off).astype(np.int32))
        cols["simhash"] = pa.array(sim.astype(np.uint64), type=pa.uint64())
        cols["minhash"] = _matrix_binary(mh)
        cols["kmv_theta"] = pa.array(thetas, type=pa.uint64())
        cols["kmv"] = kmv_blobs
        cols["winnow"] = _segments_binary(
            np.stack([wfp, wpos], axis=1).reshape(-1) if len(wfp) else wfp, w_off, 2
        )
        return pa.table(cols)


def _binary_from_segments(flat_bytes: np.ndarray, byte_offsets: np.ndarray) -> pa.Array:
    """Zero-copy LargeBinaryArray over a flat uint8 buffer + int64 offsets."""
    n = len(byte_offsets) - 1
    return pa.LargeBinaryArray.from_buffers(
        pa.large_binary(),
        n,
        [None, pa.py_buffer(np.ascontiguousarray(byte_offsets, dtype=np.int64)),
         pa.py_buffer(np.ascontiguousarray(flat_bytes, dtype=np.uint8))],
    )


def _kmv_blobs(
    flat_sorted: np.ndarray, offsets: np.ndarray, k: int, hash_bytes: int = 8
) -> tuple[pa.Array, np.ndarray, np.ndarray]:
    """Per-row (theta, bottom-k hashes) from sorted-distinct segments —
    fully vectorized (single gather + one Arrow buffer, no per-row python)."""
    offsets = np.asarray(offsets, dtype=np.int64)
    n = len(offsets) - 1
    lens = np.diff(offsets)
    # drop the illegal 0 sentinel (sorted-first per row;
    # HashOperations.java:305)
    starts = offsets[:-1].copy()
    has_zero = (lens > 0) & (flat_sorted[np.minimum(starts, len(flat_sorted) - 1)] == U64(0)) if len(flat_sorted) else np.zeros(n, dtype=bool)
    starts = starts + has_zero
    eff_lens = lens - has_zero
    keep_lens = np.minimum(eff_lens, k)
    thetas = np.full(n, MAX_THETA, dtype=np.uint64)
    over = eff_lens > k
    if over.any():
        thetas[over] = flat_sorted[starts[over] + k]
    # gather the kept prefix of each segment
    out_off = np.concatenate([[0], np.cumsum(keep_lens)]).astype(np.int64)
    idx = np.repeat(starts, keep_lens) + _intra_offsets(keep_lens)
    if hash_bytes == 4:
        kept = (flat_sorted[idx] >> U64(32)).astype("<u4")
        # distinct 64-bit values can truncate to the same 32-bit cell; the
        # vectorized verifier (kmv_jaccard_many) requires sorted-UNIQUE
        # cells per sketch (an intra-sketch duplicate would count as a
        # false intersection), so dedupe adjacent within each row
        if len(kept):
            row_id = np.repeat(np.arange(n, dtype=np.int64), keep_lens)
            uniq = np.concatenate(
                [[True], (row_id[1:] != row_id[:-1]) | (kept[1:] != kept[:-1])]
            )
            kept = kept[uniq]
            dedup_lens = np.bincount(row_id[uniq], minlength=n)
            out_off = np.concatenate([[0], np.cumsum(dedup_lens)]).astype(np.int64)
        blobs = _binary_from_segments(kept.view(np.uint8), out_off * 4)
    else:
        kept = flat_sorted[idx].astype("<u8")
        blobs = _binary_from_segments(kept.view(np.uint8), out_off * 8)
    return blobs, thetas, lens


def _segments_binary(flat: np.ndarray, offsets: np.ndarray, width: int) -> pa.Array:
    """Pack per-row u64 segments (width words per element) as binary cells."""
    offsets = np.asarray(offsets, dtype=np.int64)
    flat = np.ascontiguousarray(flat, dtype="<u8")
    return _binary_from_segments(flat.view(np.uint8), offsets * 8 * width)


def _matrix_binary(m: np.ndarray) -> pa.Array:
    """(n, w) uint64 matrix → n fixed-size binary cells, one buffer copy."""
    n, w = m.shape
    offsets = np.arange(n + 1, dtype=np.int64) * (8 * w)
    return _binary_from_segments(
        np.ascontiguousarray(m, dtype="<u8").view(np.uint8).reshape(-1), offsets
    )


# ---------------------------------------------------------------------------
# Band emission
# ---------------------------------------------------------------------------


class BandEmitStage:
    """sigs → (band_key, orig_key, salted, band_idx, id, bandhashes[,
    kmv_theta, kmv]) rows.

    Two shuffle layouts (pipeline.near_edges mode):
      * carry_kmv=True ("bucket" / "bucket_waves" modes): rows carry the KMV
        sketch (~kmv_k·8 B) so pairs verify inside the band groupby — one
        all-to-all total.
      * carry_kmv=False ("hybrid" mode): rows carry no sketch; the unique
        pairs verify against a broadcast of the whole sketch table.
    ``hot_keys``: dict band_key → n_salts from the heavy-hitter pre-pass;
    hot keys split by hash(id) into sub-buckets, reconnected by delegates.

    ``wave=(w, W)``: emit only band rows whose ORIGINAL band key hashes to
    wave ``w`` of ``W`` — the map-side shard filter behind
    pipeline's bucket_waves mode (each wave's band shuffle fits the object
    store instead of one monolithic sketch-carrying all-to-all). Keying on
    ``orig_key`` (not the salted sub-key) keeps every sub-bucket AND the
    delegate round of a hot key inside one wave, so cross-salt
    connectivity never spans waves. The filter runs before the bandhashes/
    kmv payload is gathered, so skipped rows never materialize their
    ~(bands·8 + kmv_k·hash_bytes) B payload.
    """

    #: wave-hash domain separator (any fixed odd-ish constant)
    WAVE_SEED = np.uint64(0x57A7E5EED)

    def __init__(
        self,
        cfg: SigConfig,
        hot_keys: dict[int, int] | None = None,
        carry_kmv: bool = True,
        wave: tuple[int, int] | None = None,
    ):
        self.cfg = cfg
        self.hot = hot_keys or {}
        self.carry_kmv = carry_kmv
        self.wave = wave

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        n = len(batch)
        if n == 0:
            return _empty_band_table(self.carry_kmv)
        mh_flat, _ = _binary_col_flat_u64(batch.column("minhash"))
        mh = mh_flat.reshape(n, cfg.num_perm)  # fixed-width cells, zero-copy
        ids = batch.column("id").to_numpy()
        nsh = batch.column("n_shingles").to_numpy()
        kmv_theta = batch.column("kmv_theta") if self.carry_kmv else None
        kmv_col = batch.column("kmv") if self.carry_kmv else None
        del batch  # only sig-derived columns leave this stage
        bh = band_hashes(mh, cfg.bands, cfg.rows_per_band, cfg.seed)
        keys = np.empty((n, cfg.bands), dtype=np.uint64)
        for b in range(cfg.bands):
            keys[:, b] = make_band_key(
                np.full(n, b, dtype=np.uint64), bh[:, b]
            )
        valid = nsh > 0  # zero-shingle rows never band (sentinel sigs collide)
        nv = int(valid.sum())
        rep_ids = np.repeat(ids[valid], cfg.bands)
        orig_keys = keys[valid].reshape(-1)
        band_idx = np.tile(np.arange(cfg.bands, dtype=np.uint8), nv)
        src_rows = np.repeat(np.flatnonzero(valid), cfg.bands)
        if self.wave is not None:
            w, n_waves = self.wave
            in_wave = (
                splitmix64(orig_keys ^ self.WAVE_SEED) % np.uint64(n_waves)
            ) == np.uint64(w)
            rep_ids = rep_ids[in_wave]
            orig_keys = orig_keys[in_wave]
            band_idx = band_idx[in_wave]
            src_rows = src_rows[in_wave]
        flat_keys, salted = self._salt(orig_keys, rep_ids)
        # every row carries the doc's band-hash vector (bands×8 B) so the
        # pair stage can assign each pair to its FIRST co-bucketed band —
        # exactly one bucket emits any given pair (no dedup shuffle needed)
        cols = {
            "band_key": pa.array(flat_keys, type=pa.uint64()),
            "orig_key": pa.array(orig_keys, type=pa.uint64()),
            "salted": pa.array(salted, type=pa.bool_()),
            "band_idx": pa.array(band_idx, type=pa.uint8()),
            "id": pa.array(rep_ids, type=pa.int64()),
            "bandhashes": _matrix_binary(bh[src_rows]),
        }
        if self.carry_kmv:
            take = pa.array(src_rows)
            cols["kmv_theta"] = kmv_theta.take(take)
            cols["kmv"] = kmv_col.take(take)
        return pa.table(cols)

    def _salt(self, keys: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if not self.hot:
            return keys, np.zeros(len(keys), dtype=bool)
        out = keys.copy()
        # vectorized membership: sorted hot-key lookup
        hot_arr = np.fromiter(self.hot.keys(), dtype=np.uint64, count=len(self.hot))
        hot_salts = np.fromiter(self.hot.values(), dtype=np.int64, count=len(self.hot))
        order = np.argsort(hot_arr)
        hot_arr, hot_salts = hot_arr[order], hot_salts[order]
        idx = np.searchsorted(hot_arr, keys)
        idx = np.clip(idx, 0, len(hot_arr) - 1)
        is_hot = hot_arr[idx] == keys
        if is_hot.any():
            s = hot_salts[idx[is_hot]].astype(np.uint64)
            salt = splitmix64(ids[is_hot].astype(np.uint64)) % s
            # sub-bucket key; cross-salt connectivity restored by the
            # delegate round in pipeline.py (min-id per sub-bucket regroups
            # under orig_key)
            out[is_hot] = splitmix64(keys[is_hot] ^ (salt + U64(0xABCD0001)))
        return out, is_hot


def _empty_band_table(carry_kmv: bool = False) -> pa.Table:
    """Empty block with EXACTLY the columns non-empty blocks emit for the
    active mode — a schema mismatch here breaks downstream groupby/union
    schema unification on corpora containing an empty shard."""
    cols = {
        "band_key": pa.array([], type=pa.uint64()),
        "orig_key": pa.array([], type=pa.uint64()),
        "salted": pa.array([], type=pa.bool_()),
        "band_idx": pa.array([], type=pa.uint8()),
        "id": pa.array([], type=pa.int64()),
        "bandhashes": pa.array([], type=pa.large_binary()),
    }
    if carry_kmv:
        cols["kmv_theta"] = pa.array([], type=pa.uint64())
        cols["kmv"] = pa.array([], type=pa.large_binary())
    return pa.table(cols)


def delegate_reducer(group: pa.Table) -> pa.Table:
    """min-id row of a salted sub-bucket → delegate row keyed by orig_key.

    Delegates of one hot band key regroup (second, tiny shuffle) and pair
    among themselves, restoring connectivity across salt sub-buckets."""
    ids = group.column("id").to_numpy()
    i = int(np.argmin(ids))
    cols = {
        "band_key": group.column("orig_key").slice(i, 1),
        "orig_key": group.column("orig_key").slice(i, 1),
        "salted": pa.array([False]),
        # sentinel band_idx: delegate buckets bypass the owner-band rule
        # (their raison d'être is cross-salt pairs the rule would drop)
        "band_idx": pa.array(np.array([255], dtype=np.uint8)),
        "id": group.column("id").slice(i, 1),
        "bandhashes": group.column("bandhashes").slice(i, 1),
    }
    for extra in ("kmv_theta", "kmv"):
        if extra in group.column_names:
            cols[extra] = group.column(extra).slice(i, 1)
    return pa.table(cols)


# ---------------------------------------------------------------------------
# Candidate pairs + verification inside the band bucket
# ---------------------------------------------------------------------------


def _binary_col_flat_u64(arr: pa.Array, word_bytes: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """(flat words, element offsets in words) view of a large_binary column
    whose cells are fixed-width word sequences — zero-copy from Arrow
    buffers. ``word_bytes``: 8 (uint64) or 4 (uint32)."""
    if isinstance(arr, pa.ChunkedArray):
        # combine_chunks copies even a single chunk
        arr = arr.chunk(0) if arr.num_chunks == 1 else arr.combine_chunks()
    bufs = arr.buffers()
    offsets = np.frombuffer(bufs[1], dtype=np.int64, count=len(arr) + 1 + arr.offset)
    offsets = offsets[arr.offset : arr.offset + len(arr) + 1]
    dt = np.uint64 if word_bytes == 8 else np.uint32
    data = np.frombuffer(bufs[2], dtype=dt) if bufs[2] is not None else np.zeros(0, dt)
    return data, (offsets // word_bytes).astype(np.int64)


def bucket_pairs(
    keys: np.ndarray,
    ids: np.ndarray,
    max_bucket: int,
    cross_min_id: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Candidate pairs of EVERY bucket in a block, with no Python loop per
    bucket — the kernel behind every bucketed tier (near, substring,
    SimHash, embedding LSH).

    ``keys``/``ids`` must be sorted by (key, id); a bucket is a run of
    equal keys. Returns ``(row_a, row_b, capped, run_first)``: row indices
    into the sorted arrays with ``ids[row_a] < ids[row_b]``, whether the
    pair comes from a capped bucket, and the row of its bucket's first
    member (where callers read per-bucket values such as the band index).

    Repeated (key, id) rows count once (the first is kept). A bucket of
    more than ``max_bucket`` members becomes a representative star, its
    min id paired with every other member: O(m) pairs that keep every
    member connected. Buckets of 2..max_bucket members emit all their
    pairs, batched per DISTINCT bucket size — all buckets of size m are
    one (n_buckets, m) gather plus one triu_indices(m), so the loop count
    is bounded by the number of distinct sizes, not of buckets.

    ``cross_min_id``: keep only pairs with an id >= the boundary (both
    ids below it = a pair known from an earlier run); buckets whose
    largest id is below it are dropped before their pairs are built."""
    n = len(keys)
    dup = np.zeros(n, dtype=bool)
    dup[1:] = (keys[1:] == keys[:-1]) & (ids[1:] == ids[:-1])
    rows = np.flatnonzero(~dup)
    new_run = np.ones(len(rows), dtype=bool)
    new_run[1:] = keys[rows[1:]] != keys[rows[:-1]]
    starts = np.flatnonzero(new_run)
    counts = np.diff(np.append(starts, len(rows)))
    multi = counts >= 2
    if cross_min_id is not None:
        multi &= ids[rows[starts + counts - 1]] >= cross_min_id
    starts, counts = starts[multi], counts[multi]
    big = counts > max_bucket
    # (a, b, first) index the deduped rows; capped pairs come first
    bs, bc = starts[big], counts[big] - 1
    out_a = [np.repeat(bs, bc)]
    out_b = [np.repeat(bs + 1, bc) + _intra_offsets(bc)]
    out_first = [out_a[0]]
    ss, sc = starts[~big], counts[~big]
    for m in np.unique(sc):
        s = ss[sc == m]
        mat = s[:, None] + np.arange(m)
        iu, ju = np.triu_indices(int(m), k=1)
        out_a.append(mat[:, iu].ravel())
        out_b.append(mat[:, ju].ravel())
        out_first.append(np.repeat(s, len(iu)))
    ra = rows[np.concatenate(out_a)]
    rb = rows[np.concatenate(out_b)]
    first = rows[np.concatenate(out_first)]
    capped = np.zeros(len(ra), dtype=bool)
    capped[: int(bc.sum())] = True
    if cross_min_id is not None:
        keep = ids[rb] >= cross_min_id
        ra, rb, capped, first = ra[keep], rb[keep], capped[keep], first[keep]
    return ra, rb, capped, first


#: candidate pairs per slice of the near emitter's owner-band pass
_PAIR_SLICE = 1 << 16
_PAD = np.uint64(0xFFFFFFFFFFFFFFFF)  # kmv_jaccard_many's filler cell


def make_block_pair_emitter(
    cfg: SigConfig,
    verify: bool = True,
    hot: dict[int, int] | None = None,
    cross_min_id: int | None = None,
):
    """Block-level bucket processor for hash-partitioned band rows.

    One python call per block: the rows are sorted by (band_key, id) and
    :func:`bucket_pairs` emits the candidate pairs of every bucket at
    once. Then, over all of the block's pairs together:

    * owner-band rule: a pair is kept only by the bucket of the FIRST band
      in which the two docs co-bucket (same band hash and, for a hot
      key, the same salt slot), so no dedup shuffle is needed. Delegate
      buckets (band_idx 255) and capped buckets skip the rule.
    * verify (bucket layouts): one :func:`kmv_jaccard_many` call over
      all pairs, cut at ``cfg.verify_threshold``.

    ``cross_min_id``: incremental-dedup filter — base×base pairs (both
    ids below the boundary) are known from the base run and are never
    built, let alone verified, so an incremental run pays only for pairs
    touching new (delta) docs.
    """
    if hot:
        _ha = np.fromiter(hot.keys(), dtype=np.uint64, count=len(hot))
        _hs = np.fromiter(hot.values(), dtype=np.int64, count=len(hot))
        _o = np.argsort(_ha)
        hot_arr, hot_salts = _ha[_o], _hs[_o]
    else:
        hot_arr = hot_salts = None
    band_nums = np.arange(cfg.bands, dtype=np.uint64)

    def emit_block(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return _empty_pair_table(verify)
        keys = batch.column("band_key").to_numpy()
        ids_all = batch.column("id").to_numpy()
        order = np.lexsort((ids_all, keys))
        ids_all = ids_all[order]
        ra, rb, cap, first = bucket_pairs(
            keys[order], ids_all, cfg.max_bucket_size, cross_min_id
        )
        my_band = batch.column("band_idx").to_numpy()[order][first]
        ruled = ~cap & (my_band != 255)
        if ruled.any():
            # owner-band pair uniqueness: exactly one (small) bucket emits
            # any given pair. Capped buckets skip the rule — the election
            # can point at a bucket that capped and never emitted the
            # pair, so star edges go out unconditionally (a star pair may
            # duplicate one owned elsewhere: bounded by m per capped
            # bucket and harmless to clustering). Delegate buckets exist
            # for the cross-salt pairs the rule would drop.
            bh_flat, bh_off = _binary_col_flat_u64(batch.column("bandhashes"))
            # offset-safe gather (cells are uniform bands-word sequences)
            bh = bh_flat[bh_off[:-1][order, None] + np.arange(cfg.bands)]
            slots = None
            if hot_arr is not None:
                # per-row salt slot of every band (0 = cold key): a hot
                # band co-buckets only inside one salt sub-bucket
                bkeys = make_band_key(band_nums, bh)
                idx = np.clip(np.searchsorted(hot_arr, bkeys), 0, len(hot_arr) - 1)
                is_hot = hot_arr[idx] == bkeys
                id_mix = splitmix64(ids_all.astype(np.uint64))[:, None]
                ns = hot_salts[idx].astype(np.uint64)
                slots = np.where(is_hot, U64(1) + id_mix % ns, U64(0))
            xa, xb, xband = ra[ruled], rb[ruled], my_band[ruled]
            owned = np.empty(len(xa), dtype=bool)
            # (pairs, bands) co-bucket matrices in slices of pairs: bounds
            # the temporaries to ~_PAIR_SLICE·bands words whatever the
            # block's pair count
            for i in range(0, len(xa), _PAIR_SLICE):
                a, b = xa[i : i + _PAIR_SLICE], xb[i : i + _PAIR_SLICE]
                co = bh[a] == bh[b]
                if slots is not None:
                    co &= slots[a] == slots[b]
                owner = np.argmax(co, axis=1)
                owned[i : i + _PAIR_SLICE] = (
                    owner == xband[i : i + _PAIR_SLICE]
                ) & co[np.arange(len(a)), owner]
            keep = np.ones(len(ra), dtype=bool)
            keep[ruled] = owned
            ra, rb, cap = ra[keep], rb[keep], cap[keep]
        if len(ra) == 0:
            return _empty_pair_table(verify)
        src, dst = ids_all[ra], ids_all[rb]
        if verify:
            kmv_flat, kmv_off = _binary_col_flat_u64(
                batch.column("kmv"), cfg.kmv_hash_bytes
            )
            thetas = batch.column("kmv_theta").to_numpy()
            if cfg.kmv_hash_bytes == 4:
                thetas = (thetas >> U64(32)).astype(np.uint32)
            oa, ob = order[ra], order[rb]  # rows of the unsorted batch
            jac = kmv_jaccard_many(
                kmv_flat, kmv_off[oa], kmv_off[oa + 1], thetas[oa],
                kmv_flat, kmv_off[ob], kmv_off[ob + 1], thetas[ob],
                cfg.kmv_k,
            )
            km = jac >= cfg.verify_threshold
            src, dst, jac, cap = src[km], dst[km], jac[km], cap[km]
        cols = {
            "src": pa.array(src, type=pa.int64()),
            "dst": pa.array(dst, type=pa.int64()),
        }
        if verify:
            cols["jaccard"] = pa.array(jac, type=pa.float64())
        cols["capped"] = pa.array(cap, type=pa.bool_())
        return pa.table(cols)

    return emit_block


def _empty_pair_table(verify: bool = False) -> pa.Table:
    cols = {
        "src": pa.array([], type=pa.int64()),
        "dst": pa.array([], type=pa.int64()),
    }
    if verify:
        cols["jaccard"] = pa.array([], type=pa.float64())
    cols["capped"] = pa.array([], type=pa.bool_())
    return pa.table(cols)


def _kmv_jaccard_fast(
    theta_a: np.uint64, ha: np.ndarray, theta_b: np.uint64, hb: np.ndarray, k: int
) -> float:
    """Theta-sketch Jaccard point estimate (JaccardSimilarity.java:55-96
    semantics) on sorted arrays; exact when both sketches are exact-mode.
    Scalar reference for :func:`kmv_jaccard_many` (tests assert parity)."""
    theta = theta_a if theta_a < theta_b else theta_b
    merged = np.union1d(ha, hb)
    if theta < MAX_THETA:
        merged = merged[merged < theta]
    if len(merged) > k:
        merged = merged[:k]
    if len(merged) == 0:
        return 0.0
    inter = np.count_nonzero(
        np.isin(merged, ha, assume_unique=True)
        & np.isin(merged, hb, assume_unique=True)
    )
    return inter / len(merged)


def kmv_jaccard_many(
    flat_a: np.ndarray,
    start_a: np.ndarray,
    end_a: np.ndarray,
    theta_a: np.ndarray,
    flat_b: np.ndarray,
    start_b: np.ndarray,
    end_b: np.ndarray,
    theta_b: np.ndarray,
    k: int,
) -> np.ndarray:
    """Vectorized theta-Jaccard for a BLOCK of pairs — no python call (+
    np.union1d on tiny arrays) per pair.

    Each pair p reads sorted-unique cells ``flat_a[start_a[p]:end_a[p]]``
    and ``flat_b[start_b[p]:end_b[p]]``. Semantics are exactly
    :func:`_kmv_jaccard_fast`: min-theta filter, cap at the k smallest
    merged values, |A∩B| / |A∪B| over the capped merged set.

    A pair's two sketches are one ``2W``-cell row (W = the longest sketch),
    with every cell at or above the pair's theta, and the padding, set to
    the uint64 maximum; each row is sorted on its own. A cell equal to its
    left neighbour is in both sketches; the others are the merged set,
    ranked by a running count. Rows go in slices of about BLOCK_ELEMS
    cells, so the temporaries stay cache-sized whatever the pair count."""
    P = len(start_a)
    out = np.zeros(P, dtype=np.float64)
    la = (end_a - start_a).astype(np.int64)
    lb = (end_b - start_b).astype(np.int64)
    W = int(max(la.max(), lb.max())) if P else 0
    if W == 0:
        return out
    theta = np.minimum(
        np.asarray(theta_a, dtype=np.uint64), np.asarray(theta_b, dtype=np.uint64)
    )
    cols = np.arange(W)
    step = max(1, BLOCK_ELEMS // (2 * W))
    for i in range(0, P, step):
        sl = slice(i, i + step)
        mat = np.full((len(theta[sl]), 2 * W), _PAD, dtype=np.uint64)
        for half, flat, start, lens in (
            (mat[:, :W], flat_a, start_a, la), (mat[:, W:], flat_b, start_b, lb)
        ):
            m = cols < lens[sl, None]
            half[m] = flat[(start[sl, None] + cols)[m]]
        mat[mat >= theta[sl, None]] = _PAD
        mat.sort(axis=1)
        valid = mat != _PAD
        dup = np.zeros_like(valid)
        dup[:, 1:] = valid[:, 1:] & (mat[:, 1:] == mat[:, :-1])
        uniq = valid & ~dup
        in_cap = np.cumsum(uniq, axis=1) <= k
        merged = np.count_nonzero(uniq & in_cap, axis=1)
        inter = np.count_nonzero(dup & in_cap, axis=1)
        out[sl] = np.where(merged > 0, inter / np.maximum(merged, 1), 0.0)
    return out
