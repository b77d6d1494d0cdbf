"""Independent scalar reference implementations used only by tests.

These are written directly from the public algorithm specifications
(xxHash64 spec, Broder MinHash, KMV) with no code shared with the package —
agreement between these and the vectorized kernels is the conformance check
(the engine analog of the reference's golden-binary corpus,
src/test/resources/*.sk, loaded in e.g. T/cpc/CpcCBinariesTest.java:42-108).
"""

from __future__ import annotations

M64 = 0xFFFFFFFFFFFFFFFF
P1 = 0x9E3779B185EBCA87
P2 = 0xC2B2AE3D27D4EB4F
P3 = 0x165667B19E3779F9
P4 = 0x85EBCA77C2B2AE63
P5 = 0x27D4EB2F165667C5


def _rotl(x: int, r: int) -> int:
    return ((x << r) | (x >> (64 - r))) & M64


def _round(acc: int, inp: int) -> int:
    acc = (acc + inp * P2) & M64
    return (_rotl(acc, 31) * P1) & M64


def _merge_round(acc: int, val: int) -> int:
    acc ^= _round(0, val)
    return (acc * P1 + P4) & M64


def xxh64(data: bytes, seed: int = 0) -> int:
    n = len(data)
    seed &= M64
    pos = 0
    if n >= 32:
        v1 = (seed + P1 + P2) & M64
        v2 = (seed + P2) & M64
        v3 = seed
        v4 = (seed - P1) & M64
        while pos + 32 <= n:
            v1 = _round(v1, int.from_bytes(data[pos : pos + 8], "little"))
            v2 = _round(v2, int.from_bytes(data[pos + 8 : pos + 16], "little"))
            v3 = _round(v3, int.from_bytes(data[pos + 16 : pos + 24], "little"))
            v4 = _round(v4, int.from_bytes(data[pos + 24 : pos + 32], "little"))
            pos += 32
        h = (_rotl(v1, 1) + _rotl(v2, 7) + _rotl(v3, 12) + _rotl(v4, 18)) & M64
        h = _merge_round(h, v1)
        h = _merge_round(h, v2)
        h = _merge_round(h, v3)
        h = _merge_round(h, v4)
    else:
        h = (seed + P5) & M64
    h = (h + n) & M64
    while pos + 8 <= n:
        k1 = _round(0, int.from_bytes(data[pos : pos + 8], "little"))
        h = (_rotl(h ^ k1, 27) * P1 + P4) & M64
        pos += 8
    if pos + 4 <= n:
        k = int.from_bytes(data[pos : pos + 4], "little")
        h = (_rotl(h ^ ((k * P1) & M64), 23) * P2 + P3) & M64
        pos += 4
    while pos < n:
        h = (_rotl(h ^ ((data[pos] * P5) & M64), 11) * P1) & M64
        pos += 1
    h ^= h >> 33
    h = (h * P2) & M64
    h ^= h >> 29
    h = (h * P3) & M64
    h ^= h >> 32
    return h


def shingle_set(tokens: list[str], k: int, seed: int) -> set[int]:
    """Reference shingle-hash set: xxh64 over LE-concat of token xxh64s."""
    th = [xxh64(t.encode(), seed) for t in tokens]
    if not th:
        return set()
    if len(th) < k:
        windows = [th]
    else:
        windows = [th[i : i + k] for i in range(len(th) - k + 1)]
    out = set()
    for w in windows:
        out.add(xxh64(b"".join(x.to_bytes(8, "little") for x in w), seed))
    return out


def exact_jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


# ---------------------------------------------------------------------------
# Per-bucket pair loops: the scalar references for stages.bucket_pairs and
# its callers. Each walks the sorted block one bucket at a time, the way
# the engine did before the batched kernel. They reuse the package's leaf
# kernels (band keys, splitmix64, popcount, the KMV merge, quantize) but
# none of its pair enumeration or owner rules.
# ---------------------------------------------------------------------------


def near_block_pairs_loop(cfg, verify=True, hot=None, cross_min_id=None):
    """Reference for stages.make_block_pair_emitter: (src, dst[, jaccard],
    capped) rows of a block of band rows."""
    import numpy as np
    import pyarrow as pa

    from raydedup.hashing import splitmix64
    from raydedup.lsh import make_band_key
    from raydedup.stages import _binary_col_flat_u64, kmv_jaccard_many

    if hot:
        hot_arr = np.array(sorted(hot), dtype=np.uint64)
        hot_salts = np.array([hot[int(k)] for k in hot_arr], dtype=np.int64)
    else:
        hot_arr = hot_salts = None

    def salt_slots(bh, ids):
        n, bands = bh.shape
        hot_mask = np.zeros((n, bands), dtype=bool)
        salts = np.zeros((n, bands), dtype=np.int64)
        id_mix = splitmix64(ids.astype(np.uint64))
        for b in range(bands):
            keys = make_band_key(np.full(n, b, dtype=np.uint64), bh[:, b])
            idx = np.clip(np.searchsorted(hot_arr, keys), 0, len(hot_arr) - 1)
            is_hot = hot_arr[idx] == keys
            hot_mask[:, b] = is_hot
            if is_hot.any():
                ns = hot_salts[idx[is_hot]].astype(np.uint64)
                salts[is_hot, b] = 1 + (id_mix[is_hot] % ns).astype(np.int64)
        return hot_mask, salts

    def emit(batch):
        n = len(batch)
        keys = batch.column("band_key").to_numpy()
        ids_all = batch.column("id").to_numpy()
        order = np.lexsort((ids_all, keys))
        keys, ids_all = keys[order], ids_all[order]
        band_idx_all = batch.column("band_idx").to_numpy()[order]
        bh_flat, bh_off = _binary_col_flat_u64(batch.column("bandhashes"))
        bh_mat = bh_flat[bh_off[:-1, None] + np.arange(cfg.bands)][order]
        if verify:
            kmv_flat, kmv_off = _binary_col_flat_u64(
                batch.column("kmv"), cfg.kmv_hash_bytes
            )
            thetas_all = batch.column("kmv_theta").to_numpy()[order]
            if cfg.kmv_hash_bytes == 4:
                thetas_all = (thetas_all >> np.uint64(32)).astype(np.uint32)
            kstart, kend = kmv_off[:-1][order], kmv_off[1:][order]
        boundaries = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
        ends = np.concatenate([boundaries[1:], [n]])
        out_ra, out_rb, out_cap = [], [], []
        for s, e in zip(boundaries, ends):
            seg_ids = ids_all[s:e]
            keep = np.concatenate([[True], seg_ids[1:] != seg_ids[:-1]])
            rows = np.flatnonzero(keep) + s
            u = seg_ids[keep]
            m = len(u)
            if m < 2:
                continue
            if m <= cfg.max_bucket_size:
                ia, ib = np.triu_indices(m, k=1)
                capped = False
            else:
                ia = np.zeros(m - 1, dtype=np.int64)
                ib = np.arange(1, m)
                capped = True
            my_band = int(band_idx_all[s])
            if my_band != 255 and not capped:
                bh = bh_mat[rows]
                co = bh[ia] == bh[ib]
                if hot_arr is not None:
                    hotm, salts = salt_slots(bh, u)
                    co &= (~hotm[ia]) | (salts[ia] == salts[ib])
                owner = np.argmax(co, axis=1)
                mask = (owner == my_band) & co[np.arange(len(ia)), owner]
                ia, ib = ia[mask], ib[mask]
            out_ra.append(rows[ia])
            out_rb.append(rows[ib])
            out_cap.append(np.full(len(ia), capped, dtype=bool))
        ra = np.concatenate(out_ra + [np.zeros(0, np.int64)]).astype(np.int64)
        rb = np.concatenate(out_rb + [np.zeros(0, np.int64)]).astype(np.int64)
        cap = np.concatenate(out_cap + [np.zeros(0, bool)])
        src, dst = ids_all[ra], ids_all[rb]
        if cross_min_id is not None:
            cm = (src >= cross_min_id) | (dst >= cross_min_id)
            ra, rb, cap, src, dst = ra[cm], rb[cm], cap[cm], src[cm], dst[cm]
        cols = {"src": src, "dst": dst}
        if verify:
            jac = kmv_jaccard_many(
                kmv_flat, kstart[ra], kend[ra], thetas_all[ra],
                kmv_flat, kstart[rb], kend[rb], thetas_all[rb],
                cfg.kmv_k,
            )
            km = jac >= cfg.verify_threshold
            cols = {"src": src[km], "dst": dst[km], "jaccard": jac[km]}
            cap = cap[km]
        cols["capped"] = cap
        return pa.table(cols)

    return emit


def simhash_block_pairs_loop(d, n_chunks, max_bucket):
    """Reference for simdedup.make_simhash_block_verifier."""
    import numpy as np
    import pyarrow as pa

    from raydedup.simhash import popcount64

    width = 64 // n_chunks
    mask = np.uint64((1 << width) - 1)

    def verify(block):
        n = len(block)
        keys = block.column("chunk_key").to_numpy()
        ids_all = block.column("id").to_numpy()
        order = np.lexsort((ids_all, keys))
        keys, ids_all = keys[order], ids_all[order]
        sim_all = block.column("simhash").to_numpy().astype(np.uint64)[order]
        cidx_all = block.column("chunk_idx").to_numpy()[order]
        boundaries = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
        ends = np.concatenate([boundaries[1:], [n]])
        out = []
        for s, e in zip(boundaries, ends):
            u, x = ids_all[s:e], sim_all[s:e]
            keep = np.concatenate([[True], u[1:] != u[:-1]])
            u, x = u[keep], x[keep]
            m = len(u)
            if m < 2:
                continue
            if m <= max_bucket:
                ia, ib = np.triu_indices(m, k=1)
                capped = False
            else:
                ia = np.zeros(m - 1, dtype=np.int64)
                ib = np.arange(1, m)
                capped = True
            diff = x[ia] ^ x[ib]
            ham = popcount64(diff)
            hm = ham <= d
            ia, ib, diff, ham = ia[hm], ib[hm], diff[hm], ham[hm]
            if not capped:
                owner = np.full(len(diff), n_chunks, dtype=np.int64)
                for c in range(n_chunks - 1, -1, -1):
                    owner[(diff >> np.uint64(c * width)) & mask == 0] = c
                om = owner == int(cidx_all[s])
                ia, ib, ham = ia[om], ib[om], ham[om]
            out += [
                (int(u[a]), int(u[b]), int(h), capped)
                for a, b, h in zip(ia, ib, ham)
            ]
        return pa.table(
            {
                "src": pa.array([r[0] for r in out], pa.int64()),
                "dst": pa.array([r[1] for r in out], pa.int64()),
                "hamming": pa.array([r[2] for r in out], pa.int64()),
                "capped": pa.array([r[3] for r in out], pa.bool_()),
            }
        )

    return verify


def embedding_block_pairs_loop(threshold, n_tables, max_bucket):
    """Reference for embed.make_embedding_block_verifier."""
    import numpy as np
    import pyarrow as pa

    from raydedup.embed import _batch_matrix, quantize

    def verify(block):
        n = len(block)
        buckets = block.column("bucket").to_numpy()
        ids_all = block.column("vec_id").to_numpy()
        order = np.lexsort((ids_all, buckets))
        buckets, ids_all = buckets[order], ids_all[order]
        tidx_all = block.column("table_idx").to_numpy()[order]
        emb_all = _batch_matrix(block, "embedding")[order]
        ak = block.column("all_keys").combine_chunks()
        keys_all = np.frombuffer(
            ak.buffers()[1], dtype="<u8", count=n * n_tables,
            offset=ak.offset * 8 * n_tables,
        ).reshape(n, n_tables)[order]
        bnd = np.flatnonzero(np.concatenate([[True], buckets[1:] != buckets[:-1]]))
        ends = np.concatenate([bnd[1:], [n]])
        out = []
        for s, e in zip(bnd, ends):
            u = ids_all[s:e]
            keep = np.concatenate([[True], u[1:] != u[:-1]])
            rows = np.flatnonzero(keep) + s
            u = u[keep]
            m = len(u)
            if m < 2:
                continue
            if m <= max_bucket:
                ia, ib = np.triu_indices(m, k=1)
                capped = False
            else:
                ia = np.zeros(m - 1, dtype=np.int64)
                ib = np.arange(1, m)
                capped = True
            ra, rb = rows[ia], rows[ib]
            qa, qb = quantize(emb_all[ra]), quantize(emb_all[rb])
            dots = (qa * qb).sum(axis=1)
            na = np.sqrt((qa * qa).sum(axis=1))
            nb = np.sqrt((qb * qb).sum(axis=1))
            na[na == 0] = 1.0
            nb[nb == 0] = 1.0
            c = dots / (na * nb)
            km = c >= threshold
            ia, ib, ra, rb, c = ia[km], ib[km], ra[km], rb[km], c[km]
            if n_tables > 1 and not capped:
                owner = np.argmax(keys_all[ra] == keys_all[rb], axis=1)
                om = owner == int(tidx_all[s])
                ia, ib, c = ia[om], ib[om], c[om]
            out += [
                (int(u[a]), int(u[b]), float(v), capped)
                for a, b, v in zip(ia, ib, c)
            ]
        return pa.table(
            {
                "src": pa.array([r[0] for r in out], pa.int64()),
                "dst": pa.array([r[1] for r in out], pa.int64()),
                "cosine": pa.array([r[2] for r in out], pa.float64()),
                "capped": pa.array([r[3] for r in out], pa.bool_()),
            }
        )

    return verify


# ---------------------------------------------------------------------------
# Whole-batch sort kernels: the references for the per-row kernels of the
# signature stage and the near tier's verify. Each is the engine's earlier
# implementation (one lexsort, or one argmin over a strided window view,
# over the whole batch); the tests assert the row kernels give the same
# arrays, bit for bit.
# ---------------------------------------------------------------------------


def _intra(counts):
    import numpy as np

    seg_starts = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)
    return np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(seg_starts, counts)


def segment_unique_lexsort(flat, offsets):
    """Reference for shingle.segment_unique: one (value, row) lexsort."""
    import numpy as np

    offsets = np.asarray(offsets, dtype=np.int64)
    n = len(offsets) - 1
    row_ids = np.repeat(np.arange(n), np.diff(offsets))
    order = np.lexsort((flat, row_ids))
    sf, sr = flat[order], row_ids[order]
    if len(sf):
        keep = np.empty(len(sf), dtype=bool)
        keep[0] = True
        keep[1:] = (sf[1:] != sf[:-1]) | (sr[1:] != sr[:-1])
        sf, sr = sf[keep], sr[keep]
    counts = np.bincount(sr, minlength=n)
    return sf, np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)


def kmv_jaccard_many_lexsort(
    flat_a, start_a, end_a, theta_a, flat_b, start_b, end_b, theta_b, k
):
    """Reference for stages.kmv_jaccard_many: one (value, pair) lexsort
    over every retained cell of both sketches of every pair."""
    import numpy as np

    P = len(start_a)
    if P == 0:
        return np.zeros(0, dtype=np.float64)
    la = (end_a - start_a).astype(np.int64)
    lb = (end_b - start_b).astype(np.int64)
    idx_a = np.repeat(start_a, la) + _intra(la)
    idx_b = np.repeat(start_b, lb) + _intra(lb)
    pair_ids = np.arange(P, dtype=np.int64)
    vals = np.concatenate(
        [flat_a[idx_a].astype(np.uint64), flat_b[idx_b].astype(np.uint64)]
    )
    pair = np.concatenate([np.repeat(pair_ids, la), np.repeat(pair_ids, lb)])
    theta = np.minimum(
        np.asarray(theta_a, dtype=np.uint64), np.asarray(theta_b, dtype=np.uint64)
    )
    keep = vals < theta[pair]
    vals, pair = vals[keep], pair[keep]
    if len(vals) == 0:
        return np.zeros(P, dtype=np.float64)
    order = np.lexsort((vals, pair))
    pv, pp = vals[order], pair[order]
    new_pair = np.concatenate([[True], pp[1:] != pp[:-1]])
    uniq = new_pair | np.concatenate([[True], pv[1:] != pv[:-1]])
    dup = ~uniq
    u = np.cumsum(uniq)
    base = u[np.flatnonzero(new_pair)] - 1
    rank = u - 1 - base[np.cumsum(new_pair) - 1]
    in_cap = rank < k
    merged_cnt = np.bincount(pp[uniq & in_cap], minlength=P)
    inter_cnt = np.bincount(pp[dup & in_cap], minlength=P)
    return np.where(
        merged_cnt > 0, inter_cnt / np.maximum(merged_cnt, 1), 0.0
    ).astype(np.float64)


def winnow_fingerprints_argmin(flat_tokens, offsets, k, w, seed):
    """Reference for winnow.winnow_fingerprints: rightmost minimum of every
    window by argmin over a reversed (windows, w) strided view, a per-row
    loop for rows with fewer than w grams, and two lexsorts."""
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    from raydedup.hashing import poly_rolling_hashes

    offsets = np.asarray(offsets, dtype=np.int64)
    n = len(offsets) - 1
    lens = np.diff(offsets)
    total = int(offsets[-1])
    z = np.zeros(0, dtype=np.uint64)
    if total < k:
        return z, z, np.zeros(n + 1, dtype=np.int64)
    grams_all = poly_rolling_hashes(flat_tokens, k, seed)
    starts = np.arange(total - k + 1)
    row_of = np.searchsorted(offsets, starts, side="right") - 1
    valid_gram = starts + k <= offsets[row_of + 1]
    gram_counts = np.where(lens >= k, lens - k + 1, 0)
    gram_off = np.concatenate([[0], np.cumsum(gram_counts)])
    grams = grams_all[valid_gram]
    pos_in_row = starts[valid_gram] - offsets[row_of[valid_gram]]
    if len(grams) == 0:
        return z, z, np.zeros(n + 1, dtype=np.int64)
    fp_h, fp_p, row_ids = [], [], []
    m = len(grams)
    if m >= w:
        win = sliding_window_view(grams, w)
        wstarts = np.arange(m - w + 1)
        wrow = np.searchsorted(gram_off, wstarts, side="right") - 1
        wvalid = wstarts + w <= gram_off[wrow + 1]
        sel = (wstarts + w - 1 - np.argmin(win[:, ::-1], axis=1))[wvalid]
        sel_rows = wrow[wvalid]
        if len(sel) > 1:
            order = np.lexsort((sel, sel_rows))
            ks, rs = sel[order], sel_rows[order]
            um = np.concatenate([[True], (ks[1:] != ks[:-1]) | (rs[1:] != rs[:-1])])
            sel, sel_rows = ks[um], rs[um]
        fp_h.append(grams[sel])
        fp_p.append(pos_in_row[sel].astype(np.uint64))
        row_ids.append(sel_rows)
    for r in np.flatnonzero((gram_counts > 0) & (gram_counts < w)):
        seg = grams[gram_off[r] : gram_off[r + 1]]
        amin = int(len(seg) - 1 - np.argmin(seg[::-1]))
        fp_h.append(seg[amin : amin + 1])
        fp_p.append(pos_in_row[gram_off[r] + amin : gram_off[r] + amin + 1].astype(np.uint64))
        row_ids.append(np.array([r], dtype=np.int64))
    all_h, all_p, all_r = (np.concatenate(x) for x in (fp_h, fp_p, row_ids))
    order = np.lexsort((all_p, all_r))
    all_h, all_p, all_r = all_h[order], all_p[order], all_r[order]
    fp_offsets = np.concatenate([[0], np.cumsum(np.bincount(all_r, minlength=n))])
    return all_h, all_p, fp_offsets.astype(np.int64)


def split_tokens_regex(trimmed):
    """Reference for tokenize.split_tokens: RE2 ``\\s+`` runs."""
    import pyarrow.compute as pc

    return pc.split_pattern_regex(trimmed, r"\s+")
