"""Embedding similarity: brute-force cosine top-k + LSH-bucketed near-dup.

* ``ann_topk`` — baseline exact ANN: the (small) query matrix is broadcast
  once via ``ray.put``; every map_batches task scores its batch with one
  float64 matmul and PRE-CUTS to the per-query top-k inside the batch, so
  only ``n_blocks * nq * k`` candidate rows ever leave the map stage. The
  final cut is a tiny AggregateFn whose partials merge in the combiner
  tree — no Sort all-to-all over the n×nq scored rows.
* ``ann_topk_ivf`` — the IVF scale path: spherical-k-means centroids from a
  bounded driver sample, broadcast once; each task assigns rows to lists
  with one matvec and scores each query only against its ``nprobe`` probed
  lists (~``nprobe/n_lists`` of brute-force compute), same per-batch
  pre-cut + combiner-tree final merge. ``nprobe == n_lists`` is bit-exact.
* ``random_hyperplane_buckets`` / ``embedding_dup_pairs`` — SimHash-for-
  vectors (Charikar random hyperplanes): bucket by sign pattern, verify
  cosine within buckets — the scale path for embedding near-dup detection.
  ``n_tables`` independent hyperplane tables raise recall at lower
  thresholds (pair uniqueness via the owner-table rule, no dedup shuffle);
  buckets over ``max_bucket`` degrade to a representative star instead of
  going quadratic.
"""

from __future__ import annotations

import pickle

import numpy as np
import pyarrow as pa

import ray
import ray.data
from .io import put_broadcast
from .io import read_parquet as _read_parquet
from .stages import bucket_pairs

# Embeddings are quantized to integers (floor(v * 2^20)) before cosine
# computation. Integer dot products and norms are exactly representable in
# float64 (|v| < 1, dim 64 → < 2^53), and the final
# dot / (sqrt(na) * sqrt(nb)) is a fixed sequence of correctly-rounded IEEE
# ops — so any engine (numpy, DuckDB, ...) computing this definition from
# the same inputs produces bit-identical cosines. That determinism is what
# lets the ANN operators carry exact value-hash oracles.
QUANT_SCALE = 1048576.0  # 2^20


def _pool() -> tuple[int, int]:
    from .pipeline import actor_pool

    return actor_pool()


def quantize(m: np.ndarray) -> np.ndarray:
    return np.floor(np.asarray(m, dtype=np.float64) * QUANT_SCALE)


def quantized_cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise cosine matrix between quantized row sets (bit-deterministic)."""
    qa, qb = quantize(a), quantize(b)
    dots = qa @ qb.T
    na = np.sqrt((qa * qa).sum(axis=1))
    nb = np.sqrt((qb * qb).sum(axis=1))
    na[na == 0] = 1.0
    nb[nb == 0] = 1.0
    return dots / (na[:, None] * nb[None, :])


def _runs(sorted_arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(run starts, run ends) over a sorted array."""
    if len(sorted_arr) == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e
    new = np.concatenate([[True], sorted_arr[1:] != sorted_arr[:-1]])
    starts = np.flatnonzero(new)
    return starts, np.append(starts[1:], len(sorted_arr))


def _batch_matrix(batch: pa.Table, col: str) -> np.ndarray:
    arr = batch.column(col)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = arr.values.to_numpy(zero_copy_only=False).astype(np.float64)
    dim = len(flat) // max(len(arr), 1)
    return flat.reshape(len(arr), dim)


class AnnScorer:
    """Actor-pool stage: scores batches against a broadcast query matrix and
    pre-cuts each batch to the per-query top-k (cosine desc, vec_id asc) —
    output is ≤ nq*k rows per batch regardless of batch size."""

    def __init__(self, queries_ref, query_ids, k: int):
        from .io import broadcast_value

        self.q = np.asarray(broadcast_value(queries_ref), dtype=np.float64)
        self.query_ids = np.asarray(query_ids, dtype=np.int64)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _batch_matrix(batch, "embedding")
        cos = quantized_cosine(m, self.q)  # (batch, nq)
        vec_ids = batch.column("vec_id").to_numpy()
        nq = cos.shape[1]
        kk = min(self.k, len(vec_ids))
        # one stable column-wise argsort cuts EVERY query's top-k at once:
        # rows are pre-ordered by vec_id, so stability resolves cosine ties
        # by vec_id asc — exactly the final merge's (cosine desc, vec_id
        # asc) rule, with no Python loop over queries
        row_order = np.argsort(vec_ids)
        vec_s = vec_ids[row_order]
        cos_s = cos[row_order]
        top = np.argsort(-cos_s, axis=0, kind="stable")[:kk]  # (kk, nq)
        out_v = vec_s[top].T.ravel()
        out_c = np.take_along_axis(cos_s, top, axis=0).T.ravel()
        out_q = np.repeat(self.query_ids, kk)
        return pa.table(
            {
                "query_id": pa.array(out_q),
                "vec_id": pa.array(out_v),
                "cosine": pa.array(out_c),
            }
        )


def _topk_merge_into(state: dict, qids, vids, coss, k: int) -> dict:
    """Merge candidate rows into a per-query (cosines, vec_ids) top-k state."""
    for q in np.unique(qids):
        m = qids == q
        if q in state:
            c = np.concatenate([state[q][0], coss[m]])
            v = np.concatenate([state[q][1], vids[m]])
        else:
            c, v = coss[m], vids[m]
        order = np.lexsort((v, -c))[:k]
        state[q] = (c[order], v[order])
    return state


def _final_topk(scored: "ray.data.Dataset", k: int) -> pa.Table:
    """Final per-query top-k cut over pre-cut candidate rows: a tiny
    AggregateFn whose partials merge in Ray's combiner tree — the scored
    dataset is never sorted or shuffled."""
    from ray.data.aggregate import AggregateFn

    def acc(state: bytes | None, block: pa.Table) -> bytes:
        st = pickle.loads(state) if state else {}
        st = _topk_merge_into(
            st,
            block.column("query_id").to_numpy(),
            block.column("vec_id").to_numpy(),
            block.column("cosine").to_numpy(),
            k,
        )
        return pickle.dumps(st)

    def mrg(a: bytes | None, b: bytes | None) -> bytes:
        if not a:
            return b or pickle.dumps({})
        if not b:
            return a
        st = pickle.loads(a)
        for q, (c, v) in pickle.loads(b).items():
            st = _topk_merge_into(st, np.full(len(v), q), v, c, k)
        return pickle.dumps(st)

    res = scored.aggregate(
        AggregateFn(
            init=lambda key: None,
            accumulate_block=acc,
            merge=mrg,
            finalize=lambda s: s,
            name="topk",
        )
    )
    state: dict = pickle.loads(res["topk"]) if res["topk"] else {}
    out_q, out_v, out_c = [], [], []
    for q in sorted(state):
        c, v = state[q]
        out_q.append(np.full(len(v), q, dtype=np.int64))
        out_v.append(v)
        out_c.append(c)
    if not out_q:
        return pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                "vec_id": pa.array([], pa.int64()),
                "cosine": pa.array([], pa.float64()),
            }
        )
    return pa.table(
        {
            "query_id": pa.array(np.concatenate(out_q)),
            "vec_id": pa.array(np.concatenate(out_v)),
            "cosine": pa.array(np.concatenate(out_c)),
        }
    )


def ann_topk(
    embeddings: "ray.data.Dataset",
    queries: np.ndarray,
    query_ids: np.ndarray,
    k: int = 10,
) -> pa.Table:
    """Exact top-k by cosine per query (ties: vec_id asc).

    Scoring is distributed with a per-batch pre-cut, so only
    ``n_blocks * nq * k`` candidate rows ever leave the map stage."""
    q_ref = put_broadcast(np.asarray(queries, dtype=np.float64))

    scored = embeddings.map_batches(
        AnnScorer,
        fn_constructor_kwargs={"queries_ref": q_ref, "query_ids": query_ids, "k": k},
        batch_format="pyarrow",
        concurrency=_pool(),
        batch_size=4096,
    )
    return _final_topk(scored, k)


# ---------------------------------------------------------------------------
# IVF ANN — the scale path for similarity search
# ---------------------------------------------------------------------------


def kmeans_centroids(
    sample: np.ndarray, n_lists: int, n_iter: int = 10, seed: int = 9001
) -> np.ndarray:
    """Spherical k-means over a driver-side sample (bounded, a few thousand
    rows — never the full dataset). Returns L2-normalized centroids
    ``(n_lists, dim)``. Empty clusters keep their previous centroid."""
    m = np.asarray(sample, dtype=np.float64)
    norms = np.linalg.norm(m, axis=1)
    norms[norms == 0] = 1.0
    m = m / norms[:, None]
    rng = np.random.default_rng(seed)
    n_lists = min(n_lists, len(m))
    cent = m[rng.choice(len(m), size=n_lists, replace=False)].copy()
    for _ in range(n_iter):
        assign = np.argmax(m @ cent.T, axis=1)
        for c in range(n_lists):
            members = m[assign == c]
            if len(members):
                v = members.sum(axis=0)
                nv = np.linalg.norm(v)
                if nv > 0:
                    cent[c] = v / nv
    return cent


class AnnIvfScorer:
    """Actor-pool stage for IVF ANN: assigns each vector to its nearest
    centroid list (one matvec per batch against the broadcast centroids),
    then scores each query ONLY against rows in its ``nprobe`` probed lists
    — per-batch compute drops to ~``nprobe / n_lists`` of brute force. Each
    batch pre-cuts to the per-query top-k exactly like ``AnnScorer``.

    Quantized integer cosines keep dot/norm sums exactly representable in
    float64, so with ``nprobe == n_lists`` the result is bit-identical to
    the brute-force tier (and the DuckDB oracle) regardless of centroid
    placement or summation order."""

    def __init__(self, queries_ref, query_ids, k: int, centroids_ref, nprobe: int):
        from .io import broadcast_value

        cent = broadcast_value(centroids_ref)
        self.q = np.asarray(broadcast_value(queries_ref), dtype=np.float64)
        self.query_ids = np.asarray(query_ids, dtype=np.int64)
        self.k = k
        self.cent = np.asarray(cent, dtype=np.float64)
        n_lists = len(self.cent)
        nprobe = min(nprobe, n_lists)
        self.qq = quantize(self.q)
        qn = np.sqrt((self.qq * self.qq).sum(axis=1))
        qn[qn == 0] = 1.0
        self.q_norm = qn
        # probe mask: (n_lists, nq) — True where query qi probes list l
        qnorm = np.linalg.norm(self.q, axis=1)
        qnorm[qnorm == 0] = 1.0
        aff = self.cent @ (self.q / qnorm[:, None]).T  # (n_lists, nq)
        order = np.argsort(-aff, axis=0, kind="stable")[:nprobe]  # (nprobe, nq)
        mask = np.zeros((n_lists, len(self.q)), dtype=bool)
        mask[order, np.arange(len(self.q))[None, :]] = True
        self.probe_mask = mask

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _batch_matrix(batch, "embedding")
        vec_ids = batch.column("vec_id").to_numpy()
        list_id = np.argmax(m @ self.cent.T, axis=1)
        qm = quantize(m)
        vnorm = np.sqrt((qm * qm).sum(axis=1))
        vnorm[vnorm == 0] = 1.0
        # one BLAS matmul per NON-EMPTY LIST (bounded by n_lists, not nq):
        # each list's rows are scored only against the queries probing it —
        # the nprobe/n_lists compute saving survives, with no per-query loop
        order = np.argsort(list_id, kind="stable")
        ls, le = _runs(list_id[order])
        cand_q, cand_v, cand_c = [], [], []
        for s, e in zip(ls, le):
            rows = order[s:e]
            qs = np.flatnonzero(self.probe_mask[list_id[rows[0]]])
            if not len(qs):
                continue
            # pre-cut to the per-(list, query) top-k BEFORE accumulating —
            # candidate memory is O(k · probing queries) per list instead
            # of O(rows · probing queries) across the whole batch. Rows are
            # vec_id-sorted first so the stable column argsort resolves
            # cosine ties by vec_id asc, the final merge's exact rule.
            vo = rows[np.argsort(vec_ids[rows])]
            cos = (qm[vo] @ self.qq[qs].T) / (
                vnorm[vo, None] * self.q_norm[qs][None, :]
            )  # (rows, probing queries)
            kk = min(self.k, len(vo))
            top = np.argsort(-cos, axis=0, kind="stable")[:kk]  # (kk, nqp)
            cand_q.append(np.tile(qs, kk))
            cand_v.append(vec_ids[vo][top].ravel())
            cand_c.append(np.take_along_axis(cos, top, axis=0).ravel())
        if not cand_q:
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    "vec_id": pa.array([], pa.int64()),
                    "cosine": pa.array([], pa.float64()),
                }
            )
        q_idx = np.concatenate(cand_q)
        v_cat = np.concatenate(cand_v)
        c_cat = np.concatenate(cand_c)
        # per-query top-k over all candidates in ONE grouped lexsort:
        # (query, cosine desc, vec_id asc), then keep each query-run's
        # first k rows by rank-within-run
        so = np.lexsort((v_cat, -c_cat, q_idx))
        q_s, v_s, c_s = q_idx[so], v_cat[so], c_cat[so]
        new_run = np.concatenate([[True], q_s[1:] != q_s[:-1]])
        starts = np.flatnonzero(new_run)
        run_id = np.cumsum(new_run) - 1
        rank = np.arange(len(q_s)) - starts[run_id]
        keep = rank < self.k
        return pa.table(
            {
                "query_id": pa.array(self.query_ids[q_s[keep]]),
                "vec_id": pa.array(v_s[keep]),
                "cosine": pa.array(c_s[keep]),
            }
        )


def ann_topk_ivf(
    embeddings: "ray.data.Dataset",
    queries: np.ndarray,
    query_ids: np.ndarray,
    k: int = 10,
    n_lists: int = 16,
    nprobe: int = 4,
    sample_size: int = 4096,
    seed: int = 9001,
) -> pa.Table:
    """IVF approximate top-k by cosine per query — the scale path for
    similarity search (reference role: the engine-side ANN the brute-force
    ``ann_topk`` baselines).

    Train: spherical k-means on a bounded driver-side sample (``take_batch``
    of ``sample_size`` rows — never a full materialization). Search: the
    centroid matrix is broadcast once via ``ray.put``; each map_batches task
    assigns its rows to lists with one matvec and scores each query only
    against its ``nprobe`` probed lists, pre-cutting to the per-query top-k.
    Final cut is the same combiner-tree AggregateFn as ``ann_topk`` — no
    Sort all-to-all anywhere.

    For the amortized path use ``write_ivf_index`` +
    ``ann_topk_ivf_indexed``: the corpus is partitioned by list id once and
    each query batch reads only its probed list partitions. This inline
    variant re-assigns per batch (one (batch × n_lists) matvec, negligible
    next to scoring) for one-shot searches. ``nprobe == n_lists`` degrades
    to exact brute force (bit-identical to ``ann_topk``)."""
    sample = embeddings.take_batch(sample_size, batch_format="pyarrow")
    cent = kmeans_centroids(
        _batch_matrix(sample, "embedding"), n_lists, seed=seed
    )
    q_ref = put_broadcast(np.asarray(queries, dtype=np.float64))
    c_ref = put_broadcast(cent)

    scored = embeddings.map_batches(
        AnnIvfScorer,
        fn_constructor_kwargs={
            "queries_ref": q_ref,
            "query_ids": query_ids,
            "k": k,
            "centroids_ref": c_ref,
            "nprobe": nprobe,
        },
        batch_format="pyarrow",
        concurrency=_pool(),
        batch_size=4096,
    )
    return _final_topk(scored, k)


def _assign_list_part(batch: pa.Table, ref) -> pa.Table:
    """Task-side list assignment against the broadcast centroid matrix."""
    cent = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
    m = _batch_matrix(batch, "embedding")
    part = np.argmax(m @ cent.T, axis=1).astype(np.int64)
    return batch.append_column("part", pa.array(part))


def write_ivf_index(
    embeddings: "ray.data.Dataset",
    path: str,
    n_lists: int = 16,
    sample_size: int = 4096,
    seed: int = 9001,
    n_iter: int = 10,
    overwrite: bool = False,
) -> dict:
    """Persist the IVF index under ``path``: ``centroids.parquet`` (tiny)
    plus ``lists/part-<list_id>.parquet`` — the corpus partitioned by
    nearest-centroid list, written idempotently one file per list (the
    ``write_dedup_index`` pattern from incremental.py). Build cost = one
    bounded driver-side k-means sample + one assignment pass + one
    partition shuffle, paid once and amortized over every query batch —
    the 100 TB shape ``ann_topk_ivf``'s docstring promises.

    Consistency protocol: ``meta.json`` is the completion marker — if it
    exists the index is complete and immutable (pass ``overwrite=True`` to
    clear and rebuild, e.g. after the corpus changed). A resumed partial
    build REUSES the persisted centroids rather than re-running k-means, so
    list partitions written before a crash can never disagree with the
    centroids they are read against."""
    import json
    import os
    import shutil

    import pyarrow.parquet as pq

    from .incremental import _write_parts

    cent_path = os.path.join(path, "centroids.parquet")
    meta_path = os.path.join(path, "meta.json")
    if os.path.exists(meta_path):
        if not overwrite:
            raise FileExistsError(
                f"IVF index already complete at {path}; pass overwrite=True "
                "to rebuild (required when the corpus changed)"
            )
        shutil.rmtree(path)
    os.makedirs(path, exist_ok=True)
    if os.path.exists(cent_path):
        # crashed previous build: resume under ITS centroids so already-
        # written list partitions stay consistent
        cent = _batch_matrix(pq.read_table(cent_path), "centroid")
    else:
        sample = embeddings.take_batch(sample_size, batch_format="pyarrow")
        cent = kmeans_centroids(
            _batch_matrix(sample, "embedding"), n_lists, n_iter=n_iter, seed=seed
        )
        cent_tbl = pa.table(
            {
                "list_id": pa.array(np.arange(len(cent)), pa.int64()),
                "centroid": pa.array(
                    [row.tolist() for row in cent], type=pa.list_(pa.float64())
                ),
            }
        )
        tmp = os.path.join(path, f"centroids.parquet.tmp{os.getpid()}")
        pq.write_table(cent_tbl, tmp)
        os.replace(tmp, cent_path)

    c_ref = ray.put(cent)
    rows = embeddings.map_batches(
        _assign_list_part, fn_args=(c_ref,), batch_format="pyarrow"
    )
    n = _write_parts(rows, os.path.join(path, "lists"), len(cent))
    meta = {
        "n_lists": int(len(cent)),
        "dim": int(cent.shape[1]),
        "rows": int(n),
        "seed": seed,
    }
    tmp = os.path.join(path, f"meta.json.tmp{os.getpid()}")
    with open(tmp, "w") as f:
        json.dump(meta, f)
    os.replace(tmp, os.path.join(path, "meta.json"))
    return meta


def read_ivf_centroids(path: str) -> np.ndarray:
    import os

    import pyarrow.parquet as pq

    tbl = pq.read_table(os.path.join(path, "centroids.parquet"))
    return _batch_matrix(tbl, "centroid")


def probed_list_files(
    path: str, queries: np.ndarray, nprobe: int
) -> tuple[np.ndarray, list[str]]:
    """(probed list ids, their existing part files) for a query batch —
    the union over queries of each query's ``nprobe`` closest lists."""
    import os

    cent = read_ivf_centroids(path)
    q = np.asarray(queries, dtype=np.float64)
    qn = np.linalg.norm(q, axis=1)
    qn[qn == 0] = 1.0
    aff = cent @ (q / qn[:, None]).T  # (n_lists, nq)
    nprobe = min(nprobe, len(cent))
    probed = np.unique(np.argsort(-aff, axis=0, kind="stable")[:nprobe])
    files = [
        os.path.join(path, "lists", f"part-{int(l):05d}.parquet")
        for l in probed
        if os.path.exists(os.path.join(path, "lists", f"part-{int(l):05d}.parquet"))
    ]
    return probed, files


def ann_topk_ivf_indexed(
    path: str,
    queries: np.ndarray,
    query_ids: np.ndarray,
    k: int = 10,
    nprobe: int = 4,
) -> pa.Table:
    """IVF top-k against a PERSISTED index: only the ``nprobe`` probed list
    partitions are read from storage (pruning at the read — unprobed rows
    never leave parquet), then the same scorer + combiner-tree cut as
    ``ann_topk_ivf``. With ``nprobe == n_lists`` this reads every list and
    is bit-identical to brute force; with ``nprobe < n_lists`` both I/O and
    compute drop to ~``nprobe / n_lists``."""
    cent = read_ivf_centroids(path)
    _, files = probed_list_files(path, queries, nprobe)
    if not files:
        return pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                "vec_id": pa.array([], pa.int64()),
                "cosine": pa.array([], pa.float64()),
            }
        )
    ds = _read_parquet(files, columns=["vec_id", "embedding"])
    q_ref = put_broadcast(np.asarray(queries, dtype=np.float64))
    c_ref = put_broadcast(cent)
    scored = ds.map_batches(
        AnnIvfScorer,
        fn_constructor_kwargs={
            "queries_ref": q_ref,
            "query_ids": query_ids,
            "k": k,
            "centroids_ref": c_ref,
            "nprobe": nprobe,
        },
        batch_format="pyarrow",
        concurrency=_pool(),
        batch_size=4096,
    )
    return _final_topk(scored, k)


class HyperplaneBucketStage:
    """vector → one row per LSH table: (bucket, table_idx, all_keys, ...).

    ``all_keys`` carries the row's bucket keys for EVERY table (n_tables
    little-endian uint64s) so in-bucket verification can apply the
    owner-table rule (emit a pair only from the first table where the two
    vectors co-bucket) without a downstream dedup shuffle."""

    def __init__(self, dim: int, n_bits: int = 16, seed: int = 9001, n_tables: int = 1):
        rng = np.random.default_rng(seed)
        self.n_tables = n_tables
        self.planes = [rng.standard_normal((dim, n_bits)) for _ in range(n_tables)]

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _batch_matrix(batch, "embedding")
        n = len(m)
        keys = np.zeros((n, self.n_tables), dtype=np.uint64)
        for t, planes in enumerate(self.planes):
            bits = (m @ planes) > 0
            key = np.zeros(n, dtype=np.uint64)
            for b in range(bits.shape[1]):
                key |= bits[:, b].astype(np.uint64) << np.uint64(b)
            # mix table idx in so tables never cross-collide
            keys[:, t] = key ^ np.uint64((t * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
        blob = keys.astype("<u8").tobytes()
        width = 8 * self.n_tables
        all_keys = pa.Array.from_buffers(
            pa.binary(width), n, [None, pa.py_buffer(blob)]
        )
        parts = []
        for t in range(self.n_tables):
            cols = {name: batch.column(name) for name in batch.column_names}
            cols["bucket"] = pa.array(keys[:, t], type=pa.uint64())
            cols["table_idx"] = pa.array(np.full(n, t, dtype=np.int64))
            cols["all_keys"] = all_keys
            parts.append(pa.table(cols))
        return pa.concat_tables(parts)


def make_embedding_block_verifier(
    threshold: float, n_tables: int, max_bucket: int = 4096
):
    """Block processor for hash-partitioned bucket rows: the candidate pairs
    of every bucket in the partition come from one :func:`bucket_pairs`
    call and verify in one batched quantized cosine. Pairs are globally
    unique (owner-table rule); over-size buckets degrade to a
    representative star."""

    def _empty() -> pa.Table:
        return pa.table(
            {
                "src": pa.array([], pa.int64()),
                "dst": pa.array([], pa.int64()),
                "cosine": pa.array([], pa.float64()),
                "capped": pa.array([], pa.bool_()),
            }
        )

    def verify_block(block: pa.Table) -> pa.Table:
        n = len(block)
        if n == 0:
            return _empty()
        buckets = block.column("bucket").to_numpy()
        ids = block.column("vec_id").to_numpy()
        order = np.lexsort((ids, buckets))
        ids = ids[order]
        ra, rb, cap, first = bucket_pairs(buckets[order], ids, max_bucket)
        # quantize and take norms once per row: the per-pair cosine below
        # is the same IEEE op sequence as quantized_cosine
        q = quantize(_batch_matrix(block, "embedding")[order])
        norm = np.sqrt((q * q).sum(axis=1))
        norm[norm == 0] = 1.0
        # dot products in slices of pairs: bounds the (pairs, dim) temporary
        step = max(1, (1 << 22) // max(1, q.shape[1]))
        dots = np.empty(len(ra))
        for i in range(0, len(ra), step):
            j = slice(i, i + step)
            dots[j] = (q[ra[j]] * q[rb[j]]).sum(axis=1)
        c = dots / (norm[ra] * norm[rb])
        keep = c >= threshold
        if n_tables > 1:
            # owner-table pair uniqueness — skipped for capped (star)
            # buckets: the election can point at a table whose bucket also
            # capped and never verified this pair, so suppressing here
            # could drop it from every table (same fix as the LSH band
            # tier; duplicates are deduped by embedding_dup_pairs)
            ak = block.column("all_keys")
            if isinstance(ak, pa.ChunkedArray):
                ak = ak.combine_chunks()
            keys_all = np.frombuffer(
                ak.buffers()[1], dtype="<u8", count=n * n_tables,
                offset=ak.offset * 8 * n_tables,
            ).reshape(n, n_tables)[order]
            tidx = block.column("table_idx").to_numpy()[order]
            xa, xb = ra[keep], rb[keep]
            owner = np.argmax(keys_all[xa] == keys_all[xb], axis=1)
            keep[keep] = cap[keep] | (owner == tidx[first[keep]])
        return pa.table(
            {
                "src": pa.array(ids[ra[keep]], type=pa.int64()),
                "dst": pa.array(ids[rb[keep]], type=pa.int64()),
                "cosine": pa.array(c[keep], type=pa.float64()),
                "capped": pa.array(cap[keep], type=pa.bool_()),
            }
        )

    return verify_block


def embedding_dup_pairs(
    embeddings: "ray.data.Dataset",
    threshold: float = 0.99,
    n_bits: int = 12,
    seed: int = 9001,
    dim: int | None = None,
    n_tables: int = 1,
    max_bucket: int = 4096,
) -> "ray.data.Dataset":
    """Near-duplicate vector pairs (cosine >= threshold) via hyperplane-LSH
    bucketing + in-bucket exact verification.

    High thresholds keep the single-table hyperplane miss probability
    negligible (theta = arccos(t)); for lower thresholds raise ``n_tables``
    — a pair within angle theta co-buckets in at least one of T tables with
    probability 1 - (1 - (1 - theta/pi)^n_bits)^T. Output pairs are unique
    without any dedup shuffle (owner-table rule)."""
    from .pipeline import grouped_blocks

    if dim is None:
        first = embeddings.take_batch(1, batch_format="pyarrow")
        dim = len(first.column("embedding")[0])

    bucketed = embeddings.map_batches(
        HyperplaneBucketStage,
        fn_constructor_kwargs={
            "dim": dim, "n_bits": n_bits, "seed": seed, "n_tables": n_tables
        },
        batch_format="pyarrow",
        concurrency=_pool(),
    )
    verify_block = make_embedding_block_verifier(threshold, n_tables, max_bucket)
    pairs = grouped_blocks(bucketed, "bucket", verify_block)
    # capped (star) rows bypass the owner-table rule and can surface from
    # several tables; dedupe just that (tiny) subset to keep the output's
    # each-pair-exactly-once contract
    base = pairs.filter(expr="capped == False").select_columns(
        ["src", "dst", "cosine"]
    )
    capped_unique = (
        pairs.filter(expr="capped == True")
        .groupby(["src", "dst"])
        .max("cosine")
        .map_batches(
            lambda b: pa.table(
                {
                    "src": b.column("src"),
                    "dst": b.column("dst"),
                    "cosine": b.column("max(cosine)"),
                }
            ),
            batch_format="pyarrow",
        )
    )
    return base.union(capped_unique)
