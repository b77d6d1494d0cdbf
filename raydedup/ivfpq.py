"""IVF-PQ (IVFADC, Jegou et al. 2011 §IV): the ANN configuration that
actually holds at 100 TB — a coarse inverted-file quantizer routes each
vector to one of ``n_lists`` lists, and the vector's RESIDUAL against its
list centroid is product-quantized to ``m`` one-byte codes. The persisted
index stores only (vec_id, codes) per list: dim × 4 bytes/vector shrinks
to ``m`` bytes, and a query touches ``nprobe / n_lists`` of even that.

Composes the existing stack rather than re-implementing it:
* coarse quantizer  — ``cluster.kmeans_fit`` (distributed Lloyd's on the
  2^20-quantized integer grid, one streaming pass per iteration);
* residual PQ       — ``pq.pq_train`` run verbatim on a residual VIEW of
  the corpus (``map_batches``; nothing materializes);
* ADC search        — per-(query, probed-list) integer LUTs + the same
  combiner-tree top-k merge as ``embed._final_topk``.

Determinism contract (cluster.py's, end to end): quantized coords and
coarse centroids are exact integers, so residuals are exact integers, and
the power-of-two quantization scale makes the residual view's
float round-trip (r / 2^20 → floor(· × 2^20)) LOSSLESS — the PQ machinery
re-quantizes to the bit-identical residual. Every ADC sub-distance is an
exact integer < 2^53; ties break (dist asc, vec_id asc) everywhere. A
chained-CTE DuckDB oracle replays coarse training, residual encoding, PQ
training, probe selection and ADC scoring bit-for-bit
(``__ray_entry__._ivfpq_cte_chain``).

Reference anchor: the reference library's sketch set has no ANN operator;
this extends SURVEY.md's embedding-stack additions (embed.py brute/IVF,
pq.py flat PQ) with the standard third rung of the same public recipe.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .cluster import _assign, kmeans_fit, matrix_list_array, quantized_matrix
from .pq import _codes_matrix, pq_train
from .io import read_parquet as _read_parquet


def residual_view(ds, coarse: np.ndarray, col: str = "embedding", id_col: str = "vec_id"):
    """Dataset view (id_col, list_id, ``col``): each vector replaced by its
    exact integer residual against its nearest coarse centroid, divided by
    2^20 so downstream quantization round-trips losslessly."""
    import ray

    cent = np.asarray(coarse, dtype=np.float64)
    ref = ray.put(cent)

    def fn(batch: pa.Table) -> pa.Table:
        c = ray.get(ref)
        if not batch.num_rows:
            return pa.table(
                {
                    id_col: pa.array([], batch.schema.field(id_col).type),
                    "list_id": pa.array([], pa.int64()),
                    col: pa.array([], pa.list_(pa.float64())),
                }
            )
        qm = quantized_matrix(batch, col)
        a = _assign(qm, c)
        res = (qm - c[a]) / 1048576.0
        return pa.table(
            {
                id_col: batch.column(id_col),
                "list_id": pa.array(a, pa.int64()),
                col: matrix_list_array(res),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def ivfpq_train(
    ds,
    n_lists: int,
    m: int,
    k_codes: int = 256,
    n_iter_coarse: int = 4,
    n_iter_pq: int = 4,
    col: str = "embedding",
    id_col: str = "vec_id",
    dim: int | None = None,
    coarse_init: np.ndarray | str = "prototype",
) -> tuple[np.ndarray, np.ndarray]:
    """(coarse centroids (n_lists, dim), codebooks (m, k_codes, dim/m)) —
    both integer-valued quantized float64. The PQ codebooks are trained on
    residuals, so they model the within-list distribution (the reason
    IVF-PQ beats flat PQ at equal code budget). At web scale pass
    ``coarse_init`` from a driver-side sample (see kmeans_fit's docstring)
    and train on a sampled ``ds``."""
    if dim is None:
        first = ds.take(1)
        if not first:
            raise ValueError("empty dataset")
        dim = len(first[0][col])
    if dim % m:
        raise ValueError(f"dim {dim} not divisible by m {m}")
    coarse = kmeans_fit(
        ds, k=n_lists, n_iter=n_iter_coarse, col=col, id_col=id_col, init=coarse_init
    )
    res = residual_view(ds, coarse, col=col, id_col=id_col)
    books = pq_train(
        res, m=m, k_codes=k_codes, n_iter=n_iter_pq, col=col, id_col=id_col, dim=dim
    )
    return coarse, books


def ivfpq_encode(
    ds,
    coarse: np.ndarray,
    codebooks: np.ndarray,
    col: str = "embedding",
    id_col: str = "vec_id",
):
    """(id_col, list_id, codes list<int64> length m): ONE stateless pass —
    nearest coarse list (exact integer L2, ties → lowest list), then the
    nearest residual code per subspace (ties → lowest code)."""
    import ray

    cent = np.asarray(coarse, dtype=np.float64)
    books = np.asarray(codebooks, dtype=np.float64)
    m, _, dsub = books.shape
    c_ref = ray.put(cent)
    b_ref = ray.put(books)

    def fn(batch: pa.Table) -> pa.Table:
        c = ray.get(c_ref)
        b = ray.get(b_ref)
        if not batch.num_rows:
            return pa.table(
                {
                    id_col: pa.array([], batch.schema.field(id_col).type),
                    "list_id": pa.array([], pa.int64()),
                    "codes": pa.array([], pa.list_(pa.int64())),
                }
            )
        qm = quantized_matrix(batch, col)
        a = _assign(qm, c)
        res = qm - c[a]
        codes = np.empty((len(qm), m), dtype=np.int64)
        for j in range(m):
            codes[:, j] = _assign(res[:, j * dsub : (j + 1) * dsub], b[j])
        return pa.table(
            {
                id_col: batch.column(id_col),
                "list_id": pa.array(a, pa.int64()),
                "codes": matrix_list_array(codes),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def probe_lists(queries_q: np.ndarray, coarse: np.ndarray, nprobe: int) -> np.ndarray:
    """(nq, nprobe) list ids per QUANTIZED query — the nprobe smallest
    exact integer squared-L2 distances, ties → lowest list id."""
    from .cluster import _sq_dists

    nprobe = min(nprobe, len(coarse))
    d = _sq_dists(queries_q, np.asarray(coarse, dtype=np.float64))
    return np.argsort(d, axis=1, kind="stable")[:, :nprobe].astype(np.int64)


class IvfPqAdcScorer:
    """Actor-pool stage over the ENCODED corpus: integer residual-ADC LUTs
    per (query, probed list) built once in ``__init__``; each batch is
    scored list-run by list-run with pure LUT gathers + row sums and
    pre-cut to the per-query top-k (dist asc, vec_id asc). Rows in lists
    no query probes cost one mask test."""

    def __init__(self, queries_ref, query_ids, coarse_ref, codebooks_ref, k, nprobe):
        from .embed import quantize
        from .io import broadcast_value as _get

        qq = quantize(np.asarray(_get(queries_ref), dtype=np.float64))
        coarse = np.asarray(_get(coarse_ref), dtype=np.float64)
        books = np.asarray(_get(codebooks_ref), dtype=np.float64)
        m, kc, dsub = books.shape
        from .cluster import _sq_dists

        probed = probe_lists(qq, coarse, nprobe)
        self.query_ids = np.asarray(query_ids)
        self.k = k
        self.m = m
        # per probed list: (query row indices probing it, their LUT
        # (nq_l, m, kc) of exact integer ||q_res_sub - code||^2)
        self.lists: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for l in np.unique(probed):
            q_idx = np.nonzero((probed == l).any(axis=1))[0]
            qr = qq[q_idx] - coarse[l]
            lut = np.empty((len(q_idx), m, kc), dtype=np.float64)
            for j in range(m):
                lut[:, j, :] = _sq_dists(qr[:, j * dsub : (j + 1) * dsub], books[j])
            self.lists[int(l)] = (q_idx, lut)

    @staticmethod
    def _empty() -> pa.Table:
        return pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                "vec_id": pa.array([], pa.int64()),
                "cosine": pa.array([], pa.float64()),
            }
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        if not batch.num_rows:
            return self._empty()
        ids = batch.column("vec_id").to_numpy()
        lid = batch.column("list_id").to_numpy()
        codes = _codes_matrix(batch)
        order = np.lexsort((ids, lid))
        ids, lid, codes = ids[order], lid[order], codes[order]
        starts = np.flatnonzero(np.r_[True, lid[1:] != lid[:-1]])
        ends = np.r_[starts[1:], len(lid)]
        # flat candidate triples across runs: Python work is O(list runs),
        # never O(runs x probing queries) — each run contributes its whole
        # (query, vec, dist) block via repeat/tile/ravel
        run_q, run_v, run_d = [], [], []
        for s, e in zip(starts, ends):
            entry = self.lists.get(int(lid[s]))
            if entry is None:
                continue
            q_idx, lut = entry
            cs = codes[s:e]
            dist = np.zeros((len(q_idx), e - s), dtype=np.float64)
            for j in range(self.m):
                dist += lut[:, j, cs[:, j]]
            run_q.append(np.repeat(q_idx, e - s))
            run_v.append(np.tile(ids[s:e], len(q_idx)))
            run_d.append(dist.ravel())
        if not run_q:
            return self._empty()
        from .shingle import _intra_offsets

        q = np.concatenate(run_q)
        v = np.concatenate(run_v)
        d = np.concatenate(run_d)
        # one global (q, dist asc, vec_id asc) sort, then the per-query
        # top-k cut via run boundaries — same order the per-query lexsort
        # produced, without a Python pass per query
        order = np.lexsort((v, d, q))
        qs, vs, ds_ = q[order], v[order], d[order]
        first = np.flatnonzero(np.r_[True, qs[1:] != qs[:-1]])
        kk = np.minimum(np.diff(np.r_[first, len(qs)]), self.k)
        take = np.repeat(first, kk) + _intra_offsets(kk)
        return pa.table(
            {
                "query_id": pa.array(self.query_ids[qs[take]], pa.int64()),
                "vec_id": pa.array(vs[take], pa.int64()),
                # negated distance under the "cosine" name so the
                # embed._final_topk max-score combiner tree merges it as-is
                "cosine": pa.array(-ds_[take], pa.float64()),
            }
        )


def ivfpq_adc_topk(
    encoded,
    coarse: np.ndarray,
    codebooks: np.ndarray,
    queries: np.ndarray,
    query_ids,
    k: int = 10,
    nprobe: int = 4,
) -> pa.Table:
    """Residual-ADC top-k over an encoded Dataset (from ``ivfpq_encode``).
    Returns (query_id, vec_id, adc_dist) with adc_dist ascending per
    query; only rows in each query's ``nprobe`` probed lists compete.
    The scored stream is never sorted or shuffled — per-batch pre-cut +
    combiner-tree merge, the embed.py pattern."""
    import ray

    from .embed import _final_topk, _pool

    from .io import put_broadcast

    c_ref = put_broadcast(np.asarray(coarse, dtype=np.float64))
    b_ref = put_broadcast(np.asarray(codebooks, dtype=np.float64))
    q_ref = put_broadcast(np.asarray(queries, dtype=np.float64))
    scored = encoded.map_batches(
        IvfPqAdcScorer,
        fn_constructor_args=(q_ref, np.asarray(query_ids), c_ref, b_ref, k, nprobe),
        batch_format="pyarrow",
        # autoscaling (min, max) pool bounds, the embed.py convention — a
        # fixed cap would serialize ADC scoring onto one actor
        concurrency=_pool(),
        batch_size=16384,
    )
    merged = _final_topk(scored, k)
    return pa.table(
        {
            "query_id": merged.column("query_id"),
            "vec_id": merged.column("vec_id"),
            "adc_dist": pa.array(
                -merged.column("cosine").to_numpy(zero_copy_only=False),
                pa.float64(),
            ),
        }
    )


# ---------------------------------------------------------------------------
# persisted index: codes-only list partitions (the 100 TB layout)


def write_ivfpq_index(
    embeddings,
    path: str,
    n_lists: int = 16,
    m: int = 8,
    k_codes: int = 256,
    n_iter_coarse: int = 4,
    n_iter_pq: int = 4,
    col: str = "embedding",
    id_col: str = "vec_id",
    coarse_init: np.ndarray | str = "prototype",
    train_ds=None,
    overwrite: bool = False,
) -> dict:
    """Persist the IVF-PQ index under ``path``: ``centroids.parquet`` +
    ``codebooks.parquet`` (both tiny, integer-valued quantized grids) and
    ``lists/part-<list_id>.parquet`` holding ONLY (vec_id, codes) with
    codes packed to uint8 while k_codes <= 256 — ``m`` bytes per corpus
    vector instead of dim × 4. Same consistency protocol as
    embed.write_ivf_index: ``meta.json`` is the completion marker; a
    resumed partial build reuses the persisted model files so list
    partitions written before a crash can never disagree with the
    centroids/codebooks they are read against.

    ``train_ds`` (optional) trains the quantizers on a SAMPLE dataset
    instead of the full corpus — the 100 TB path: training is
    m × (n_iter+1) streaming passes, so pay them over ~1M sampled rows
    and keep the full corpus to the single encode pass."""
    import json
    import os
    import shutil

    import pyarrow.parquet as pq

    from .incremental import _write_parts

    cent_path = os.path.join(path, "centroids.parquet")
    book_path = os.path.join(path, "codebooks.parquet")
    meta_path = os.path.join(path, "meta.json")
    if os.path.exists(meta_path):
        if not overwrite:
            raise FileExistsError(
                f"IVF-PQ index already complete at {path}; pass overwrite=True "
                "to rebuild (required when the corpus changed)"
            )
        shutil.rmtree(path)
    elif overwrite and os.path.exists(path):
        # an explicit rebuild request also clears a crashed PARTIAL build —
        # silently resuming it would drop the caller's new hyperparameters
        shutil.rmtree(path)
    os.makedirs(path, exist_ok=True)
    if os.path.exists(cent_path) and os.path.exists(book_path):
        coarse, books = read_ivfpq_model(path)
        dim = coarse.shape[1]
        if len(coarse) != n_lists or books.shape != (m, k_codes, dim // m):
            raise ValueError(
                f"resuming a partial build at {path} whose persisted model "
                f"(n_lists={len(coarse)}, books={books.shape}) does not match "
                f"the requested (n_lists={n_lists}, m={m}, k_codes={k_codes}); "
                "pass overwrite=True to discard it"
            )
    else:
        coarse, books = ivfpq_train(
            train_ds if train_ds is not None else embeddings,
            n_lists=n_lists,
            m=m,
            k_codes=k_codes,
            n_iter_coarse=n_iter_coarse,
            n_iter_pq=n_iter_pq,
            col=col,
            id_col=id_col,
            coarse_init=coarse_init,
        )
        cent_tbl = pa.table(
            {
                "list_id": pa.array(np.arange(len(coarse)), pa.int64()),
                "centroid_q": pa.array([r.tolist() for r in coarse], pa.list_(pa.float64())),
            }
        )
        mm, kc, _ = books.shape
        book_tbl = pa.table(
            {
                "subspace": pa.array(np.repeat(np.arange(mm), kc), pa.int64()),
                "code": pa.array(np.tile(np.arange(kc), mm), pa.int64()),
                "centroid_q": pa.array(
                    [r.tolist() for r in books.reshape(mm * kc, -1)],
                    pa.list_(pa.float64()),
                ),
            }
        )
        for tbl, dest in ((cent_tbl, cent_path), (book_tbl, book_path)):
            tmp = f"{dest}.tmp{os.getpid()}"
            pq.write_table(tbl, tmp)
            os.replace(tmp, dest)

    enc = ivfpq_encode(embeddings, coarse, books, col=col, id_col=id_col)
    code_type = pa.uint8() if books.shape[1] <= 256 else pa.int64()

    def pack(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: batch.column(id_col),
                "codes": batch.column("codes").cast(pa.list_(code_type)),
                "part": batch.column("list_id"),
            }
        )

    rows = enc.map_batches(pack, batch_format="pyarrow")
    n = _write_parts(rows, os.path.join(path, "lists"), len(coarse))
    meta = {
        "n_lists": int(len(coarse)),
        "m": int(books.shape[0]),
        "k_codes": int(books.shape[1]),
        "dim": int(coarse.shape[1]),
        "rows": int(n),
    }
    tmp = os.path.join(path, f"meta.json.tmp{os.getpid()}")
    with open(tmp, "w") as f:
        json.dump(meta, f)
    os.replace(tmp, meta_path)
    return meta


def read_ivfpq_model(path: str) -> tuple[np.ndarray, np.ndarray]:
    """(coarse centroids, codebooks) from a persisted index directory."""
    import os

    import pyarrow.parquet as pq

    from .embed import _batch_matrix

    ct = pq.read_table(os.path.join(path, "centroids.parquet"))
    order = np.argsort(ct.column("list_id").to_numpy(), kind="stable")
    coarse = _batch_matrix(ct.take(pa.array(order)), "centroid_q")
    bt = pq.read_table(os.path.join(path, "codebooks.parquet"))
    sub = bt.column("subspace").to_numpy()
    code = bt.column("code").to_numpy()
    order = np.lexsort((code, sub))
    flat = _batch_matrix(bt.take(pa.array(order)), "centroid_q")
    m = int(sub.max()) + 1
    kc = len(flat) // m
    return coarse, flat.reshape(m, kc, -1)


def _list_id_from_path(path: str) -> int:
    """List id from a ``part-<id>.parquet`` file path. The 05d in the file
    name is a MINIMUM width — parse the full digit run, not a fixed slice
    (ids >= 100000 would otherwise be truncated)."""
    import os

    return int(os.path.basename(path).split("-")[1].split(".")[0])


def ann_topk_ivfpq_indexed(
    path: str,
    queries: np.ndarray,
    query_ids,
    k: int = 10,
    nprobe: int = 4,
) -> pa.Table:
    """Residual-ADC top-k against a PERSISTED index: only the union of the
    queries' probed list partitions is read from storage — and those hold
    ``m`` bytes/vector of codes, not vectors. With nprobe == n_lists every
    list is read and the result equals ``ivfpq_adc_topk`` over the full
    encoded corpus bit-for-bit."""
    import os

    import ray

    from .embed import quantize

    coarse, books = read_ivfpq_model(path)
    qq = quantize(np.asarray(queries, dtype=np.float64))
    probed = np.unique(probe_lists(qq, coarse, nprobe))
    files = [
        os.path.join(path, "lists", f"part-{int(l):05d}.parquet")
        for l in probed
        if os.path.exists(os.path.join(path, "lists", f"part-{int(l):05d}.parquet"))
    ]
    if not files:
        return pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                "vec_id": pa.array([], pa.int64()),
                "adc_dist": pa.array([], pa.float64()),
            }
        )
    import ray.data

    # each part file is one list; re-derive list_id from the file path so
    # the scorer's run grouping works without storing the column per row
    def unpack(batch: pa.Table) -> pa.Table:
        paths = np.asarray(batch.column("path").to_pylist(), dtype=object)
        uniq, inv = np.unique(paths, return_inverse=True)
        lids = np.array([_list_id_from_path(str(u)) for u in uniq], dtype=np.int64)
        return pa.table(
            {
                "vec_id": batch.column("vec_id"),
                "list_id": pa.array(lids[inv]),
                "codes": batch.column("codes").cast(pa.list_(pa.int64())),
            }
        )

    ds = _read_parquet(files, include_paths=True).map_batches(
        unpack, batch_format="pyarrow"
    )
    return ivfpq_adc_topk(ds, coarse, books, queries, query_ids, k=k, nprobe=nprobe)
