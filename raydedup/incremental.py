"""Incremental (cross-corpus) dedup: dedupe NEW files against an already-
deduped base corpus without re-verifying base-vs-base pairs.

The training-pipeline shape this serves: a 100 TB corpus is deduped once;
daily deltas arrive and must be (a) matched against the base, (b) deduped
among themselves, (c) assigned to existing clusters — re-running the full
O(corpus) pipeline per delta is wasteful. Here the base contributes only
its persisted SIGNATURE INDEX (the `signatures()` output, no content:
1.8-2.4 KB/doc on the perfbench inputs) and its assignment table; the
delta pays signature computation plus ONE band shuffle over base-index +
delta rows. No base×base pair is ever built, let alone verified
(``cross_min_id`` of stages.bucket_pairs): a bucket without a delta member
is dropped before its pairs are formed, and the base×base pairs of the
other buckets are dropped before the sketch verification.

Id contract: delta rows carry ids strictly greater than every base id
(append-only id space — the natural layout for arriving data). The
base×base filter, the exact-tier match direction and the "component root
is a base cluster when one is present" rule all follow from that ordering.

Semantics vs a full re-run: connectivity is preserved — a base endpoint is
replaced by its base cluster root before clustering, so paths through base
clusters survive the base×base filter; a delta doc bridging two base
clusters yields a row in the ``merges`` output (old_cluster →
new_cluster) rather than a rewrite of the base assignment table (apply
lazily downstream, the scalable choice).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from .config import DEFAULT_CONFIG, SigConfig
from .pipeline import (
    detect_hot_band_keys,
    exact_edges,
    grouped_blocks,
    near_edges,
    signatures,
    substring_edges,
)
from .stages import SignatureStage
from .unionfind import cluster_edges
from .io import read_parquet as _read_parquet


def write_signature_index(
    corpus: "ray.data.Dataset", path: str, cfg: SigConfig = DEFAULT_CONFIG
) -> None:
    """Persist the base corpus's signature index as partitioned parquet —
    the only base-side artifact an incremental run reads (content never
    re-reads). One file per input block → resumable, range-prunable."""
    signatures(corpus, cfg).write_parquet(path)


def read_signature_index(path: str) -> "ray.data.Dataset":
    return _read_parquet(path)


def _cross_filter(boundary: int):
    def f(batch: pa.Table) -> pa.Table:
        src = batch.column("src").to_numpy()
        dst = batch.column("dst").to_numpy()
        keep = (src >= boundary) | (dst >= boundary)
        return batch.filter(pa.array(keep))

    return f


def incremental_dup_pairs(
    all_sigs: "ray.data.Dataset",
    cfg: SigConfig,
    boundary: int,
    hot: dict[int, int] | None = None,
    with_substring: bool = True,
) -> "ray.data.Dataset":
    """Verified dup edges over base-index ∪ delta signatures where at least
    one endpoint is a delta doc (id >= boundary). Near-tier base×base
    candidates are dropped pre-verification; exact/substring tiers emit
    only cross or delta-delta rows."""
    e_exact = exact_edges(all_sigs).map_batches(
        _cross_filter(boundary), batch_format="pyarrow"
    )
    # bucket_waves, not auto: auto's hybrid layout would broadcast the
    # sketch table of the WHOLE base + delta corpus to verify pairs that
    # all touch the delta, while bucket_waves drops base×base pairs before
    # verification and collapses to plain bucket whenever the estimated
    # band shuffle fits the byte budget (num_waves == 1) — so small deltas
    # run exactly the old plan and huge ones bound their shuffle to
    # object-store-sized waves instead of spilling.
    e_near = near_edges(
        all_sigs, cfg, hot, mode="bucket_waves", cross_min_id=boundary
    ).select_columns(["src", "dst"])
    edges = e_exact.union(e_near)
    if with_substring:
        edges = edges.union(substring_edges(all_sigs, cfg, cross_min_id=boundary))
    return edges


def _collect_small(ds: "ray.data.Dataset", cols: list[str]) -> pa.Table:
    tables = [
        b
        for b in ds.select_columns(cols).iter_batches(
            batch_format="pyarrow", batch_size=1 << 20
        )
        if b.num_rows
    ]
    if not tables:
        return pa.table({c: pa.array([], pa.int64()) for c in cols})
    return pa.concat_tables(tables)


def _base_root_lookup(
    base_assign: "ray.data.Dataset", edges: "ray.data.Dataset", boundary: int
):
    """(sorted base ids, their base cluster roots) for base ids that appear
    in a cross edge — a SEMI-JOIN against the (huge) base assignment table:
    the involved-id set is edge-bounded (tiny), broadcast once via ray.put,
    and base_assign streams map-side against it."""

    def base_endpoints(batch: pa.Table) -> pa.Table:
        src = batch.column("src").to_numpy()
        dst = batch.column("dst").to_numpy()
        both = np.concatenate([src, dst])
        return pa.table({"id": pa.array(np.unique(both[both < boundary]))})

    involved = _collect_small(
        edges.map_batches(base_endpoints, batch_format="pyarrow"), ["id"]
    )
    ids = np.unique(involved.column("id").to_numpy())
    if len(ids) == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    ids_ref = ray.put(ids)

    def semi(batch: pa.Table, ref=ids_ref) -> pa.Table:
        want = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        b_ids = batch.column("id").to_numpy()
        pos = np.searchsorted(want, b_ids)
        pos = np.clip(pos, 0, len(want) - 1)
        return batch.filter(pa.array(want[pos] == b_ids))

    hits = _collect_small(
        base_assign.map_batches(semi, batch_format="pyarrow"), ["id", "cluster_id"]
    )
    h_ids = hits.column("id").to_numpy()
    h_roots = hits.column("cluster_id").to_numpy()
    order = np.argsort(h_ids)
    return h_ids[order], h_roots[order]


def incremental_dedup(
    base_sigs: "ray.data.Dataset",
    base_assign: "ray.data.Dataset",
    delta_corpus: "ray.data.Dataset",
    cfg: SigConfig = DEFAULT_CONFIG,
    *,
    with_substring: bool = True,
    with_salting: bool = True,
    cluster_method: str = "auto",
) -> dict:
    """Dedupe a delta against a base signature index.

    Returns ``{"assignments": Dataset(id, cluster_id) for every delta doc,
    "merges": Dataset(old_cluster, new_cluster) for base clusters united
    by a delta bridge}``. cluster_id is an existing base cluster id when
    the component touches the base, else the min delta member id."""
    delta_sigs = delta_corpus.map_batches(
        SignatureStage(cfg), batch_format="pyarrow"
    ).materialize()
    base_max = base_sigs.max("id")
    delta_min = delta_sigs.min("id")
    if delta_min is not None and base_max is not None and delta_min <= base_max:
        raise ValueError(
            f"delta ids must exceed every base id (append-only contract): "
            f"base max {base_max} >= delta min {delta_min}"
        )
    boundary = int(base_max) + 1 if base_max is not None else 0

    all_sigs = base_sigs.union(delta_sigs)
    hot = detect_hot_band_keys(all_sigs, cfg) if with_salting else None
    edges = incremental_dup_pairs(
        all_sigs, cfg, boundary, hot, with_substring=with_substring
    ).materialize()
    return _finish_incremental(
        edges, base_assign, delta_sigs, boundary, cluster_method
    )


def _finish_incremental(
    edges: "ray.data.Dataset",
    base_assign: "ray.data.Dataset",
    delta_sigs: "ray.data.Dataset",
    boundary: int,
    cluster_method: str,
) -> dict:
    # replace base endpoints by their BASE CLUSTER ROOT so connectivity
    # through base clusters survives the base×base filter; roots come from
    # an edge-bounded semi-join against the base assignment table
    b_ids, b_roots = _base_root_lookup(base_assign, edges, boundary)
    lookup_ref = ray.put((b_ids, b_roots))

    def map_to_roots(batch: pa.Table, ref=lookup_ref) -> pa.Table:
        ids_arr, roots_arr = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        out = {}
        for col in ("src", "dst"):
            v = batch.column(col).to_numpy().copy()
            if len(ids_arr):
                pos = np.clip(np.searchsorted(ids_arr, v), 0, len(ids_arr) - 1)
                hit = ids_arr[pos] == v
                v[hit] = roots_arr[pos[hit]]
            out[col] = pa.array(v)
        return pa.table(out)

    mapped = edges.map_batches(map_to_roots, batch_format="pyarrow")
    assigned = cluster_edges(mapped, method=cluster_method).materialize()

    def split_delta(batch: pa.Table) -> pa.Table:
        keep = batch.column("id").to_numpy() >= boundary
        return batch.filter(pa.array(keep))

    def split_merges(batch: pa.Table) -> pa.Table:
        ids = batch.column("id").to_numpy()
        cl = batch.column("cluster_id").to_numpy()
        keep = (ids < boundary) & (cl != ids)
        return pa.table(
            {
                "old_cluster": pa.array(ids[keep]),
                "new_cluster": pa.array(cl[keep]),
            }
        )

    from .pipeline import assign_clusters

    assignments = assign_clusters(
        delta_sigs, assigned.map_batches(split_delta, batch_format="pyarrow")
    )
    merges = assigned.map_batches(split_merges, batch_format="pyarrow")
    return {"assignments": assignments, "merges": merges, "boundary": boundary}


# ---------------------------------------------------------------------------
# persisted partitioned index — the true 100 TB incremental path
# ---------------------------------------------------------------------------
#
# incremental_dedup() above still SHUFFLES the whole base signature index
# through the band/sha/fp groupbys on every delta run — at 10^12 base files
# that all-to-all dwarfs the delta. The indexed path amortizes it ONCE:
# write_dedup_index() hash-partitions the base's band rows, sha postings and
# winnow-fp postings into per-part parquet files; an incremental run then
# shuffles ONLY delta rows (grouped by the same part function) and each
# part's task STREAMS its base partition straight from storage (a sequential
# scan, map-side, no exchange) before running the ordinary vectorized pair
# emitters with the base×base filter. Partition count is fixed at index
# build (meta.json) so delta runs always align; parts scale with base size
# so per-task memory stays bounded.
#
# Trade-offs, stated: the band index carries the kmv verify payload per band
# row (~bands × kmv bytes per doc). At extreme scale use incremental_dedup()
# above instead: it stores no band index, and its near tier runs
# near_edges mode='bucket_waves', which bounds each wave's sketch-carrying
# shuffle to the object store. Salting is OFF in the indexed path (salt assignments are
# per-run; they would misalign delta keys vs indexed keys) — over-size
# buckets degrade to the representative-star ceiling, same as the
# unsalted flagship.


def _write_parts(
    rows: "ray.data.Dataset", out_dir: str, nparts: int, key: str | None = None
) -> int:
    """Partitioned parquet writer: one file per non-empty part, written
    idempotently (tmp + atomic rename; existing parts are kept — a re-run
    resumes where it stopped). The rows carry an int ``part`` column, or
    ``key`` names the column whose hash (pipeline.key_parts) picks the
    part. Returns rows written (existing parts count as written)."""
    import os

    import pyarrow.parquet as pq

    from .pipeline import key_parts, part_groups

    os.makedirs(out_dir, exist_ok=True)

    def write_part(body: pa.Table, p: int) -> pa.Table:
        n = body.num_rows
        path = os.path.join(out_dir, f"part-{p:05d}.parquet")
        if n and not os.path.exists(path):
            tmp = f"{path}.tmp{os.getpid()}"
            pq.write_table(body, tmp)
            os.replace(tmp, path)
        return pa.table(
            {
                "part": pa.array([p] if n else [], pa.int64()),
                "rows": pa.array([n] if n else [], pa.int64()),
            }
        )

    part_of = None if key is None else (lambda b: key_parts(b.column(key), nparts))
    manifest = part_groups(rows, write_part, nparts, part_of)
    return int(sum(b["rows"].to_numpy().sum() for b in
                   manifest.iter_batches(batch_format="pyarrow")))


def write_dedup_index(
    base_sigs: "ray.data.Dataset",
    path: str,
    cfg: SigConfig = DEFAULT_CONFIG,
    nparts: int | None = None,
) -> dict:
    """Persist the base corpus's partitioned dedup index under ``path``:
    bands/ (band rows incl. verify payload), sha/ (sha256 postings),
    fp/ (winnow fingerprint postings), meta.json (nparts, max base id,
    config fingerprint). Build cost ≈ one band emit + three partition
    shuffles — paid once per base, amortized over every delta."""
    import json
    import os

    from .pipeline import _explode_winnow, join_partitions
    from .stages import BandEmitStage

    # resume semantics: a partially-built index pins nparts (part files
    # written under one partition count must never mix with another)
    meta_path = os.path.join(path, "meta.json")
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            prior = json.load(f)
        cfg.check_compatible(prior["cfg_fingerprint"])
        nparts = int(prior["nparts"])
    nparts = nparts or 2 * join_partitions(64)

    def _put_meta(meta: dict) -> None:
        tmp = os.path.join(path, f"meta.json.tmp{os.getpid()}")
        with open(tmp, "w") as f:
            json.dump(meta, f)
        os.replace(tmp, meta_path)

    base_max_id = int(base_sigs.max("id"))
    # pin nparts BEFORE any part file exists so an interrupted build
    # resumes under the same partitioning
    os.makedirs(path, exist_ok=True)
    _put_meta(
        {
            "nparts": nparts,
            "base_max_id": base_max_id,
            "cfg_fingerprint": cfg.fingerprint,
        }
    )

    band = base_sigs.map_batches(
        BandEmitStage(cfg, None, carry_kmv=True),
        batch_format="pyarrow",
    )

    n_band = _write_parts(band, os.path.join(path, "bands"), nparts, "band_key")
    n_sha = _write_parts(
        base_sigs.select_columns(["sha256", "id"]),
        os.path.join(path, "sha"),
        nparts,
        "sha256",
    )
    n_fp = _write_parts(
        base_sigs.select_columns(["id", "winnow"]).map_batches(
            _explode_winnow, batch_format="pyarrow"
        ),
        os.path.join(path, "fp"),
        nparts,
        "fp",
    )
    meta = {
        "nparts": nparts,
        "base_max_id": base_max_id,
        "cfg_fingerprint": cfg.fingerprint,
        "band_rows": n_band,
        "sha_rows": n_sha,
        "fp_rows": n_fp,
    }
    _put_meta(meta)
    return meta


def _index_join(
    rows: "ray.data.Dataset", key: str, index_dir: str, nparts: int, emitter
) -> "ray.data.Dataset":
    """Shuffle the delta ``rows`` into the index's parts by ``key``; each
    part's task streams its BASE partition from the index (sequential
    parquet read, no shuffle), concatenates it with the delta rows of the
    same part and runs the vectorized block ``emitter`` on both."""
    import os

    import pyarrow.parquet as pq

    from .pipeline import key_parts, part_groups

    def run(body: pa.Table, p: int) -> pa.Table:
        base_path = os.path.join(index_dir, f"part-{p:05d}.parquet")
        if body.num_rows and os.path.exists(base_path):
            base = pq.read_table(base_path, columns=body.column_names)
            body = pa.concat_tables([base, body], promote_options="default")
        return emitter(body)

    return part_groups(
        rows, run, nparts, lambda b: key_parts(b.column(key), nparts)
    )


def incremental_dedup_indexed(
    index_path: str,
    base_assign: "ray.data.Dataset",
    delta_corpus: "ray.data.Dataset",
    cfg: SigConfig = DEFAULT_CONFIG,
    *,
    with_substring: bool = True,
    cluster_method: str = "auto",
) -> dict:
    """Incremental dedup against a persisted partitioned index
    (write_dedup_index): only DELTA rows shuffle; base partitions stream
    map-side inside each part's task. Output contract matches
    incremental_dedup. Pair semantics equal the unsalted flagship tiers
    (see the module note on salting)."""
    import json
    import os

    from .pipeline import (
        _exact_block_edges,
        _explode_winnow,
        _fp_block_pairs,
        shared_fp_pairs,
    )
    from .stages import BandEmitStage, make_block_pair_emitter

    with open(os.path.join(index_path, "meta.json")) as f:
        meta = json.load(f)
    cfg.check_compatible(meta["cfg_fingerprint"])
    nparts = int(meta["nparts"])
    boundary = int(meta["base_max_id"]) + 1

    delta_sigs = delta_corpus.map_batches(
        SignatureStage(cfg), batch_format="pyarrow"
    ).materialize()
    delta_min = delta_sigs.min("id")
    if delta_min is not None and delta_min < boundary:
        raise ValueError(
            f"delta ids must exceed every base id (append-only contract): "
            f"index max {boundary - 1} >= delta min {delta_min}"
        )

    # near tier: delta band rows shuffle; base band partitions stream
    delta_band = delta_sigs.map_batches(
        BandEmitStage(cfg, None, carry_kmv=True),
        batch_format="pyarrow",
    )
    near_emitter = make_block_pair_emitter(
        cfg, verify=True, hot=None, cross_min_id=boundary
    )

    def near_cross(block: pa.Table) -> pa.Table:
        return near_emitter(block).select(["src", "dst"])

    def exact_cross(block: pa.Table) -> pa.Table:
        return _cross_filter(boundary)(_exact_block_edges(block))

    edges = _index_join(
        delta_sigs.select_columns(["sha256", "id"]),
        "sha256",
        os.path.join(index_path, "sha"),
        nparts,
        exact_cross,
    ).union(
        _index_join(
            delta_band, "band_key", os.path.join(index_path, "bands"), nparts,
            near_cross,
        )
    )

    if with_substring:
        delta_fp = delta_sigs.select_columns(["id", "winnow"]).map_batches(
            _explode_winnow, batch_format="pyarrow"
        )
        fp_pairs = _index_join(
            delta_fp,
            "fp",
            os.path.join(index_path, "fp"),
            nparts,
            _fp_block_pairs(cfg.max_bucket_size, boundary),
        )
        edges = edges.union(shared_fp_pairs(fp_pairs, cfg))

    return _finish_incremental(
        edges.materialize(), base_assign, delta_sigs, boundary, cluster_method
    )


def _exact_match_block(boundary: int):
    """Per-sha runs → (delta id, min base id with identical content).
    With append-only ids the run minimum is a base doc iff the run has any
    base member, so the match is the run's first id when it is < boundary."""

    def f(block: pa.Table) -> pa.Table:
        n = len(block)
        if n == 0:
            return pa.table(
                {
                    "id": pa.array([], pa.int64()),
                    "matched_base_id": pa.array([], pa.int64()),
                }
            )
        sha = block.column("sha256").to_numpy(zero_copy_only=False)
        ids = block.column("id").to_numpy()
        order = np.lexsort((ids, sha))
        sha, ids = sha[order], ids[order]
        new_run = np.concatenate([[True], sha[1:] != sha[:-1]])
        run_id = np.cumsum(new_run) - 1
        firsts = ids[new_run]
        match = firsts[run_id]
        keep = (ids >= boundary) & (match < boundary)
        return pa.table(
            {
                "id": pa.array(ids[keep]),
                "matched_base_id": pa.array(match[keep]),
            }
        )

    return f


def incremental_exact_matches(
    all_sigs: "ray.data.Dataset", boundary: int
) -> "ray.data.Dataset":
    """Delta docs whose content byte-matches a base doc →
    (id, matched_base_id = min base id with that content). SQL-mirrorable
    (content-equality join), the oracle-checked face of the exact tier."""
    return grouped_blocks(
        all_sigs.select_columns(["sha256", "id"]), "sha256", _exact_match_block(boundary)
    )
