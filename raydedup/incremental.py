"""Incremental (cross-corpus) dedup: dedupe NEW files against an already-
deduped base corpus without re-verifying base-vs-base pairs.

The training-pipeline shape this serves: a 100 TB corpus is deduped once;
daily deltas arrive and must be (a) matched against the base, (b) deduped
among themselves, (c) assigned to existing clusters — re-running the full
O(corpus) pipeline per delta is wasteful. Two entry points:

* ``incremental_dedup`` reads the base's SIGNATURE INDEX (the
  `signatures()` output, no content: 1.8-2.4 KB/doc on the perfbench
  inputs) and runs the flagship tiers over base-index + delta rows, one
  shuffle per tier.
* ``incremental_dedup_indexed`` reads a persisted partitioned dedup index
  (``write_dedup_index``) instead: the delta's sha, band and fp rows go
  through ONE tagged shuffle of delta rows only, and each part's task
  reads just the base rows whose keys the delta carries (see the note
  above ``write_dedup_index``).

No base×base pair is ever built, let alone verified (``cross_min_id`` of
stages.bucket_pairs): a bucket without a delta member is dropped before
its pairs are formed, and the base×base pairs of the other buckets are
dropped before the sketch verification. Both entry points end in one
clustering tail (``_finish_incremental``): while ``cluster_edges`` would
collect the edges to the driver (``DRIVER_EDGE_LIMIT``), the tail
clusters them there and pays one Ray Data pass over the base assignment
table plus one map over the delta signatures; above the limit it hands
the edges to ``cluster_edges``.

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

from .config import DEFAULT_CONFIG, SigConfig, SketchesStateError
from .pipeline import (
    _assign_batch,
    _exact_block_edges,
    _explode_winnow,
    _fp_block_pairs,
    _shared_fp_block,
    detect_hot_band_keys,
    exact_edges,
    grouped_blocks,
    key_parts,
    lookup_roots,
    near_edges,
    part_groups,
    signatures,
    substring_edges,
)
from .stages import BandEmitStage, SignatureStage, make_block_pair_emitter
from .unionfind import DRIVER_EDGE_LIMIT, cluster_edges, unionfind_numpy
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


def _edge_blocks(edges: "ray.data.Dataset"):
    """(src, dst) arrays of every non-empty block of the MATERIALIZED
    ``edges``, fetched block by block (no Ray Data execution)."""
    for ref in edges.to_arrow_refs():
        t = ray.get(ref)
        if t.num_rows:
            yield t.column("src").to_numpy(), t.column("dst").to_numpy()


def _base_ids(arrays, boundary: int) -> np.ndarray:
    """Sorted distinct ids below ``boundary`` over all ``arrays``."""
    parts = [np.unique(a[a < boundary]) for a in arrays]
    return np.unique(np.concatenate(parts)) if parts else np.zeros(0, np.int64)


def _semi_batch(batch: pa.Table, ref) -> pa.Table:
    want = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
    ids = batch.column("id").to_numpy()
    pos = np.clip(np.searchsorted(want, ids), 0, len(want) - 1)
    return batch.filter(pa.array(want[pos] == ids))


def _base_roots(
    base_assign: "ray.data.Dataset", ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(ids, base cluster roots) sorted by id, for the sorted base ``ids``
    found in ``base_assign``: one SEMI-JOIN pass that streams the (huge)
    base assignment table map-side against the edge-bounded id set,
    broadcast once via ray.put."""
    if len(ids) == 0:
        return ids, ids
    hits = _collect_small(
        base_assign.map_batches(
            _semi_batch, fn_args=(ray.put(ids),), batch_format="pyarrow"
        ),
        ["id", "cluster_id"],
    )
    h_ids = hits.column("id").to_numpy()
    order = np.argsort(h_ids)
    return h_ids[order], hits.column("cluster_id").to_numpy()[order]


def _edges_to_roots(batch: pa.Table, ref) -> pa.Table:
    keys, roots = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
    return pa.table(
        {
            c: pa.array(lookup_roots(keys, roots, batch.column(c).to_numpy()))
            for c in ("src", "dst")
        }
    )


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
    )
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
    """Cluster the cross and delta ``edges``; split the components into the
    delta's assignments and the base clusters' merges.

    Every base endpoint is replaced by its BASE CLUSTER ROOT, so paths
    through base clusters survive the base×base filter; the roots come
    from one semi-join pass over ``base_assign`` (:func:`_base_roots`).
    While cluster_edges would pick 'collect' (at most DRIVER_EDGE_LIMIT
    edges), the tail runs on the driver over the collected edges:
    unionfind_numpy, the merges as one from_arrow table, the assignments
    as one map over the delta signatures. Above the limit, or with
    ``cluster_method='distributed'``, the driver keeps only the base ids
    of the edges: the root-mapped edges go to cluster_edges, and only its
    (id, cluster_id) result comes back."""
    edges = edges.materialize()
    method = cluster_method
    if method == "auto":
        method = "collect" if edges.count() <= DRIVER_EDGE_LIMIT else "distributed"
    if method == "collect":
        blocks = list(_edge_blocks(edges))
        src, dst = (
            np.concatenate([b[i] for b in blocks] + [np.zeros(0, np.int64)])
            for i in (0, 1)
        )
        keys, roots = _base_roots(base_assign, _base_ids((src, dst), boundary))
        nodes, cl = unionfind_numpy(
            lookup_roots(keys, roots, src), lookup_roots(keys, roots, dst)
        )
    else:
        ids = _base_ids((a for b in _edge_blocks(edges) for a in b), boundary)
        mapped = edges.map_batches(
            _edges_to_roots,
            fn_args=(ray.put(_base_roots(base_assign, ids)),),
            batch_format="pyarrow",
        )
        assigned = _collect_small(
            cluster_edges(mapped, method=method), ["id", "cluster_id"]
        )
        order = np.argsort(assigned.column("id").to_numpy())
        nodes = assigned.column("id").to_numpy()[order]
        cl = assigned.column("cluster_id").to_numpy()[order]

    delta = nodes >= boundary
    moved = ~delta & (cl != nodes)
    merges = ray.data.from_arrow(
        pa.table(
            {
                "old_cluster": pa.array(nodes[moved], pa.int64()),
                "new_cluster": pa.array(cl[moved], pa.int64()),
            }
        )
    )
    # materialized here: a consumer then reads its blocks without running
    # a plan twice (to_arrow_refs executes a lazy plan and again for its schema)
    assignments = (
        delta_sigs.select_columns(["id"])
        .map_batches(
            _assign_batch,
            fn_args=(ray.put((nodes[delta], cl[delta])),),
            batch_format="pyarrow",
        )
        .materialize()
    )
    return {"assignments": assignments, "merges": merges, "boundary": boundary}


# ---------------------------------------------------------------------------
# persisted partitioned index — the true 100 TB incremental path
# ---------------------------------------------------------------------------
#
# incremental_dedup() above still SHUFFLES the whole base signature index
# through the band/sha/fp groupbys on every delta run — at 10^12 base files
# that all-to-all dwarfs the delta. The indexed path amortizes it ONCE:
# write_dedup_index() hash-partitions the base's band rows, sha postings and
# winnow-fp postings into per-part parquet files (part = key_parts of the
# row's key), one partitioned write per family. The writer keeps its three
# shuffles: sending the families through one tagged shuffle, as the probe
# does, measured slower on the perfbench base (498 → 608-643 ms), because
# the concat and the per-family filter copy the in-memory band table,
# which is most of the bytes.
#
# incremental_dedup_indexed() probes the index in ONE shuffle, of delta
# rows only: the delta's sha, band and fp rows travel as one table tagged
# by family, each row keeping the part that key_parts gives its own key,
# i.e. the part the writer put that key in. Each part's task reads its
# three base part files (a sequential scan, map-side, no exchange), keeps
# only the base rows whose key occurs among the part's delta rows, and runs
# the ordinary vectorized pair emitters with the base×base filter. The key
# filter cannot change the output: bucket_pairs(cross_min_id=…) drops every
# bucket without a delta member anyway, and a kept key keeps its whole
# bucket, so capped stars and the owner-band rule see the same rows. Only
# the fp pairs are then counted and cut (shared_fp_pairs' block fn), in one
# grouped pass by src that the sha and band edges cross unchanged: it runs
# in the same execution as the probe, where splitting a materialized probe
# output would cost one more. The edges end in the shared clustering tail
# (_finish_incremental), which runs on the driver up to DRIVER_EDGE_LIMIT
# edges. Partition count is fixed at index build
# (meta.json) so delta runs always align; parts scale with base size so
# per-task memory stays bounded.
#
# Trade-offs, stated: the band index carries the kmv verify payload per band
# row (~bands × kmv bytes per doc). At extreme scale use incremental_dedup()
# above instead: it stores no band index, and its near tier runs
# near_edges mode='bucket_waves', which bounds each wave's sketch-carrying
# shuffle to the object store. Salting is OFF in the indexed path (salt assignments are
# per-run; they would misalign delta keys vs indexed keys) — over-size
# buckets degrade to the representative-star ceiling, same as the
# unsalted flagship.

#: index subdirectory and key column of each family, in probe tag order
_FAMILIES = (("sha", "sha256"), ("bands", "band_key"), ("fp", "fp"))


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
    config fingerprint, and the row counts of the three families once the
    build is complete). One band emit and one partitioned write per
    family, paid once per base and amortized over every delta; a re-run
    resumes an interrupted build."""
    import json
    import os

    from .pipeline import join_partitions

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


def _probe_rows(cfg: SigConfig, nparts: int, with_substring: bool):
    """Map fn: delta signatures → the delta's sha, band and fp rows as one
    table (columns absent from a family are null), tagged by family
    (``fam``, its index in _FAMILIES) and carrying the ``part`` that
    key_parts gives the row's own key, as write_dedup_index did."""
    band_stage = BandEmitStage(cfg, None, carry_kmv=True)

    def f(batch: pa.Table) -> pa.Table:
        rows = [batch.select(["sha256", "id"]), band_stage(batch)]
        if with_substring:
            rows.append(_explode_winnow(batch.select(["id", "winnow"])))
        return pa.concat_tables(
            [
                t.append_column("fam", pa.array(np.full(t.num_rows, k, np.int8)))
                .append_column("part", pa.array(key_parts(t.column(key), nparts)))
                for k, (t, (_, key)) in enumerate(zip(rows, _FAMILIES))
            ],
            promote_options="default",
        )

    return f


def _probe_emitters(cfg: SigConfig, boundary: int) -> list:
    """The block emitter of each family, in _FAMILIES order: the exact,
    near and substring tiers' own emitters with the base×base filter."""
    return [
        lambda block: _cross_filter(boundary)(_exact_block_edges(block)),
        make_block_pair_emitter(cfg, verify=True, hot=None, cross_min_id=boundary),
        _fp_block_pairs(cfg.max_bucket_size, boundary),
    ]


def _probe_part(index_path: str, emitters):
    """Part fn: for each family, the part's delta rows plus the base rows
    of the same part file whose key occurs among them, through the
    family's emitter. Output (src, dst, fp_pair); fp_pair marks the fp
    family's pairs, which still need their shared-fingerprint count."""
    import os

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    def run(body: pa.Table, p: int) -> pa.Table:
        fam = body.column("fam").to_numpy()
        out = []
        for k, ((sub, key), emit) in enumerate(zip(_FAMILIES, emitters)):
            rows = body.filter(pa.array(fam == k))
            base_path = os.path.join(index_path, sub, f"part-{p:05d}.parquet")
            if rows.num_rows and os.path.exists(base_path):
                base = pq.read_table(base_path)
                keys = rows.column(key).combine_chunks()
                base = base.filter(pc.is_in(base.column(key), value_set=keys))
                rows = pa.concat_tables(
                    [base, rows.select(base.column_names)], promote_options="default"
                )
            e = emit(rows).select(["src", "dst"])
            flag = pa.array(np.full(e.num_rows, sub == "fp"))
            out.append(e.append_column("fp_pair", flag))
        return pa.concat_tables(out)

    return run


def _cut_fp_pairs(cfg: SigConfig):
    """Block fn over probe output grouped by src: the fp pairs are counted
    and cut (_shared_fp_block); the sha and band edges pass unchanged."""
    cut = _shared_fp_block(cfg)

    def f(block: pa.Table) -> pa.Table:
        fp = block.column("fp_pair").to_numpy(zero_copy_only=False)
        return pa.concat_tables(
            [
                block.filter(pa.array(~fp)).select(["src", "dst"]),
                cut(block.filter(pa.array(fp)).select(["src", "dst"])),
            ]
        )

    return f


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
    (write_dedup_index). The delta's sha, band and fp rows go through ONE
    tagged probe shuffle; each part's task reads its base part files and
    keeps only the base rows whose key the part's delta rows carry (see
    the note above write_dedup_index). The edges then end in the shared
    clustering tail, on the driver up to DRIVER_EDGE_LIMIT edges. Output
    contract matches incremental_dedup. Pair semantics equal the unsalted
    flagship tiers (see the module note on salting). An index whose build
    did not finish is refused (SketchesStateError)."""
    import json
    import os

    with open(os.path.join(index_path, "meta.json")) as f:
        meta = json.load(f)
    cfg.check_compatible(meta["cfg_fingerprint"])
    missing = [k for k in ("band_rows", "sha_rows", "fp_rows") if k not in meta]
    if missing:
        raise SketchesStateError(
            f"dedup index {index_path} is incomplete (meta.json has no "
            f"{', '.join(missing)}): its build was interrupted; run "
            "write_dedup_index on it again to finish it"
        )
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

    edges = part_groups(
        delta_sigs.map_batches(
            _probe_rows(cfg, nparts, with_substring), batch_format="pyarrow"
        ),
        _probe_part(index_path, _probe_emitters(cfg, boundary)),
        nparts,
    )
    if with_substring:
        # one more grouped pass, in the same execution: fp pairs of one src
        # met in several parts, so only here can they be counted
        edges = grouped_blocks(edges, "src", _cut_fp_pairs(cfg))
    return _finish_incremental(
        edges, base_assign, delta_sigs, boundary, cluster_method
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
