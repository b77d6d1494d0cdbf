"""Traced mode: the flagship and the incremental path, layer by layer.

Each layer is called through its public function, from here, in the
order ``dedup_clusters`` and the incremental path use them, and each call
is materialized so that its span covers its own work. Spans and counts
are kept in memory (``Tracer``) and written as one JSON file at the end
of the run. Nothing inside ``raydedup/`` is instrumented.

Materializing between layers is what makes per-layer time measurable; it
also costs a little (a fused read+signature stage becomes two stages).
``trace.overhead`` reports the traced stage sum over the untraced
flagship time of the same inputs.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager

import numpy as np
import pyarrow as pa


class Tracer:
    """In-memory spans (name, start, end, parent) and per-layer counts."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, list[float]] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def count(self, name: str, value: float) -> None:
        self.counts.setdefault(name, []).append(float(value))

    def seconds(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": self.counts}, f)


def table_of(ds) -> pa.Table:
    """Materialized (id, cluster_id) table sorted by id."""
    import ray

    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    t = pa.concat_tables(tables) if tables else pa.table(
        {"id": pa.array([], pa.int64()), "cluster_id": pa.array([], pa.int64())}
    )
    return t.select(["id", "cluster_id"]).sort_by("id")


def traced_flagship(tr: Tracer, path: str, cfg, with_substring: bool) -> pa.Table:
    """``dedup_clusters(read_parquet(path), cfg, with_substring=...)`` one
    layer at a time, with near_mode='auto' and salting on, as the flagship
    defaults."""
    from raydedup import pipeline as P
    from raydedup.io import read_parquet
    from raydedup.unionfind import cluster_edges

    with tr.span("flagship"):
        with tr.span("io"):
            corpus = read_parquet(path).materialize()
        tr.count("io.rows", corpus.count())
        tr.count("io.bytes", corpus.size_bytes())

        with tr.span("signatures"):
            sigs = P.signatures(corpus, cfg).materialize()
        tr.count("signatures.out_bytes", sigs.size_bytes())

        with tr.span("hot_keys"):
            hot = P.detect_hot_band_keys(sigs, cfg)
        tr.count("hot_keys.keys", len(hot))
        tr.count("hot_keys.salt_slots", sum(hot.values()))

        with tr.span("exact"):
            e_exact = P.exact_edges(sigs).materialize()
        tr.count("exact.edges", e_exact.count())

        with tr.span("near"):
            e_near = P.near_edges(sigs, cfg, hot, mode="auto").materialize()
        n_near = e_near.count()
        tr.count("near.edges", n_near)

        edges = e_exact.union(e_near.select_columns(["src", "dst"]))
        if with_substring:
            with tr.span("substring"):
                e_sub = P.substring_edges(sigs, cfg).materialize()
            tr.count("substring.edges", e_sub.count())
            edges = edges.union(e_sub)
        edges = edges.materialize()

        with tr.span("union_find"):
            assigned = cluster_edges(edges).materialize()
        roots = np.concatenate(
            [b["cluster_id"].to_numpy() for b in
             assigned.iter_batches(batch_format="pyarrow")] or [np.zeros(0, np.int64)]
        )
        tr.count("union_find.nodes", len(roots))
        tr.count("union_find.clusters", len(np.unique(roots)))

        with tr.span("assign"):
            out = table_of(P.assign_clusters(sigs, assigned))

    # candidate count: outside the flagship span, since the flagship's
    # bucket layout verifies in-bucket and never materializes candidates
    cand = getattr(P, "candidate_pairs_lsh", None)
    if cand is not None:
        with tr.span("near_candidates"):
            n_cand = cand(sigs, cfg, hot).count()
        tr.count("near.candidates", n_cand)
        tr.count("near.yield", n_near / n_cand if n_cand else 0.0)
    return out


def traced_index_write(tr: Tracer, base_sigs, index_dir: str, cfg) -> None:
    from raydedup.incremental import write_dedup_index

    with tr.span("index_write"):
        meta = write_dedup_index(base_sigs, index_dir, cfg)
    for k in ("band_rows", "sha_rows", "fp_rows"):
        tr.count(f"index_write.{k}", meta[k])
    tr.count("index_write.bytes", dir_bytes(index_dir))


def traced_delta(tr: Tracer, index_dir: str, base_assign, delta_path: str, cfg
                 ) -> tuple[pa.Table, pa.Table]:
    """One delta job. The delta's signature layer runs inside
    ``incremental_dedup_indexed``; it is timed beside it, as its own call
    over the same delta rows, so ``signatures.s`` is measured here too."""
    from raydedup.incremental import incremental_dedup_indexed
    from raydedup.io import read_parquet
    from raydedup.pipeline import signatures

    with tr.span("signatures"):
        sigs = signatures(read_parquet(delta_path), cfg).materialize()
    tr.count("signatures.out_bytes", sigs.size_bytes())
    with tr.span("delta"):
        res = incremental_dedup_indexed(index_dir, base_assign, read_parquet(delta_path), cfg)
        assign = table_of(res["assignments"])
        merges = merges_table(res["merges"])
    tr.count("delta.rows", assign.num_rows)
    tr.count("delta.merges", merges.num_rows)
    return assign, merges


def merges_table(ds) -> pa.Table:
    import ray

    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    if not tables:
        return pa.table({"old_cluster": pa.array([], pa.int64()),
                         "new_cluster": pa.array([], pa.int64())})
    return pa.concat_tables(tables).sort_by("old_cluster")


def dir_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(root, f))
    return total
