"""Connected-components clustering over an edge Dataset.

Two execution paths:

* ``collect`` — exact union-find with path compression on the driver.
  Appropriate while |edges| fits comfortably in driver memory (edges are
  tiny relative to nodes: verified dup pairs only). Used below the
  ``DRIVER_EDGE_LIMIT`` threshold.
* ``distributed`` — bounded-round hash-to-min label propagation expressed
  purely as Ray Data groupbys (no driver state): each round every node
  announces min(label of self ∪ neighbors) to its neighborhood. A per-round
  edge-checksum aggregate detects the fixed point; if ``max_rounds`` pass
  without one (long chains need many rounds), it raises
  ``SketchesStateError`` rather than return a split clustering.

Cluster ids are the component-minimum node id — deterministic, matching the
reference-oracle's assignment convention.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from .config import SketchesStateError

DRIVER_EDGE_LIMIT = 5_000_000


def unionfind_numpy(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact connected components; returns (unique_nodes, root_per_node)
    with root = min node id of the component.

    Vectorized min-label propagation with pointer doubling: each round is
    O(E+V) C-speed numpy (no per-edge python), converging in
    O(log diameter) rounds — labels only decrease and the fixpoint is the
    component minimum (nodes[] sorted → min index = min id)."""
    nodes, inv = np.unique(np.concatenate([src, dst]), return_inverse=True)
    n = len(nodes)
    if n == 0:
        return nodes, nodes
    a = inv[: len(src)].astype(np.int64)
    b = inv[len(src) :].astype(np.int64)
    label = np.arange(n, dtype=np.int64)
    while True:
        l2 = label.copy()
        np.minimum.at(l2, a, label[b])
        np.minimum.at(l2, b, label[a])
        l2 = np.minimum(l2, l2[l2])  # pointer doubling
        if np.array_equal(l2, label):
            break
        label = l2
    return nodes, nodes[label]


def cluster_edges(
    edges: "ray.data.Dataset",
    method: str = "auto",
    max_rounds: int = 12,
) -> "ray.data.Dataset":
    """edges(src:int64, dst:int64, ...) → Dataset(id:int64, cluster_id:int64).

    Only nodes that appear in an edge are emitted; callers union with
    singleton assignments (cluster_id = id) for isolated nodes.
    """
    # edges are tiny relative to the corpus; materialize once so count()
    # and the consumption below don't each re-execute a lazy upstream DAG
    edges = edges.materialize()
    n_edges = edges.count()
    if method == "auto":
        method = "collect" if n_edges <= DRIVER_EDGE_LIMIT else "distributed"

    if method == "collect":
        tbl = pa.concat_tables(
            [pa.table({"src": b["src"], "dst": b["dst"]}) for b in
             edges.select_columns(["src", "dst"]).iter_batches(batch_format="pyarrow",
                                                               batch_size=1 << 20)]
        ) if n_edges else pa.table({"src": pa.array([], pa.int64()),
                                    "dst": pa.array([], pa.int64())})
        src = tbl.column("src").to_numpy() if tbl.num_rows else np.zeros(0, np.int64)
        dst = tbl.column("dst").to_numpy() if tbl.num_rows else np.zeros(0, np.int64)
        nodes, roots = unionfind_numpy(src, dst)
        return ray.data.from_arrow(
            pa.table({"id": pa.array(nodes), "cluster_id": pa.array(roots)})
        )
    return _cluster_distributed(edges, max_rounds)


def _propagate_block(block: pa.Table) -> pa.Table:
    """One hash-to-min round for EVERY src group in a hash-partitioned
    block, vectorized (grouped_blocks pattern — no python call per node).

    For each src u with (deduped) neighborhood N: emit star edges from
    m = min(N ∪ {u}) to every member of N ∪ {u} except m. Incoming
    duplicate (src, dst) rows are deduped here via the sorted run mask, so
    no standalone dedup shuffle is needed between rounds."""
    n = len(block)
    if n == 0:
        return pa.table(
            {"src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64())}
        )
    s = block.column("src").to_numpy()
    d = block.column("dst").to_numpy()
    order = np.lexsort((d, s))
    s, d = s[order], d[order]
    new_run = np.concatenate([[True], s[1:] != s[:-1]])
    run_id = np.cumsum(new_run) - 1
    starts = np.flatnonzero(new_run)
    u = s[starts]
    m = np.minimum(d[starts], u)  # d sorted asc within run → d[start] is min
    mv = m[run_id]
    # unique dst within each run, excluding the run's min
    uniq = np.concatenate([[True], (d[1:] != d[:-1])]) | new_run
    keep = uniq & (d != mv)
    src_out = [mv[keep]]
    dst_out = [d[keep]]
    # u itself is a member too. Emitted unconditionally when u != m: if u
    # also appears in N this duplicates one edge for one round — the next
    # round's run mask (or the final assignment block) dedupes it, which is
    # cheaper than a per-run membership test.
    add_u = u != m
    src_out.append(m[add_u])
    dst_out.append(u[add_u])
    # a run whose only neighbor is itself (self-loop: u == m and every
    # d == m) would otherwise emit nothing and the node silently vanishes
    # from the assignment — the collect path emits (u, u) for it, so keep
    # the contract identical by emitting a persistent self-edge
    kept_any = np.zeros(len(u), dtype=bool)
    kept_any[run_id[keep]] = True
    lonely = ~kept_any & ~add_u
    src_out.append(u[lonely])
    dst_out.append(u[lonely])
    return pa.table(
        {
            "src": pa.array(np.concatenate(src_out), type=pa.int64()),
            "dst": pa.array(np.concatenate(dst_out), type=pa.int64()),
        }
    )


def _assign_block(block: pa.Table) -> pa.Table:
    """Final per-id assignment: min cluster_id per id run (dedupes the
    root rows emitted by multiple blocks)."""
    if len(block) == 0:
        return pa.table(
            {"id": pa.array([], pa.int64()), "cluster_id": pa.array([], pa.int64())}
        )
    ids = block.column("id").to_numpy()
    cl = block.column("cluster_id").to_numpy()
    order = np.lexsort((cl, ids))
    ids, cl = ids[order], cl[order]
    first = np.concatenate([[True], ids[1:] != ids[:-1]])
    return pa.table({"id": pa.array(ids[first]), "cluster_id": pa.array(cl[first])})


def _cluster_distributed(
    edges: "ray.data.Dataset", max_rounds: int
) -> "ray.data.Dataset":
    from .pipeline import grouped_blocks

    e = edges.select_columns(["src", "dst"])

    def both_dirs(batch: pa.Table) -> pa.Table:
        s = batch.column("src")
        d = batch.column("dst")
        return pa.table(
            {
                "src": pa.concat_arrays([s.combine_chunks(), d.combine_chunks()]),
                "dst": pa.concat_arrays([d.combine_chunks(), s.combine_chunks()]),
            }
        )

    prev_checksum = None
    for _ in range(max_rounds):
        sym = e.map_batches(both_dirs, batch_format="pyarrow")
        e = grouped_blocks(sym, "src", _propagate_block)
        e = e.materialize()  # checkpointable round boundary (per-round manifest)
        checksum = e.count()
        stats = e.aggregate(
            ray.data.aggregate.Sum("src"), ray.data.aggregate.Sum("dst")
        )
        sig = (checksum, stats.get("sum(src)"), stats.get("sum(dst)"))
        if sig == prev_checksum:
            break
        prev_checksum = sig
    else:
        raise SketchesStateError(f"no union-find fixed point in {max_rounds} rounds")

    def to_assignment(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "id": batch.column("dst"),
                "cluster_id": batch.column("src"),
            }
        )

    members = e.map_batches(to_assignment, batch_format="pyarrow")

    def root_rows(batch: pa.Table) -> pa.Table:
        roots = np.unique(batch.column("cluster_id").to_numpy())
        return pa.table({"id": pa.array(roots), "cluster_id": pa.array(roots)})

    roots = members.map_batches(root_rows, batch_format="pyarrow")
    out = members.union(roots)
    return grouped_blocks(out, "id", _assign_block)
