"""Exact n-gram Jaccard pair detection via a distributed inverted index.

The deterministic (non-probabilistic) dedup tier: explode every document into
(shingle_hash, id) postings, group by shingle, emit co-occurrence pairs, and
aggregate |A∩B| per pair; J = c / (|A| + |B| - c). Exact — the audit oracle
for the LSH tier, and the engine's "n-gram Jaccard dedup" operator.

Scale note: a shingle shared by m documents emits m(m-1)/2 pair rows —
quadratic on hot shingles (boilerplate). ``max_posting`` caps a posting list:
shingles with more docs than the cap are *dropped* (stop-shingle removal),
which makes results approximate above the cap; the cap is off by default so
oracle-checked runs stay exact. The LSH pipeline (pipeline.py) is the scale
path; this operator is the exactness path.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .config import DEFAULT_CONFIG, SigConfig
from .shingle import segment_unique, shingle_hashes
from .tokenize import tokenize_hashes


class ShingleExplode:
    """corpus batch → (sh: uint64, id: int64, nsh: int32) posting rows.

    ``side`` (when not None) appends a constant int8 side tag — the
    bipartite marker for :func:`decontaminate_pairs` — and drops the
    ``nsh`` count column (overlap counting doesn't need it; 4 fewer bytes
    per posting through the shuffle)."""

    def __init__(self, cfg: SigConfig, side: int | None = None):
        self.cfg = cfg
        self.side = side

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        content = batch.column("content")
        flat_tok, tok_off = tokenize_hashes(content, seed=cfg.seed)
        sh, sh_off = shingle_hashes(flat_tok, tok_off, cfg.shingle_k, cfg.seed)
        uniq, uniq_off = segment_unique(sh, sh_off)
        lens = np.diff(uniq_off)
        ids = batch.column("id").to_numpy()
        cols = {
            "sh": pa.array(uniq, type=pa.uint64()),
            "id": pa.array(np.repeat(ids, lens), type=pa.int64()),
        }
        if self.side is None:
            cols["nsh"] = pa.array(np.repeat(lens.astype(np.int32), lens))
        else:
            cols["side"] = pa.array(
                np.full(int(lens.sum()), self.side, dtype=np.int8)
            )
        return pa.table(cols)


def _pairs_block(max_posting: int | None):
    """Pair emitter for ONE hash partition holding many whole posting lists
    (grouped_blocks pattern — one python call per partition, not per shingle;
    groupby('sh').map_groups paid a python call per posting list, ruinous for
    millions of mostly-singleton shingles). All pairs of all runs are built
    in one segmented-arange pass: element a of an m-long run is src for
    (m-1-a) pairs, its dsts are the next 1..(m-1-a) elements.

    Output is PRE-COMBINED per distinct (src, dst) within the partition
    (column ``c`` = shared-shingle count seen here): a near-dup pair shares
    many shingles, and every one landing in this partition would otherwise
    ship its own row through the downstream combine — the map-side combine
    collapses them to one row. :func:`_combine_pairs_block` then sums the
    partials across partitions in a second grouped_blocks pass."""

    def emit(block: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "src": pa.array([], pa.int64()),
                "dst": pa.array([], pa.int64()),
                "c": pa.array([], pa.int64()),
                "na": pa.array([], pa.int32()),
                "nb": pa.array([], pa.int32()),
            }
        )
        n = len(block)
        if n == 0:
            return empty
        sh = block.column("sh").to_numpy()
        ids = block.column("id").to_numpy()
        nsh = block.column("nsh").to_numpy()
        order = np.lexsort((ids, sh))
        sh, ids, nsh = sh[order], ids[order], nsh[order]
        new_run = np.concatenate([[True], sh[1:] != sh[:-1]])
        run_id = np.cumsum(new_run) - 1
        starts = np.flatnonzero(new_run)
        lens = np.diff(np.concatenate([starts, [n]]))
        loc = np.arange(n) - starts[run_id]
        cnt = lens[run_id] - 1 - loc  # pairs with this element as src
        if max_posting is not None:
            # stop-shingle removal: drop over-cap posting lists entirely
            cnt = np.where(lens[run_id] > max_posting, 0, cnt)
        total = int(cnt.sum())
        if total == 0:
            return empty
        src_idx = np.repeat(np.arange(n), cnt)
        excl = np.concatenate([[0], np.cumsum(cnt)])[:-1]
        pair_loc = np.arange(total) - np.repeat(excl, cnt)
        dst_idx = src_idx + 1 + pair_loc
        # ids ascend within each run and are distinct per shingle
        # (segment_unique emits one posting per (sh, id)), so src < dst holds
        s, d = ids[src_idx], ids[dst_idx]
        na_, nb_ = nsh[src_idx], nsh[dst_idx]
        from .pipeline import pair_run_bounds

        o, idx, c, s, d = pair_run_bounds(s, d)
        na_, nb_ = na_[o], nb_[o]
        return pa.table(
            {
                "src": pa.array(s[idx], type=pa.int64()),
                "dst": pa.array(d[idx], type=pa.int64()),
                "c": pa.array(c.astype(np.int64), type=pa.int64()),
                "na": pa.array(na_[idx], type=pa.int32()),
                "nb": pa.array(nb_[idx], type=pa.int32()),
            }
        )

    return emit


def _cross_pairs_block(max_posting: int | None):
    """Bipartite pair emitter for ONE hash partition of side-tagged posting
    lists: within each shingle run, every side-0 (train) posting pairs with
    every side-1 (eval) posting — never train×train or eval×eval. Same
    segmented-arange construction as :func:`_pairs_block`: sort by
    (sh, side, id) so each run is [train block | eval block]; a train
    element at run-local position < t gets e pairs, its dsts are the run's
    eval block in order."""

    def emit(block: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "train_id": pa.array([], pa.int64()),
                "eval_id": pa.array([], pa.int64()),
            }
        )
        n = len(block)
        if n == 0:
            return empty
        sh = block.column("sh").to_numpy()
        ids = block.column("id").to_numpy()
        side = block.column("side").to_numpy()
        order = np.lexsort((ids, side, sh))
        sh, ids, side = sh[order], ids[order], side[order]
        new_run = np.concatenate([[True], sh[1:] != sh[:-1]])
        run_id = np.cumsum(new_run) - 1
        starts = np.flatnonzero(new_run)
        lens = np.diff(np.concatenate([starts, [n]]))
        n_train = np.add.reduceat(
            (side == 0).astype(np.int64), starts
        )  # per-run train count; eval count = lens - n_train
        n_eval = lens - n_train
        # each train element pairs with all of its run's eval elements
        cnt = np.where(side == 0, n_eval[run_id], 0)
        if max_posting is not None:
            cnt = np.where(lens[run_id] > max_posting, 0, cnt)
        total = int(cnt.sum())
        if total == 0:
            return empty
        src_idx = np.repeat(np.arange(n), cnt)
        excl = np.concatenate([[0], np.cumsum(cnt)])[:-1]
        pair_loc = np.arange(total) - np.repeat(excl, cnt)
        eval_start = starts + n_train  # run-local eval block begins here
        dst_idx = eval_start[run_id[src_idx]] + pair_loc
        return pa.table(
            {
                "train_id": pa.array(ids[src_idx], type=pa.int64()),
                "eval_id": pa.array(ids[dst_idx], type=pa.int64()),
            }
        )

    return emit


def decontaminate_pairs(
    train: "ray.data.Dataset",
    eval_ds: "ray.data.Dataset",
    cfg: SigConfig = DEFAULT_CONFIG,
    min_overlap: int = 1,
    max_posting: int | None = None,
) -> "ray.data.Dataset":
    """Train/eval contamination detection: exact token-n-gram overlap
    between two corpora (both ``(id, content)``).

    → Dataset(train_id: int64, eval_id: int64, n_shared: int64) — one row
    per (train doc, eval doc) sharing ≥ ``min_overlap`` distinct
    ``cfg.shingle_k``-gram shingles. The standard pre-training hygiene pass
    (strip benchmark/eval text from the training corpus; e.g. the 13-gram
    overlap rule of GPT-3 appendix C — set ``cfg.shingle_k`` accordingly).

    Scale shape: identical to :func:`ngram_jaccard_pairs` — postings
    hash-partitioned by shingle, ONE all-to-all, vectorized cross-side pair
    emission per partition, then a (train_id, eval_id) count aggregate. The
    eval side is typically tiny, so per-shingle pair fan-out is bounded by
    that side's posting length; ``max_posting`` additionally drops
    boilerplate shingles (lists longer than the cap across BOTH sides).
    """
    p_train = train.select_columns(["id", "content"]).map_batches(
        ShingleExplode(cfg, side=0), batch_format="pyarrow"
    )
    p_eval = eval_ds.select_columns(["id", "content"]).map_batches(
        ShingleExplode(cfg, side=1), batch_format="pyarrow"
    )
    from .pipeline import grouped_blocks

    pairs = grouped_blocks(
        p_train.union(p_eval), "sh", _cross_pairs_block(max_posting)
    )
    from .pipeline import pair_counts

    agg = pair_counts(pairs, a="train_id", b="eval_id")

    def finish(batch: pa.Table) -> pa.Table:
        c = batch.column("count()").to_numpy()
        keep = pa.array(c >= min_overlap)
        return pa.table(
            {
                "train_id": batch.column("train_id").filter(keep),
                "eval_id": batch.column("eval_id").filter(keep),
                "n_shared": pa.array(c[c >= min_overlap], type=pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def drop_contaminated(
    train: "ray.data.Dataset",
    pairs: "ray.data.Dataset",
    id_col: str = "id",
    broadcast_limit: int = 50_000_000,
) -> "ray.data.Dataset":
    """Filter a train corpus down to rows NOT flagged by
    :func:`decontaminate_pairs` (the decontamination end-stage).

    The flagged-id set is bounded by the eval corpus's match fan-out —
    ordinarily tiny next to the train corpus — so it is collected once,
    sorted, ``ray.put`` once, and applied map-side by every filter task
    (searchsorted membership): no shuffle of the train side. Above
    ``broadcast_limit`` flagged rows it falls back to a distributed
    left-outer anti-join (same pattern as pipeline.assign_clusters)."""
    from .pipeline import join_partitions, nonempty_blocks

    # distinct flagged train ids via one co-locating grouped_blocks pass —
    # groupby().count() paid per-group overhead over up-to-|train| groups
    # (the pair-counting pathology; see pipeline.pair_counts)
    from .pipeline import grouped_blocks

    def _distinct_block(t: pa.Table) -> pa.Table:
        # "flag" marks right-side matches in the anti-join fallback (the
        # join drops the redundant right key column itself)
        if t.num_rows == 0:
            return pa.table(
                {
                    "train_id": pa.array([], pa.int64()),
                    "flag": pa.array([], pa.int8()),
                }
            )
        v = np.unique(t.column("train_id").to_numpy())
        return pa.table(
            {
                "train_id": pa.array(v, pa.int64()),
                "flag": pa.array(np.ones(len(v), np.int8)),
            }
        )

    flagged = grouped_blocks(
        pairs.select_columns(["train_id"]), "train_id", _distinct_block
    ).materialize()
    n_flagged = flagged.count()
    if n_flagged <= broadcast_limit:
        tables = [t for t in ray.get(flagged.to_arrow_refs()) if t.num_rows]
        bad = (
            np.sort(
                np.concatenate(
                    [t.column("train_id").to_numpy() for t in tables]
                )
            )
            if tables
            else np.zeros(0, dtype=np.int64)
        )
        bad_ref = ray.put(bad)

        def keep_clean(batch: pa.Table, ref) -> pa.Table:
            bad_ids = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
            ids = batch.column(id_col).to_numpy()
            if len(bad_ids) == 0:
                return batch
            pos = np.clip(np.searchsorted(bad_ids, ids), 0, len(bad_ids) - 1)
            return batch.filter(pa.array(bad_ids[pos] != ids))

        return train.map_batches(
            keep_clean, fn_args=(bad_ref,), batch_format="pyarrow"
        )

    joined = train.join(
        nonempty_blocks(flagged),
        "left_outer",
        num_partitions=join_partitions(),
        on=(id_col,),
        right_on=("train_id",),
    )
    drop = {"train_id", "flag"}
    return joined.map_batches(
        lambda b: b.filter(pc.is_null(b.column("flag"))).select(
            [c for c in b.column_names if c not in drop]
        ),
        batch_format="pyarrow",
    )


def _combine_pairs_block(block: pa.Table) -> pa.Table:
    """Final combine for ONE src-hash partition of pre-combined pair
    partials: sum ``c`` per (src, dst) — one lexsort + one reduceat. na/nb
    are per-DOC unique-shingle counts (identical on every partial of a
    pair), so the first value is exact."""
    empty = pa.table(
        {
            "src": pa.array([], pa.int64()),
            "dst": pa.array([], pa.int64()),
            "c": pa.array([], pa.int64()),
            "na": pa.array([], pa.int32()),
            "nb": pa.array([], pa.int32()),
        }
    )
    if block.num_rows == 0:
        return empty
    s = block.column("src").to_numpy()
    d = block.column("dst").to_numpy()
    c = block.column("c").to_numpy()
    na = block.column("na").to_numpy()
    nb = block.column("nb").to_numpy()
    from .pipeline import pair_run_bounds

    o, idx, _, s, d = pair_run_bounds(s, d)
    c, na, nb = c[o], na[o], nb[o]
    csum = np.add.reduceat(c, idx)
    return pa.table(
        {
            "src": pa.array(s[idx], pa.int64()),
            "dst": pa.array(d[idx], pa.int64()),
            "c": pa.array(csum.astype(np.int64), pa.int64()),
            "na": pa.array(na[idx], pa.int32()),
            "nb": pa.array(nb[idx], pa.int32()),
        }
    )


def _overlap_counts(
    corpus: "ray.data.Dataset",
    cfg: SigConfig,
    max_posting: int | None,
) -> "ray.data.Dataset":
    """Shared candidate machinery: exploded unique-shingle postings → one
    hash-partitioned pair emission (pre-combined per partition) → one
    src-hash-partitioned vectorized combine → (src, dst, c, na, nb) where
    c is the EXACT shingle-set intersection size and na/nb the docs'
    unique-shingle counts. Both wide steps are grouped_blocks passes —
    ray.data's groupby().aggregate() paid sort-aggregate overhead per
    GROUP, ruinous for the ~1 group/row pair table (measured 50x slower
    at sf0.1: 250 s vs 5 s for the whole tier)."""
    postings = corpus.select_columns(["id", "content"]).map_batches(
        ShingleExplode(cfg), batch_format="pyarrow"
    )
    from .pipeline import grouped_blocks

    pairs = grouped_blocks(postings, "sh", _pairs_block(max_posting))
    return grouped_blocks(pairs, "src", _combine_pairs_block)


def ngram_jaccard_pairs(
    corpus: "ray.data.Dataset",
    cfg: SigConfig = DEFAULT_CONFIG,
    threshold: float = 0.7,
    max_posting: int | None = None,
) -> "ray.data.Dataset":
    """→ Dataset(src:int64, dst:int64, jaccard:float64), src < dst, J >= threshold."""
    agg = _overlap_counts(corpus, cfg, max_posting)

    def finish(batch: pa.Table) -> pa.Table:
        c = batch.column("c").to_numpy().astype(np.float64)
        na = batch.column("na").to_numpy().astype(np.float64)
        nb = batch.column("nb").to_numpy().astype(np.float64)
        j = c / (na + nb - c)
        keep = j >= threshold
        return pa.table(
            {
                "src": batch.column("src").filter(pa.array(keep)),
                "dst": batch.column("dst").filter(pa.array(keep)),
                "jaccard": pa.array(j[keep], type=pa.float64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def ngram_containment_pairs(
    corpus: "ray.data.Dataset",
    cfg: SigConfig = DEFAULT_CONFIG,
    threshold: float = 0.8,
    max_posting: int | None = None,
) -> "ray.data.Dataset":
    """Asymmetric near-dup detection: pairs where one document's shingle
    set is mostly CONTAINED in the other's — the quote / partial-copy /
    superset case Jaccard under-scores (a 100-line file pasted into a
    5000-line file has J ≈ 0.02 but containment ≈ 1.0).

    → Dataset(src:int64, dst:int64, cont_src:float64, cont_dst:float64),
    src < dst, where cont_src = |A∩B| / |A| (fraction of src inside dst)
    and cont_dst = |A∩B| / |B|; rows kept when max(cont_src, cont_dst)
    >= threshold. Same exact posting-intersection machinery (and the same
    single all-to-all) as :func:`ngram_jaccard_pairs`."""
    agg = _overlap_counts(corpus, cfg, max_posting)

    def finish(batch: pa.Table) -> pa.Table:
        c = batch.column("c").to_numpy().astype(np.float64)
        na = batch.column("na").to_numpy().astype(np.float64)
        nb = batch.column("nb").to_numpy().astype(np.float64)
        ca = c / na
        cb = c / nb
        keep = np.maximum(ca, cb) >= threshold
        return pa.table(
            {
                "src": batch.column("src").filter(pa.array(keep)),
                "dst": batch.column("dst").filter(pa.array(keep)),
                "cont_src": pa.array(ca[keep], type=pa.float64()),
                "cont_dst": pa.array(cb[keep], type=pa.float64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")
