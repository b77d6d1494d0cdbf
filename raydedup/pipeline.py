"""The flagship near-duplicate detection + clustering pipeline.

Dataflow (all lazy Ray Data; one materialize at the signature checkpoint):

  corpus(id, repo, path, commit, lang, content)
    │ map_batches(SignatureStage)           [stateless, pyarrow, content dropped]
  sigs(id, …, sha256, bandhashes, kmv, simhash, winnow)   [bandhashes: 136 B/row]
    ├─ groupby(sha256)                      → exact edges          (tier: exact)
    ├─ map_batches(hh partials) → driver merge → hot band keys     (skew pre-pass)
    ├─ map_batches(BandEmit[hot]) → groupby(band_key) → verified near edges
    │    └─ salted sub-buckets → delegate round → delegate edges
    ├─ flat_map(winnow fps) → groupby(fp) → pair counts → substring edges
    └─ edges ∪ … → union-find → (id, cluster_id)  [cluster = min member id]

Scale notes: the only all-to-alls are the band groupby (16 rows × ~1 KB per
doc), the fp groupby (≤ n_tokens/w rows × 16 B per doc) and the sha groupby
(1 row × 72 B); everything else is map-side. Verified edges are tiny.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from .config import DEFAULT_CONFIG, SigConfig
from .hashing import splitmix64
from .lsh import make_band_key
from .sketches.freq import FrequentKeysSketch
from .stages import (
    BandEmitStage,
    SignatureStage,
    delegate_reducer,
)
from .unionfind import cluster_edges

U64 = np.uint64


# ---------------------------------------------------------------------------
# exact tier
# ---------------------------------------------------------------------------


def key_parts(col, nparts: int, key_to_u64=None) -> np.ndarray:
    """Partition in [0, nparts) of every key: splitmix64 of the key's uint64
    view (integer keys), of ``key_to_u64(col)``, or of its xxh64 (strings)."""
    from .hashing import xxh64_flat
    from .tokenize import _string_array_np

    if key_to_u64 is not None:
        k64 = key_to_u64(col)
    elif pa.types.is_integer(col.type):
        k64 = col.to_numpy(zero_copy_only=False).astype(np.int64).view(np.uint64)
    else:
        flat, off = _string_array_np(
            col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        )
        k64 = xxh64_flat(flat, off, seed=17)
    return (splitmix64(k64) % np.uint64(nparts)).astype(np.int64)


def part_groups(
    ds: "ray.data.Dataset", fn, nparts: int, part_of=None
) -> "ray.data.Dataset":
    """Run ``fn(rows, p)`` once per partition p in [0, nparts) that has rows,
    with all of p's rows in one block. ``part_of(batch)`` gives each row's
    partition; without it the rows carry an int ``part`` column.

    One sort shuffle with fixed boundaries cuts the partitions into ~2×CPU
    ranges, one block each; on one CPU the rows gather into a single range
    without a sort shuffle (a shuffle's fixed per-task cost is most of a
    small job). Ray returns an empty sort range as a block
    with NO columns, which every later operator passes through unchanged
    (Ray calls no map on a 0-row block), so each map batch also emits one
    marker row per range: all-null but for the range's even sort key,
    while a row of partition p gets the odd key 2p+1. Markers
    sort first and are sliced off; a range without rows calls ``fn`` on a
    0-row block with the input's columns (and the range's first p), so
    ``fn`` must return its typed empty output for one."""
    width = max(1, nparts)
    cpus = join_partitions(64)
    n_ranges = 1 if cpus == 1 else min(width, 2 * cpus)
    starts = np.arange(n_ranges, dtype=np.int64) * width // n_ranges
    markers = pa.array(2 * starts)

    def add_key(batch: pa.Table) -> pa.Table:
        if part_of is None:
            part = batch.column("part").to_numpy()
            batch = batch.drop_columns(["part"])
        else:
            part = part_of(batch)
        nulls = pa.Table.from_arrays(
            [pa.nulls(n_ranges, f.type) for f in batch.schema], schema=batch.schema
        )
        return pa.concat_tables(
            [
                nulls.append_column("part", markers),
                batch.append_column("part", pa.array(2 * part + 1)),
            ]
        )

    def run(block: pa.Table):
        if n_ranges == 1:
            block = block.sort_by("part")
        key = block.column("part").to_numpy()
        n_markers = int(np.count_nonzero(key % 2 == 0))
        body = block.slice(n_markers).drop_columns(["part"])
        part = key[n_markers:] // 2
        if len(part) == 0:
            yield fn(body, int(key[0]) // 2)
            return
        cuts = np.flatnonzero(part[1:] != part[:-1]) + 1
        for s, e in zip(np.r_[0, cuts], np.r_[cuts, len(part)]):
            yield fn(body.slice(s, e - s), int(part[s]))

    keyed = ds.map_batches(add_key, batch_format="pyarrow")
    if n_ranges == 1:
        keyed = keyed.repartition(1)
    else:
        keyed = keyed.sort("part", boundaries=(2 * starts[1:]).tolist())
    return keyed.map_batches(run, batch_size=None, batch_format="pyarrow")


def grouped_blocks(
    ds: "ray.data.Dataset",
    key: str,
    block_fn,
    nparts: int | None = None,
    key_to_u64=None,
) -> "ray.data.Dataset":
    """Hash-partitioned grouping: co-locate equal keys into ~2×CPU partition
    groups and run ``block_fn(sorted_block)`` once per PARTITION.

    ``groupby(key).map_groups(fn)`` pays a python call per group — ruinous
    for millions of small groups; this pays ``nparts`` calls and lets the
    block fn process all its groups vectorized. ``key_to_u64`` converts
    non-integer keys to uint64 for partition hashing (default: uint64 view /
    xxh64 of strings). ``block_fn`` must accept a 0-row block (see
    :func:`part_groups`)."""
    nparts = nparts or 2 * join_partitions(64)
    return part_groups(
        ds,
        lambda block, p: block_fn(block),
        nparts,
        lambda batch: key_parts(batch.column(key), nparts, key_to_u64),
    )


def nonempty_blocks(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """``ds`` materialized, without its 0-row blocks: the input a Ray hash
    join needs. The join sends each input's schema to every partition with
    the first block it shuffles, and sends nothing when that block is
    empty, so partitions that get no rows then fail the join — and a
    grouped output has one block per partition range, rows or not."""
    refs = [
        ref
        for bundle in ds.materialize().iter_internal_ref_bundles()
        for ref, meta in bundle.blocks
        if meta.num_rows
    ]
    return ray.data.from_arrow_refs(refs) if refs else ds


def pair_run_bounds(
    x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group two parallel int arrays by (x, y): returns ``(order,
    first_idx, run_counts, x_sorted, y_sorted)`` where ``order`` lexsorts
    by (x, y), ``first_idx`` indexes (into the sorted view) the first
    element of each distinct (x, y) run and ``run_counts`` its length.
    The sorted key arrays are returned because every caller needs them —
    re-gathering ``x[order]`` at the call site would pay a second O(n)
    fancy-index per key column. The shared kernel behind every vectorized
    pair combine (:func:`pair_counts`, njaccard's pre-combine and final
    combine)."""
    o = np.lexsort((y, x))
    xs, ys = x[o], y[o]
    first = np.ones(len(xs), dtype=bool)
    first[1:] = (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1])
    idx = np.flatnonzero(first)
    counts = np.diff(np.concatenate([idx, [len(xs)]]))
    return o, idx, counts, xs, ys


def pair_counts(
    pairs: "ray.data.Dataset",
    a: str = "src",
    b: str = "dst",
    out: str = "count()",
) -> "ray.data.Dataset":
    """Exact occurrence counts per (a, b) pair — the vectorized replacement
    for ``pairs.groupby([a, b]).count()``, whose sort-aggregate pays
    per-GROUP overhead: ruinous on pair tables with ~1 group per row
    (measured 28-64x slower on the sf0.1 exact n-gram tier). One
    grouped_blocks pass hash-partitioned on ``a`` co-locates every
    occurrence of a pair; the block fn is one lexsort + run-boundary diff.
    Both id columns must be int64; the count column is int64 and named
    ``out`` (default matches ray.data's ``count()`` for drop-in reuse)."""

    def block(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    a: pa.array([], pa.int64()),
                    b: pa.array([], pa.int64()),
                    out: pa.array([], pa.int64()),
                }
            )
        x = t.column(a).to_numpy()
        y = t.column(b).to_numpy()
        _, idx, c, x, y = pair_run_bounds(x, y)
        return pa.table(
            {
                a: pa.array(x[idx], pa.int64()),
                b: pa.array(y[idx], pa.int64()),
                out: pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    return grouped_blocks(pairs, a, block)


def key_codes(col) -> np.ndarray:
    """Int64-sortable codes for a key column of any dtype: integer columns
    pass through zero-copy; string/float/other columns are factorized with
    np.unique so lexsort/equality inside a grouped_blocks block fn work for
    non-numeric keys (codes preserve equality and a total order within the
    block — sufficient for grouping, not a global collation)."""
    arr = col.to_numpy(zero_copy_only=False)
    if arr.dtype.kind in "iu":
        return arr
    return np.unique(arr, return_inverse=True)[1]


def _exact_block_edges(block: pa.Table) -> pa.Table:
    """Star edges for every sha run in a partition block, vectorized."""
    n = len(block)
    if n == 0:
        return pa.table(
            {"src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64())}
        )
    sha = block.column("sha256").to_numpy(zero_copy_only=False)
    ids = block.column("id").to_numpy()
    order = np.lexsort((ids, sha))
    sha, ids = sha[order], ids[order]
    new_run = np.concatenate([[True], sha[1:] != sha[:-1]])
    run_id = np.cumsum(new_run) - 1
    # first id of each run (min id — ids sorted within run)
    firsts = ids[new_run]
    src = firsts[run_id]
    keep = ~new_run  # every non-first member links to its run's first
    return pa.table({"src": pa.array(src[keep]), "dst": pa.array(ids[keep])})


def exact_edges(sigs: "ray.data.Dataset") -> "ray.data.Dataset":
    """sha256-equality tier: star edges from the min id of each digest group."""
    return grouped_blocks(
        sigs.select_columns(["sha256", "id"]), "sha256", _exact_block_edges
    )


# ---------------------------------------------------------------------------
# heavy-hitter pre-pass over band keys (skew detection)
# ---------------------------------------------------------------------------


def detect_hot_band_keys(
    sigs: "ray.data.Dataset", cfg: SigConfig, sample: float = 0.25
) -> dict[int, int]:
    """Merged heavy-hitter pass → {band_key: n_salt_subbuckets}.

    Runs on a ``sample`` row fraction: a key hot enough to need salting
    (> max_bucket_size occurrences) is seen Ω(sample·max_bucket_size) times
    in the sample, far above detection noise, while the pass cost drops by
    1/sample. Counts and thresholds are rescaled by 1/sample; a missed
    borderline key only means an unsalted largish bucket, which degrades
    to a representative star once it exceeds max_bucket_size.

    The Misra-Gries partials accumulate per BLOCK and merge in Ray's
    AggregateFn combiner tree — the driver receives exactly ONE merged
    sketch, never the per-block partials (at 10^12 rows the old
    take_all()-of-partials pattern would ship ~1e8 sketches driver-side).

    Hot selection uses the LOWER-bound count (NO_FALSE_POSITIVES): a missed
    borderline-hot key only means an unsalted large bucket (a
    representative star above max_bucket_size), while false positives
    would salt thousands of ordinary buckets and inflate the delegate
    round (observed with the upper-bound mode: MG offsets accumulated
    across block partials)."""
    from ray.data.aggregate import AggregateFn

    from .sketches.freq import NO_FALSE_POSITIVES
    from .stages import _binary_col_flat_u64

    map_size = 1 << 15
    if sample < 1.0:
        # deterministic id-hash sampling (reproducible across runs/retries,
        # unlike random_sample)
        thresh = np.uint64(int(sample * 2**64))

        def keep_sample(batch: pa.Table) -> pa.Table:
            ids = batch.column("id").to_numpy().astype(np.int64).view(np.uint64)
            return batch.filter(pa.array(splitmix64(ids ^ np.uint64(0x5A17)) < thresh))

        sigs = sigs.select_columns(["id", "bandhashes", "n_shingles"]).map_batches(
            keep_sample, batch_format="pyarrow"
        )

    def acc(state: bytes | None, block: pa.Table) -> bytes:
        sk = (
            FrequentKeysSketch.deserialize(state)
            if state
            else FrequentKeysSketch(map_size)
        )
        n = len(block)
        if n == 0:
            return sk.serialize()
        bh_flat, _ = _binary_col_flat_u64(block.column("bandhashes"))
        keys = make_band_key(np.arange(cfg.bands), bh_flat.reshape(n, cfg.bands))
        keys = keys[block.column("n_shingles").to_numpy() > 0]
        for band_keys in keys.T:  # band by band: the sketch purges per update
            sk.update_many(band_keys.view(np.int64))
        return sk.serialize()

    def mrg(a: bytes | None, b: bytes | None) -> bytes:
        if not a:
            return b or FrequentKeysSketch(map_size).serialize()
        if not b:
            return a
        return (
            FrequentKeysSketch.deserialize(a)
            .merge(FrequentKeysSketch.deserialize(b))
            .serialize()
        )

    res = sigs.select_columns(["bandhashes", "n_shingles"]).aggregate(
        AggregateFn(
            init=lambda key: None,
            accumulate_block=acc,
            merge=mrg,
            finalize=lambda s: s,
            name="hh",
        )
    )
    merged = (
        FrequentKeysSketch.deserialize(res["hh"])
        # res is None when the (sampled) dataset is empty — Ray's
        # Dataset.aggregate returns None rather than an empty row
        if res is not None and res.get("hh")
        else FrequentKeysSketch(map_size)
    )
    hot: dict[int, int] = {}
    # thresholds/counts live in the sampled domain; rescale by 1/sample.
    # n_salt gets 2x headroom over the lower-bound estimate and a high
    # ceiling: an under-salted hot key produces sub-buckets above
    # max_bucket_size, which degrade to representative stars (pair recall
    # loss), so erring toward more sub-buckets is the cheap direction —
    # the delegate round reconnects them at one row per sub-bucket.
    salt_cap = max(cfg.salt_factor, 1024)
    for key, est in merged.get_frequent_items(
        max(1, int(cfg.max_bucket_size * sample)), NO_FALSE_POSITIVES
    ):
        full_est = est / sample
        n_salt = min(
            salt_cap, max(2, math.ceil(2.0 * full_est / cfg.max_bucket_size))
        )
        hot[int(np.int64(key).view(np.uint64))] = n_salt
    return hot


# ---------------------------------------------------------------------------
# near tier
# ---------------------------------------------------------------------------


def join_partitions(wanted: int = 32, joins: int = 1) -> int:
    """Per-join partition count such that the plan's TOTAL aggregator
    actors stay ≤ CPUs (idle aggregators otherwise reserve every slot and
    the streaming executor livelocks). ``joins`` is how many JoinOperators
    share the plan: the CPU clamp is divided among them, but a wide
    session still gets the full ``wanted`` per join."""
    try:
        cpus = int(ray.available_resources().get("CPU", 1) or 1)
    except Exception:  # noqa: BLE001 — outside a Ray session
        cpus = 1
    return max(1, min(wanted, cpus // max(1, joins)))


def actor_pool(lo: int = 1) -> tuple[int, int]:
    """Actor-pool concurrency bounds sized to the cluster: a fixed cap
    (e.g. (1, 8)) starves wide clusters — the pool must be allowed to scale
    to every available CPU slot."""
    try:
        cpus = int(ray.cluster_resources().get("CPU", 1) or 1)
    except Exception:  # noqa: BLE001 — outside a Ray session
        cpus = 8
    return (lo, max(8, cpus))


def _banded(
    sigs: "ray.data.Dataset",
    cfg: SigConfig,
    hot: dict[int, int] | None,
    carry_kmv: bool,
    verify: bool,
    cross_min_id: int | None = None,
    wave: tuple[int, int] | None = None,
) -> "ray.data.Dataset":
    """Band shuffle → (src, dst[, jaccard]) pairs, one block per partition.

    The block fn emits the final columns itself: Ray never calls a map on
    a 0-row block, so a later select_columns would leave those blocks
    with the emitter's schema."""
    delegate_round = bool(hot)
    if hot and wave is not None:
        # a hot key's rows, sub-buckets and delegates all live in the wave
        # of its key; a wave without hot keys has no delegate round. The
        # emitter still gets every hot key: its owner-band election reads
        # the salt slots of all bands, not only the wave's.
        keys = np.fromiter(hot, dtype=np.uint64, count=len(hot))
        delegate_round = bool(
            np.any(
                splitmix64(keys ^ BandEmitStage.WAVE_SEED) % np.uint64(wave[1])
                == np.uint64(wave[0])
            )
        )
    cols = ["id", "bandhashes", "n_shingles"]
    if carry_kmv:
        cols += ["kmv_theta", "kmv"]
    band = sigs.select_columns(cols).map_batches(
        BandEmitStage(cfg, hot, carry_kmv=carry_kmv, wave=wave),
        batch_format="pyarrow",
    )
    from .stages import make_block_pair_emitter

    # one python call per hash partition, not per bucket: each partition
    # processes ALL its buckets vectorized (make_block_pair_emitter).
    # (Measured: per-bucket map_groups on millions of mostly-singleton
    # buckets costs tens of seconds in pure python dispatch.)
    emitter = make_block_pair_emitter(
        cfg, verify=verify, hot=hot, cross_min_id=cross_min_id
    )
    out_cols = ["src", "dst", "jaccard"] if verify else ["src", "dst"]

    def block_emitter(block: pa.Table) -> pa.Table:
        return emitter(block).select(out_cols)

    pairs = grouped_blocks(band, "band_key", block_emitter)
    if delegate_round:
        # delegate round: min-id per salted sub-bucket regroups under the
        # hot key (tiny after the lower-bound hot selection)
        delegates = (
            band.filter(expr="salted == True")
            .groupby("band_key")
            .map_groups(delegate_reducer, batch_format="pyarrow")
        )
        pairs = pairs.union(grouped_blocks(delegates, "band_key", block_emitter))
    return pairs


def candidate_pairs_lsh(
    sigs: "ray.data.Dataset",
    cfg: SigConfig,
    hot: dict[int, int] | None = None,
    cross_min_id: int | None = None,
) -> "ray.data.Dataset":
    """LSH band shuffle → UNIQUE unverified candidate pairs (src, dst)."""
    # pairs are globally unique thanks to the owner-band rule, with two
    # rare, harmless duplicate sources: delegate-bucket pairs, and capped
    # buckets' star edges (which bypass the rule — their election target
    # may itself have capped and dropped the pair)
    return _banded(
        sigs, cfg, hot, carry_kmv=False, verify=False, cross_min_id=cross_min_id
    )


class _BroadcastVerify:
    """Distributed pair verification against a ray.put sketch table.

    The broadcast object is read zero-copy by every task (ray.put once —
    the 'broadcast small side instead of a shuffle join' pattern)."""

    def __init__(self, sketches_ref, cfg: SigConfig):
        from .io import broadcast_value

        self.ids, self.thetas, self.off, self.flat = broadcast_value(sketches_ref)
        self.cfg = cfg

    def _theta(self, t):
        return (t >> np.uint64(32)).astype(self.flat.dtype) if self.flat.dtype == np.uint32 else t

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .stages import kmv_jaccard_many

        src = batch.column("src").to_numpy()
        dst = batch.column("dst").to_numpy()
        ia = np.searchsorted(self.ids, src)
        ib = np.searchsorted(self.ids, dst)
        thetas = self._theta(self.thetas)
        jac = kmv_jaccard_many(
            self.flat, self.off[ia], self.off[ia + 1], thetas[ia],
            self.flat, self.off[ib], self.off[ib + 1], thetas[ib],
            self.cfg.kmv_k,
        )
        keep = jac >= self.cfg.verify_threshold
        return pa.table(
            {
                "src": pa.array(src[keep]),
                "dst": pa.array(dst[keep]),
                "jaccard": pa.array(jac[keep]),
            }
        )


def _sketch_broadcast_ref(sigs: "ray.data.Dataset", cfg: SigConfig):
    """ray.put a flat (ids, thetas, offsets, cells) view of EVERY row's KMV
    sketch — read zero-copy from the local object store by verify tasks."""
    tables = [
        ray.get(r)
        for r in sigs.select_columns(["id", "kmv_theta", "kmv"]).to_arrow_refs()
    ]
    cat = pa.concat_tables([t for t in tables if t.num_rows])
    order = np.argsort(cat.column("id").to_numpy())
    sk_ids = cat.column("id").to_numpy()[order]
    sk_thetas = cat.column("kmv_theta").to_numpy()[order]
    from .shingle import _intra_offsets
    from .stages import _binary_col_flat_u64

    wb = cfg.kmv_hash_bytes
    flat_all, off_all = _binary_col_flat_u64(cat.column("kmv"), wb)
    lens = (off_all[1:] - off_all[:-1])[order]
    starts = off_all[:-1][order]
    idx = np.repeat(starts, lens) + _intra_offsets(lens)
    flat = flat_all[idx]
    off = np.concatenate([[0], np.cumsum(lens)])
    from .io import put_broadcast

    return put_broadcast((sk_ids, sk_thetas, off, flat))


AUTO_HYBRID_FLOOR = 256 << 20  # sketch-table bytes below which bucket wins
NEAR_MODES = ("auto", "bucket", "hybrid", "bucket_waves")


def _near_budget(budget: int | None = None) -> int:
    """Default broadcast/wave byte budget: 20% of the cluster object-store
    capacity (2 GiB when Ray can't report capacity)."""
    if budget is not None:
        return budget
    try:
        cap = ray.cluster_resources().get("object_store_memory", 0)
    except Exception:  # noqa: BLE001 — outside a Ray session
        cap = 0
    return int(0.2 * cap) if cap else 2 << 30


def _bucket_shuffle_bytes(n_rows: int, cfg: SigConfig) -> int:
    """Estimated all-to-all payload of bucket mode's band shuffle: every
    valid doc ships ``bands`` rows each carrying (band_key, orig_key,
    salted, band_idx, id) + its band-hash vector + its KMV sketch."""
    per_band_row = (
        8 + 8 + 1 + 1 + 8  # band_key, orig_key, salted, band_idx, id
        + cfg.bands * 8  # bandhashes (owner-band rule)
        + 8 + cfg.kmv_k * cfg.kmv_hash_bytes  # kmv_theta + kmv blob
    )
    return n_rows * cfg.bands * per_band_row


def _auto_num_waves(
    n_rows: int, cfg: SigConfig, budget: int | None = None
) -> int:
    """Wave count such that ONE wave's band shuffle fits the byte budget
    (expected payload is uniform across waves — the wave key is a hash of
    the band key). Capped at 256: beyond that the W× re-read of the
    signature checkpoint dominates and a coarser wave simply spills a
    little, which is the cheaper failure."""
    import math as _math

    return max(1, min(256, _math.ceil(_bucket_shuffle_bytes(n_rows, cfg) / _near_budget(budget))))


def _auto_near_mode(
    sigs: "ray.data.Dataset",
    cfg: SigConfig,
    budget: int | None = None,
    floor: int | None = None,
) -> str:
    """'hybrid' when the broadcast sketch table (id + theta + kmv blob per
    doc) is big enough to matter AND fits the budget, else 'bucket'.

    Budget default: 20% of the cluster object-store capacity (a single
    plasma copy every node reads zero-copy), 2 GiB when Ray can't report
    capacity. Floor default 256 MiB: hybrid pays a fixed cost (broadcast
    table build + verify actor pool) that only amortizes once bucket's
    sketch-carrying shuffle is substantial — measured crossover on this
    box is between 150k rows (~79 MB table: bucket 9.7-10.4 s vs hybrid
    13.4-14.1 s) and 1.25M rows (~660 MB: hybrid 1.3-1.9× faster) with the
    gap exploding once bucket spills (2.5M rows: hybrid 2.5× faster,
    zero spill vs 40 GB — BASELINE.md round-4).

    Above the budget (the sketch table no longer fits a node's plasma as
    ONE broadcast copy) the answer is 'bucket_waves': bucket layout, but
    the band-key space sharded into W hash ranges executed as sequential
    waves so each wave's sketch-carrying shuffle fits the object store
    instead of going disk-bound (the round-4 knee: 40.6 GB spilled at
    2.5M rows in monolithic bucket mode)."""
    budget = _near_budget(budget)
    if floor is None:
        floor = AUTO_HYBRID_FLOOR
    per_row = 16 + cfg.kmv_k * cfg.kmv_hash_bytes  # id + theta + kmv blob
    est = sigs.count() * per_row
    if est > budget:
        return "bucket_waves"
    return "hybrid" if est >= floor else "bucket"


def near_edges(
    sigs: "ray.data.Dataset",
    cfg: SigConfig,
    hot: dict[int, int] | None = None,
    mode: str = "bucket",
    cross_min_id: int | None = None,
    auto_broadcast_budget: int | None = None,
    num_waves: int | None = None,
) -> "ray.data.Dataset":
    """Verified near-dup edges. Modes (all same verification semantics):
      'auto': 'hybrid' when the whole sketch table lands inside the
        [floor, budget] window — floor 256 MiB (below it hybrid's fixed
        broadcast+actor cost beats its ~4.5× all-to-all byte reduction;
        measured crossover in BASELINE.md round-4), budget 20% of the
        cluster's object-store capacity (or 2 GiB if Ray can't report
        it) — 'bucket' below the floor, 'bucket_waves' above the budget.
        The estimate is rows × the broadcast table's
        exact per-row footprint (id + theta + the kmv blob: 16 +
        kmv_k·hash_bytes — the hybrid broadcast carries ONLY these, not
        band hashes or band keys), computed from the materialized signature
        table's count, so the decision costs no extra pass.
      'bucket' (default): one shuffle carrying sketches, block-vectorized
        in-bucket verify + owner-band uniqueness — fully distributed, no
        driver involvement.
      'hybrid': bands shuffle WITHOUT the sketch payload (~150 B/row vs
        ~670 B) with the same distributed owner-band pair uniqueness; the
        unique pairs verify against a ray.put broadcast of the whole sketch
        table (one object-store copy, zero-copy reads). Cuts the all-to-all
        bytes ~4.5×; right while the sketch table fits a node's plasma
        (k·hash_bytes ≈ 0.5 KB/doc → ~0.5 TB per 10^9 docs — beyond that
        use 'bucket_waves').
      'bucket_waves': bucket layout executed as ``num_waves`` sequential
        waves over hash ranges of the ORIGINAL band key — each wave's
        sketch-carrying all-to-all fits the object store (no spill), at
        the cost of re-reading the materialized signature checkpoint once
        per wave (map-side, cheap next to a disk-bound shuffle). The scale
        path above hybrid's broadcast budget: wave payload is corpus/W, so
        any corpus size fits by raising W. ``num_waves`` defaults to the
        byte-estimate the auto selector computes. Edges are identical to
        'bucket': every band row lands in exactly one wave, the owner-band
        rule assigns each pair to exactly one band bucket globally, and a
        hot key's salted sub-buckets + delegate round share the wave of
        their orig_key.

    Any other ``mode`` raises ValueError."""
    if mode not in NEAR_MODES:
        raise ValueError(
            f"unknown near_edges mode {mode!r}; expected one of "
            f"{'/'.join(NEAR_MODES)}"
        )
    if mode in ("auto", "bucket_waves"):
        # materialize BEFORE counting: the count consumes the pipeline and
        # every mode re-reads sigs (waves W times!), so an unmaterialized
        # signature stage — the most expensive map in the flagship — would
        # execute repeatedly. dedup_clusters already passes a materialized
        # table (for which this is a guarded no-op — re-materializing
        # would copy blocks); this makes the invariant hold for direct
        # near_edges(mode='auto'/'bucket_waves') callers too.
        from ray.data.dataset import MaterializedDataset

        if not isinstance(sigs, MaterializedDataset):
            sigs = sigs.materialize()
        if mode == "auto":
            mode = _auto_near_mode(sigs, cfg, auto_broadcast_budget)
    if mode == "bucket_waves":
        if num_waves is None:
            num_waves = _auto_num_waves(sigs.count(), cfg, auto_broadcast_budget)
        if num_waves <= 1:
            mode = "bucket"
        else:
            return _near_edges_bucket_waves(
                sigs, cfg, hot, num_waves, cross_min_id=cross_min_id
            )
    if mode == "bucket":
        return _banded(
            sigs, cfg, hot, carry_kmv=True, verify=True, cross_min_id=cross_min_id
        )
    pairs = candidate_pairs_lsh(sigs, cfg, hot, cross_min_id=cross_min_id)
    sketches_ref = _sketch_broadcast_ref(sigs, cfg)
    return pairs.map_batches(
        _BroadcastVerify,
        fn_constructor_args=(sketches_ref, cfg),
        batch_format="pyarrow",
        concurrency=actor_pool(),
        batch_size=16384,
    )


def _near_edges_bucket_waves(
    sigs: "ray.data.Dataset",
    cfg: SigConfig,
    hot: dict[int, int] | None,
    num_waves: int,
    cross_min_id: int | None = None,
) -> "ray.data.Dataset":
    """Bucket mode bounded to object-store-sized shuffles: run the band
    shuffle + in-bucket verify once per band-key hash range, materializing
    each wave's (tiny) verified edge set before the next wave starts — so
    at most ONE wave's sketch-carrying all-to-all is in flight, and its
    payload is ~1/num_waves of monolithic bucket mode's.

    Correctness is layout-independent: the wave key is a pure function of
    orig_key, so every band bucket (and every hot key's salted sub-buckets
    + delegates) lives in exactly one wave, and the owner-band rule keeps
    pairs globally unique across waves. Union-find downstream is
    idempotent under the same rare duplicate sources bucket mode has
    (delegate + capped-star edges). ``sigs`` must be materialized (the
    caller guarantees it) — each wave re-reads the checkpoint map-side."""
    parts = []
    for w in range(num_waves):
        edges = _banded(
            sigs,
            cfg,
            hot,
            carry_kmv=True,
            verify=True,
            cross_min_id=cross_min_id,
            wave=(w, num_waves),
        )
        # materialize = the wave barrier: verified edges are ~24 B/pair,
        # tiny next to the band shuffle this bounds
        parts.append(edges.materialize())
    out = parts[0]
    for p in parts[1:]:
        out = out.union(p)
    return out


# ---------------------------------------------------------------------------
# substring tier (winnowing fingerprints)
# ---------------------------------------------------------------------------


def _explode_winnow(batch: pa.Table) -> pa.Table:
    """(id, winnow-blob) rows → (fp, id) posting rows, fps deduped per doc.

    Fully vectorized: zero-copy flat uint64 view of the binary column
    (stages._binary_col_flat_u64) and shingle.segment_unique's per-row
    sorted distinct set — no Python iteration per document (a winnow
    blob is a packed sequence of (fp, pos) uint64 pairs, so the flat view
    interleaves fp/pos throughout and fps sit at even word offsets)."""
    from .shingle import segment_unique
    from .stages import _binary_col_flat_u64

    ids = batch.column("id").to_numpy()
    empty = pa.table(
        {"fp": pa.array([], pa.uint64()), "id": pa.array([], pa.int64())}
    )
    if batch.num_rows == 0:
        return empty
    flat, off = _binary_col_flat_u64(batch.column("winnow"))
    base = int(off[0])
    total_pairs = int(off[-1] - base) // 2
    if total_pairs == 0:
        return empty
    fps = flat[base : int(off[-1])].reshape(-1, 2)[:, 0]
    fp_off = np.concatenate([[0], np.cumsum((off[1:] - off[:-1]) // 2)])
    uniq, uniq_off = segment_unique(fps, fp_off)
    return pa.table(
        {
            "fp": pa.array(uniq, type=pa.uint64()),
            "id": pa.array(np.repeat(ids, np.diff(uniq_off)), type=pa.int64()),
        }
    )


def _fp_block_pairs(max_bucket: int, cross_min_id: int | None = None):
    """Block fn: all id-pairs within each duplicated-fp run, vectorized by
    :func:`stages.bucket_pairs` (one (fp, id) lexsort; over-``max_bucket``
    runs become representative stars)."""
    from .stages import bucket_pairs

    def emit(block: pa.Table) -> pa.Table:
        if len(block) == 0:
            return pa.table(
                {"src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64())}
            )
        fps = block.column("fp").to_numpy()
        ids = block.column("id").to_numpy()
        order = np.lexsort((ids, fps))
        ids = ids[order]
        ra, rb, _, _ = bucket_pairs(fps[order], ids, max_bucket, cross_min_id)
        return pa.table(
            {"src": pa.array(ids[ra], pa.int64()), "dst": pa.array(ids[rb], pa.int64())}
        )

    return emit


def substring_edges(
    sigs: "ray.data.Dataset", cfg: SigConfig, cross_min_id: int | None = None
) -> "ray.data.Dataset":
    """Pairs sharing enough winnow fingerprints to imply a verbatim block of
    >= min_substring_tokens tokens."""
    fp_rows = sigs.select_columns(["id", "winnow"]).map_batches(
        _explode_winnow, batch_format="pyarrow"
    )
    pairs = grouped_blocks(
        fp_rows, "fp", _fp_block_pairs(cfg.max_bucket_size, cross_min_id)
    )
    return shared_fp_pairs(pairs, cfg)


def shared_fp_pairs(pairs: "ray.data.Dataset", cfg: SigConfig) -> "ray.data.Dataset":
    """(src, dst) fingerprint pairs → the pairs that share at least
    ``(min_substring_tokens - (winnow_k + winnow_window - 1)) //
    winnow_window`` fingerprints: count and cut in one grouped pass."""
    return grouped_blocks(pairs, "src", _shared_fp_block(cfg))


def _shared_fp_block(cfg: SigConfig):
    """Block fn of :func:`shared_fp_pairs`: count and cut the (src, dst)
    fingerprint pairs of a block grouped by ``src``."""
    t = cfg.winnow_k + cfg.winnow_window - 1
    min_shared = max(1, (cfg.min_substring_tokens - t) // cfg.winnow_window)

    def block(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table(
                {"src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64())}
            )
        _, idx, c, x, y = pair_run_bounds(
            b.column("src").to_numpy(), b.column("dst").to_numpy()
        )
        keep = idx[c >= min_shared]
        return pa.table({"src": pa.array(x[keep]), "dst": pa.array(y[keep])})

    return block


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


def dedup_clusters(
    corpus: "ray.data.Dataset",
    cfg: SigConfig = DEFAULT_CONFIG,
    *,
    with_substring: bool = True,
    with_salting: bool = True,
    cluster_method: str = "auto",
    near_mode: str = "auto",
) -> "ray.data.Dataset":
    """corpus → (id, cluster_id) assignment for every input row.

    near_mode defaults to 'auto' (see near_edges): bucket while the sketch
    table is below the 256 MiB floor, hybrid while it sits between the
    floor and the broadcast budget, bucket_waves above the budget. The
    2.5M-row knee profile showed the monolithic bucket layout's
    sketch-carrying all-to-all overflowing the object store (~40 GB
    spilled at ~150 MiB/s disk write — the knee), while the hybrid layout
    spilled ZERO bytes and ran 2.5× faster at identical output
    (BASELINE.md round-4 knee section); waves bound the same shuffle once
    the sketch table outgrows one broadcast copy."""
    sigs = corpus.map_batches(
        SignatureStage(cfg), batch_format="pyarrow"
    ).materialize()  # signature checkpoint: every tier reads this

    hot = detect_hot_band_keys(sigs, cfg) if with_salting else None

    e_exact = exact_edges(sigs)
    e_near = near_edges(sigs, cfg, hot, mode=near_mode)
    edges = e_exact.union(e_near.select_columns(["src", "dst"]))
    if with_substring:
        edges = edges.union(substring_edges(sigs, cfg))
    # no (src,dst) dedup shuffle needed: the near tier's owner-band rule
    # makes its pairs unique, and union-find is idempotent under the few
    # cross-tier duplicates
    #
    # executing all three tiers as ONE lazy union is safe here (unlike
    # containment_pairs): these tiers shuffle via sort-based
    # groupby/grouped_blocks — task pools, no long-lived aggregator ACTORS
    # — so no actor-reservation livelock; only JoinOperator plans need the
    # joins= aggregator budgeting
    edges = edges.materialize()  # edge checkpoint: tiny; avoids re-running
    # the whole DAG for the count() + clustering consumers

    assigned = cluster_edges(edges, method=cluster_method)

    return assign_clusters(sigs, assigned)


def assign_clusters(
    sigs: "ray.data.Dataset",
    assigned: "ray.data.Dataset",
    broadcast_limit: int = 50_000_000,
) -> "ray.data.Dataset":
    """Full (id, cluster_id) assignment: edge-nodes take their component
    root, everything else is a singleton (cluster_id = id).

    The assignment table is tiny relative to the corpus (only docs that
    appear in a dup edge), so it is broadcast once via ray.put and applied
    map-side — no shuffle. Falls back to a groupby-min merge when the
    assignment exceeds ``broadcast_limit`` rows."""
    # materialize once: count() + to_arrow_refs() would otherwise each
    # re-execute the (possibly lazy) clustering tail
    assigned = assigned.materialize()
    n_assigned = assigned.count()
    if n_assigned <= broadcast_limit:
        tables = [t for t in ray.get(assigned.to_arrow_refs()) if t.num_rows]
        if tables:
            cat = pa.concat_tables(tables)
            a_ids = cat.column("id").to_numpy()
            a_roots = cat.column("cluster_id").to_numpy()
            order = np.argsort(a_ids)
            a_ids, a_roots = a_ids[order], a_roots[order]
        else:
            a_ids = np.zeros(0, dtype=np.int64)
            a_roots = np.zeros(0, dtype=np.int64)
        lookup_ref = ray.put((a_ids, a_roots))

        # task-based map (no actor pool): the broadcast lookup is read
        # zero-copy from the local object store by every task — actor
        # startup would cost more than this short stage saves
        return sigs.select_columns(["id"]).map_batches(
            _assign_batch, fn_args=(lookup_ref,), batch_format="pyarrow",
        )

    defaults = sigs.select_columns(["id"]).map_batches(
        lambda b: pa.table({"id": b.column("id"), "cluster_id": b.column("id")}),
        batch_format="pyarrow",
    )
    return (
        defaults.union(assigned)
        .groupby("id")
        .min("cluster_id")
        .map_batches(
            lambda b: pa.table(
                {"id": b.column("id"), "cluster_id": b.column("min(cluster_id)")}
            ),
            batch_format="pyarrow",
        )
    )


def lookup_roots(keys: np.ndarray, roots: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``x`` with every value found in the sorted ``keys`` replaced by its
    entry in ``roots``; values not in ``keys`` are kept."""
    out = x.copy()
    if len(keys):
        pos = np.clip(np.searchsorted(keys, x), 0, len(keys) - 1)
        hit = keys[pos] == x
        out[hit] = roots[pos[hit]]
    return out


def _assign_batch(batch: pa.Table, ref) -> pa.Table:
    """Per-task assignment against the broadcast (ids, roots) lookup."""
    a_ids, a_roots = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
    ids = batch.column("id").to_numpy()
    return pa.table(
        {"id": pa.array(ids), "cluster_id": pa.array(lookup_roots(a_ids, a_roots, ids))}
    )


def signatures(
    corpus: "ray.data.Dataset", cfg: SigConfig = DEFAULT_CONFIG
) -> "ray.data.Dataset":
    return corpus.map_batches(SignatureStage(cfg), batch_format="pyarrow")


def containment_pairs(
    corpus: "ray.data.Dataset",
    cfg: SigConfig = DEFAULT_CONFIG,
    *,
    num_partitions: int | None = None,
    concurrency: int | tuple[int, int] = (1, 2),
) -> "ray.data.Dataset":
    """Verbatim-containment pairs: winnow candidates → content join →
    suffix-automaton LCS verify in an actor pool (the north_star's
    suffix-array stage). Returns (src, dst, lcs_tokens, contained) for pairs
    where the smaller doc (>= min_substring_tokens tokens) is a verbatim
    token run inside the larger.

    Resource shape: this ONE plan runs two JoinOperators concurrently, so
    each join gets HALF the aggregator budget — total aggregator actors
    must stay ≤ CPUs or the streaming executor livelocks on small sessions
    (idle aggregators + a fixed-size verify pool can reserve every slot; a
    4-CPU session with 2×4 aggregators + 2 LCS actors deadlocked
    intermittently). The verify pool is autoscaling with min 1 for the
    same reason."""
    from .suffix import LcsVerifier

    num_partitions = num_partitions or join_partitions(16, joins=2)
    sigs = corpus.map_batches(SignatureStage(cfg), batch_format="pyarrow")
    cands = nonempty_blocks(substring_edges(sigs, cfg))
    contents = corpus.select_columns(["id", "content"])
    j1 = cands.join(
        contents,
        "inner",
        num_partitions=num_partitions,
        on=("src",),
        right_on=("id",),
        right_suffix="_a",
    )
    # a join output has a block per partition, rows or not: the second
    # join needs them dropped (see nonempty_blocks)
    j1 = nonempty_blocks(j1.map_batches(
        lambda b: pa.table(
            {"src": b.column("src"), "dst": b.column("dst"),
             "content_a": b.column("content")}
        ),
        batch_format="pyarrow",
    ))
    j2 = j1.join(
        contents,
        "inner",
        num_partitions=num_partitions,
        on=("dst",),
        right_on=("id",),
        right_suffix="_b",
    )
    j2 = j2.map_batches(
        lambda b: pa.table(
            {"src": b.column("src"), "dst": b.column("dst"),
             "content_a": b.column("content_a"), "content_b": b.column("content")}
        ),
        batch_format="pyarrow",
    )
    verified = j2.map_batches(
        LcsVerifier,
        # exact_lcs=False: containment is decided by the vectorized
        # rolling-hash run search; the downstream filter drops
        # non-contained rows, so their exact-LCS diagnostic (the only
        # automaton consumer) is never observable here
        fn_constructor_kwargs={"cfg": cfg, "exact_lcs": False},
        batch_format="pyarrow",
        concurrency=concurrency,
        batch_size=512,
    )
    min_tok = cfg.min_substring_tokens
    return verified.map_batches(
        lambda b: b.filter(
            pc.and_(
                pc.equal(b.column("contained"), True),
                pc.greater_equal(b.column("lcs_tokens"), min_tok),
            )
        ),
        batch_format="pyarrow",
    )
