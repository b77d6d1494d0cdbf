"""Ray-level pipeline tests: dedup clustering recall on a planted corpus,
union-find (driver vs distributed), exact n-gram Jaccard vs brute force,
sketch aggregates through groupby, containment via the actor-pool stage."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from raydedup.config import SigConfig
from tests.reference_impls import exact_jaccard, shingle_set

CFG = SigConfig(
    kmv_k=256, winnow_k=8, winnow_window=4, min_substring_tokens=12,
    jaccard_threshold=0.7, max_bucket_size=64, salt_factor=4,
)


def _mini_corpus(n_base: int = 60, seed: int = 7) -> pa.Table:
    """Tiny planted corpus: exact dups, near dups, substring dups."""
    rng = np.random.default_rng(seed)
    vocab = [f"tok{i}" for i in range(300)]
    rows_id, rows_content = [], []
    next_id = 0

    def add(content: str) -> int:
        nonlocal next_id
        rows_id.append(next_id)
        rows_content.append(content)
        next_id += 1
        return next_id - 1

    for i in range(n_base):
        toks = [vocab[j] for j in rng.integers(0, 300, 60)]
        base_id = add(" ".join(toks))
        if i % 5 == 0:
            add(" ".join(toks))  # exact dup
        if i % 4 == 0:
            mut = list(toks)
            for j in rng.choice(60, 3, replace=False):
                mut[j] = vocab[int(rng.integers(300))]
            add(" ".join(mut))  # near dup (J ≈ 0.75+)
        if i % 7 == 0:
            other = [vocab[j] for j in rng.integers(0, 300, 40)]
            add(" ".join(other + toks[:20]))  # substring dup (20-token block)
    n = len(rows_id)
    return pa.table(
        {
            "id": pa.array(rows_id, pa.int64()),
            "repo": pa.array([f"r{i%5}" for i in rows_id]),
            "path": pa.array([f"p{i}" for i in rows_id]),
            "commit": pa.array(["c" * 40] * n),
            "lang": pa.array(["py"] * n),
            "content": pa.array(rows_content),
        }
    )


def _truth_pairs(tbl: pa.Table, threshold: float) -> set[tuple[int, int]]:
    ids = tbl.column("id").to_pylist()
    contents = tbl.column("content").to_pylist()
    shingles = [shingle_set(c.split(), CFG.shingle_k, CFG.seed) for c in contents]
    out = set()
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if contents[i] == contents[j] or exact_jaccard(shingles[i], shingles[j]) >= threshold:
                out.add((ids[i], ids[j]))
    return out


def test_dedup_clusters_recall(ray_session):
    import ray.data

    from raydedup.pipeline import dedup_clusters

    tbl = _mini_corpus()
    ds = ray.data.from_arrow(tbl)
    out = dedup_clusters(ds, CFG, with_substring=False).to_pandas()
    assert len(out) == tbl.num_rows
    lab = dict(zip(out["id"], out["cluster_id"]))
    truth = _truth_pairs(tbl, CFG.jaccard_threshold)
    assert truth, "fixture must plant dup pairs"
    hit = sum(1 for a, b in truth if lab[a] == lab[b])
    assert hit / len(truth) >= 0.95


def test_exact_tier(ray_session):
    import ray.data

    from raydedup.pipeline import exact_edges, signatures

    tbl = _mini_corpus()
    sigs = signatures(ray.data.from_arrow(tbl), CFG)
    edges = exact_edges(sigs).to_pandas()
    contents = tbl.column("content").to_pylist()
    ids = tbl.column("id").to_pylist()
    by_content: dict[str, list[int]] = {}
    for i, c in zip(ids, contents):
        by_content.setdefault(c, []).append(i)
    want = sum(len(v) - 1 for v in by_content.values() if len(v) > 1)
    assert len(edges) == want


def test_unionfind_driver_vs_distributed(ray_session):
    import ray.data

    from raydedup.unionfind import cluster_edges, unionfind_numpy

    rng = np.random.default_rng(11)
    src = rng.integers(0, 200, 150).astype(np.int64)
    dst = rng.integers(0, 200, 150).astype(np.int64)
    edges = ray.data.from_arrow(pa.table({"src": pa.array(src), "dst": pa.array(dst)}))
    d1 = cluster_edges(edges, method="collect").to_pandas().sort_values("id")
    d2 = cluster_edges(edges, method="distributed").to_pandas().sort_values("id")
    nodes, roots = unionfind_numpy(src, dst)
    want = dict(zip(nodes, roots))
    got1 = dict(zip(d1["id"], d1["cluster_id"]))
    got2 = dict(zip(d2["id"], d2["cluster_id"]))
    assert got1 == want
    assert got2 == want


def test_ngram_jaccard_matches_bruteforce(ray_session):
    import ray.data

    from raydedup.njaccard import ngram_jaccard_pairs

    tbl = _mini_corpus(n_base=30)
    pairs = ngram_jaccard_pairs(ray.data.from_arrow(tbl), CFG, threshold=0.6).to_pandas()
    got = {(r.src, r.dst): r.jaccard for r in pairs.itertuples()}
    ids = tbl.column("id").to_pylist()
    contents = tbl.column("content").to_pylist()
    sh = [shingle_set(c.split(), CFG.shingle_k, CFG.seed) for c in contents]
    want = {}
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            jac = exact_jaccard(sh[i], sh[j])
            if jac >= 0.6:
                want[(ids[i], ids[j])] = jac
    assert set(got) == set(want)
    for k in want:
        assert got[k] == pytest.approx(want[k], abs=1e-12)


def test_ngram_containment_matches_bruteforce(ray_session):
    import ray.data

    from raydedup.njaccard import ngram_containment_pairs

    tbl = _mini_corpus(n_base=30)
    pairs = ngram_containment_pairs(
        ray.data.from_arrow(tbl), CFG, threshold=0.5
    ).to_pandas()
    got = {(r.src, r.dst): (r.cont_src, r.cont_dst) for r in pairs.itertuples()}
    ids = tbl.column("id").to_pylist()
    contents = tbl.column("content").to_pylist()
    sh = [shingle_set(c.split(), CFG.shingle_k, CFG.seed) for c in contents]
    want = {}
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if not sh[i] or not sh[j]:
                continue
            inter = len(sh[i] & sh[j])
            ca, cb = inter / len(sh[i]), inter / len(sh[j])
            if max(ca, cb) >= 0.5:
                want[(ids[i], ids[j])] = (ca, cb)
    assert set(got) == set(want)
    for k in want:
        assert got[k][0] == pytest.approx(want[k][0], abs=1e-12)
        assert got[k][1] == pytest.approx(want[k][1], abs=1e-12)


def test_containment_catches_subset_jaccard_misses(ray_session):
    """The operator's reason to exist: a small doc fully pasted into a much
    larger one has tiny Jaccard but containment 1.0."""
    import pyarrow as pa
    import ray.data

    from raydedup.njaccard import ngram_containment_pairs, ngram_jaccard_pairs

    small = " ".join(f"tok{i}" for i in range(30))
    big = small + " " + " ".join(f"filler{i}" for i in range(600))
    tbl = pa.table(
        {
            "id": pa.array([1, 2], pa.int64()),
            "content": pa.array([small, big]),
        }
    )
    cont = ngram_containment_pairs(
        ray.data.from_arrow(tbl), CFG, threshold=0.9
    ).to_pandas()
    assert len(cont) == 1
    row = cont.iloc[0]
    assert (row["src"], row["dst"]) == (1, 2)
    assert row["cont_src"] == pytest.approx(1.0)
    assert row["cont_dst"] < 0.2
    jac = ngram_jaccard_pairs(
        ray.data.from_arrow(tbl), CFG, threshold=0.5
    ).to_pandas()
    assert len(jac) == 0  # Jaccard misses exactly this pair


def test_containment_actor_stage(ray_session):
    import ray.data

    from raydedup.pipeline import containment_pairs

    tbl = _mini_corpus(n_base=30)
    out = containment_pairs(
        ray.data.from_arrow(tbl), CFG, num_partitions=2, concurrency=1
    ).to_pandas()
    # brute-force truth: token-run containment with >= min tokens
    ids = tbl.column("id").to_pylist()
    toks = [c.split() for c in tbl.column("content").to_pylist()]
    want = set()
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            small, big = (toks[i], toks[j]) if len(toks[i]) <= len(toks[j]) else (toks[j], toks[i])
            if len(small) >= CFG.min_substring_tokens:
                s = " " + " ".join(small) + " "
                b = " " + " ".join(big) + " "
                if s in b:
                    want.add((ids[i], ids[j]))
    got = set(zip(out["src"], out["dst"]))
    assert got == want


@pytest.mark.parametrize("base", [0, 3])
def test_containment_survives_an_empty_first_join_block(ray_session, base):
    """One contained pair over two join partitions: the first join's
    output has a 0-row block (first for these ids), which must not reach
    the second join — Ray skips the schema broadcast for an empty first
    block and the partitions without rows then fail the join."""
    import ray.data

    from raydedup.pipeline import containment_pairs

    big = " ".join(f"tok{i}" for i in range(40))
    small = " ".join(f"tok{i}" for i in range(10, 30))
    tbl = pa.table({
        "id": pa.array([base, base + 1, base + 2], pa.int64()),
        "content": [small, big, "unrelated words here only"],
    })
    out = containment_pairs(
        ray.data.from_arrow(tbl), CFG, num_partitions=2, concurrency=1
    ).to_pandas()
    assert list(zip(out["src"], out["dst"])) == [(base, base + 1)]


def test_theta_aggregate_groupby(ray_session):
    import ray.data

    from raydedup.aggregates import theta_distinct

    rng = np.random.default_rng(3)
    n = 20_000
    tbl = pa.table(
        {
            "g": pa.array(rng.integers(0, 3, n).astype(np.int64)),
            "v": pa.array(rng.integers(0, 5000, n).astype(np.int64)),
        }
    )
    ds = ray.data.from_arrow(tbl)
    out = ds.groupby("g").aggregate(theta_distinct("v", k=8192, name="d")).to_pandas()
    import pandas as pd

    pdf = tbl.to_pandas()
    want = pdf.groupby("g")["v"].nunique()
    for _, row in out.iterrows():
        assert row["d"] == want[row["g"]]  # exact mode


def test_sampling_aggregates(ray_session):
    import pickle

    import ray.data

    from raydedup.aggregates import reservoir_sample, weighted_sample

    rng = np.random.default_rng(6)
    n = 30_000
    keys = np.arange(n, dtype=np.int64)
    weights = rng.exponential(1.0, n)
    ds = ray.data.from_arrow(
        pa.table({"k": pa.array(keys), "w": pa.array(weights)})
    )
    res = ds.aggregate(reservoir_sample("k", k=50, name="r"))
    assert res["r"]["n"] == n  # true stream count survives finalize
    samples = res["r"]["samples"]
    assert len(samples) == 50
    assert all(0 <= s < n for s in samples)

    res2 = ds.aggregate(weighted_sample("k", "w", k=512, name="ws"))
    sk = pickle.loads(res2["ws"])
    assert sk.total_count == n
    true_even = weights[keys % 2 == 0].sum()
    est = sk.estimate_subset_sum(lambda kk: kk % 2 == 0)
    assert abs(est.estimate - true_even) / true_even < 0.25
    assert est.total_sketch_weight == pytest.approx(weights.sum())


def test_hll_and_kll_aggregates(ray_session):
    import ray.data

    from raydedup.aggregates import hll_distinct, kll_quantile

    rng = np.random.default_rng(4)
    vals = rng.integers(0, 100_000, 50_000).astype(np.int64)
    ds = ray.data.from_arrow(pa.table({"v": pa.array(vals)}))
    res = ds.aggregate(hll_distinct("v", lg_k=12, name="h"))
    true_d = len(np.unique(vals))
    assert abs(res["h"] - true_d) / true_d < 0.05
    res2 = ds.aggregate(kll_quantile("v", [0.5], k=200, name="q"))
    s = np.sort(vals.astype(np.float64))
    med = res2["q"][0]
    true_rank = np.searchsorted(s, med, side="right") / len(s)
    assert abs(true_rank - 0.5) < 0.03


def test_unionfind_distributed_large_graph(ray_session):
    """Block-vectorized distributed rounds on a larger structured graph:
    long chains (worst case for hash-to-min round count) + big stars +
    random clutter must match exact driver union-find."""
    import time

    import ray.data

    from raydedup.unionfind import cluster_edges, unionfind_numpy

    rng = np.random.default_rng(12)
    parts = []
    base = 0
    # 300 chains of length 40 (diameter stress)
    for c in range(300):
        ids = base + np.arange(40, dtype=np.int64)
        parts.append(np.stack([ids[:-1], ids[1:]], axis=1))
        base += 40
    # 20 stars of 500 members
    for c in range(20):
        hub = base
        members = base + 1 + np.arange(499, dtype=np.int64)
        parts.append(np.stack([np.full(499, hub, dtype=np.int64), members], axis=1))
        base += 500
    # random edges within a 5k-node block
    r = rng.integers(base, base + 5000, size=(20_000, 2)).astype(np.int64)
    parts.append(r)
    e = np.concatenate(parts)
    edges = ray.data.from_arrow(
        pa.table({"src": pa.array(e[:, 0]), "dst": pa.array(e[:, 1])})
    )
    t0 = time.time()
    got = cluster_edges(edges, method="distributed").to_pandas()
    elapsed = time.time() - t0
    nodes, roots = unionfind_numpy(e[:, 0], e[:, 1])
    want = dict(zip(nodes, roots))
    gotmap = dict(zip(got["id"], got["cluster_id"]))
    assert gotmap == want
    assert len(got) == len(got["id"].unique())
    assert elapsed < 120, elapsed


def test_unionfind_distributed_raises_without_fixed_point(ray_session):
    """A random-order chain of 5,000 nodes needs more hash-to-min rounds
    than ``max_rounds``: the distributed path raises, naming the round
    count, instead of returning the chain split into several clusters."""
    import ray.data

    from raydedup.config import SketchesStateError
    from raydedup.unionfind import cluster_edges

    ids = np.random.default_rng(5).permutation(5000).astype(np.int64)
    edges = ray.data.from_arrow(
        pa.table({"src": pa.array(ids[:-1]), "dst": pa.array(ids[1:])})
    )
    with pytest.raises(SketchesStateError, match="12 rounds"):
        cluster_edges(edges, method="distributed").materialize()


def test_sampled_hot_key_detection(ray_session):
    """A planted hot band key (>> max_bucket_size occurrences) must be
    detected by the SAMPLED heavy-hitter pass with a sane salt count."""
    import ray.data

    from raydedup.pipeline import detect_hot_band_keys, signatures

    shared = "the quick brown fox jumps over the lazy dog " * 6  # 54 tokens
    rng = np.random.default_rng(3)
    rows = []
    for i in range(3000):
        if i < 600:
            # identical docs: all 16 band keys hot with exact count 600
            rows.append(shared)
        else:
            rows.append(" ".join(f"tok{rng.integers(0, 50000)}" for _ in range(40)))
    tbl = pa.table(
        {"id": pa.array(np.arange(3000, dtype=np.int64)), "content": pa.array(rows)}
    )
    sigs = signatures(ray.data.from_arrow(tbl), CFG).materialize()
    hot_full = detect_hot_band_keys(sigs, CFG, sample=1.0)
    hot_sampled = detect_hot_band_keys(sigs, CFG, sample=0.25)
    assert hot_full, "full pass found no hot keys - fixture broken"
    # sampled pass finds the same dominant keys (allow borderline misses)
    dominant = {k for k, v in hot_full.items() if v >= 3}
    found = set(hot_sampled)
    assert dominant and dominant <= found, (len(dominant), len(found))
    for k in dominant:
        assert hot_sampled[k] >= 2


def test_near_modes_agree(ray_session):
    """bucket / hybrid / auto / bucket_waves near-tier modes produce the
    same verified edge set (same verification semantics, different
    layouts)."""
    import ray.data

    from raydedup.corpus import corpus_parquet_path
    from raydedup.pipeline import near_edges, signatures

    ds = ray.data.read_parquet(corpus_parquet_path("/root/testdata/sf0.001"))
    sigs = signatures(ds, CFG).materialize()
    sets = {}
    for mode in ("bucket", "hybrid", "auto"):
        out = near_edges(sigs, CFG, mode=mode).to_pandas()
        sets[mode] = set(zip(out["src"], out["dst"]))
    # wave-sharded bucket: identical edges regardless of wave count
    for w in (2, 5):
        out = near_edges(sigs, CFG, mode="bucket_waves", num_waves=w).to_pandas()
        sets[f"bucket_waves_{w}"] = set(zip(out["src"], out["dst"]))
    assert (
        sets["bucket"] == sets["hybrid"] == sets["auto"]
        == sets["bucket_waves_2"] == sets["bucket_waves_5"]
    )
    assert len(sets["bucket"]) > 50
    # auto resolves by the [floor, budget] window: a table too small to
    # amortize hybrid's fixed broadcast cost -> bucket, in-window ->
    # hybrid, above-budget -> wave-sharded bucket (bounded shuffles)
    from raydedup.pipeline import _auto_near_mode, _auto_num_waves

    assert _auto_near_mode(sigs, CFG) == "bucket"  # tiny: below the floor
    assert _auto_near_mode(sigs, CFG, floor=0) == "hybrid"
    assert _auto_near_mode(sigs, CFG, budget=1, floor=0) == "bucket_waves"
    # wave count scales with the bucket-shuffle estimate / budget
    assert _auto_num_waves(10, CFG, budget=1 << 40) == 1
    n1 = _auto_num_waves(1_000_000, CFG, budget=1 << 30)
    n2 = _auto_num_waves(4_000_000, CFG, budget=1 << 30)
    assert 1 < n1 < n2 <= 256


def test_decontaminate_pairs_matches_bruteforce(ray_session):
    """Bipartite shingle-overlap vs brute force: split the mini corpus into
    train (id % 3 != 0) and eval (id % 3 == 0); every cross-side pair's
    shared-distinct-shingle count must match, at min_overlap 1 and 5."""
    import ray.data

    from raydedup.njaccard import decontaminate_pairs

    tbl = _mini_corpus(n_base=30)
    ids = tbl.column("id").to_pylist()
    contents = tbl.column("content").to_pylist()
    sh = {
        i: shingle_set(c.split(), CFG.shingle_k, CFG.seed)
        for i, c in zip(ids, contents)
    }
    train_ids = [i for i in ids if i % 3 != 0]
    eval_ids = [i for i in ids if i % 3 == 0]
    want = {}
    for t in train_ids:
        for e in eval_ids:
            c = len(sh[t] & sh[e])
            if c:
                want[(t, e)] = c

    def side(keep):
        mask = pa.array([keep(i) for i in ids])
        return ray.data.from_arrow(tbl.filter(mask))

    for min_overlap in (1, 5):
        got_df = decontaminate_pairs(
            side(lambda i: i % 3 != 0),
            side(lambda i: i % 3 == 0),
            CFG,
            min_overlap=min_overlap,
        ).to_pandas()
        got = {
            (r.train_id, r.eval_id): r.n_shared for r in got_df.itertuples()
        }
        assert got == {k: v for k, v in want.items() if v >= min_overlap}


def test_decontaminate_pairs_max_posting_drops_boilerplate(ray_session):
    """A 20-doc shared header is a hot shingle run; max_posting below 20
    must drop those shingles' pairs while body overlaps survive."""
    import ray.data

    from raydedup.njaccard import decontaminate_pairs

    header = " ".join(f"lic{i}" for i in range(CFG.shingle_k + 3))
    rows = []
    for i in range(20):
        body = " ".join(f"w{i}_{j}" for j in range(12))
        rows.append((i, f"{header} {body}"))
    # one genuine cross pair: doc 20 (train) shares doc 3's body (eval side)
    rows.append((20, rows[3][1]))
    tbl = pa.table(
        {
            "id": pa.array([r[0] for r in rows], pa.int64()),
            "content": pa.array([r[1] for r in rows]),
        }
    )

    def side(keep):
        mask = pa.array([keep(r[0]) for r in rows])
        return ray.data.from_arrow(tbl.filter(mask))

    train = side(lambda i: i % 2 == 0)  # includes 20
    ev = side(lambda i: i % 2 == 1)  # includes 3
    capped = decontaminate_pairs(
        train, ev, CFG, min_overlap=1, max_posting=10
    ).to_pandas()
    # header shingles (21 docs) dropped; only the full-body dup pair remains
    assert set(zip(capped.train_id, capped.eval_id)) == {(20, 3)}
    uncapped = decontaminate_pairs(train, ev, CFG, min_overlap=1).to_pandas()
    assert len(uncapped) == 10 * 11  # every cross pair shares the header


def test_drop_contaminated_broadcast_and_antijoin(ray_session):
    """Both execution paths (broadcast membership filter and the
    left-outer anti-join fallback) must drop exactly the flagged train ids
    and keep every column of the survivors."""
    import ray.data

    from raydedup.njaccard import drop_contaminated

    train = ray.data.from_arrow(
        pa.table(
            {
                "id": pa.array([1, 2, 3, 4, 5], pa.int64()),
                "content": pa.array([f"doc {i}" for i in range(5)]),
            }
        )
    )
    pairs = ray.data.from_arrow(
        pa.table(
            {
                "train_id": pa.array([2, 2, 5], pa.int64()),
                "eval_id": pa.array([10, 20, 10], pa.int64()),
                "n_shared": pa.array([3, 4, 7], pa.int64()),
            }
        )
    )
    for limit in (50_000_000, 0):  # broadcast path, then anti-join path
        out = (
            drop_contaminated(train, pairs, broadcast_limit=limit)
            .to_pandas()
            .sort_values("id")
            .reset_index(drop=True)
        )
        assert list(out["id"]) == [1, 3, 4], limit
        assert list(out.columns) == ["id", "content"]
        assert out["content"][1] == "doc 2"  # id 3 carries its content


def test_bucket_waves_agree_with_hot_keys(ray_session):
    """Wave sharding must preserve hot-key handling: a hot band key's
    salted sub-buckets AND its delegate round live in one wave (the wave
    key hashes orig_key, not the salted sub-key), so the edge set equals
    monolithic bucket mode's connectivity even with salting active."""
    import ray.data

    from raydedup.pipeline import detect_hot_band_keys, near_edges, signatures
    from raydedup.unionfind import cluster_edges

    shared = "the quick brown fox jumps over the lazy dog " * 6
    rng = np.random.default_rng(5)
    rows = []
    for i in range(1200):
        if i < 300:
            rows.append(shared)  # one giant hot cluster -> salting fires
        else:
            rows.append(" ".join(f"tok{rng.integers(0, 50000)}" for _ in range(40)))
    tbl = pa.table(
        {"id": pa.array(np.arange(1200, dtype=np.int64)), "content": pa.array(rows)}
    )
    sigs = signatures(ray.data.from_arrow(tbl), CFG).materialize()
    hot = detect_hot_band_keys(sigs, CFG, sample=1.0)
    assert hot, "fixture must trigger salting"

    def clusters(mode, **kw):
        edges = near_edges(sigs, CFG, hot, mode=mode, **kw)
        assigned = cluster_edges(edges.select_columns(["src", "dst"])).to_pandas()
        return dict(zip(assigned["id"], assigned["cluster_id"]))

    base = clusters("bucket")
    waves = clusters("bucket_waves", num_waves=4)
    # identical connectivity (edge SETS can differ only in the rare
    # delegate/capped-star duplicate sources, which do not change clusters)
    assert base == waves
    hot_members = [i for i in range(300)]
    roots = {base.get(i) for i in hot_members if i in base}
    assert len(roots) == 1, "hot cluster split across waves"


def test_bucket_waves_elect_owner_bands_across_waves(ray_session):
    """A wave's owner-band election must see the hot keys of every wave.

    Near-duplicates that share an early hot band (in different salt
    sub-buckets) and a later cold band are owned by the cold band; when
    the hot key hashes to another wave, a wave that forgot it would elect
    the hot band, drop the pair, and the hot band's wave never builds it
    (the docs sit in different sub-buckets). Edge SETS must match."""
    import ray
    import ray.data

    from raydedup.lsh import make_band_key
    from raydedup.pipeline import near_edges, signatures
    from raydedup.stages import _binary_col_flat_u64

    rng = np.random.default_rng(21)
    base = [f"w{x}" for x in rng.integers(0, 40000, 120)]
    rows = []
    for _ in range(40):
        ws = list(base)
        ws[rng.integers(0, len(ws))] = f"e{rng.integers(0, 40000)}"
        rows.append(" ".join(ws))
    rows += [" ".join(f"u{x}" for x in rng.integers(0, 40000, 40)) for _ in range(60)]
    tbl = pa.table({"id": pa.array(np.arange(len(rows), dtype=np.int64)), "content": rows})
    sigs = signatures(ray.data.from_arrow(tbl), CFG).materialize()

    # hot: every family band key of the first half of the bands, 4 salts
    bt = pa.concat_tables(ray.get(sigs.select_columns(["id", "bandhashes"]).sort("id").to_arrow_refs()))
    flat, _ = _binary_col_flat_u64(bt.column("bandhashes"))
    bh = flat.reshape(len(bt), CFG.bands)[:40]
    keys = make_band_key(np.arange(CFG.bands, dtype=np.uint64), bh)
    hot = {int(k): 4 for k in np.unique(keys[:, : CFG.bands // 2])}

    def edge_set(mode, **kw):
        out = near_edges(sigs, CFG, hot, mode=mode, **kw).to_pandas()
        return set(zip(out["src"], out["dst"]))

    ref = edge_set("bucket")
    assert len(ref) > 100  # the family pairs up across many bands
    for w in (2, 4):
        assert edge_set("bucket_waves", num_waves=w) == ref, w


def test_bucket_waves_cross_min_id_agrees_with_bucket(ray_session):
    """The incremental tier's base×base pre-filter (cross_min_id) is
    layout-invariant: waves and hybrid emit exactly bucket's cross/delta
    edges."""
    import ray.data

    from raydedup.corpus import corpus_parquet_path
    from raydedup.pipeline import near_edges, signatures

    ds = ray.data.read_parquet(corpus_parquet_path("/root/testdata/sf0.001"))
    sigs = signatures(ds, CFG).materialize()
    boundary = int(sigs.to_pandas()["id"].median())
    ref = near_edges(sigs, CFG, mode="bucket", cross_min_id=boundary).to_pandas()
    ref_set = set(zip(ref["src"], ref["dst"]))
    assert ref_set  # fixture has cross-boundary dups
    assert all(s >= boundary or d >= boundary for s, d in ref_set)
    for w in (2, 4):
        out = near_edges(
            sigs, CFG, mode="bucket_waves", num_waves=w, cross_min_id=boundary
        ).to_pandas()
        assert set(zip(out["src"], out["dst"])) == ref_set
    out = near_edges(sigs, CFG, mode="hybrid", cross_min_id=boundary).to_pandas()
    assert set(zip(out["src"], out["dst"])) == ref_set


def test_near_edges_rejects_unknown_modes(ray_session):
    """Only auto/bucket/hybrid/bucket_waves exist: retired layouts and
    typos raise instead of silently running some other layout."""
    import ray.data

    from raydedup.pipeline import near_edges

    sigs = ray.data.from_items([{"id": 0}])
    for mode in ("join", "broadcast", "bucket-waves"):
        with pytest.raises(ValueError, match="auto/bucket/hybrid/bucket_waves"):
            near_edges(sigs, CFG, mode=mode)


def test_band_shuffle_partitions_and_edges_are_frozen(ray_session):
    """The band shuffle runs on grouped_blocks: buckets land in the same
    hash partitions as the hand-rolled ``splitmix64(band_key) % nparts``
    it replaced, the salted fixture's bucket-mode edge multiset matches
    the digest recorded before the move, and delegate-bucket edges (the
    only link between a hot key's salt sub-buckets) are still emitted."""
    import hashlib

    import ray.data

    from raydedup.hashing import splitmix64
    from raydedup.pipeline import grouped_blocks, join_partitions, near_edges
    from raydedup.stages import BandEmitStage, SignatureStage

    shared = "the quick brown fox jumps over the lazy dog " * 6
    rng = np.random.default_rng(5)
    rows = [
        shared if i < 300
        else " ".join(f"tok{rng.integers(0, 50000)}" for _ in range(40))
        for i in range(1200)
    ]
    tbl = pa.table(
        {"id": pa.array(np.arange(1200, dtype=np.int64)), "content": pa.array(rows)}
    )
    sig_tbl = SignatureStage(CFG)(tbl)
    band = BandEmitStage(CFG, None)(sig_tbl)
    # exact (not sketched) hot keys with a fixed salt count, so the frozen
    # digest does not hinge on heavy-hitter merge order
    keys, counts = np.unique(band.column("band_key").to_numpy(), return_counts=True)
    n_salt = 10
    hot = {int(k): n_salt for k in keys[counts > CFG.max_bucket_size]}
    assert len(hot) == CFG.bands  # the 300 copies collide in every band

    # partition ids: one grouped_blocks group per old-formula partition
    nparts = 2 * join_partitions(64)
    old_part = {
        int(k): int(p)
        for k, p in zip(keys, splitmix64(keys) % np.uint64(nparts))
    }

    def tag(block: pa.Table) -> pa.Table:
        k = block.column("band_key").to_numpy()
        return pa.table({"band_key": k, "group": np.full(len(k), k.min())})

    got = grouped_blocks(
        ray.data.from_arrow(band), "band_key", tag, nparts=nparts
    ).to_pandas()
    groups = got.groupby("group")["band_key"].apply(lambda c: {int(x) for x in c})
    want: dict[int, set[int]] = {}
    for k, p in old_part.items():
        want.setdefault(p, set()).add(k)
    assert sorted(map(sorted, groups)) == sorted(map(sorted, want.values()))

    sigs = ray.data.from_arrow(sig_tbl).materialize()
    e = near_edges(sigs, CFG, hot, mode="bucket").to_pandas()
    pairs = sorted(set(zip(e["src"].tolist(), e["dst"].tolist())))
    digest = hashlib.sha256(np.array(pairs, dtype=np.int64).tobytes()).hexdigest()
    assert (len(e), len(pairs)) == (5222, 4547)
    assert digest == (
        "7b032d0e8bf60b31deb15963ccf251bca31455ff0f21360638d3eb221a68fba2"
    )

    # delegates: the min id of each salt sub-bucket pairs with every other
    # sub-bucket's min id — pairs no ordinary bucket holds, since a doc's
    # salt slot is the same in every band
    salt = splitmix64(np.arange(300, dtype=np.uint64)) % np.uint64(n_salt)
    mins = sorted(int(np.flatnonzero(salt == s).min()) for s in np.unique(salt))
    assert len(mins) == n_salt
    delegate_pairs = {(a, b) for i, a in enumerate(mins) for b in mins[i + 1:]}
    assert delegate_pairs <= set(pairs)


@pytest.mark.parametrize("cpus", [1, None])
def test_part_groups_call_fn_once_per_whole_partition(ray_session, monkeypatch, cpus):
    """part_groups hands fn every non-empty partition whole, once, both on
    sorted ranges and on one CPU's single gathered range, and every block
    it yields carries fn's columns (empty ranges included)."""
    import pyarrow.compute as pc
    import ray
    import ray.data

    from raydedup import pipeline

    if cpus is not None:
        monkeypatch.setattr(pipeline, "join_partitions", lambda *a, **k: cpus)
    k = np.arange(300) % 13
    tbl = pa.table({"k": pa.array(k), "v": pa.array(np.arange(300) * 7)})
    ds = ray.data.from_arrow(tbl).repartition(5)

    def fn(block: pa.Table, p: int) -> pa.Table:
        # one summary row per non-empty partition, none for an empty range
        row = [(p, block.num_rows, pc.sum(block.column("v")).as_py())] * bool(len(block))
        return pa.table(
            {c: pa.array([r[i] for r in row], pa.int64()) for i, c in enumerate("pnv")}
        )

    out = pipeline.part_groups(ds, fn, 16, lambda b: b.column("k").to_numpy() % 16)
    blocks = ray.get(out.to_arrow_refs())
    for b in blocks:
        assert b.column_names == ["p", "n", "v"], b.schema
    got = sorted(zip(*(pa.concat_tables(blocks).column(c).to_pylist() for c in "pnv")))
    want = sorted(
        (int(p), int((k == p).sum()), int((np.arange(300) * 7)[k == p].sum()))
        for p in np.unique(k)
    )
    assert got == want


def test_verify_margin_widens_the_edge_set_consistently(ray_session):
    """verify_margin=0 is bit-identical to the historical behavior (the
    mode-agreement tests above run at the default); a positive margin
    keeps a SUPERSET of edges, every extra edge's estimate lies inside
    the [threshold - margin, threshold) band, and all near modes still
    agree at the widened cut."""
    import dataclasses

    import ray.data

    from raydedup.corpus import corpus_parquet_path
    from raydedup.pipeline import near_edges, signatures

    ds = ray.data.read_parquet(corpus_parquet_path("/root/testdata/sf0.001"))
    sigs = signatures(ds, CFG).materialize()
    base = near_edges(sigs, CFG, mode="bucket").to_pandas()
    base_set = set(zip(base["src"], base["dst"]))

    wide_cfg = dataclasses.replace(CFG, verify_margin=0.1)
    assert wide_cfg.verify_threshold == CFG.jaccard_threshold - 0.1
    wide = {}
    for mode in ("bucket", "hybrid", "bucket_waves"):
        kw = {"num_waves": 3} if mode == "bucket_waves" else {}
        out = near_edges(sigs, wide_cfg, mode=mode, **kw).to_pandas()
        wide[mode] = set(zip(out["src"], out["dst"]))
        est = dict(zip(zip(out["src"], out["dst"]), out["jaccard"])) if "jaccard" in out else None
        if est is not None:
            for pair in wide[mode] - base_set:
                assert wide_cfg.verify_threshold <= est[pair] < CFG.jaccard_threshold
    assert wide["bucket"] == wide["hybrid"] == wide["bucket_waves"]
    assert wide["bucket"] >= base_set
    assert len(wide["bucket"]) > len(base_set)  # fixture has band pairs


def test_tier_edge_blocks_all_carry_the_tier_schema(ray_session):
    """Every block the exact, near and substring tiers emit carries the
    tier's columns — none is the column-less empty block Ray's sort returns
    for an empty range (with more input blocks than partitions, some range
    is always empty)."""
    import ray
    import ray.data

    from raydedup.pipeline import exact_edges, near_edges, signatures, substring_edges

    tbl = _mini_corpus()
    sigs = signatures(ray.data.from_arrow(tbl).repartition(24), CFG).materialize()
    want = {
        "exact": ["src", "dst"],
        "near": ["src", "dst", "jaccard"],
        "substring": ["src", "dst"],
    }
    tiers = {
        "exact": exact_edges(sigs),
        "near": near_edges(sigs, CFG, mode="bucket"),
        "substring": substring_edges(sigs, CFG),
    }
    for name, ds in tiers.items():
        blocks = ray.get(ds.to_arrow_refs())
        assert sum(b.num_rows for b in blocks) > 0, name
        for b in blocks:
            assert b.column_names == want[name], (name, b.num_rows, b.schema)
            assert all(pa.types.is_int64(b.schema.field(c).type) for c in ("src", "dst"))
