"""Incremental (cross-corpus) dedup: the delta is deduped against the base
signature index without re-verifying base×base pairs, and the result must
EXACTLY reproduce a full-corpus re-run:

* every delta doc's cluster_id equals the full run's (cluster roots are
  min member ids, and base ids precede delta ids, so ids match literally),
* the merges table rewrites base assignments to the full run's clusters.
"""

import numpy as np
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def corpus_split(ray_session):
    import __ray_entry__ as e

    sf = "/root/testdata/sf0.001"
    base, delta, cut = e._incr_split(sf)
    return e._corpus_ds(sf), base, delta, cut, e._cfg()


def test_incremental_matches_full_rerun(corpus_split):
    from raydedup.incremental import incremental_dedup
    from raydedup.pipeline import dedup_clusters, signatures

    ds, base, delta, cut, cfg = corpus_split
    full = dedup_clusters(ds, cfg, with_salting=False).to_pandas()
    fmap = dict(zip(full["id"], full["cluster_id"]))

    base_sigs = signatures(base, cfg).materialize()
    base_assign = dedup_clusters(base, cfg, with_salting=False).materialize()
    out = incremental_dedup(base_sigs, base_assign, delta, cfg, with_salting=False)

    incr = out["assignments"].to_pandas()
    assert len(incr) == delta.count()  # one row per delta doc
    imap = dict(zip(incr["id"], incr["cluster_id"]))
    assert all(imap[i] == fmap[i] for i in imap)

    # base side: base_assign with merges applied == full restricted to base
    merges = out["merges"].to_pandas()
    mm = dict(zip(merges["old_cluster"], merges["new_cluster"]))
    bdf = base_assign.to_pandas()
    assert all(
        mm.get(c, c) == fmap[i] for i, c in zip(bdf["id"], bdf["cluster_id"])
    )
    # delta docs bridge base clusters in this corpus: merges must be real
    assert len(merges) > 0


def test_indexed_incremental_matches_full_rerun(corpus_split, tmp_path):
    """The persisted-index path (delta-only shuffle, base partitions
    streamed map-side) must give the same assignments as a full re-run."""
    from raydedup.incremental import incremental_dedup_indexed, write_dedup_index
    from raydedup.pipeline import dedup_clusters, signatures

    ds, base, delta, cut, cfg = corpus_split
    base_sigs = signatures(base, cfg).materialize()
    base_assign = dedup_clusters(base, cfg, with_salting=False).materialize()

    idx = str(tmp_path / "idx")
    meta = write_dedup_index(base_sigs, idx, cfg)
    assert meta["base_max_id"] < cut
    assert meta["sha_rows"] == base.count()
    # idempotent rebuild: existing parts are kept, same meta comes back
    meta2 = write_dedup_index(base_sigs, idx, cfg)
    assert meta2 == meta

    out = incremental_dedup_indexed(idx, base_assign, delta, cfg)
    incr = out["assignments"].to_pandas()
    full = dedup_clusters(ds, cfg, with_salting=False).to_pandas()
    fmap = dict(zip(full["id"], full["cluster_id"]))
    imap = dict(zip(incr["id"], incr["cluster_id"]))
    assert len(incr) == delta.count()
    assert all(imap[i] == fmap[i] for i in imap)

    merges = out["merges"].to_pandas()
    mm = dict(zip(merges["old_cluster"], merges["new_cluster"]))
    bdf = base_assign.to_pandas()
    assert all(mm.get(c, c) == fmap[i] for i, c in zip(bdf["id"], bdf["cluster_id"]))


def test_indexed_incremental_rejects_config_mismatch(corpus_split, tmp_path):
    from raydedup.config import SigConfig, SketchesArgumentError
    from raydedup.incremental import incremental_dedup_indexed, write_dedup_index
    from raydedup.pipeline import signatures

    _, base, delta, _, cfg = corpus_split
    base_sigs = signatures(base, cfg).materialize()
    idx = str(tmp_path / "idx2")
    write_dedup_index(base_sigs, idx, cfg)
    other = SigConfig(seed=cfg.seed + 1)
    import ray.data

    fake_assign = ray.data.from_arrow(
        pa.table({"id": pa.array([], pa.int64()), "cluster_id": pa.array([], pa.int64())})
    )
    with pytest.raises(SketchesArgumentError):
        incremental_dedup_indexed(idx, fake_assign, delta, other)


def test_incremental_rejects_id_overlap(corpus_split):
    from raydedup.incremental import incremental_dedup
    from raydedup.pipeline import signatures

    ds, base, _, _, cfg = corpus_split
    base_sigs = signatures(base, cfg).materialize()
    import ray.data

    fake_assign = ray.data.from_arrow(
        pa.table({"id": pa.array([0], pa.int64()), "cluster_id": pa.array([0], pa.int64())})
    )
    with pytest.raises(ValueError, match="append-only"):
        # delta = base violates the append-only id contract
        incremental_dedup(base_sigs, fake_assign, base, cfg)


def _fake_assign():
    import ray.data

    zero = pa.array([0], pa.int64())
    return ray.data.from_arrow(pa.table({"id": zero, "cluster_id": zero}))


@pytest.fixture(scope="module")
def indexed(corpus_split, tmp_path_factory):
    """A dedup index over the base split, the base assignment and the
    default probe's (assignments, merges) for the delta split."""
    from raydedup.incremental import incremental_dedup_indexed, write_dedup_index
    from raydedup.pipeline import dedup_clusters, signatures

    _, base, delta, _, cfg = corpus_split
    base_sigs = signatures(base, cfg).materialize()
    base_assign = dedup_clusters(base, cfg, with_salting=False).materialize()
    idx = str(tmp_path_factory.mktemp("indexed") / "idx")
    write_dedup_index(base_sigs, idx, cfg)
    out = _tables(incremental_dedup_indexed(idx, base_assign, delta, cfg))
    return idx, base_assign, out


def _tables(res):
    import ray

    def arrow(ds, cols):
        tables = [t.select(cols) for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
        if not tables:
            return pa.table({c: pa.array([], pa.int64()) for c in cols})
        return pa.concat_tables(tables).sort_by(cols[0])

    return (
        arrow(res["assignments"], ["id", "cluster_id"]),
        arrow(res["merges"], ["old_cluster", "new_cluster"]),
    )


def test_indexed_incremental_rejects_id_overlap(corpus_split, indexed):
    from raydedup.incremental import incremental_dedup_indexed

    _, base, _, _, cfg = corpus_split
    idx = indexed[0]
    with pytest.raises(ValueError, match="append-only"):
        # delta = base violates the append-only id contract
        incremental_dedup_indexed(idx, _fake_assign(), base, cfg)


def test_indexed_incremental_refuses_unfinished_index(corpus_split, tmp_path):
    """meta.json is written before any part file; until the build records
    its row counts, a probe must refuse the index instead of reading the
    missing parts as empty."""
    import json
    import os

    from raydedup.config import SketchesStateError
    from raydedup.incremental import incremental_dedup_indexed, write_dedup_index
    from raydedup.pipeline import signatures

    _, base, delta, _, cfg = corpus_split
    base_sigs = signatures(base, cfg).materialize()
    idx = str(tmp_path / "idx")
    meta = write_dedup_index(base_sigs, idx, cfg)
    finished = _tables(incremental_dedup_indexed(idx, _fake_assign(), delta, cfg))

    pre_build = {k: meta[k] for k in ("nparts", "base_max_id", "cfg_fingerprint")}
    with open(os.path.join(idx, "meta.json"), "w") as f:
        json.dump(pre_build, f)
    with pytest.raises(SketchesStateError, match=idx):
        incremental_dedup_indexed(idx, _fake_assign(), delta, cfg)

    # a rebuild keeps the existing parts and completes the meta
    assert write_dedup_index(base_sigs, idx, cfg) == meta
    rebuilt = _tables(incremental_dedup_indexed(idx, _fake_assign(), delta, cfg))
    assert rebuilt[0].equals(finished[0]) and rebuilt[1].equals(finished[1])


def test_indexed_distributed_tail_matches_driver_tail(corpus_split, indexed):
    from raydedup.incremental import incremental_dedup_indexed

    _, _, delta, _, cfg = corpus_split
    idx, base_assign, default = indexed
    dist = _tables(
        incremental_dedup_indexed(
            idx, base_assign, delta, cfg, cluster_method="distributed"
        )
    )
    assert default[1].num_rows > 0  # the delta bridges base clusters
    assert dist[0].equals(default[0])
    assert dist[1].equals(default[1])


def test_indexed_one_range_probe_matches_multi_range(
    corpus_split, indexed, monkeypatch
):
    """At one CPU part_groups gathers every part into one range without
    a sort shuffle; the probe must give the multi-range result."""
    import raydedup.pipeline as pipeline
    from raydedup.incremental import incremental_dedup_indexed

    _, _, delta, _, cfg = corpus_split
    idx, base_assign, default = indexed
    runs = []
    for cpus in (4, 1):  # the ray_session fixture's 4 CPUs, then one range
        monkeypatch.setattr(pipeline, "join_partitions", lambda *a, **k: cpus)
        runs.append(_tables(incremental_dedup_indexed(idx, base_assign, delta, cfg)))
    for got in runs:
        assert got[0].equals(default[0])
        assert got[1].equals(default[1])


def test_probe_key_filter_keeps_capped_base_bucket(ray_session, tmp_path):
    """A base bucket over max_bucket_size with one delta member: the probe,
    which reads only the base rows whose key the delta carries, emits the
    same capped star as the emitters over the whole base part."""
    import os

    import pyarrow.parquet as pq
    import ray.data

    from raydedup.config import SigConfig
    from raydedup.incremental import (
        _FAMILIES,
        _probe_emitters,
        _probe_part,
        _probe_rows,
        incremental_dedup_indexed,
        write_dedup_index,
    )
    from raydedup.pipeline import dedup_clusters, signatures
    from raydedup.stages import SignatureStage

    cfg = SigConfig(max_bucket_size=4)
    hot = "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu " * 6
    filler = [
        f"unrelated document {i} " + " ".join(f"w{i}x{j}" for j in range(60))
        for i in range(12)
    ]
    fresh = "fresh delta text " + " ".join(f"d{j}" for j in range(60))
    base = pa.table(
        {"id": pa.array(range(19), pa.int64()), "content": [hot] * 7 + filler}
    )
    delta = pa.table({"id": pa.array([100, 101], pa.int64()), "content": [hot, fresh]})
    base_sigs = signatures(ray.data.from_arrow(base), cfg).materialize()
    idx = str(tmp_path / "idx")
    nparts = write_dedup_index(base_sigs, idx, cfg, nparts=3)["nparts"]

    emitters = _probe_emitters(cfg, 19)
    probe = _probe_part(idx, emitters)
    tagged = _probe_rows(cfg, nparts, True)(SignatureStage(cfg)(delta))
    part = tagged.column("part").to_numpy()
    got, want, n_base = [], [], 0
    for p in range(nparts):
        body = tagged.filter(pa.array(part == p)).drop_columns(["part"])
        got += probe(body, p).to_pylist()
        fam = body.column("fam").to_numpy()
        for k, ((sub, _), emit) in enumerate(zip(_FAMILIES, emitters)):
            rows = body.filter(pa.array(fam == k))
            path = os.path.join(idx, sub, f"part-{p:05d}.parquet")
            if rows.num_rows and os.path.exists(path):
                whole = pq.read_table(path)  # no key filter
                n_base += whole.num_rows
                rows = pa.concat_tables([whole, rows.select(whole.column_names)])
            want += [
                dict(r, fp_pair=sub == "fp")
                for r in emit(rows).select(["src", "dst"]).to_pylist()
            ]
    key = lambda r: (r["src"], r["dst"], r["fp_pair"])  # noqa: E731
    assert n_base > 0
    assert sorted(got, key=key) == sorted(want, key=key)
    # 8 copies > max_bucket_size: every tier's bucket is a star on the min
    # base id, so the only cross pair is (0, 100); uncapped buckets would
    # also pair ids 1-6 with 100
    assert {(r["src"], r["dst"]) for r in got} == {(0, 100)}

    base_assign = dedup_clusters(ray.data.from_arrow(base), cfg, with_salting=False)
    delta_ds = ray.data.from_arrow(delta)
    out = _tables(incremental_dedup_indexed(idx, base_assign, delta_ds, cfg))
    assert out[0].to_pylist() == [
        {"id": 100, "cluster_id": 0},
        {"id": 101, "cluster_id": 101},
    ]


def test_cross_min_id_filters_base_pairs_pre_verify():
    """make_block_pair_emitter(cross_min_id=B) must drop base×base pairs
    and keep cross/delta pairs, without touching jaccard semantics."""
    from raydedup.config import SigConfig
    from raydedup.stages import BandEmitStage, SignatureStage, make_block_pair_emitter

    cfg = SigConfig()
    text = "alpha beta gamma delta epsilon zeta eta theta iota kappa " * 4
    corpus = pa.table(
        {
            "id": pa.array([1, 2, 101, 102], pa.int64()),
            "content": pa.array([text, text + " tail", text, text + " tail"]),
        }
    )
    sigs = SignatureStage(cfg)(corpus)
    band = BandEmitStage(cfg, None, carry_kmv=True)(sigs)
    band = band.append_column("part", pa.array(np.zeros(len(band), np.int64)))

    unfiltered = make_block_pair_emitter(cfg, verify=True)(band)
    filtered = make_block_pair_emitter(cfg, verify=True, cross_min_id=100)(band)
    upairs = set(zip(unfiltered["src"].to_pylist(), unfiltered["dst"].to_pylist()))
    fpairs = set(zip(filtered["src"].to_pylist(), filtered["dst"].to_pylist()))
    assert fpairs == {(s, d) for s, d in upairs if s >= 100 or d >= 100}
    assert (1, 2) in upairs and (1, 2) not in fpairs
    assert any(s < 100 <= d for s, d in fpairs)  # cross pairs survive
