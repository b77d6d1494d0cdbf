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
