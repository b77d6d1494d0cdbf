"""Checkpoint/resume: shard-level idempotent replay + fingerprint isolation."""

from __future__ import annotations

import glob
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from raydedup.config import SigConfig
from raydedup.manifest import StageCheckpoint, _shard_of_path, resumable_signatures

CFG = SigConfig(kmv_k=64)


def _make_shards(tmp: str, n_shards: int = 3, rows: int = 40) -> list[str]:
    paths = []
    for s in range(n_shards):
        tbl = pa.table(
            {
                "id": pa.array(range(s * rows, (s + 1) * rows), pa.int64()),
                "content": pa.array(
                    [f"tok{i} alpha beta gamma delta epsilon zeta x{i % 7}" for i in range(rows)]
                ),
            }
        )
        p = os.path.join(tmp, f"input-{s:03d}.parquet")
        pq.write_table(tbl, p)
        paths.append(p)
    return paths


def test_resume_skips_done_shards(ray_session, tmp_path):
    inp = str(tmp_path / "in")
    ck = str(tmp_path / "ckpt")
    os.makedirs(inp)
    files = _make_shards(inp)

    sigs = resumable_signatures(files, ck, CFG)
    assert sigs.count() == 120
    ckpt = StageCheckpoint(ck, "signatures", CFG)
    assert len(ckpt.done_shards()) == 3
    rows = ckpt.manifest_rows()
    assert all("distinct_shingle_est" in r for r in rows)
    mtimes = {
        f: os.path.getmtime(f)
        for f in glob.glob(os.path.join(ckpt.dir, "shard=*/part-0.parquet"))
    }

    # rerun: nothing recomputed (mtimes stable)
    sigs2 = resumable_signatures(files, ck, CFG)
    assert sigs2.count() == 120
    for f, m in mtimes.items():
        assert os.path.getmtime(f) == m

    # invalidate one shard → only that shard is rebuilt
    shard = _shard_of_path(files[1])
    ckpt.invalidate_shard(shard)
    sigs3 = resumable_signatures(files, ck, CFG)
    assert sigs3.count() == 120
    for f, m in mtimes.items():
        if f"shard={shard}" in f:
            assert os.path.getmtime(f) != m
        else:
            assert os.path.getmtime(f) == m


def test_run_dedup_job_end_to_end_resume(ray_session, tmp_path):
    import pandas as pd
    import ray.data

    from raydedup.manifest import run_dedup_job

    inp = str(tmp_path / "in")
    ck = str(tmp_path / "ckpt")
    os.makedirs(inp)
    files = _make_shards(inp, n_shards=2, rows=30)
    out_dir = run_dedup_job(files, ck, CFG, with_substring=False)
    df1 = ray.data.read_parquet(out_dir).to_pandas().sort_values("id").reset_index(drop=True)
    assert len(df1) == 60
    # resume run produces identical assignments without redoing signatures
    ckpt = StageCheckpoint(ck, "signatures", CFG)
    mtimes = {
        f: os.path.getmtime(f)
        for f in glob.glob(os.path.join(ckpt.dir, "shard=*/part-0.parquet"))
    }
    out_dir2 = run_dedup_job(files, ck, CFG, with_substring=False)
    df2 = ray.data.read_parquet(out_dir2).to_pandas().sort_values("id").reset_index(drop=True)
    pd.testing.assert_frame_equal(df1, df2)
    for f, m in mtimes.items():
        assert os.path.getmtime(f) == m


def test_fingerprint_isolates_configs(ray_session, tmp_path):
    inp = str(tmp_path / "in")
    ck = str(tmp_path / "ckpt")
    os.makedirs(inp)
    files = _make_shards(inp, n_shards=1)
    resumable_signatures(files, ck, CFG)
    other = SigConfig(kmv_k=64, shingle_k=3)
    c1 = StageCheckpoint(ck, "signatures", CFG)
    c2 = StageCheckpoint(ck, "signatures", other)
    assert c1.dir != c2.dir
    assert c2.done_shards() == set()


def test_fingerprint_ignores_verify_margin_only():
    """verify_margin moves the verify cut, not a signature: tuning it keeps
    the fingerprint (and so every signature checkpoint); a field that
    changes signature content does not."""
    import dataclasses

    assert dataclasses.replace(CFG, verify_margin=0.05).fingerprint == CFG.fingerprint
    assert (
        dataclasses.replace(CFG, num_perm=64, bands=8, rows_per_band=8).fingerprint
        != CFG.fingerprint
    )


def test_fingerprint_refuses_pre_bandhash_tables():
    """A v2 signature table stores ``minhash``, not the ``bandhashes``
    column the near tier reads: its fingerprint differs, so its checkpoints
    sit under another path and ``check_compatible`` refuses it."""
    import dataclasses

    from raydedup.config import SketchesArgumentError

    v2 = dataclasses.replace(CFG, algo_version=2)
    assert CFG.algo_version == 3
    assert v2.fingerprint != CFG.fingerprint
    with pytest.raises(SketchesArgumentError):
        CFG.check_compatible(v2.fingerprint)
