"""Per-partition lineage manifests + checkpoint/resume.

North_rule requirements implemented here:

* **Stage checkpoints** — signature output is written as Parquet partitioned
  by input shard (``shard=<input file stem>/``), so a partition is exactly
  one input file's worth of work.
* **Per-partition lineage manifest** — one JSONL row per completed shard:
  row counts, byte sizes, sketch metrics (distinct-shingle HLL estimate,
  token-count KLL quantiles) and the config fingerprint.
* **Idempotent replay** — on resume, shards with a valid manifest row are
  skipped; missing/failed shards are recomputed from their input file
  alone. The config fingerprint is part of the checkpoint path, so outputs
  from different shingle/signature configs can never mix (the engine's
  seedHash rule, thetacommon/ThetaUtil.java:93-109).
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa

import ray
import ray.data

from .config import SigConfig
from .hashing import splitmix64
from .sketches.hll import HllSketch
from .sketches.kll import KllSketch
from .stages import SignatureStage
from .io import read_parquet as _read_parquet


class StageCheckpoint:
    def __init__(self, root: str, stage: str, cfg: SigConfig):
        self.cfg = cfg
        self.dir = os.path.join(root, f"fp={cfg.fingerprint:016x}", stage)
        os.makedirs(self.dir, exist_ok=True)
        self.manifest_path = os.path.join(self.dir, "manifest.jsonl")

    def manifest_rows(self) -> list[dict]:
        if not os.path.exists(self.manifest_path):
            return []
        rows = []
        with open(self.manifest_path) as f:
            for line in f:
                line = line.strip()
                if line:
                    rows.append(json.loads(line))
        return rows

    def done_shards(self) -> set[str]:
        return {
            r["shard"]
            for r in self.manifest_rows()
            if r.get("status") == "ok"
            and r.get("config_fingerprint") == f"{self.cfg.fingerprint:016x}"
        }

    def shard_dir(self, shard: str) -> str:
        return os.path.join(self.dir, f"shard={shard}")

    def invalidate_shard(self, shard: str) -> None:
        """Drop a shard's outputs + manifest row (for forced replay)."""
        if os.path.isdir(self.shard_dir(shard)):
            shutil.rmtree(self.shard_dir(shard))
        rows = [r for r in self.manifest_rows() if r["shard"] != shard]
        with open(self.manifest_path, "w") as f:
            for r in rows:
                f.write(json.dumps(r) + "\n")

    def record(self, shard: str, **fields) -> None:
        row = {
            "shard": shard,
            "status": "ok",
            "config_fingerprint": f"{self.cfg.fingerprint:016x}",
            **fields,
        }
        with open(self.manifest_path, "a") as f:
            f.write(json.dumps(row) + "\n")


def _shard_of_path(path: str) -> str:
    """Shard id for an input file: basename stem + a short digest of the
    full path. Standard parquet layouts repeat basenames across directories
    (a/part-0.parquet, b/part-0.parquet) — keying by stem alone would
    collide two inputs into one shard directory and silently drop one."""
    import hashlib

    stem = os.path.splitext(os.path.basename(path))[0]
    digest = hashlib.blake2s(os.path.abspath(path).encode(), digest_size=4).hexdigest()
    return f"{stem}-{digest}"


def _shard_metrics(tbl: pa.Table, kmv_hash_bytes: int = 8) -> dict:
    """Lineage metrics for one shard's signature output.

    ``kmv_hash_bytes`` must come from the stage config: the cell width
    cannot be inferred from buffer length (any even count of 4-byte cells
    is also 8-aligned)."""
    n_tokens = tbl.column("n_tokens").to_numpy().astype(np.float64)
    kll = KllSketch(k=200)
    kll.update_many(n_tokens)
    hll = HllSketch(lg_k=12)
    # distinct shingles across the shard: feed per-row minhash words is
    # wrong; use simhash+kmv? The kmv column holds per-row bottom-k hashes —
    # feeding their union is a theta-style distinct estimate of shingles.
    blobs = tbl.column("kmv").to_pylist()
    if blobs:
        raw = b"".join(blobs)
        if kmv_hash_bytes == 8:
            allh = np.frombuffer(raw, dtype="<u8").astype(np.uint64)
        else:
            allh = np.frombuffer(raw, dtype="<u4").astype(np.uint64) << np.uint64(32)
        # remix to fill all 64 bits uniformly: theta hashes are 63-bit and
        # HllSketch reads disjoint low(index)/high(rho) bit fields
        hll.update_hashes(splitmix64(allh))
    return {
        "rows": tbl.num_rows,
        "bytes": tbl.nbytes,
        "token_count_quantiles": kll.quantiles([0.5, 0.9, 0.99]),
        "distinct_shingle_est": round(hll.estimate(), 1),
    }


def resumable_signatures(
    input_files: list[str],
    ckpt_root: str,
    cfg: SigConfig,
) -> "ray.data.Dataset":
    """Signature stage with shard-level checkpoint/resume.

    Processes only input files without a valid manifest row; each shard's
    output lands in its own directory and gets a manifest row with metrics.
    Returns the full signatures Dataset (reading the checkpoint).
    """
    ckpt = StageCheckpoint(ckpt_root, "signatures", cfg)
    done = ckpt.done_shards()
    pending = [f for f in input_files if _shard_of_path(f) not in done]

    if pending:
        stage = SignatureStage(cfg)

        @ray.remote
        def process_shard(path: str) -> tuple[str, dict]:
            import pyarrow.parquet as pq

            shard = _shard_of_path(path)
            tbl = pq.read_table(path)
            out = stage(tbl)
            out_dir = os.path.join(ckpt.dir, f"shard={shard}")
            os.makedirs(out_dir, exist_ok=True)
            tmp = os.path.join(out_dir, f".tmp-{os.getpid()}.parquet")
            pq.write_table(out, tmp)
            os.replace(tmp, os.path.join(out_dir, "part-0.parquet"))
            return shard, _shard_metrics(out, cfg.kmv_hash_bytes)

        # one task per shard: shard = unit of retry/replay; Ray schedules
        # them like any map stage (a shard is sized like a block).
        # Record each completion as it lands (ray.wait, not a single
        # ray.get) — one failed shard must not discard the manifest rows of
        # the shards that DID finish, or resume recomputes everything.
        remaining = [process_shard.remote(p) for p in pending]
        ref_to_path = dict(zip(remaining, pending))
        failures: list[tuple[str, Exception]] = []
        while remaining:
            done_refs, remaining = ray.wait(remaining, num_returns=1)
            try:
                shard, metrics = ray.get(done_refs[0])
                ckpt.record(shard, **metrics)
            except Exception as exc:  # noqa: BLE001 — record, then surface
                failures.append((ref_to_path[done_refs[0]], exc))
        if failures:
            raise RuntimeError(
                f"{len(failures)} shard(s) failed (completed shards are "
                f"checkpointed and will be skipped on resume); first: "
                f"{failures[0][0]}"
            ) from failures[0][1]

    # read back ONLY the requested inputs' shards — a bare shard=*/ glob
    # would leak shards of files from earlier runs into this job's output
    shard_files = [
        os.path.join(ckpt.dir, f"shard={_shard_of_path(p)}", "part-0.parquet")
        for p in input_files
    ]
    # fp=/shard= name the checkpoint layout, not data columns
    return _read_parquet(sorted(shard_files), partitioning=None)


def run_dedup_job(
    input_files: list[str],
    ckpt_root: str,
    cfg: SigConfig,
    *,
    with_substring: bool = True,
    with_salting: bool = True,
) -> str:
    """End-to-end resumable dedup job: shard-checkpointed signatures →
    tiers → union-find → partitioned cluster output + manifests.

    Re-running after a crash reuses every completed signature shard and
    rewrites only the (cheap, edge-level) downstream stages — the unit of
    replay is one input file (north_rule idempotent-partition semantics).
    Returns the cluster output directory.
    """
    from .pipeline import detect_hot_band_keys, exact_edges, near_edges, substring_edges
    from .unionfind import cluster_edges

    sigs = resumable_signatures(input_files, ckpt_root, cfg).materialize()
    hot = detect_hot_band_keys(sigs, cfg) if with_salting else None
    edges = exact_edges(sigs).union(
        # same near-layout selection as the flagship: hybrid inside the
        # broadcast window, bucket below the floor, waves above the budget
        near_edges(sigs, cfg, hot, mode="auto").select_columns(["src", "dst"])
    )
    if with_substring:
        edges = edges.union(substring_edges(sigs, cfg))
    edges = edges.materialize()
    assigned = cluster_edges(edges, method="auto")
    # assign_clusters owns the merge (broadcast fast path when the
    # assignment table is small, groupby-min fallback otherwise)
    from .pipeline import assign_clusters

    full = assign_clusters(sigs, assigned)
    return write_clusters_checkpoint(full, ckpt_root, cfg)


def write_clusters_checkpoint(
    assignments: "ray.data.Dataset", ckpt_root: str, cfg: SigConfig
) -> str:
    """Final (id, cluster_id) output as partitioned parquet + manifest."""
    ckpt = StageCheckpoint(ckpt_root, "clusters", cfg)
    out_dir = os.path.join(ckpt.dir, "data")
    if os.path.isdir(out_dir):
        shutil.rmtree(out_dir)
    assignments.write_parquet(out_dir)
    n = _read_parquet(out_dir, partitioning=None).count()
    ckpt.record("clusters", rows=n)
    return out_dir
