"""Benchmark harness: headline pipelines over $GRAFT_SF_DIR.

Prints ONE JSON line:
  {"metric": "...", "value": total_sec, "unit": "sec",
   "queries": {name: sec, ...}, "sf": ..., "num_cpus": N, ...}

``--scaling``: runs the flagship dedup pipeline in two fresh processes at
two num_cpus levels (default 4 and 16 — a 4× step; override with
BENCH_SCALING_LEVELS="6,24") over the same amplified corpus and reports
throughput at both plus scaling efficiency (the sandbox stand-in for the
north_rule's N vs 4N cluster-size criterion; see BASELINE.md).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from raydedup.io import read_parquet as _read_parquet

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
# default to the host's core count: a fixed 32 oversubscribes smaller hosts
# and makes per-core figures incomparable across machines
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS") or os.cpu_count() or 1)
REPLICAS = int(os.environ.get("BENCH_REPLICAS", "29"))
# scaling runs use a larger corpus (1.25M files) so the parallel fraction
# dominates the fixed per-stage scheduling constants (Amdahl; see
# BASELINE.md) — the regime a 100 TB run lives in; still below this box's
# ~2.5M-row object-store knee
SCALING_REPLICAS = int(os.environ.get("BENCH_SCALING_REPLICAS", "249"))


def _sf_tag(sf_dir: str) -> float:
    base = os.path.basename(os.path.normpath(sf_dir))
    try:
        return float(base.replace("sf", ""))
    except ValueError:
        return -1.0


def bench_config():
    from raydedup.config import SigConfig

    return SigConfig(kmv_k=128, jaccard_threshold=0.8, kmv_hash_bytes=4)


def run_benchmarks(num_cpus: int, flagship_only: bool = False) -> dict:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    import numpy as np  # noqa: F401

    from raydedup.corpus import amplified_corpus_path
    from raydedup.pipeline import dedup_clusters, signatures

    cfg = bench_config()
    corpus_dir = amplified_corpus_path(SF_DIR, replicas=REPLICAS)
    queries: dict[str, float] = {}
    extra: dict[str, float] = {}

    def read_corpus():
        return _read_parquet(corpus_dir)

    # warm up the worker pool so the timed runs measure steady-state
    # throughput, not process spawn (fresh-process scaling runs would
    # otherwise charge startup to the small-N side asymmetrically)
    read_corpus().limit(1000).map_batches(lambda b: b, batch_format="pyarrow").count()

    # flagship: full near-dup clustering; 'auto' resolves to hybrid at
    # bench scale (sketch table « broadcast budget) — the knee profile
    # showed bucket spilling ~40 GB at 2.5M rows while hybrid spills zero
    near_mode = os.environ.get("BENCH_NEAR_MODE", "auto")
    t0 = time.time()
    out = dedup_clusters(read_corpus(), cfg, with_substring=False, near_mode=near_mode)
    n_rows = out.count()
    t_flag = time.time() - t0
    queries["dedup_clusters"] = round(t_flag, 3)
    extra["corpus_rows"] = n_rows
    extra["files_per_sec"] = round(n_rows / t_flag, 1)

    if not flagship_only:
        t0 = time.time()
        sigs = signatures(read_corpus(), cfg)
        # consume the stream without materializing content
        sigs.select_columns(["id", "simhash"]).count()
        queries["signatures"] = round(time.time() - t0, 3)

        from raydedup.aggregates import kll_quantile, theta_distinct

        t0 = time.time()
        li = _read_parquet(
            f"{SF_DIR}/lineitem.parquet", columns=["l_returnflag", "l_orderkey"]
        )
        li.groupby("l_returnflag").aggregate(
            theta_distinct("l_orderkey", k=1 << 17, name="d")
        ).count()
        queries["theta_distinct_orders"] = round(time.time() - t0, 3)

        t0 = time.time()
        li2 = _read_parquet(
            f"{SF_DIR}/lineitem.parquet", columns=["l_extendedprice"]
        )
        li2.aggregate(kll_quantile("l_extendedprice", [0.5, 0.9, 0.99], k=200, name="q"))
        queries["kll_quantiles"] = round(time.time() - t0, 3)

        from raydedup.embed import ann_topk

        t0 = time.time()
        emb = _read_parquet(f"{SF_DIR}/embeddings.parquet")
        first = emb.filter(expr="vec_id < 8").to_pandas().sort_values("vec_id")
        q = np.stack(first["embedding"].to_numpy())
        assert ann_topk(
            _read_parquet(f"{SF_DIR}/embeddings.parquet"),
            q,
            first["vec_id"].to_numpy(),
            k=10,
        ).num_rows > 0
        queries["ann_topk"] = round(time.time() - t0, 3)

    total = round(sum(queries.values()), 3)
    result = {
        "metric": "dedup+sketch pipeline wall time (amplified corpus)",
        "value": total,
        "unit": "sec",
        "queries": queries,
        "sf": _sf_tag(SF_DIR),
        "num_cpus": num_cpus,
        **extra,
    }
    return result


def run_scaling() -> dict:
    """Same flagship job at num_cpus=8 and 32 in fresh processes."""
    # warm the corpus cache first so neither run pays generation cost
    from raydedup.corpus import amplified_corpus_path

    amplified_corpus_path(SF_DIR, replicas=SCALING_REPLICAS)
    results = {}
    repeats = int(os.environ.get("BENCH_SCALING_REPEATS", "2"))
    # default 4 → 16: a true 4× step that keeps the LARGE side well below
    # this box's shared-memory-bandwidth saturation point (~24 cores) —
    # per-node bandwidth multiplies with node count on a real cluster, so
    # letting the big run hit the single-box ceiling would measure a
    # hardware artifact, not the pipeline. Both levels leave core headroom
    # for raylet/plasma/driver threads (the multi-node analog: per-node
    # daemons). 6,24 measurements are reported in BASELINE.md as well.
    levels = tuple(
        int(x) for x in os.environ.get("BENCH_SCALING_LEVELS", "4,16").split(",")
    )
    import shutil as _shutil

    have_taskset = _shutil.which("taskset") is not None

    def one_run(cpus: int) -> dict:
        env = dict(os.environ)
        env["RAY_GRAFT_CPUS"] = str(cpus)
        env["BENCH_FLAGSHIP_ONLY"] = "1"
        env["BENCH_REPLICAS"] = str(SCALING_REPLICAS)
        cmd = [sys.executable, os.path.abspath(__file__)]
        if have_taskset:
            # pin the whole process tree to exactly `cpus` physical
            # cores: ray.init(num_cpus=K) only caps task SLOTS while
            # raylet/plasma/BLAS threads would otherwise spill onto idle
            # cores and flatter the small-N side — taskset makes "K
            # CPUs" a faithful single-box stand-in for a K-core cluster
            cmd = ["taskset", "-c", f"0-{cpus - 1}", *cmd]
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=3600
        )
        json_lines = [
            l for l in proc.stdout.strip().splitlines() if l.startswith("{")
        ]
        if proc.returncode != 0 or not json_lines:
            raise RuntimeError(
                f"scaling child (cpus={cpus}) rc={proc.returncode}, no JSON "
                f"output; stderr tail: {proc.stderr.strip()[-2000:]}"
            )
        return json.loads(json_lines[-1])

    # INTERLEAVED best-of-N: this VM's background load drifts on the scale
    # of minutes; alternating levels exposes both sides to the same drift
    # instead of charging one level with a slow phase
    samples: dict[int, list[dict]] = {c: [] for c in levels}
    for _ in range(repeats):
        for cpus in levels:
            samples[cpus].append(one_run(cpus))
    for cpus in levels:
        results[cpus] = min(
            samples[cpus], key=lambda r: r["queries"]["dedup_clusters"]
        )
    all_times = {
        c: [r["queries"]["dedup_clusters"] for r in samples[c]] for c in levels
    }
    lo, hi = levels
    t_lo = results[lo]["queries"]["dedup_clusters"]
    t_hi = results[hi]["queries"]["dedup_clusters"]
    thr_lo = results[lo]["files_per_sec"]
    thr_hi = results[hi]["files_per_sec"]
    factor = hi / lo
    eff = (thr_hi / thr_lo) / factor
    # median-of-interleaved alongside best-of: best-of strips additive load
    # noise (the headline), median shows the typical run so the two can be
    # compared — a large gap between them flags a noisy measurement session
    import statistics

    med_lo = statistics.median(all_times[lo])
    med_hi = statistics.median(all_times[hi])
    median_eff = (med_lo / med_hi) / factor
    return {
        "metric": f"scaling efficiency ({lo} → {hi} cpus, fresh processes)",
        "value": round(eff, 3),
        "unit": "efficiency",
        "queries": {
            f"dedup_clusters_{lo}cpu": t_lo,
            f"dedup_clusters_{hi}cpu": t_hi,
        },
        f"throughput_{lo}cpu_files_per_sec": thr_lo,
        f"throughput_{hi}cpu_files_per_sec": thr_hi,
        "median_efficiency": round(median_eff, 3),
        f"median_sec_{lo}cpu": med_lo,
        f"median_sec_{hi}cpu": med_hi,
        "all_samples_sec": all_times,
        "sf": _sf_tag(SF_DIR),
        "num_cpus": hi,
    }


def main() -> None:
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
        return
    flagship_only = os.environ.get("BENCH_FLAGSHIP_ONLY") == "1"
    result = run_benchmarks(NUM_CPUS, flagship_only=flagship_only)
    print(json.dumps(result))
    import ray

    ray.shutdown()


if __name__ == "__main__":
    main()
