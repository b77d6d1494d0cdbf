"""Dedup benchmark: the flagship job end to end on three seeded workloads.

    python3 perfbench/run.py --workload near_dense --seed 1 --seconds 15 --trace 0

Works from any working directory with ``raydedup`` not installed: the
repository root is put on ``sys.path`` and on the ``PYTHONPATH`` that the
Ray session hands to its workers. Each run owns one single-node Ray
session with a fixed CPU count and shuts it down on every exit path.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each layer
through its public function (tracing.py) and prints the per-layer metrics.
Every output is checked against computations made apart from the program
(check.py). The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from gen import N_DELTAS, WORKLOADS  # noqa: E402 — this script's directory

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")

# One CPU: the count is fixed so runs on different hosts compare, and it
# must not exceed what `nproc` grants (OMP_NUM_THREADS=1 makes that 1).
NUM_CPUS = 1
OBJECT_STORE_BYTES = 768 << 20
# AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets up to
# 64 bytes below the temp dir, so a longer checkout path keeps Ray's default
RAY_TMP = os.path.join(HERE, ".r")
RAY_TMP_MAX = 40


def _ray_import_path() -> None:
    """Make ``raydedup`` importable here and in every Ray worker."""
    sys.path.insert(0, ROOT)
    prior = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = ROOT + (os.pathsep + prior if prior else "")


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def bench_config():
    from raydedup.config import SigConfig

    # max_bucket_size 64 (default 256): a corpus small enough for a 1-CPU
    # run still has band buckets over the cap, so salting, the delegate
    # round and the substring tier's capped stars all do work
    return SigConfig(max_bucket_size=64)


class RaySession:
    """One local Ray session; ``close`` is safe to call more than once."""

    def __init__(self) -> None:
        import ray

        self.ray = ray
        self.tmp = RAY_TMP if len(RAY_TMP) <= RAY_TMP_MAX else None
        kw = {"_temp_dir": self.tmp} if self.tmp else {}
        ray.init(
            address="local",
            num_cpus=NUM_CPUS,
            object_store_memory=OBJECT_STORE_BYTES,
            include_dashboard=False,
            log_to_driver=False,
            logging_level="ERROR",
            **kw,
        )
        import ray.data

        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False

    def close(self) -> None:
        if self.ray.is_initialized():
            self.ray.shutdown()
        if self.tmp:
            shutil.rmtree(self.tmp, ignore_errors=True)


def warm_up(cfg) -> None:
    """Start the worker pool and import the engine in it: one tiny flagship."""
    import pyarrow as pa
    import ray.data

    from raydedup.pipeline import dedup_clusters

    n = 64
    tiny = pa.table({
        "id": pa.array(range(n), pa.int64()),
        "content": [" ".join(f"w{(i * 7 + k) % 50}" for k in range(40)) for i in range(n)],
    })
    dedup_clusters(ray.data.from_arrow(tiny), cfg).count()


def inputs_for(workload: str, seed: int) -> str:
    """Generate (or reuse) the inputs in a child process, so generation
    neither counts in this process's peak RSS nor in any timed phase."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "gen.py"), "--workload", workload,
         "--seed", str(seed)],
        check=True, stdout=subprocess.PIPE, text=True,
    )
    return out.stdout.strip().splitlines()[-1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# ---------------------------------------------------------------------------
# untraced runs (end-to-end metrics)
# ---------------------------------------------------------------------------


class Run:
    """Shared state of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float, cfg, inputs: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.cfg = cfg
        self.inputs = inputs
        with open(os.path.join(inputs, "manifest.json")) as f:
            self.manifest = json.load(f)
        self.attempted = 0
        self.work = os.path.join(WORK, f"{workload}-s{seed}-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self._n_idx = 0

    def path(self, name: str) -> str:
        return os.path.join(self.inputs, f"{name}.parquet")

    def fresh_index_dir(self) -> str:
        self._n_idx += 1
        return os.path.join(self.work, f"index{self._n_idx}")


def flagship(run: Run, path: str):
    from raydedup.io import read_parquet
    from raydedup.pipeline import dedup_clusters

    from tracing import table_of

    return table_of(dedup_clusters(
        read_parquet(path), run.cfg,
        with_substring=run.workload != "near_dense",
    ))


def base_signatures(run: Run, path: str):
    from raydedup.io import read_parquet
    from raydedup.pipeline import signatures

    return signatures(read_parquet(path), run.cfg).materialize()


def timed_index_write(run: Run, sigs) -> float:
    from raydedup.incremental import write_dedup_index

    d = run.fresh_index_dir()
    t0 = time.perf_counter()
    write_dedup_index(sigs, d, run.cfg)
    dt = time.perf_counter() - t0
    shutil.rmtree(d)
    return dt


def delta_job(run: Run, index_dir: str, base_assign_ds, delta: str):
    from raydedup.incremental import incremental_dedup_indexed
    from raydedup.io import read_parquet

    from tracing import merges_table, table_of

    res = incremental_dedup_indexed(index_dir, base_assign_ds, read_parquet(run.path(delta)), run.cfg)
    return table_of(res["assignments"]), merges_table(res["merges"])


def run_flagship_workload(run: Run) -> tuple[dict, list]:
    """Rounds of (flagship job, index write) until --seconds have passed."""
    corpus = run.path("corpus")
    n_rows = run.manifest["rows"]["corpus"]
    sigs = base_signatures(run, corpus)
    job_s, idx_s, outputs = [], [], []
    deadline = time.perf_counter() + run.seconds
    while True:
        t0 = time.perf_counter()
        outputs.append(flagship(run, corpus))
        job_s.append(time.perf_counter() - t0)
        idx_s.append(timed_index_write(run, sigs))
        run.attempted += 2
        if time.perf_counter() >= deadline:
            break
    rss = peak_rss_mb()
    metrics = {
        "files_per_s": metric(n_rows * len(job_s) / sum(job_s), "files/s"),
        "job_latency_s": metric(statistics.median(job_s), "s"),
        "index_write_s": metric(statistics.median(idx_s), "s"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    print(f"[bench] {run.workload}: {len(job_s)} flagship jobs over {n_rows} rows, "
          f"job s {[round(x, 3) for x in job_s]}, index write s "
          f"{[round(x, 3) for x in idx_s]}", file=sys.stderr)
    return metrics, [("flagship", outputs)]


def prepare_base(run: Run):
    """Base assignment (flagship over the base, checked like any output)
    and base signatures; neither is timed."""
    import ray.data

    base_assign = flagship(run, run.path("base"))
    sigs = base_signatures(run, run.path("base"))
    return base_assign, ray.data.from_arrow(base_assign), sigs


def run_incremental_workload(run: Run) -> tuple[dict, list]:
    """Rounds of (index write over the base, then every delta in turn)."""
    from raydedup.incremental import write_dedup_index

    base_assign, base_ds, sigs = prepare_base(run)
    deltas = [f"delta_{d:02d}" for d in range(N_DELTAS)]
    d_rows = [run.manifest["rows"][d] for d in deltas]
    idx_s, delta_s, outputs = [], [], {d: [] for d in deltas}
    deadline = time.perf_counter() + run.seconds
    while True:
        d_idx = run.fresh_index_dir()
        t0 = time.perf_counter()
        write_dedup_index(sigs, d_idx, run.cfg)
        idx_s.append(time.perf_counter() - t0)
        run.attempted += 1
        for d in deltas:
            t0 = time.perf_counter()
            outputs[d].append(delta_job(run, d_idx, base_ds, d))
            delta_s.append(time.perf_counter() - t0)
            run.attempted += 1
        shutil.rmtree(d_idx)
        if time.perf_counter() >= deadline:
            break
    rss = peak_rss_mb()
    rounds = len(idx_s)
    metrics = {
        "files_per_s": metric(sum(d_rows) * rounds / sum(delta_s), "files/s"),
        "job_latency_s": metric(statistics.median(delta_s), "s"),
        "index_write_s": metric(statistics.median(idx_s), "s"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    print(f"[bench] incremental_delta: {rounds} rounds, index write s "
          f"{[round(x, 3) for x in idx_s]}, delta s {[round(x, 3) for x in delta_s]}",
          file=sys.stderr)
    return metrics, [("base", [base_assign])] + [(d, outputs[d]) for d in deltas]


# ---------------------------------------------------------------------------
# traced runs (per-layer metrics)
# ---------------------------------------------------------------------------

PER_LAYER = {
    "io.read_s": ("io", "s"), "io.rows": (None, "count"), "io.bytes": (None, "bytes"),
    "signatures.s": ("signatures", "s"), "signatures.out_bytes": (None, "bytes"),
    "hot_keys.s": ("hot_keys", "s"), "hot_keys.keys": (None, "count"),
    "hot_keys.salt_slots": (None, "count"),
    "exact.s": ("exact", "s"), "exact.edges": (None, "count"),
    "near.s": ("near", "s"), "near.edges": (None, "count"),
    "near.candidates": (None, "count"), "near.yield": (None, "ratio"),
    "substring.s": ("substring", "s"), "substring.edges": (None, "count"),
    "union_find.s": ("union_find", "s"), "union_find.nodes": (None, "count"),
    "union_find.clusters": (None, "count"),
    "assign.s": ("assign", "s"),
    "index_write.s": ("index_write", "s"), "index_write.band_rows": (None, "count"),
    "index_write.sha_rows": (None, "count"), "index_write.fp_rows": (None, "count"),
    "index_write.bytes": (None, "bytes"),
    "delta.s": ("delta", "s"), "delta.rows": (None, "count"),
    "delta.merges": (None, "count"),
}
FLAGSHIP_STAGES = ("io", "signatures", "hot_keys", "exact", "near", "substring",
                   "union_find", "assign")


def layer_metrics(tr, stage_sum: list[float], untraced: list[float]) -> dict:
    """Medians of every span and count; 0 for a layer the workload never
    calls. ``near.candidates``/``near.yield`` are left out (absent) once
    ``candidate_pairs_lsh`` no longer exists."""
    from raydedup import pipeline

    out = {}
    for name, (span, unit) in PER_LAYER.items():
        if (name in ("near.candidates", "near.yield")
                and not hasattr(pipeline, "candidate_pairs_lsh")):
            print(f"[bench] {name}: absent (candidate_pairs_lsh is gone)", file=sys.stderr)
            continue
        vals = tr.seconds(span) if span else tr.counts.get(name, [])
        out[name] = metric(statistics.median(vals) if vals else 0.0, unit)
    out["trace.stage_sum_s"] = metric(statistics.median(stage_sum), "s")
    out["trace.flagship_s"] = metric(statistics.median(untraced), "s")
    out["trace.overhead"] = metric(
        statistics.median(stage_sum) / statistics.median(untraced), "ratio"
    )
    return out


def run_traced_flagship(run: Run, tr) -> tuple[dict, list, list]:
    import tracing

    corpus = run.path("corpus")
    sub = run.workload != "near_dense"
    sigs = base_signatures(run, corpus)
    stage_sum, untraced, pairs = [], [], []
    deadline = time.perf_counter() + run.seconds
    while True:
        traced = tracing.traced_flagship(tr, corpus, run.cfg, sub)
        stage_sum.append(sum(tr.seconds(s)[-1] for s in FLAGSHIP_STAGES
                             if s != "substring" or sub))
        t0 = time.perf_counter()
        plain = flagship(run, corpus)
        untraced.append(time.perf_counter() - t0)
        d = run.fresh_index_dir()
        tracing.traced_index_write(tr, sigs, d, run.cfg)
        shutil.rmtree(d)
        run.attempted += 3
        pairs.append((traced, plain))
        if time.perf_counter() >= deadline:
            break
    return layer_metrics(tr, stage_sum, untraced), [("flagship", [p for _, p in pairs])], pairs


def run_traced_incremental(run: Run, tr) -> tuple[dict, list, list]:
    import tracing

    from raydedup.incremental import write_dedup_index
    from raydedup.io import read_parquet

    base_assign, base_ds, sigs = prepare_base(run)
    deltas = [f"delta_{d:02d}" for d in range(N_DELTAS)]
    stage_sum, untraced, pairs = [], [], []
    outputs = {d: [] for d in deltas}
    deadline = time.perf_counter() + run.seconds
    while True:
        d_idx = run.fresh_index_dir()
        tracing.traced_index_write(tr, sigs, d_idx, run.cfg)
        traced = {}
        for d in deltas:
            with tr.span("io"):
                ds = read_parquet(run.path(d)).materialize()
            tr.count("io.rows", ds.count())
            tr.count("io.bytes", ds.size_bytes())
            traced[d] = tracing.traced_delta(tr, d_idx, base_ds, run.path(d), run.cfg)
        stage_sum.append(tr.seconds("index_write")[-1]
                         + sum(tr.seconds("delta")[-len(deltas):]))
        shutil.rmtree(d_idx)
        d_idx = run.fresh_index_dir()
        t0 = time.perf_counter()
        write_dedup_index(sigs, d_idx, run.cfg)
        for d in deltas:
            plain = delta_job(run, d_idx, base_ds, d)
            outputs[d].append(plain)
            pairs.append((traced[d][0], plain[0]))
            pairs.append((traced[d][1], plain[1]))
        untraced.append(time.perf_counter() - t0)
        shutil.rmtree(d_idx)
        run.attempted += 2 * (1 + len(deltas))
        if time.perf_counter() >= deadline:
            break
    outs = [("base", [base_assign])] + [(d, outputs[d]) for d in deltas]
    return layer_metrics(tr, stage_sum, untraced), outs, pairs


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_outputs(run: Run, outputs: list) -> list[str]:
    """Full independent checks on each distinct output; every repeat of a
    job must equal its first output exactly."""
    import pyarrow.parquet as pq

    import check

    with open(os.path.join(run.inputs, "truth.json")) as f:
        truth = json.load(f)
    failures = []
    for name, outs in outputs:
        first = outs[0]
        for k, o in enumerate(outs[1:], 1):
            if not _same(o, first):
                failures.append(f"{name}: repeat {k} differs from the first output")
    ids, contents = [], []
    for name in run.manifest["rows"]:
        t = pq.read_table(run.path(name), columns=["id", "content"])
        ids += t.column("id").to_pylist()
        contents += t.column("content").to_pylist()
    corpus = check.Corpus(ids, contents)
    rep = check.Report()
    first = dict(outputs)
    if run.workload == "incremental_delta":
        check.check_flagship(corpus, truth["base"], first["base"][0], "base", rep)
        for d, dt in enumerate(truth["deltas"]):
            assign, merges = first[f"delta_{d:02d}"][0]
            check.check_delta(corpus, truth["base"], first["base"][0], dt, assign,
                              merges, f"delta_{d:02d}", rep)
    else:
        check.check_flagship(corpus, truth, first["flagship"][0], "flagship", rep)
    print(f"[bench] checks: {json.dumps(rep.stats, sort_keys=True)}", file=sys.stderr)
    return failures + rep.failures


def _same(a, b) -> bool:
    if isinstance(a, tuple):
        return all(x.equals(y) for x, y in zip(a, b))
    return a.equals(b)


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description="raydedup dedup benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, _on_sigterm)

    _ray_import_path()
    import raydedup  # noqa: F401 — fail here, before Ray starts, if absent

    cfg = bench_config()
    session = RaySession()
    run = None
    try:
        warm_up(cfg)
        setup_s = time.perf_counter() - T_START
        run = Run(args.workload, args.seed, args.seconds, cfg,
                  inputs_for(args.workload, args.seed))
        if args.trace:
            from tracing import Tracer

            tr = Tracer()
            if args.workload == "incremental_delta":
                metrics, outputs, pairs = run_traced_incremental(run, tr)
            else:
                metrics, outputs, pairs = run_traced_flagship(run, tr)
            trace_path = os.path.join(WORK, f"trace-{args.workload}-s{args.seed}.json")
            tr.write(trace_path)
            print(f"[bench] trace written to {trace_path}", file=sys.stderr)
        else:
            runner = (run_incremental_workload if args.workload == "incremental_delta"
                      else run_flagship_workload)
            metrics, outputs = runner(run)
            metrics["setup_s"] = metric(setup_s, "s")
            pairs = []
    finally:
        session.close()
        if run is not None:
            shutil.rmtree(run.work, ignore_errors=True)

    failures = check_outputs(run, outputs)
    failures += [f"traced output {k} differs from the untraced output"
                 for k, (t, u) in enumerate(pairs) if not t.equals(u)]
    for msg in failures:
        print(f"[bench] CHECK FAILED: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": run.attempted,
        # a job that raises ends the run without a result (exit 1)
        "failed": 0,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
