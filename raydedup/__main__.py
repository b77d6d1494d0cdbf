"""Command-line entry points: ``python -m raydedup <cmd>``.

The CLI owns the Ray session (init guarded / shutdown on exit) — library
modules never call ray.init. Inputs are parquet files or directories with an
int64 id column and a string content column (rename via --id-col /
--content-col); outputs are partitioned parquet directories written through
Ray Data's streaming writer, so a run never materializes the corpus on the
driver.

Commands
  dedup        corpus → (id, cluster_id) assignments [+ --survivors content]
  signatures   corpus → signature index parquet (write_signature_index)
  index        corpus → persisted partitioned dedup index (write_dedup_index)
  incremental  delta vs persisted index → assignments + merges
  semdedup     embeddings → k-means + within-cluster cosine prune
  spans/curate/convert — see their subcommand help
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from .io import read_parquet as _read_parquet


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("inputs", nargs="+", help="input parquet file(s)/dir(s)")
    p.add_argument("--out", default=None,
                   help="output directory (required unless dedup --ckpt)")
    p.add_argument("--id-col", default="id")
    p.add_argument("--content-col", default="content")
    p.add_argument("--num-cpus", type=int, default=None,
                   help="ray.init num_cpus (default: all)")
    p.add_argument("--jaccard-threshold", type=float, default=None)
    p.add_argument("--shingle-k", type=int, default=None)
    p.add_argument("--num-perm", type=int, default=None)
    p.add_argument("--bands", type=int, default=None)
    p.add_argument("--rows-per-band", type=int, default=None)
    p.add_argument("--no-substring", action="store_true",
                   help="skip the winnow substring tier")


def _cfg_from(args: argparse.Namespace):
    from .config import DEFAULT_CONFIG, SigConfig

    overrides = {
        k: getattr(args, a)
        for k, a in [
            ("jaccard_threshold", "jaccard_threshold"),
            ("shingle_k", "shingle_k"),
            ("num_perm", "num_perm"),
            ("bands", "bands"),
            ("rows_per_band", "rows_per_band"),
        ]
        if getattr(args, a, None) is not None
    }
    if not overrides:
        return DEFAULT_CONFIG
    return SigConfig(**{**dataclasses.asdict(DEFAULT_CONFIG), **overrides})


def _init_ray(num_cpus: int | None) -> None:
    import ray

    if not ray.is_initialized():
        # workers start fresh interpreters that see PYTHONPATH but not this
        # process's sys.path: hand them the directory holding the package
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        prior = os.environ.get("PYTHONPATH")
        if root not in (prior or "").split(os.pathsep):
            os.environ["PYTHONPATH"] = root + (os.pathsep + prior if prior else "")
        kw = {"num_cpus": num_cpus} if num_cpus else {}
        ray.init(address="local", include_dashboard=False, **kw)


def _read_corpus(args: argparse.Namespace, extra_cols: tuple[str, ...] = ()):
    import ray.data

    ds = _read_parquet(args.inputs)
    renames = {}
    if args.id_col != "id":
        renames[args.id_col] = "id"
    if args.content_col != "content":
        renames[args.content_col] = "content"
    if renames:
        ds = ds.rename_columns(renames)
    return ds.select_columns(["id", "content", *extra_cols])


def cmd_dedup(args: argparse.Namespace) -> int:
    from .pipeline import dedup_clusters

    _init_ray(args.num_cpus)
    if args.ckpt:
        # resumable mode: shard-checkpointed signatures + manifests; the
        # unit of replay is one input file (manifest.run_dedup_job). Input
        # column names must already be (id, content) in this mode, and the
        # manifest path has no survivors stage — incompatible flag
        # combinations are rejected up front in main().
        import glob as _glob

        from .manifest import run_dedup_job

        files = sorted(
            f
            for pat in args.inputs
            for f in (
                _glob.glob(os.path.join(pat, "*.parquet"))
                if os.path.isdir(pat)
                else _glob.glob(pat) or [pat]
            )
        )
        out_dir = run_dedup_job(
            files, args.ckpt, _cfg_from(args),
            with_substring=not args.no_substring,
        )
        print(json.dumps({"cmd": "dedup", "resumable": True, "out": out_dir,
                          "ckpt": args.ckpt, "shards": len(files)}))
        return 0
    corpus = _read_corpus(args)
    assign = dedup_clusters(
        corpus, _cfg_from(args), with_substring=not args.no_substring
    ).materialize()
    assign.write_parquet(os.path.join(args.out, "assignments"))
    if args.survivors:
        import pyarrow as pa

        def keep_roots(batch: pa.Table) -> pa.Table:
            import numpy as np

            keep = (
                batch.column("id").to_numpy()
                == batch.column("cluster_id").to_numpy()
            )
            return batch.filter(pa.array(keep))

        # root ids are the cluster survivors; re-join content map-side by
        # re-reading the (already pruned) corpus and semi-joining on id
        import numpy as np

        import ray

        roots = np.sort(
            np.concatenate(
                [
                    b.column("id").to_numpy()
                    for b in assign.map_batches(
                        keep_roots, batch_format="pyarrow"
                    ).iter_batches(batch_format="pyarrow", batch_size=1 << 20)
                    if b.num_rows
                ]
                or [np.zeros(0, np.int64)]
            )
        )
        roots_ref = ray.put(roots)

        def semi(batch: pa.Table, ref=roots_ref) -> pa.Table:
            want = ray.get(ref) if not isinstance(ref, np.ndarray) else ref
            ids = batch.column("id").to_numpy()
            if len(want) == 0:
                return batch.slice(0, 0)
            pos = np.clip(np.searchsorted(want, ids), 0, len(want) - 1)
            return batch.filter(pa.array(want[pos] == ids))

        _read_corpus(args).map_batches(semi, batch_format="pyarrow").write_parquet(
            os.path.join(args.out, "survivors")
        )
    n = assign.count()
    print(json.dumps({"cmd": "dedup", "rows": n, "out": args.out}))
    return 0


def cmd_spans(args: argparse.Namespace) -> int:
    from .spans import duplicate_spans, strip_duplicate_spans

    _init_ray(args.num_cpus)
    corpus = _read_corpus(args)
    cfg = _cfg_from(args)
    if args.strip:
        strip_duplicate_spans(corpus, window=args.window, cfg=cfg).write_parquet(
            os.path.join(args.out, "stripped")
        )
        print(json.dumps({"cmd": "spans", "strip": True, "out": args.out}))
        return 0
    spans = duplicate_spans(corpus, window=args.window, cfg=cfg).materialize()
    spans.write_parquet(os.path.join(args.out, "spans"))
    print(
        json.dumps({"cmd": "spans", "rows": spans.count(), "out": args.out})
    )
    return 0


def cmd_curate(args: argparse.Namespace) -> int:
    from .curate import curate_corpus_v2

    _init_ray(args.num_cpus)
    ds = _read_corpus(args, extra_cols=(args.cap_key,))
    out = curate_corpus_v2(
        ds,
        span_window=args.window,
        lm_min_count=args.lm_min_count,
        cap_key=args.cap_key,
        cap_k=args.cap_k,
        shard_budget=args.shard_budget,
        cfg=_cfg_from(args),
    ).materialize()
    out.write_parquet(os.path.join(args.out, "shards"))
    print(json.dumps({"cmd": "curate", "rows": out.count(), "out": args.out}))
    return 0


def cmd_semdedup(args: argparse.Namespace) -> int:
    """Embedding-level semantic dedup: k-means (kmeans_fit) + SemDeDup
    prune over a list<float> vector column; writes (id, cluster, kept)."""
    import ray.data

    from .cluster import kmeans_fit, semdedup

    _init_ray(args.num_cpus)
    ds = _read_parquet(args.inputs)
    if args.id_col != "vec_id":
        ds = ds.rename_columns({args.id_col: "vec_id"})
    ds = ds.select_columns(["vec_id", args.vec_col])
    cent = kmeans_fit(
        ds, k=args.k, n_iter=args.iters, col=args.vec_col, id_col="vec_id"
    )
    out = semdedup(
        ds,
        cent,
        threshold=args.threshold,
        col=args.vec_col,
        id_col="vec_id",
        keep=args.keep,
    ).materialize()
    out.write_parquet(os.path.join(args.out, "semdedup"))
    # distributed reduction — the driver never streams the result rows
    import pyarrow as pa
    import pyarrow.compute as pc

    total = out.count()
    kept = int(
        out.map_batches(
            lambda b: pa.table({"k": pc.cast(b.column("kept"), pa.int64())}),
            batch_format="pyarrow",
        ).sum("k")
        or 0
    )
    print(
        json.dumps(
            {
                "cmd": "semdedup",
                "rows": total,
                "dropped": total - kept,
                "k": args.k,
                "out": os.path.join(args.out, "semdedup"),
            }
        )
    )
    return 0


def cmd_filter(args: argparse.Namespace) -> int:
    """Quality filtering over an (id, text) parquet corpus: Gopher shape
    rules, the full Gopher Table-A1 filter (shape + repetition), or C4
    line/page cleaning. Writes the survivors; prints a JSON summary."""
    import ray.data

    _init_ray(args.num_cpus)
    ds = _read_parquet(args.inputs)
    if args.mode == "c4":
        from .c4filter import MIN_SENTENCES, c4_filter

        out = c4_filter(
            ds,
            text_col=args.text_col,
            id_col=args.id_col,
            min_sentences=(
                MIN_SENTENCES
                if args.min_sentences is None
                else args.min_sentences
            ),
        )
    elif args.mode == "gopher":
        from .gopher import gopher_filter

        out = gopher_filter(
            ds,
            text_col=args.text_col,
            id_col=args.id_col,
            keep_cols=(args.text_col,),
        )
    else:
        from .gopher import gopher_full_filter

        out = gopher_full_filter(
            ds,
            text_col=args.text_col,
            id_col=args.id_col,
            keep_cols=(args.text_col,),
        )
    out = out.materialize()
    dest = os.path.join(args.out, "filtered")
    out.write_parquet(dest)
    print(
        json.dumps(
            {
                "cmd": "filter",
                "mode": args.mode,
                "survivors": out.count(),
                "out": dest,
            }
        )
    )
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    """Streaming format conversion (jsonl ↔ parquet) through Ray Data —
    corpora arrive as JSONL more often than parquet; every other command
    wants parquet. Never materializes the corpus on the driver."""
    import ray.data

    fmt_in = args.input_format
    if fmt_in == "auto":
        # Detect from EVERY input, not just the first: a mixed list or an
        # extension-less FILE must be an explicit error rather than a
        # silent wrong-reader read. Directories are parquet — the format
        # every write_parquet in this repo produces and every other
        # subcommand consumes.
        def _detect(path: str) -> str | None:
            p = path.rstrip("/")
            if p.endswith((".jsonl", ".json", ".jsonl.gz", ".json.gz")):
                return "jsonl"
            if p.endswith((".parquet", ".pq")):
                return "parquet"
            if os.path.isdir(path):
                return "parquet"
            return None

        detected = {_detect(p) for p in args.inputs}
        if None in detected:
            bad = [p for p in args.inputs if _detect(p) is None]
            print(
                "convert: cannot auto-detect input format for "
                f"{bad[:3]} (no .jsonl/.json/.parquet extension) — pass "
                "--input-format explicitly",
                file=sys.stderr,
            )
            return 2
        if len(detected) > 1:
            print(
                "convert: mixed input formats in one invocation "
                f"({sorted(detected)}) — split into two runs or pass "
                "--input-format",
                file=sys.stderr,
            )
            return 2
        fmt_in = detected.pop()
    _init_ray(args.num_cpus)
    ds = (
        ray.data.read_json(args.inputs)
        if fmt_in == "jsonl"
        else _read_parquet(args.inputs)
    )
    if args.to == "parquet":
        # hive-style partitioning → one directory per key value: the
        # resumable-output layout (a failed run re-lists finished
        # partitions and skips them)
        ds.write_parquet(args.out, partition_cols=args.partition_by or None)
    else:
        ds.write_json(args.out)
    print(json.dumps({"cmd": "convert", "from": fmt_in, "to": args.to,
                      "out": args.out}))
    return 0


def cmd_signatures(args: argparse.Namespace) -> int:
    from .incremental import write_signature_index

    _init_ray(args.num_cpus)
    write_signature_index(
        _read_corpus(args), os.path.join(args.out, "signatures"), _cfg_from(args)
    )
    print(json.dumps({"cmd": "signatures", "out": args.out}))
    return 0


def cmd_index(args: argparse.Namespace) -> int:
    from .incremental import write_dedup_index
    from .pipeline import signatures

    _init_ray(args.num_cpus)
    sigs = signatures(_read_corpus(args), _cfg_from(args)).materialize()
    meta = write_dedup_index(sigs, args.out, _cfg_from(args))
    print(json.dumps({"cmd": "index", **meta, "out": args.out}))
    return 0


def cmd_incremental(args: argparse.Namespace) -> int:
    import ray.data

    from .incremental import incremental_dedup_indexed

    _init_ray(args.num_cpus)
    base_assign = _read_parquet(args.base_assign)
    res = incremental_dedup_indexed(
        args.index,
        base_assign,
        _read_corpus(args),
        _cfg_from(args),
        with_substring=not args.no_substring,
    )
    res["assignments"].write_parquet(os.path.join(args.out, "assignments"))
    merges = res["merges"].materialize()
    merges_dir = os.path.join(args.out, "merges")
    if merges.count():
        merges.write_parquet(merges_dir)
    else:
        # Ray writes no files for an empty dataset; leave a schema-bearing
        # empty parquet so downstream globs always resolve
        import pyarrow as pa
        import pyarrow.parquet as pq

        os.makedirs(merges_dir, exist_ok=True)
        pq.write_table(
            pa.table(
                {
                    "old_cluster": pa.array([], pa.int64()),
                    "new_cluster": pa.array([], pa.int64()),
                }
            ),
            os.path.join(merges_dir, "empty-0.parquet"),
        )
    print(
        json.dumps(
            {
                "cmd": "incremental",
                "boundary": res["boundary"],
                "out": args.out,
            }
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="raydedup")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("dedup", help="full dedup: corpus → cluster assignments")
    _add_common(p)
    p.add_argument("--survivors", action="store_true",
                   help="also write surviving (cluster-root) content rows")
    p.add_argument("--ckpt", default=None,
                   help="checkpoint root: resumable shard-manifest mode "
                        "(re-runs skip completed signature shards)")
    p.set_defaults(fn=cmd_dedup)

    p = sub.add_parser(
        "spans", help="exact substring span dedup: spans report or --strip rewrite"
    )
    _add_common(p)
    p.add_argument("--window", type=int, default=20)
    p.add_argument("--strip", action="store_true",
                   help="write the rewritten corpus instead of the span report")
    p.set_defaults(fn=cmd_spans)

    p = sub.add_parser(
        "curate",
        help="composed curation: span-strip → LM filter → dedup → cap → shards",
    )
    _add_common(p)
    p.add_argument("--window", type=int, default=20)
    p.add_argument("--lm-min-count", type=int, default=3)
    p.add_argument("--cap-key", default="repo")
    p.add_argument("--cap-k", type=int, default=18)
    p.add_argument("--shard-budget", type=int, default=8192)
    p.set_defaults(fn=cmd_curate)

    p = sub.add_parser(
        "semdedup",
        help="embedding semantic dedup: k-means + within-cluster cosine prune",
    )
    p.add_argument("inputs", nargs="+", help="input parquet file(s)/dir(s)")
    p.add_argument("--out", required=True)
    p.add_argument("--id-col", default="vec_id")
    p.add_argument("--vec-col", default="embedding")
    p.add_argument("--k", type=int, default=256)
    p.add_argument("--iters", type=int, default=4)
    p.add_argument("--threshold", type=float, default=0.95)
    p.add_argument("--keep", choices=["dominance", "greedy"], default="dominance")
    p.add_argument("--num-cpus", type=int, default=None)
    p.set_defaults(fn=cmd_semdedup)

    p = sub.add_parser(
        "filter",
        help="quality filtering: gopher rules / full gopher / c4 cleaning",
    )
    p.add_argument("inputs", nargs="+", help="input parquet file(s)/dir(s)")
    p.add_argument("--out", required=True)
    p.add_argument(
        "--mode",
        choices=["gopher", "gopher-full", "c4"],
        default="gopher-full",
    )
    p.add_argument("--id-col", default="doc_id")
    p.add_argument("--text-col", default="text")
    # default None → resolved to c4filter.MIN_SENTENCES inside cmd_filter
    # (importing it here would pull numpy/pyarrow at argparse build time)
    p.add_argument("--min-sentences", type=int, default=None)
    p.add_argument("--num-cpus", type=int, default=None)
    p.set_defaults(fn=cmd_filter)

    p = sub.add_parser("convert", help="streaming jsonl ↔ parquet conversion")
    p.add_argument("inputs", nargs="+", help="input file(s)/dir(s)")
    p.add_argument("--out", required=True)
    p.add_argument("--to", choices=["parquet", "jsonl"], default="parquet")
    p.add_argument("--input-format", choices=["auto", "jsonl", "parquet"],
                   default="auto")
    p.add_argument("--partition-by", nargs="*", default=None,
                   help="hive-partition parquet output by these columns")
    p.add_argument("--num-cpus", type=int, default=None)
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("signatures", help="corpus → signature index parquet")
    _add_common(p)
    p.set_defaults(fn=cmd_signatures)

    p = sub.add_parser("index", help="corpus → persisted partitioned dedup index")
    _add_common(p)
    p.set_defaults(fn=cmd_index)

    p = sub.add_parser("incremental",
                       help="delta vs persisted index → assignments + merges")
    _add_common(p)
    p.add_argument("--index", required=True, help="write_dedup_index directory")
    p.add_argument("--base-assign", required=True,
                   help="base assignments parquet (id, cluster_id)")
    p.set_defaults(fn=cmd_incremental)

    args = ap.parse_args(argv)
    if not args.out and not getattr(args, "ckpt", None):
        ap.error("--out is required (unless dedup --ckpt)")
    if getattr(args, "ckpt", None):
        # the resumable manifest path has no survivors stage and reads
        # shards with fixed (id, content) column names — reject flags it
        # would otherwise silently ignore
        if getattr(args, "survivors", False):
            ap.error("--ckpt does not support --survivors "
                     "(resumable output is assignments-only)")
        if args.id_col != "id" or args.content_col != "content":
            ap.error("--ckpt requires input columns named (id, content); "
                     "--id-col/--content-col are not applied in resumable mode")
    try:
        return args.fn(args)
    finally:
        import ray

        if ray.is_initialized():
            ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
