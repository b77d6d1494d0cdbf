"""End-to-end CLI smoke: python -m raydedup dedup / index / incremental in a
subprocess (the CLI owns its own Ray session, so it must NOT share the
session-scoped test fixture)."""

import json
import os
import subprocess
import sys

import duckdb


def _run(args: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "raydedup", *args],
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "RAY_DEDUP_LOGS": "0"},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_dedup_index_incremental(tmp_path):
    from raydedup.corpus import corpus_parquet_path

    corpus = corpus_parquet_path("/root/testdata/sf0.001")
    con = duckdb.connect()
    con.execute(f"CREATE VIEW c AS SELECT * FROM read_parquet('{corpus}')")
    cut = con.sql("SELECT id FROM c ORDER BY id LIMIT 1 OFFSET 800").fetchone()[0]
    base_pq, delta_pq = tmp_path / "base.parquet", tmp_path / "delta.parquet"
    con.execute(f"COPY (SELECT * FROM c WHERE id < {cut}) TO '{base_pq}' (FORMAT PARQUET)")
    con.execute(f"COPY (SELECT * FROM c WHERE id >= {cut}) TO '{delta_pq}' (FORMAT PARQUET)")

    out = _run(
        ["dedup", str(base_pq), "--out", str(tmp_path / "base_out"),
         "--num-cpus", "4", "--survivors"]
    )
    assert out["rows"] == 800
    n_assign = con.sql(
        f"SELECT count(*) FROM read_parquet('{tmp_path}/base_out/assignments/*.parquet')"
    ).fetchone()[0]
    assert n_assign == 800
    n_surv = con.sql(
        f"SELECT count(*) FROM read_parquet('{tmp_path}/base_out/survivors/*.parquet')"
    ).fetchone()[0]
    assert 0 < n_surv <= 800

    meta = _run(["index", str(base_pq), "--out", str(tmp_path / "idx"),
                 "--num-cpus", "4"])
    assert meta["sha_rows"] == 800 and meta["nparts"] > 0

    res = _run(
        ["incremental", str(delta_pq), "--index", str(tmp_path / "idx"),
         "--base-assign", f"{tmp_path}/base_out/assignments",
         "--out", str(tmp_path / "incr"), "--num-cpus", "4"]
    )
    assert res["boundary"] == int(con.sql("SELECT max(id) FROM c WHERE id < " + str(cut)).fetchone()[0]) + 1
    incr = con.sql(
        f"SELECT * FROM read_parquet('{tmp_path}/incr/assignments/*.parquet')"
    ).df()
    delta_ids = set(con.sql(f"SELECT id FROM read_parquet('{delta_pq}')").df()["id"])
    assert set(incr["id"]) == delta_ids
    # merges dir always glob-resolvable, even when empty
    con.sql(f"SELECT * FROM read_parquet('{tmp_path}/incr/merges/*.parquet')")

    # resumable mode: first run writes shard manifests, second run resumes
    # idempotently (same output path, same rows)
    out1 = _run(["dedup", str(base_pq), "--ckpt", str(tmp_path / "ckpt"),
                 "--num-cpus", "4"])
    out2 = _run(["dedup", str(base_pq), "--ckpt", str(tmp_path / "ckpt"),
                 "--num-cpus", "4"])
    assert out1["resumable"] and out1["out"] == out2["out"]
    n, nd = con.sql(
        f"SELECT count(*), count(DISTINCT id) FROM read_parquet('{out1['out']}/*.parquet')"
    ).fetchone()
    assert (n, nd) == (800, 800)
    con.close()


def test_cli_spans_and_curate(tmp_path):
    """spans (report + --strip) and the composed curate subcommand, checked
    against the library run on the same corpus."""
    from raydedup.corpus import corpus_parquet_path

    corpus = corpus_parquet_path("/root/testdata/sf0.001")
    out = _run(
        ["spans", corpus, "--out", str(tmp_path / "sp"), "--num-cpus", "4"]
    )
    assert out["rows"] > 50
    con = duckdb.connect()
    n = con.sql(
        f"SELECT count(*), min(span_start) FROM read_parquet('{tmp_path}/sp/spans/*.parquet')"
    ).fetchone()
    assert n[0] == out["rows"] and n[1] >= 1

    out = _run(
        ["spans", corpus, "--out", str(tmp_path / "st"), "--strip",
         "--num-cpus", "4"]
    )
    stripped = con.sql(
        f"SELECT count(*), sum(CAST(n_removed > 0 AS INT)) FROM "
        f"read_parquet('{tmp_path}/st/stripped/*.parquet')"
    ).fetchone()
    assert stripped[0] == 900 and stripped[1] > 100

    out = _run(
        ["curate", corpus, "--out", str(tmp_path / "cu"), "--num-cpus", "4"]
    )
    rows = con.sql(
        f"SELECT count(*), max(shard_id) FROM read_parquet('{tmp_path}/cu/shards/*.parquet')"
    ).fetchone()
    assert rows[0] == out["rows"] > 100 and rows[1] >= 1


def test_cli_convert_jsonl_roundtrip(tmp_path):
    """jsonl → parquet → dedup works end-to-end; parquet → jsonl round-trips
    the rows."""
    import pyarrow.parquet as pq

    from raydedup.corpus import corpus_parquet_path

    corpus = corpus_parquet_path("/root/testdata/sf0.001")
    tbl = pq.read_table(corpus).slice(0, 200)
    jsonl = tmp_path / "docs.jsonl"
    with open(jsonl, "w") as f:
        for row in tbl.select(["id", "content"]).to_pylist():
            f.write(json.dumps(row) + "\n")

    out = _run(["convert", str(jsonl), "--out", str(tmp_path / "pq"),
                "--num-cpus", "4"])
    assert out["from"] == "jsonl" and out["to"] == "parquet"
    con = duckdb.connect()
    n = con.sql(
        f"SELECT count(*), count(DISTINCT id) FROM read_parquet('{tmp_path}/pq/*.parquet')"
    ).fetchone()
    assert n == (200, 200)

    # the converted parquet feeds the dedup command directly
    res = _run(["dedup", str(tmp_path / "pq"), "--out", str(tmp_path / "dd"),
                "--num-cpus", "4", "--no-substring"])
    assert res["rows"] == 200

    # and back out to jsonl
    out2 = _run(["convert", f"{tmp_path}/pq", "--out", str(tmp_path / "jl"),
                 "--to", "jsonl", "--input-format", "parquet",
                 "--num-cpus", "4"])
    import glob

    rows = []
    for fp in glob.glob(f"{tmp_path}/jl/*"):
        with open(fp) as f:
            rows += [json.loads(l) for l in f if l.strip()]
    assert sorted(r["id"] for r in rows) == sorted(tbl.column("id").to_pylist())


def test_cli_convert_partitioned(tmp_path):
    """--partition-by writes hive-layout parquet (one dir per key value) —
    the resumable-output layout."""
    import glob

    from raydedup.corpus import corpus_parquet_path

    corpus = corpus_parquet_path("/root/testdata/sf0.001")
    out = _run(
        ["convert", corpus, "--input-format", "parquet",
         "--out", str(tmp_path / "bylang"), "--partition-by", "lang",
         "--num-cpus", "4"]
    )
    dirs = sorted(
        os.path.basename(d)
        for d in glob.glob(f"{tmp_path}/bylang/lang=*")
    )
    assert len(dirs) >= 3 and all(d.startswith("lang=") for d in dirs)
    con = duckdb.connect()
    n = con.sql(
        f"SELECT count(*) FROM read_parquet('{tmp_path}/bylang/*/*.parquet')"
    ).fetchone()[0]
    assert n == 900


def test_cli_reads_back_its_partitioned_output(tmp_path):
    """The CLI reads the hive layout it writes with every column: the
    partition key comes back from the ``lang=…`` directory names."""
    import glob

    import pyarrow as pa
    import pyarrow.parquet as pq

    corpus = str(tmp_path / "corpus.parquet")
    n = 90
    pq.write_table(
        pa.table(
            {
                "id": pa.array(range(n), pa.int64()),
                "lang": [("py", "go", "rs")[i % 3] for i in range(n)],
                "content": [f"doc {i} " * 5 for i in range(n)],
            }
        ),
        corpus,
    )
    _run(
        ["convert", corpus, "--input-format", "parquet",
         "--out", str(tmp_path / "bylang"), "--partition-by", "lang",
         "--num-cpus", "2"]
    )
    _run(
        ["convert", str(tmp_path / "bylang"), "--input-format", "parquet",
         "--to", "jsonl", "--out", str(tmp_path / "back"), "--num-cpus", "2"]
    )
    rows = []
    for fp in glob.glob(f"{tmp_path}/back/*"):
        with open(fp) as f:
            rows += [json.loads(line) for line in f if line.strip()]
    want = pq.read_table(corpus, columns=["id", "lang"]).to_pylist()
    assert len(rows) == len(want) == n
    assert {r["id"]: r.get("lang") for r in rows} == {
        r["id"]: r["lang"] for r in want
    }


def test_cli_semdedup(tmp_path):
    emb = "/root/testdata/sf0.001/embeddings.parquet"
    out = _run(
        ["semdedup", emb, "--out", str(tmp_path / "sd"), "--k", "4",
         "--iters", "2", "--threshold", "0.4", "--num-cpus", "4"]
    )
    assert out["rows"] == 500 and out["k"] == 4
    con = duckdb.connect()
    n, kept = con.sql(
        f"SELECT count(*), sum(CAST(kept AS INT)) "
        f"FROM read_parquet('{tmp_path}/sd/semdedup/*.parquet')"
    ).fetchone()
    assert n == 500
    assert kept == 500 - out["dropped"]
    assert 0 < out["dropped"] < 100  # matches the sf0.001 thr=0.4 regime


def test_cli_filter(tmp_path):
    import pyarrow.parquet as pq

    from raydedup.corpus import qdocs_parquet_path

    docs = qdocs_parquet_path("/root/testdata/sf0.001")
    out = _run(
        ["filter", docs, "--out", str(tmp_path / "f1"),
         "--mode", "gopher-full", "--num-cpus", "4"]
    )
    assert out["cmd"] == "filter" and out["mode"] == "gopher-full"
    written = pq.read_table(out["out"])
    assert written.num_rows == out["survivors"] > 0
    assert "doc_id" in written.column_names
    total = pq.read_metadata(docs).num_rows
    assert out["survivors"] < total  # the fixture plants failing tiers

    out2 = _run(
        ["filter", docs, "--out", str(tmp_path / "f2"),
         "--mode", "gopher", "--num-cpus", "4"]
    )
    # shape-only is a superset of the full filter's survivors
    assert out2["survivors"] >= out["survivors"]


def test_cli_runs_outside_the_repo_root(tmp_path):
    """A launcher that finds the package by a ``sys.path`` entry (no
    PYTHONPATH, working directory elsewhere) still runs a dedup job: the
    CLI hands the package's root to the Ray workers it starts."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    corpus = str(tmp_path / "corpus.parquet")
    docs = [" ".join(f"w{(i * 7 + j) % 50}" for j in range(30)) for i in range(6)]
    pq.write_table(
        pa.table({"id": pa.array(range(12), pa.int64()), "content": docs * 2}),
        corpus,
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    launcher = (
        "import runpy, sys; sys.path.insert(0, sys.argv.pop(1)); "
        "runpy.run_module('raydedup', run_name='__main__', alter_sys=True)"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-c", launcher, root, "dedup", corpus,
         "--out", str(tmp_path / "out"), "--num-cpus", "2"],
        cwd=str(tmp_path),
        capture_output=True,
        text=True,
        timeout=300,
        env={**env, "RAY_DEDUP_LOGS": "0"},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["rows"] == 12
