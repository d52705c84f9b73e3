"""Driver-facing query registry: every implemented operator as a callable
over an ``sf_dir`` of parquet tables, each paired (where SQL-expressible)
with an ANSI-SQL oracle that DuckDB runs on the same tables.

Column names and value rounding are kept identical between the Ray pipelines
and the SQL so the driver's order-insensitive value-hash comparison matches.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from whoosh_novo_ray.analysis import STOP_WORDS
from whoosh_novo_ray.lengths import length_table_sql_literal
from whoosh_novo_ray.porter import stem as _porter_stem

# ---------------------------------------------------------------------------
# shared SQL fragments (tokenization identical to analysis.StandardAnalyzer)
# ---------------------------------------------------------------------------

_RX_SQL = r"[\w*]+(\.?[\w*]+)*"
_STOPLIST_SQL = ", ".join(f"'{w}'" for w in sorted(STOP_WORDS))
_LTAB = length_table_sql_literal()

# BM25 scoring tail, generic over any `filt(doc_id, term, ord)` token stream
# and any doc universe `docsrc(doc_id, ...)` (filtered views for the
# incremental delete/update oracles — N / avgdl follow the live corpus)
_BM25_EXPR = """(ln(s.N / (f.df + 1)) + 1) * (t.tf * 2.2)
           / (t.tf + 1.2 * (0.25 + 0.75 * q.dlq / (s.total_len / s.N)))"""


def _score_ctes(
    docsrc: str = "documents",
    tfs_cte: str | None = None,
    score_expr: str | None = None,
) -> str:
    """score_expr columns: t.tf, f.df (doc freq), f.cf (collection term
    weight), q.dlq (dequantized length — what scorers see), q.dl (true
    length), s.N, s.total_len."""
    tfs_cte = tfs_cte or (
        "SELECT doc_id, term, count(*)::DOUBLE AS tf FROM filt GROUP BY doc_id, term"
    )
    score_expr = score_expr or _BM25_EXPR
    return f"""
tfs AS (
  {tfs_cte}
),
dls AS (
  SELECT d.doc_id, coalesce(f.dl, 0)::BIGINT AS dl
  FROM {docsrc} d
  LEFT JOIN (SELECT doc_id, count(*) AS dl FROM filt GROUP BY doc_id) f USING (doc_id)
),
qdl AS (
  SELECT doc_id, dl,
         least(255, len(list_filter({_LTAB}, x -> x < dl)))::BIGINT AS len_byte,
         ({_LTAB})[least(255, len(list_filter({_LTAB}, x -> x < dl))) + 1]::DOUBLE AS dlq
  FROM dls
),
stats AS (
  SELECT (SELECT count(*) FROM {docsrc})::DOUBLE AS N,
         (SELECT sum(dl) FROM dls)::DOUBLE AS total_len
),
dfs AS (
  SELECT term, count(*)::DOUBLE AS df, sum(tf)::DOUBLE AS cf FROM tfs GROUP BY term
),
bm AS (
  SELECT t.doc_id, t.term,
         {score_expr} AS score
  FROM tfs t
  JOIN dfs f USING (term)
  JOIN qdl q ON q.doc_id = t.doc_id
  CROSS JOIN stats s
)
"""


_SCORE_CTES = _score_ctes()

# token stream with per-token ordinal (zipped unnest preserves list order),
# over any doc universe `docsrc(doc_id, text)`
def _base_ctes_over(
    docsrc: str, tfs_cte: str | None = None, score_expr: str | None = None
) -> str:
    return f"""
tokarr AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{_RX_SQL}') AS arr FROM {docsrc}
),
tok AS (
  SELECT doc_id, unnest(arr) AS term, unnest(range(len(arr))) AS ord FROM tokarr
),
filt AS (
  SELECT doc_id, term, ord FROM tok
  WHERE length(term) >= 2 AND term NOT IN ({_STOPLIST_SQL})
),
{_score_ctes(docsrc, tfs_cte, score_expr)}"""


_BASE_CTES = _base_ctes_over("documents")

# block-join doc universe for the nested-query oracles (see _nested_index)
_NESTED_CORPUS = """corpus AS (
  SELECT (CAST(substr(source, 4) AS BIGINT) * 1048576) + 1 + doc_id AS doc_id,
         text
  FROM documents
  UNION ALL
  SELECT DISTINCT CAST(substr(source, 4) AS BIGINT) * 1048576,
         'xchap ' || source
  FROM documents
)"""

# char-3-gram stream over the WHOLE lowercased value incl. whitespace
# (reference NgramTokenizer, ngrams.py:42-130) — same BM25 tail over it
_NGRAM_CTES = f"""
tokv AS (SELECT doc_id, lower(text) AS v FROM documents),
filt AS (
  SELECT doc_id, substr(v, (i + 1)::BIGINT, 3) AS term, i AS ord
  FROM tokv, unnest(range(greatest(length(v) - 2, 0))) AS u(i)
),
{_SCORE_CTES}"""

# word-level 3-grams (reference NgramWordAnalyzer, ngrams.py:259-267:
# RegexTokenizer | Lowercase | NgramFilter — NO stop/minsize word filter);
# grams inherit the source word's ordinal, dl = total gram count
_NGRAMWORDS_CTES = f"""
tokarr AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{_RX_SQL}') AS arr FROM documents
),
words AS (
  SELECT doc_id, unnest(arr) AS w, unnest(range(len(arr))) AS word_ord FROM tokarr
),
filt AS (
  SELECT doc_id, substr(w, (i + 1)::BIGINT, 3) AS term, word_ord AS ord
  FROM words, unnest(range(greatest(length(w) - 2, 0))) AS u(i)
),
{_SCORE_CTES}"""


# Porter-stemmed token stream: tokenize/stop-filter exactly like _BASE_CTES,
# then map each surviving token through its Porter stem. SQL cannot run
# Porter, but the testdata vocabulary is a CLOSED 31-word set (identical at
# every sf — verified sf0.001 through sf1), so the map embeds as a VALUES CTE
# over exactly the words Porter rewrites — the same determinism argument as
# the variations_top10 IN-list (our Porter is itself word-for-word
# differentially verified against the reference in tests/test_stemming.py).
# Unmapped tokens pass through unchanged (Porter identity on them).
_TESTDATA_VOCAB = (
    "a", "agg", "batch", "big", "column", "customer", "data", "dup",
    "fast", "filter", "group", "hash", "join", "key", "line", "merge",
    "order", "part", "query", "row", "scan", "slow", "small", "sort",
    "spark", "stream", "table", "the", "value", "vector", "window",
)


def _porter_map_values() -> str:
    from whoosh_novo_ray.porter import stem

    rows = [
        f"('{w}', '{stem(w)}')" for w in _TESTDATA_VOCAB if stem(w) != w
    ]
    return ", ".join(rows)


_STEM_CTES = f"""
tokarr AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{_RX_SQL}') AS arr FROM documents
),
tok AS (
  SELECT doc_id, unnest(arr) AS term, unnest(range(len(arr))) AS ord FROM tokarr
),
kept AS (
  SELECT doc_id, term, ord FROM tok
  WHERE length(term) >= 2 AND term NOT IN ({_STOPLIST_SQL})
),
stemmap(word, stem) AS (VALUES {_porter_map_values()}),
filt AS (
  SELECT k.doc_id, coalesce(m.stem, k.term) AS term, k.ord
  FROM kept k LEFT JOIN stemmap m ON m.word = k.term
),
{_SCORE_CTES}"""


def _terms_sql(terms: list[str]) -> str:
    return ", ".join(f"'{t}'" for t in terms)


def _topk_sql(where: str, k: int) -> str:
    return f"""WITH {_BASE_CTES}
SELECT doc_id::BIGINT AS doc_id, round(sum(score), 6) AS score
FROM bm WHERE {where}
GROUP BY doc_id
ORDER BY score DESC, doc_id LIMIT {k}"""


# ---------------------------------------------------------------------------
# engine-side helpers
# ---------------------------------------------------------------------------

_INDEX_CACHE: dict[str, Any] = {}


def _emb_ds(sf_dir: str, columns=("vec_id", "embedding")):
    import ray
    import ray.data

    n_blocks = int(ray.cluster_resources().get("CPU", 8))
    return ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=list(columns),
        override_num_blocks=n_blocks,
    )


def _query_vec(sf_dir: str) -> "np.ndarray":
    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    q = pq.read_table(emb_path).filter(pc.field("vec_id") == 0)["embedding"][0]
    return np.asarray(q.as_py(), np.float64)


def _ann_dir_for(sf_dir: str, kind: str) -> str:
    """Persisted ANN index per (corpus, kind): built ONCE, queries read only
    their probe partitions (ops/ann_index.py). The lineage short-circuits
    rebuilds across queries()/bench calls in the same process tree."""
    from whoosh_novo_ray.ops.ann_index import build_ivf_index, build_lsh_index

    out = os.path.join(
        "/tmp/wnr_ann", sf_dir.strip("/").replace("/", "_"), kind
    )
    lineage = f"{kind}:{sf_dir}"
    if kind == "lsh":
        build_lsh_index(
            _emb_ds(sf_dir), out, nbits=8, seed=5, lineage=lineage, resume=True
        )
    else:  # ivf with SQL-mirrorable seed centroids: embeddings of vec_id < 8
        emb_path = os.path.join(sf_dir, "embeddings.parquet")
        seeds = (
            pq.read_table(emb_path, columns=["vec_id", "embedding"])
            .filter(pc.field("vec_id") < 8)
            .sort_by("vec_id")
        )
        c = np.stack(
            [np.asarray(v.as_py(), np.float64) for v in seeds["embedding"]]
        )
        build_ivf_index(
            _emb_ds(sf_dir), out, centroids=c, lineage=lineage, resume=True
        )
    return out


def _docs_ds(sf_dir: str, columns=("doc_id", "text")):
    import ray
    import ray.data

    # block to the CPU count: a single small parquet file would otherwise be
    # ONE block and serialize every downstream map_batches stage
    n_blocks = int(ray.cluster_resources().get("CPU", 8))
    return ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=list(columns),
        override_num_blocks=n_blocks,
    )


def _cache_lineage(tag: str, sf_dir: str) -> str:
    """Lineage of a gate index cached under /tmp/wnr_indexes: a resumed
    build compares the analyzer's config JSON but not its code, so a digest
    of ``analysis.py``'s source makes a changed analyzer rebuild, and the
    index format version makes a format change rebuild."""
    import hashlib

    import whoosh_novo_ray.analysis as analysis
    from whoosh_novo_ray.index.build import FORMAT_VERSION

    with open(analysis.__file__, "rb") as f:
        digest = hashlib.sha1(f.read()).hexdigest()[:12]
    return f"{tag}:{sf_dir}:{digest}:v{FORMAT_VERSION}"


def _index_for(sf_dir: str):
    from whoosh_novo_ray.index import Index, IndexConfig, build_index

    if sf_dir not in _INDEX_CACHE:
        out = os.path.join(
            "/tmp/wnr_indexes", sf_dir.strip("/").replace("/", "_")
        )
        build_index(
            _docs_ds(sf_dir),
            out,
            IndexConfig(num_buckets=16),
            lineage=_cache_lineage("documents", sf_dir),
            resume=True,
        )
        _INDEX_CACHE[sf_dir] = Index(out)
    return _INDEX_CACHE[sf_dir]


def _searcher_for(sf_dir: str):
    from whoosh_novo_ray.search import Searcher

    return Searcher(_index_for(sf_dir))


def _search_table(sf_dir: str, q, limit: int) -> pa.Table:
    t = _searcher_for(sf_dir).search(q, limit=limit)
    return pa.table(
        {
            "doc_id": t["doc_id"].cast(pa.int64()),
            "score": pa.array(np.round(t["score"].to_numpy(), 6), pa.float64()),
        }
    )


def _pool_for(sf_dir: str):
    """Doc-shard ScorePool over the cached index (built + actors spawned
    once per process; queries evaluate inside the shard actors and only
    top-k rows reach the driver)."""
    from whoosh_novo_ray.state.score_pool import ScorePool

    key = ("pool", sf_dir)
    if key not in _INDEX_CACHE:
        idx = _index_for(sf_dir)
        _INDEX_CACHE[key] = ScorePool(idx.path, num_actors=4, num_shards=8)
    return _INDEX_CACHE[key]


def _pool_search_table(sf_dir: str, q, limit: int) -> pa.Table:
    t = _pool_for(sf_dir).search(q, limit=limit)
    return pa.table(
        {
            "doc_id": t["doc_id"].cast(pa.int64()),
            "score": pa.array(np.round(t["score"].to_numpy(), 6), pa.float64()),
        }
    )


def _nested_index(sf_dir: str):
    """Block-join corpus for NestedParent/NestedChildren (reference
    query/nested.py): one parent doc per `source` (text ``xchap srcK``)
    followed by that source's documents as children. Doc ids are pure
    arithmetic on BOTH sides — parent = K << 20, child = parent + 1 +
    doc_id (doc_id < 2^20 at every test scale) — so the owner-parent
    relation needs no window function in the oracle. Children stream
    through map_batches; the parent list is one row per source (shard-
    count-sized metadata, fine on the driver at any corpus scale)."""
    import ray.data
    from whoosh_novo_ray.index import Index, IndexConfig, build_index

    key = (sf_dir, "nested")
    if key not in _INDEX_CACHE:
        def _children(b: pa.Table) -> pa.Table:
            src = np.array(
                [int(s[3:]) for s in b["source"].to_pylist()], np.uint64
            )
            ids = (src << np.uint64(20)) + 1 + b["doc_id"].to_numpy().astype(
                np.uint64
            )
            return pa.table({"doc_id": ids, "text": b["text"]})

        children = _docs_ds(sf_dir, columns=("doc_id", "text", "source")).map_batches(
            _children, batch_format="pyarrow"
        )
        srcs = sorted(
            pc.unique(
                pq.read_table(
                    os.path.join(sf_dir, "documents.parquet"), columns=["source"]
                )["source"]
            ).to_pylist()
        )
        parents = pa.table(
            {
                "doc_id": pa.array(
                    [int(s[3:]) << 20 for s in srcs], pa.uint64()
                ),
                "text": [f"xchap {s}" for s in srcs],
            }
        )
        out = os.path.join(
            "/tmp/wnr_indexes", sf_dir.strip("/").replace("/", "_") + "_nested"
        )
        build_index(
            children.union(ray.data.from_arrow(parents)),
            out,
            IndexConfig(num_buckets=8),
            lineage=_cache_lineage("nested", sf_dir),
            resume=True,
        )
        _INDEX_CACHE[key] = Index(out)
    return _INDEX_CACHE[key]


# query terms chosen from the documents vocabulary (common/mid/absent)
_T_COMMON = "table"
_T_MID = "query"
_T_MID2 = "window"

# target domain mixture for the mixture_sample oracle (DoReMi-style static
# weights; remaining sources drop to 0)
_MIX_WEIGHTS = {
    "src0": 0.30,
    "src1": 0.25,
    "src2": 0.20,
    "src3": 0.15,
    "src4": 0.10,
}
_T_ABSENT = "zzzznope"


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------


def queries() -> dict[str, Callable[[str], Any]]:
    from whoosh_novo_ray.search import (
        And,
        AndMaybe,
        AndNot,
        DisMax,
        Every,
        NestedChildren,
        NestedParent,
        Or,
        Phrase,
        Prefix,
        Regex,
        Require,
        Term,
        Wildcard,
    )

    def term_stats(sf_dir):
        tbl = _index_for(sf_dir).iter_term_stats(("term", "df", "weight"))
        return pa.table(
            {
                "term": tbl["term"],
                "df": tbl["df"].cast(pa.int64()),
                "weight": tbl["weight"].cast(pa.float64()),
            }
        ).sort_by("term")

    def doc_lengths(sf_dir):
        from whoosh_novo_ray.ops import doc_length_table

        ds = doc_length_table(_docs_ds(sf_dir))
        return pa.concat_tables(_collect(ds)).sort_by("doc_id")

    def quality(sf_dir):
        from whoosh_novo_ray.ops import quality_table

        return pa.concat_tables(_collect(quality_table(_docs_ds(sf_dir)))).sort_by(
            "doc_id"
        )

    def langid(sf_dir):
        from whoosh_novo_ray.ops import langid_table

        return pa.concat_tables(_collect(langid_table(_docs_ds(sf_dir)))).sort_by(
            "doc_id"
        )

    def repetition(sf_dir):
        from whoosh_novo_ray.ops import repetition_table

        return pa.concat_tables(_collect(repetition_table(_docs_ds(sf_dir)))).sort_by(
            "doc_id"
        )

    def decontam(sf_dir):
        from whoosh_novo_ray.ops import decontaminate_table

        return pa.concat_tables(
            _collect(decontaminate_table(_docs_ds(sf_dir), n=4, bench_mod=50))
        ).sort_by("doc_id")

    def unigram_lm(sf_dir):
        from whoosh_novo_ray.ops import unigram_lm_table

        return pa.concat_tables(_collect(unigram_lm_table(_docs_ds(sf_dir)))).sort_by(
            "doc_id"
        )

    def dsir(sf_dir):
        from whoosh_novo_ray.ops import dsir_table

        return pa.concat_tables(
            _collect(dsir_table(_docs_ds(sf_dir, columns=("doc_id", "text", "lang"))))
        ).sort_by("doc_id")

    def perplexity_buckets(sf_dir):
        from whoosh_novo_ray.ops import perplexity_buckets_table

        return pa.concat_tables(
            _collect(
                perplexity_buckets_table(
                    _docs_ds(sf_dir, columns=("doc_id", "text"))
                )
            )
        ).sort_by("doc_id")

    def mixture_sample(sf_dir):
        from whoosh_novo_ray.ops import mixture_sample_table

        return pa.concat_tables(
            _collect(
                mixture_sample_table(
                    _docs_ds(sf_dir, columns=("doc_id", "source")),
                    _MIX_WEIGHTS,
                )
            )
        ).sort_by("doc_id")

    def semdedup(sf_dir):
        from whoosh_novo_ray.ops.knn import semdedup_table

        emb_path = os.path.join(sf_dir, "embeddings.parquet")
        seeds = (
            pq.read_table(emb_path, columns=["vec_id", "embedding"])
            .filter(pc.field("vec_id") < 8)
            .sort_by("vec_id")
        )
        c = np.stack(
            [np.asarray(v.as_py(), np.float64) for v in seeds["embedding"]]
        )
        # tau tuned to the synthetic corpus (max within-cell cosine ~0.49)
        # so the drop path is exercised; real corpora use ~0.95
        return pa.concat_tables(
            _collect(semdedup_table(_emb_ds(sf_dir), c, threshold=0.45))
        ).sort_by("vec_id")

    def boilerplate(sf_dir):
        from whoosh_novo_ray.ops import boilerplate_table

        return pa.concat_tables(
            _collect(boilerplate_table(_docs_ds(sf_dir), n=5, min_docs=3))
        ).sort_by("doc_id")

    def fingerprint(sf_dir):
        from whoosh_novo_ray.ops import fingerprint_table

        return pa.concat_tables(
            _collect(fingerprint_table(_docs_ds(sf_dir)))
        ).sort_by("doc_id")

    def pii_scrub(sf_dir):
        """Typed PII scrubbing (emails/IPs/phones -> tags + counts). The
        synthetic corpus has no natural PII, so both sides append a
        deterministic doc-keyed contact line before scrubbing."""
        import pyarrow.compute as pc

        from whoosh_novo_ray.ops.curation import pii_scrub_table

        def inject(batch: pa.Table) -> pa.Table:
            n = len(batch)
            ids = batch["doc_id"].cast(pa.int64())
            tail = pc.binary_join_element_wise(
                pa.array(["contact user"] * n),
                pc.cast(ids, pa.string()),
                pa.array(["@example.com or 10.0."] * n),
                pc.cast(pc.bit_wise_and(ids, pa.scalar(255, pa.int64())), pa.string()),
                pa.array([".1 now"] * n),
                "",
            )
            text = pc.binary_join_element_wise(batch["text"], tail, " ")
            return pa.table({"doc_id": ids, "text": text})

        ds = _docs_ds(sf_dir).map_batches(
            inject, batch_format="pyarrow", zero_copy_batch=True
        )
        return pa.concat_tables(_collect(pii_scrub_table(ds))).sort_by("doc_id")

    def training_rows_q(sf_dir):
        """Composed shaping tail: PII scrub -> sliding chunk -> pack."""
        from whoosh_novo_ray.pipelines.curation import training_rows

        return pa.concat_tables(
            _collect(
                training_rows(
                    _docs_ds(sf_dir), chunk_tokens=64, stride=48, pack_budget=512
                )
            )
        ).sort_by([("doc_id", "ascending"), ("chunk_idx", "ascending")])

    def chunked(sf_dir):
        """Sliding context-window chunks (64 tokens, stride 48)."""
        from whoosh_novo_ray.ops.packing import chunk_documents

        return pa.concat_tables(
            _collect(chunk_documents(_docs_ds(sf_dir), chunk_tokens=64, stride=48))
        ).sort_by([("doc_id", "ascending"), ("chunk_idx", "ascending")])

    def packed(sf_dir):
        """Fixed token-budget sequence packing via distributed prefix-sum."""
        from whoosh_novo_ray.ops.packing import pack_sequences

        return pa.concat_tables(
            _collect(pack_sequences(_docs_ds(sf_dir), budget=2048, range_width=64))
        ).sort_by("doc_id")

    def stratified(sf_dir):
        """Deterministic per-language hash downsampling (corpus rebalance)."""
        from whoosh_novo_ray.ops.packing import stratified_sample

        return pa.concat_tables(
            _collect(
                stratified_sample(
                    _docs_ds(sf_dir, ("doc_id", "lang")),
                    rates={"en": 0.3, "zh": 0.8, "es": 0.5},
                    default_rate=1.0,
                )
            )
        ).sort_by("doc_id")

    def dedup_exact(sf_dir):
        from whoosh_novo_ray.ops import exact_dedup_keep

        ds = exact_dedup_keep(_docs_ds(sf_dir))
        return pa.concat_tables(_collect(ds)).sort_by("doc_id")

    def jaccard_pairs(sf_dir):
        from whoosh_novo_ray.ops import ngram_jaccard_pairs

        return ngram_jaccard_pairs(_docs_ds(sf_dir), n=3, threshold=0.2)

    def minhash_cands(sf_dir):
        from whoosh_novo_ray.ops import minhash_lsh_candidates

        return minhash_lsh_candidates(_docs_ds(sf_dir))

    def minhash_losers_collapsed(sf_dir):
        """Near-dup loser ids via the chain-collapsed path (equal-signature
        groups emit O(m) chain pairs, not O(m^2) cliques). The oracle
        derives the same loser set from the full clique pair SQL — loser
        sets are provably identical between the two shapes."""
        from whoosh_novo_ray.ops import minhash_lsh_candidates

        pairs = minhash_lsh_candidates(
            _docs_ds(sf_dir), threshold=0.8, collapse_equal=True
        )
        return pa.table(
            {
                "doc_id": pa.array(
                    np.unique(pairs["doc_b"].to_numpy(zero_copy_only=False)),
                    pa.int64(),
                )
            }
        )

    def simhash(sf_dir):
        from whoosh_novo_ray.ops import simhash_table

        t = pa.concat_tables(_collect(simhash_table(_docs_ds(sf_dir))))
        return pa.table(
            {
                "doc_id": t["doc_id"],
                # int64 view of the uint64 simhash for pandas-friendliness
                "simhash": pa.array(
                    t["simhash"].to_numpy().astype(np.int64), pa.int64()
                ),
            }
        ).sort_by("doc_id")

    def knn(sf_dir):
        import ray.data
        from whoosh_novo_ray.ops import brute_force_knn

        emb_path = os.path.join(sf_dir, "embeddings.parquet")
        q = pq.read_table(emb_path).filter(pc.field("vec_id") == 0)["embedding"][0].as_py()
        ds = ray.data.read_parquet(emb_path, columns=["vec_id", "embedding"])
        t = brute_force_knn(ds, np.asarray(q, np.float64), k=10)
        return t.drop_columns(["query_i"])

    def knn_lsh(sf_dir):
        # persisted bucket-partitioned index: the query reads ONLY its
        # bucket's parquet partition (no per-query corpus rescan)
        from whoosh_novo_ray.ops.ann_index import lsh_index_search

        return lsh_index_search(
            _ann_dir_for(sf_dir, "lsh"), _query_vec(sf_dir), k=10, nprobe=1
        ).drop_columns(["query_i"])

    def knn_lsh_multiprobe(sf_dir):
        from whoosh_novo_ray.ops.ann_index import lsh_index_search

        return lsh_index_search(
            _ann_dir_for(sf_dir, "lsh"), _query_vec(sf_dir), k=10, nprobe=2
        ).drop_columns(["query_i"])

    def knn_ivf(sf_dir):
        # persisted cell-partitioned IVF (seed centroids = embeddings of
        # vec_id < 8, the SQL-mirrorable rule): reads only the 3 probe cells
        from whoosh_novo_ray.ops.ann_index import ivf_index_search

        return ivf_index_search(
            _ann_dir_for(sf_dir, "ivf"), _query_vec(sf_dir), k=10, nprobe=3
        ).drop_columns(["query_i"])

    def near_dup_cosine(sf_dir):
        import ray.data
        from whoosh_novo_ray.ops import cosine_near_dup_pairs

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "embeddings.parquet"),
            columns=["vec_id", "embedding", "label"],
        )
        return cosine_near_dup_pairs(ds, threshold=0.9)

    def dedup_clusters(sf_dir):
        """Connected components over the MinHash candidate pairs: cluster
        id = the component's minimum doc id (what keep-one-per-cluster
        dedup actually needs — pairwise doc_b drops under-merge chains)."""
        from whoosh_novo_ray.ops.dedup import (
            connected_components,
            minhash_lsh_candidates,
        )

        pairs = minhash_lsh_candidates(_docs_ds(sf_dir))
        return connected_components(pairs).sort_by("doc_id")

    def curated_docs(sf_dir):
        """The composed curation pipeline: exact dedup + MinHash near-dup
        removal + quality/language gate + BPE budget, combined in one
        sharded bitmask join."""
        from whoosh_novo_ray.pipelines.curation import curated_corpus

        return curated_corpus(
            _docs_ds(sf_dir), min_tokens=40, stop_ratio=0.08, dup_threshold=0.9
        )

    def simhash_near_dup(sf_dir):
        """SimHash Hamming-band near-dup pairs (<= 3 differing bits)."""
        from whoosh_novo_ray.ops.dedup import simhash_near_dup_pairs

        return simhash_near_dup_pairs(_docs_ds(sf_dir), k=3, bands=4)

    def near_dup_lsh_blocked(sf_dir):
        """Embedding near-dups blocked by the LSH bucket (the scale path:
        pairwise cosine only WITHIN a hyperplane bucket)."""
        from whoosh_novo_ray.ops import lsh_blocked_near_dup

        return lsh_blocked_near_dup(
            _emb_ds(sf_dir), threshold=0.3, nbits=8, seed=5
        )

    def html_roundtrip(sf_dir):
        """The north-rule extraction invariant, end-to-end: wrap each doc's
        text as ``<html><body>...</body></html>`` binary (the synthetic-pages
        wrapper), run the vectorized html->text ExtractText stage, and return
        (doc_id, text). The oracle is the raw documents table, so a hash
        match PROVES byte-identical extraction per doc."""
        from whoosh_novo_ray.ops.extract import ExtractText, wrap_html_array

        def to_html(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "doc_id": batch["doc_id"],
                    "html": wrap_html_array(batch["text"]),
                }
            )

        ds = _docs_ds(sf_dir).map_batches(
            to_html, batch_format="pyarrow", zero_copy_batch=True
        ).map_batches(
            ExtractText("html", "text"),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        t = pa.concat_tables(_collect(ds)).sort_by("doc_id")
        return pa.table(
            {"doc_id": t["doc_id"].cast(pa.int64()), "text": t["text"]}
        )

    def bpe_token_counts(sf_dir):
        """BPE-ish pre-tokenizer token budget per document."""
        from whoosh_novo_ray.ops.textstats import bpe_token_table

        tables = _collect(bpe_token_table(_docs_ds(sf_dir)))
        return pa.concat_tables(tables).sort_by("doc_id")

    def numeric_range(sf_dir):
        ds = _docs_ds(sf_dir, ("doc_id", "n_chars")).filter(
            expr="n_chars >= 500 and n_chars <= 900"
        )
        t = pa.concat_tables(_collect(ds))
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "n_chars": t["n_chars"].cast(pa.int64()),
            }
        ).sort_by("doc_id")

    def facet_lang(sf_dir):
        """FacetCollector analog: matching-doc counts per lang for a term.
        Distributed end-to-end: shard actors evaluate the query over their
        docs AND read only their matches' attribute rows; the driver sums
        the per-key partials."""
        t = _pool_for(sf_dir).facet_counts(
            Term(_T_MID), os.path.join(sf_dir, "documents.parquet"), "lang"
        )
        return pa.table(
            {
                "lang": t["key"],
                "n": t["count"].cast(pa.int64()),
            }
        ).sort_by("lang")

    def collapse_source(sf_dir):
        """CollapseCollector via the engine's collapse_search operator; the
        source attribute comes from a matched-ids-only streamed filter."""
        # distributed collapse: shards return their per-key best candidates
        # (a superset of the global winners), driver re-collapses — exact
        t = _pool_for(sf_dir).collapse_search(
            Term(_T_MID),
            os.path.join(sf_dir, "documents.parquet"),
            "source",
            per_key=2,
        )
        return pa.table(
            {
                "source": t["key"],
                "doc_id": t["doc_id"].cast(pa.int64()),
                "score": pa.array(
                    np.round(t["score"].to_numpy(), 6), pa.float64()
                ),
            }
        ).sort_by([("source", "ascending"), ("doc_id", "ascending")])

    def bm25_or_wand(sf_dir):
        # distributed block-max WAND: each doc-shard actor runs the
        # skip-table cursor loop over ITS blocks, driver k-way merges
        t, _stats = _pool_for(sf_dir).wand_topk([_T_MID, _T_MID2], 10)
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "score": pa.array(np.round(t["score"].to_numpy(), 6), pa.float64()),
            }
        )

    def filtered_or_top10(sf_dir):
        # FilterCollector parity (reference collectors.py:659-763) through
        # the doc-shard pool: allow = a QUERY (each actor computes its local
        # comb — the filter's postings never leave the shards), restrict = a
        # doc-id SET (shipped once, shared via the object store when large)
        n = pq.read_metadata(
            os.path.join(sf_dir, "documents.parquet")
        ).num_rows
        mask_ids = np.arange(0, n, 7, dtype=np.uint64)
        t = _pool_for(sf_dir).search(
            Or(Term(_T_MID), Term(_T_MID2)),
            limit=10,
            filter=Term(_T_COMMON),
            mask=mask_ids,
        )
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "score": pa.array(np.round(t["score"].to_numpy(), 6), pa.float64()),
            }
        )

    def upgrade_extend(sf_dir):
        # Results merge algebra (reference searching.py:1375-1410): hits of
        # A also matching B rise (original order kept), then A's rest, then
        # B's top hits novel to A append — docset membership uses the FULL
        # match sets, not the top-20 cuts (Results.docs() semantics)
        s = _searcher_for(sf_dir)
        a = s.search_results(Or(Term(_T_MID), Term(_T_MID2)), limit=20)
        b = s.search_results(Term(_T_COMMON), limit=20)
        a.upgrade_and_extend(b)
        return pa.table(
            {
                "rank": pa.array(np.arange(a.scored_length()), pa.int64()),
                "doc_id": pa.array(a.ids.astype(np.int64), pa.int64()),
                "score": pa.array(np.round(a.scores, 6), pa.float64()),
            }
        )

    def document_numbers_q(sf_dir):
        # Searcher.document_numbers keyword lookup (reference
        # searching.py:438-452): text term AND attribute equality
        s = _searcher_for(sf_dir)
        attrs = pq.read_table(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "lang"],
        )
        ids = s.document_numbers(attrs, text=_T_MID, lang="en")
        return pa.table({"doc_id": pa.array(ids.astype(np.int64), pa.int64())})

    def fuzzy_docs(sf_dir):
        from whoosh_novo_ray.search.fuzzy import FuzzyTerm

        s = _searcher_for(sf_dir)
        ids, scores = s.postings(FuzzyTerm(_T_MID, maxdist=1, prefixlength=1))
        return pa.table(
            {
                "doc_id": pa.array(ids.astype(np.int64), pa.int64()),
                "score": pa.array(np.round(scores, 6), pa.float64()),
            }
        )

    def suggest_terms(sf_dir):
        from whoosh_novo_ray.search.fuzzy import suggest

        sugs = suggest(_index_for(sf_dir), "quey", limit=5, maxdist=2)
        return pa.table(
            {
                "rank": pa.array(range(len(sugs)), pa.int64()),
                "term": pa.array(sugs, pa.string()),
            }
        )

    def latest_event_per_user(sf_dir):
        import ray.data
        from whoosh_novo_ray.ops.upsert import latest_by_key

        ev = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["event_id", "user_id", "ts", "event_type"],
        )
        out = latest_by_key(ev, key="user_id", ts="ts", tiebreak="event_id")
        t = pa.concat_tables(_collect(out))
        return pa.table(
            {
                "user_id": t["user_id"].cast(pa.int64()),
                "event_id": t["event_id"].cast(pa.int64()),
                "event_type": t["event_type"],
            }
        ).sort_by("user_id")

    def key_terms_doc0(sf_dir):
        # key terms from the STORED per-doc term vectors (built once next
        # to the index) — no query-time re-analysis; identical scores to
        # the key_terms_from_text fallback
        from whoosh_novo_ray.index.vectors import (
            build_doc_vectors,
            key_terms_from_vectors,
        )

        idx = _index_for(sf_dir)
        build_doc_vectors(
            _docs_ds(sf_dir),
            idx.path,
            idx.cfg,
            n_shards=8,
            lineage=f"vec:{sf_dir}",
            resume=True,
        )
        kt = key_terms_from_vectors(
            _searcher_for(sf_dir), idx.path, [0], numterms=5, normalize=False
        )
        return pa.table(
            {
                "term": pa.array([t for t, _ in kt], pa.string()),
                "score": pa.array([round(x, 6) for _, x in kt], pa.float64()),
            }
        )

    def phrase_slop2(sf_dir):
        return _search_table(sf_dir, Phrase([_T_MID, _T_MID2], slop=2), 10)

    def spancondition_docs(sf_dir):
        """Span-level Require: docs where the adjacent pair (_T_MID
        _T_MID2) occurs AND _T_COMMON is present; spans come from the pair
        only, but the wrapped IntersectionMatcher scores a+b (reference
        spans.py:855-930), so the score sums all three terms' BM25."""
        from whoosh_novo_ray.search.spans import SpanCondition, SpanNear2, SpanTerm

        q = SpanCondition(
            SpanNear2([SpanTerm(_T_MID), SpanTerm(_T_MID2)], slop=1),
            SpanTerm(_T_COMMON),
        )
        return _search_table(sf_dir, q, 10**9)

    def span_first_docs(sf_dir):
        """SpanFirst: _T_MID occurring within the first 4 token positions
        (span.end <= 3; reference spans.py SpanFirst). Scored from the term
        matcher on surviving docs."""
        from whoosh_novo_ray.search.spans import SpanFirst, SpanTerm

        return _search_table(sf_dir, SpanFirst(SpanTerm(_T_MID), limit=3), 10**9)

    def span_not_docs(sf_dir):
        """SpanNot: adjacent (_T_MID _T_MID2) pairs whose span does NOT
        contain an occurrence of _T_COMMON (overlap test, reference
        spans.py SpanNot); scores sum the involved terms' BM25."""
        from whoosh_novo_ray.search.spans import SpanNear2, SpanNot, SpanTerm

        q = SpanNot(
            SpanNear2([SpanTerm(_T_MID), SpanTerm(_T_MID2)], slop=1),
            SpanTerm(_T_COMMON),
        )
        return _search_table(sf_dir, q, 10**9)

    def span_before_docs(sf_dir):
        """SpanBefore: docs where some _T_MID occurrence precedes some
        _T_MID2 occurrence (b.start > a.end; reference spans.py:869-901)."""
        from whoosh_novo_ray.search.spans import SpanBefore, SpanTerm

        return _search_table(
            sf_dir, SpanBefore(SpanTerm(_T_MID), SpanTerm(_T_MID2)), 10**9
        )

    def not_docs(sf_dir):
        """Negation: every doc NOT containing _T_MID (AndNot(Every, term);
        the reference's Not normalizes to the same matcher shape), constant
        1.0 from Every."""
        from whoosh_novo_ray.search import AndNot, Every

        return _search_table(sf_dir, AndNot(Every(), Term(_T_MID)), 10**9)

    def otherwise_top10(sf_dir):
        """Otherwise(a, b): b's results because a matches nothing (reference
        query/compound.py:578-590) — drives the local-fallback path."""
        from whoosh_novo_ray.search import Otherwise

        return _search_table(
            sf_dir, Otherwise(Term(_T_ABSENT), Term(_T_MID)), 10
        )

    def facet_nchars_ranges(sf_dir):
        """RangeFacet: matched-doc counts per n_chars bucket [0,2000) gap
        500 (reference sorting.py RangeFacet label + clipping semantics)."""
        from whoosh_novo_ray.search.sorting import RangeFacet, facet_counts

        attrs = pq.read_table(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "n_chars"],
        )
        return facet_counts(
            _searcher_for(sf_dir),
            Term(_T_MID),
            RangeFacet(attrs, "n_chars", 0, 2000, 500),
        )

    def facet_query_named(sf_dir):
        """QueryFacet: key = name of the FIRST matching sub-query (dict
        order), docs matching neither drop (reference sorting.py
        QueryFacet)."""
        from whoosh_novo_ray.search.sorting import QueryFacet, facet_counts

        return facet_counts(
            _searcher_for(sf_dir),
            Term(_T_MID),
            QueryFacet(
                {"has_window": Term(_T_MID2), "has_table": Term(_T_COMMON)}
            ),
        )

    def facet_best_by_lang(sf_dir):
        """Facet Best map: the single best (score desc, doc_id asc) match
        per lang key (reference sorting.py Best maptype)."""
        from whoosh_novo_ray.search.sorting import FieldFacet, facet_groups

        attrs = pq.read_table(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "lang"],
        )
        t = facet_groups(
            _searcher_for(sf_dir),
            Term(_T_MID),
            FieldFacet(attrs, "lang"),
            best_only=True,
        )
        return pa.table(
            {
                "key": t["key"],
                "doc_id": t["doc_id"].cast(pa.int64()),
                "score": pa.array(np.round(t["score"].to_numpy(), 6), pa.float64()),
            }
        )

    def more_like_doc0(sf_dir):
        """More-like-this for doc 0: Bo1 key-term expansion of its text into
        an OR query (reference Searcher.more_like, searching.py:509-613)."""
        import pyarrow.compute as _pc

        from whoosh_novo_ray.search.classify import more_like

        dt = pq.read_table(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text"],
        )
        text0 = dt.filter(_pc.equal(dt["doc_id"], 0))["text"][0].as_py()
        t = more_like(_searcher_for(sf_dir), text0, numterms=5, limit=10)
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "score": pa.array(np.round(t["score"].to_numpy(), 6), pa.float64()),
            }
        )

    def or3_hit_count(sf_dir):
        """Total hit count of a 3-term OR (Results length semantics)."""
        ids, _ = _searcher_for(sf_dir).postings(
            Or(Term(_T_MID), Term(_T_MID2), Term(_T_COMMON))
        )
        return pa.table({"n": pa.array([len(ids)], pa.int64())})

    def image_features_q(sf_dir):
        import ray.data
        from whoosh_novo_ray.ops.multimodal import image_features

        docs = pq.read_table(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
        )
        tbl = pa.table(
            {
                "doc_id": docs["doc_id"].cast(pa.int64()),
                "payload": pa.array(
                    [t.encode("utf-8") for t in docs["text"].to_pylist()],
                    pa.binary(),
                ),
            }
        )
        out = pa.concat_tables(_collect(image_features(ray.data.from_arrow(tbl))))
        out = out.drop_columns(["embedding"]).sort_by("doc_id")
        return pa.table(
            {
                "doc_id": out["doc_id"],
                "width": out["width"].cast(pa.int64()),
                "height": out["height"].cast(pa.int64()),
                "channels": out["channels"].cast(pa.int64()),
            }
        )

    def _mf_searcher(sf_dir):
        from whoosh_novo_ray.index.build import IndexConfig as _IC
        from whoosh_novo_ray.index.multifield import (
            MultiFieldIndex,
            MultiFieldSearcher,
            build_multifield_index,
        )

        out = os.path.join(
            "/tmp/wnr_indexes",
            sf_dir.strip("/").replace("/", "_") + "_mf",
        )
        build_multifield_index(
            _docs_ds(sf_dir, ("doc_id", "text", "source")),
            out,
            fields={
                "text": _IC(text_col="text", num_buckets=8),
                "source": _IC(text_col="source", num_buckets=2),
            },
            lineage=_cache_lineage("mf", sf_dir),
            resume=True,
        )
        return MultiFieldSearcher(MultiFieldIndex(out), default_field="text")

    def fielded_and(sf_dir):
        from whoosh_novo_ray.search import And as _And
        from whoosh_novo_ray.search import Term as _Term

        t = _mf_searcher(sf_dir).search(
            _And(_Term(_T_MID), _Term("src5", field="source")), limit=10**9
        )
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "score": pa.array(np.round(t["score"].to_numpy(), 6), pa.float64()),
            }
        )

    def multifield_parse(sf_dir):
        """MultifieldParser: unfielded terms fan out over (text OR source)
        with a source fieldboost — reference MultifieldPlugin semantics."""
        from whoosh_novo_ray.search.qparser import MultifieldParser

        p = MultifieldParser(
            ["text", "source"], fieldboosts={"source": 2.0}
        )
        t = _mf_searcher(sf_dir).search(p.parse(f"{_T_MID} src7"), limit=10)
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "score": pa.array(np.round(t["score"].to_numpy(), 6), pa.float64()),
            }
        )

    def variations_top10(sf_dir):
        from whoosh_novo_ray.search import Variations

        return _search_table(sf_dir, Variations(_T_COMMON), 10)

    def sorted_by_nchars(sf_dir):
        """SortingCollector: matches of a term ordered by a stored numeric
        attribute (FieldFacet), ties by doc_id."""
        from whoosh_novo_ray.search.sorting import FieldFacet, sorted_search

        s = _searcher_for(sf_dir)
        t = sorted_search(
            s,
            Term(_T_MID),
            # parquet-path facet: matched rows only, streamed
            FieldFacet(os.path.join(sf_dir, "documents.parquet"), "n_chars"),
        )
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "n_chars": pc.cast(
                    pa.array([int(k) for k in t["key"].to_pylist()]), pa.int64()
                ),
            }
        )

    def termrange_docs(sf_dir):
        from whoosh_novo_ray.search import TermRange

        t = _search_table(sf_dir, TermRange("table", "tables"), 10**9)
        return t.sort_by("doc_id")

    def paged_or(sf_dir):
        """ResultsPage: the SECOND page (pagelen 7) of an OR query."""
        from whoosh_novo_ray.search import Or

        page = _searcher_for(sf_dir).search_page(
            Or(Term(_T_MID), Term(_T_MID2)), 2, pagelen=7
        )
        t = page["results"]
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "score": pa.array(
                    np.round(t["score"].to_numpy(), 6), pa.float64()
                ),
            }
        )

    def simpleparser_top10(sf_dir):
        """SimpleParser / PlusMinusPlugin: '+query window -table'."""
        from whoosh_novo_ray.search.qparser import QueryParser

        q = QueryParser().simple_parse(f"+{_T_MID} {_T_MID2} -{_T_COMMON}")
        return _search_table(sf_dir, q, 10)

    def dateparse_range(sf_dir):
        """Natural-language date range ('jan 5th 2024 to last tuesday' at a
        fixed basedate) filtering events.ts — the DateParserPlugin analog.
        The filter streams over the events Dataset."""
        from datetime import datetime, timezone

        import ray.data

        from whoosh_novo_ray.search.dateparse import parse_range

        base = datetime(2024, 2, 1, 12, 0, 0, tzinfo=timezone.utc)
        s, e = parse_range("jan 5th 2024 to last tuesday", base)
        s64 = np.datetime64(s.replace(tzinfo=None))
        e64 = np.datetime64(e.replace(tzinfo=None))

        def keep(batch: pa.Table) -> pa.Table:
            ts = batch["ts"].to_numpy(zero_copy_only=False)
            return batch.filter(pa.array((ts >= s64) & (ts <= e64)))

        ev = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"), columns=["event_id", "ts"]
        ).map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)
        t = pa.concat_tables(_collect(ev))
        ts_us = t["ts"].cast(pa.int64())
        return pa.table(
            {
                "event_id": t["event_id"].cast(pa.int64()),
                "ts_us": ts_us,
            }
        ).sort_by("event_id")

    def window_agg(sf_dir):
        import ray.data
        from whoosh_novo_ray.ops.windows import tumbling_window_agg

        ev = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["ts", "event_type", "value"],
        )
        t = pa.concat_tables(_collect(tumbling_window_agg(ev, width_s=86400)))
        import pyarrow.compute as _pc

        return pa.table(
            {
                "event_type": t["event_type"],
                "window_start": t["window_start"],
                "n": t["n"],
                "sum_value": _pc.round(t["sum_value"], ndigits=6),
                "mean_value": _pc.round(t["mean_value"], ndigits=6),
                "min_value": _pc.round(t["min_value"], ndigits=6),
                "max_value": _pc.round(t["max_value"], ndigits=6),
            }
        ).sort_by([("event_type", "ascending"), ("window_start", "ascending")])

    def _ngram_searcher(sf_dir):
        """Searcher over a char-3-gram index (reference NGRAM field,
        fields.py NGRAM / ngrams.py NgramTokenizer): grams over the whole
        lowercased value, field length = gram count."""
        from whoosh_novo_ray.analysis import NgramAnalyzer
        from whoosh_novo_ray.index import Index, IndexConfig, build_index
        from whoosh_novo_ray.search import Searcher

        key = ("ng3", sf_dir)
        if key not in _INDEX_CACHE:
            out = os.path.join(
                "/tmp/wnr_indexes",
                sf_dir.strip("/").replace("/", "_") + "_ng3",
            )
            build_index(
                _docs_ds(sf_dir),
                out,
                IndexConfig(num_buckets=8, analyzer=NgramAnalyzer(3, 3)),
                lineage=_cache_lineage("ng3", sf_dir),
                resume=True,
            )
            _INDEX_CACHE[key] = Index(out)
        return Searcher(_INDEX_CACHE[key])

    def _stem_searcher(sf_dir):
        from whoosh_novo_ray.analysis import StandardAnalyzer

        return _variant_searcher(sf_dir, "stem", StandardAnalyzer(stem=True))

    def stemmed_bm25_top10(sf_dir):
        """StemFilter end-to-end: a Porter-stemmed index, queried with the
        STEMS of two surface words (reference StemFilter in the default TEXT
        chain, analysis/morph.py) — proves postings store stemmed terms."""
        from whoosh_novo_ray.porter import stem
        from whoosh_novo_ray.search import Or

        q = Or(Term(stem(_T_MID)), Term(stem(_T_COMMON)))
        t = _stem_searcher(sf_dir).search(q, limit=10)
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "score": pa.array(np.round(t["score"].to_numpy(), 6), pa.float64()),
            }
        )

    def _variant_searcher(sf_dir, tag, analyzer):
        """Index the documents table under a non-default analyzer, cached per
        (tag, sf_dir) like _ngram_searcher/_stem_searcher."""
        from whoosh_novo_ray.index import Index, IndexConfig, build_index
        from whoosh_novo_ray.search import Searcher

        key = (tag, sf_dir)
        if key not in _INDEX_CACHE:
            out = os.path.join(
                "/tmp/wnr_indexes",
                sf_dir.strip("/").replace("/", "_") + "_" + tag,
            )
            build_index(
                _docs_ds(sf_dir),
                out,
                IndexConfig(num_buckets=8, analyzer=analyzer),
                lineage=_cache_lineage(tag, sf_dir),
                resume=True,
            )
            _INDEX_CACHE[key] = Index(out)
        return Searcher(_INDEX_CACHE[key])

    def biword_bm25_top10(sf_dir):
        """BiWord/ShingleFilter end-to-end: an index of adjacent-surviving-
        token bigrams (reference BiWordFilter / ShingleFilter(2),
        analysis/intraword.py:181), BM25 over two biword terms."""
        from whoosh_novo_ray.analysis import StandardAnalyzer
        from whoosh_novo_ray.search import Or

        s = _variant_searcher(sf_dir, "biword", StandardAnalyzer(shingle=2))
        q = Or(Term(f"{_T_MID}-{_T_COMMON}"), Term(f"{_T_COMMON}-{_T_MID}"))
        t = s.search(q, limit=10)
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "score": pa.array(np.round(t["score"].to_numpy(), 6), pa.float64()),
            }
        )

    def reversed_suffix_docs(sf_dir):
        """ReverseTextFilter end-to-end (reference analysis/filters.py:314):
        an index of reversed tokens makes Prefix(reversed_suffix) a SUFFIX
        search — here every doc containing a token ending in 'dow'."""
        from whoosh_novo_ray.analysis import StandardAnalyzer
        from whoosh_novo_ray.search import Prefix as _Prefix

        s = _variant_searcher(
            sf_dir, "revtext", StandardAnalyzer(reverse_text=True)
        )
        t = s.search(_Prefix("dow"[::-1]), limit=10**9)
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "score": pa.array(np.round(t["score"].to_numpy(), 6), pa.float64()),
            }
        ).sort_by("doc_id")

    def ngram_and_top10(sf_dir):
        """Substring search on the ngram field: query-mode grams of the word
        (NgramTokenizer mode='query' → one gram size) ANDed, BM25-scored."""
        from whoosh_novo_ray.analysis import NgramAnalyzer

        grams = NgramAnalyzer(3, 3).query_tokens(_T_MID2)
        t = _ngram_searcher(sf_dir).search(
            And(*[Term(g) for g in grams]), limit=10
        )
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "score": pa.array(np.round(t["score"].to_numpy(), 6), pa.float64()),
            }
        )

    def sequence_prefix_top10(sf_dir):
        """Sequence with a term-expanding child: Prefix('wi') occurrences
        union per child, adjacency chain (slop=1), scored as the summed
        union of the matched terms (the cached global-occurrence-key path)."""
        from whoosh_novo_ray.search import Sequence

        return _search_table(
            sf_dir, Sequence(Term(_T_MID), Prefix("wi")), 10
        )

    def ordered_top10(sf_dir):
        """Ordered: first child's MIN position precedes every later child's
        MIN position (reference SpanBefore left-fold quirk — ordering among
        the later children is NOT enforced)."""
        from whoosh_novo_ray.search import Ordered

        return _search_table(
            sf_dir, Ordered(Term(_T_MID), Term(_T_COMMON)), 10
        )

    def _weighted_search(sf_dir, weighting, q, limit=10):
        from whoosh_novo_ray.search import Searcher

        t = Searcher(_index_for(sf_dir), weighting=weighting).search(q, limit=limit)
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "score": pa.array(np.round(t["score"].to_numpy(), 6), pa.float64()),
            }
        )

    def tfidf_top10(sf_dir):
        from whoosh_novo_ray.search.scoring import TFIDF

        return _weighted_search(sf_dir, TFIDF(), Term(_T_MID))

    def frequency_top10(sf_dir):
        from whoosh_novo_ray.search.scoring import Frequency

        return _weighted_search(sf_dir, Frequency(), Term(_T_MID))

    def dfree_top10(sf_dir):
        from whoosh_novo_ray.search.scoring import DFree

        return _weighted_search(sf_dir, DFree(), Term(_T_MID))

    def pl2_top10(sf_dir):
        from whoosh_novo_ray.search.scoring import PL2

        return _weighted_search(sf_dir, PL2(), Term(_T_MID))

    def reverse_bm25_top10(sf_dir):
        from whoosh_novo_ray.search.scoring import BM25F, ReverseWeighting

        return _weighted_search(sf_dir, ReverseWeighting(BM25F()), Term(_T_MID))

    def function_weighting_top10(sf_dir):
        """FunctionWeighting: user fn over (tfs, len_bytes, stats) — fn sees
        the RAW quantized length byte, mirrored by q.len_byte in SQL."""
        from whoosh_novo_ray.search.scoring import FunctionWeighting

        def fn(tfs, len_bytes, st):
            return (
                np.asarray(tfs, np.float64)
                / (np.asarray(len_bytes, np.float64) + 1.0)
                * (st["doc_count"] / st["df"])
            )

        return _weighted_search(sf_dir, FunctionWeighting(fn), Term(_T_MID))

    def term_boost_or_top10(sf_dir):
        """Query-side boost: Term(boost=2) doubles its BM25 contribution
        (reference query/terms.py Term.boost through the scorer)."""
        return _search_table(
            sf_dir, Or(Term(_T_MID), Term(_T_MID2, boost=2.0)), 10
        )

    def doc_boost_top10(sf_dir):
        """Index-side doc boost (reference _boost kwarg, writing.py): posting
        weight = tf x doc boost, stored float32-quantized with
        IndexConfig(with_weights=True, boost_col=...); BM25 uses the weight
        as tf. Boost column derives from doc_id so DuckDB can mirror it."""
        from whoosh_novo_ray.index import Index, IndexConfig, build_index
        from whoosh_novo_ray.search import Searcher

        key = ("boost", sf_dir)
        if key not in _INDEX_CACHE:

            def add_boost(batch: pa.Table) -> pa.Table:
                ids = batch["doc_id"].to_numpy()
                return batch.append_column(
                    "b", pa.array(1.0 + (ids % 4) * 0.5, pa.float64())
                )

            out = os.path.join(
                "/tmp/wnr_indexes",
                sf_dir.strip("/").replace("/", "_") + "_boost",
            )
            build_index(
                _docs_ds(sf_dir).map_batches(add_boost, batch_format="pyarrow"),
                out,
                IndexConfig(num_buckets=8, with_weights=True, boost_col="b"),
                lineage=_cache_lineage("boost", sf_dir),
                resume=True,
            )
            _INDEX_CACHE[key] = Index(out)
        t = Searcher(_INDEX_CACHE[key]).search(Term(_T_MID), limit=10)
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "score": pa.array(np.round(t["score"].to_numpy(), 6), pa.float64()),
            }
        )

    def _doc_ids(sf_dir) -> "np.ndarray":
        return pq.read_table(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
        )["doc_id"].to_numpy()

    def _incr_index(sf_dir, kind):
        """Generational-index fixtures driving create/add/delete/update +
        merge policies through the driver gate. Rebuilt from scratch each
        process (rmtree: generations persist on disk and a stale CURRENT
        would double-apply the delta)."""
        import shutil as _sh

        from whoosh_novo_ray.index import IndexConfig
        from whoosh_novo_ray.index.incremental import GenerationalIndex

        key = (f"incr_{kind}", sf_dir)
        if key in _INDEX_CACHE:
            return _INDEX_CACHE[key]
        root = os.path.join(
            "/tmp/wnr_indexes",
            sf_dir.strip("/").replace("/", "_") + f"_incr_{kind}",
        )
        _sh.rmtree(root, ignore_errors=True)
        cfg = IndexConfig(num_buckets=8)

        def parity(rem):
            def keep(batch: pa.Table) -> pa.Table:
                return batch.filter(
                    pc.equal(pc.bit_wise_and(batch["doc_id"], 1), rem)
                )

            return _docs_ds(sf_dir).map_batches(keep, batch_format="pyarrow")

        if kind == "add":
            # even half as the base, odd half appended under MERGE_SMALL —
            # the search runs over the resulting multi-member MultiIndex
            gi = GenerationalIndex(root, cfg, policy="merge_small")
            gi.create(parity(0), lineage=f"incr-add-base:{sf_dir}")
            idx = gi.add_documents(parity(1), lineage=f"incr-add-delta:{sf_dir}")
        elif kind == "delete":
            gi = GenerationalIndex(root, cfg, policy="optimize")
            gi.create(_docs_ds(sf_dir), lineage=f"incr-del-base:{sf_dir}")
            ids = _doc_ids(sf_dir)
            idx = gi.delete_documents(
                ids[ids % 7 == 0], lineage=f"incr-del:{sf_dir}"
            )
        else:  # update (upsert: replaced text rides a trim + delta merge)
            import ray.data

            gi = GenerationalIndex(root, cfg, policy="merge_small")
            gi.create(_docs_ds(sf_dir), lineage=f"incr-upd-base:{sf_dir}")
            ids = _doc_ids(sf_dir)
            upd = ids[ids % 11 == 0]
            delta = pa.table(
                {
                    "doc_id": pa.array(upd, pa.int64()),
                    "text": [f"updated window document {i}" for i in upd],
                }
            )
            idx = gi.update_documents(
                ray.data.from_arrow(delta), lineage=f"incr-upd-delta:{sf_dir}"
            )
        _INDEX_CACHE[key] = idx
        return idx

    def _incr_search(sf_dir, kind, term):
        from whoosh_novo_ray.search import Searcher

        t = Searcher(_incr_index(sf_dir, kind)).search(Term(term), limit=10)
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "score": pa.array(np.round(t["score"].to_numpy(), 6), pa.float64()),
            }
        )

    def incr_add_top10(sf_dir):
        return _incr_search(sf_dir, "add", _T_MID)

    def incr_delete_top10(sf_dir):
        return _incr_search(sf_dir, "delete", _T_MID)

    def incr_update_top10(sf_dir):
        return _incr_search(sf_dir, "update", _T_MID2)

    def ngramwords_or_top10(sf_dir):
        """NGRAMWORDS field (reference NgramWordAnalyzer): word-level 3-grams
        indexed, query word expanded to its query-mode grams, Or + BM25."""
        from whoosh_novo_ray.analysis import NgramWordsAnalyzer
        from whoosh_novo_ray.index import Index, IndexConfig, build_index
        from whoosh_novo_ray.search import Searcher

        ana = NgramWordsAnalyzer(3, 3)
        key = ("nw3", sf_dir)
        if key not in _INDEX_CACHE:
            out = os.path.join(
                "/tmp/wnr_indexes",
                sf_dir.strip("/").replace("/", "_") + "_nw3",
            )
            build_index(
                _docs_ds(sf_dir),
                out,
                IndexConfig(num_buckets=8, analyzer=ana),
                lineage=_cache_lineage("nw3", sf_dir),
                resume=True,
            )
            _INDEX_CACHE[key] = Index(out)
        grams = ana.query_tokens(_T_MID)
        t = Searcher(_INDEX_CACHE[key]).search(
            Or(*[Term(g) for g in grams]), limit=10
        )
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "score": pa.array(np.round(t["score"].to_numpy(), 6), pa.float64()),
            }
        )

    def sorted_multi_top20(sf_dir):
        """Multi-key sort with a per-facet reverse flag (reference
        sortedby=[FieldFacet(lang), FieldFacet(n_chars, reverse=True)]);
        the limit makes the composite ordering observable in the row set.
        Routed through the distributed SortingCollector: shards return
        their top-20 by the sort keys, the driver re-ranks the union."""
        path = os.path.join(sf_dir, "documents.parquet")
        t = _pool_for(sf_dir).sorted_search(
            Term(_T_MID),
            path,
            ["lang", "n_chars"],
            reverses=[False, True],
            limit=20,
        )
        ids = t["doc_id"].to_numpy().astype(np.int64)
        attrs = pq.read_table(path, columns=["doc_id", "lang", "n_chars"])
        aid = attrs["doc_id"].to_numpy()
        order = np.argsort(aid)
        pos = order[np.searchsorted(aid[order], ids)]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "lang": attrs["lang"].take(pa.array(pos)),
                "n_chars": attrs["n_chars"].take(pa.array(pos)).cast(
                    pa.int64()
                ),
            }
        )

    def collapse_ordered(sf_dir):
        """Collapse with an ORDER facet (reference collapse_order): per
        source keep the matching doc with the LOWEST n_chars (doc_id
        tiebreak) — selection by the order column, not by score."""
        t = _pool_for(sf_dir).collapse_search(
            Term(_T_MID),
            os.path.join(sf_dir, "documents.parquet"),
            "source",
            per_key=1,
            order_column="n_chars",
        )
        return pa.table(
            {
                "source": t["key"],
                "doc_id": t["doc_id"].cast(pa.int64()),
                "score": pa.array(
                    np.round(t["score"].to_numpy(), 6), pa.float64()
                ),
            }
        ).sort_by([("source", "ascending"), ("doc_id", "ascending")])

    def nested_parent_top10(sf_dir):
        """NestedParent: match children (Or of two terms), score the owner
        parent with the sum of its children's BM25 scores (reference
        query/nested.py NestedParent, default sum combiner)."""
        from whoosh_novo_ray.search import Searcher

        t = Searcher(_nested_index(sf_dir)).search(
            NestedParent(Term("xchap"), Or(Term(_T_MID), Term(_T_MID2))),
            limit=10,
        )
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "score": pa.array(
                    np.round(t["score"].to_numpy(), 6), pa.float64()
                ),
            }
        )

    def nested_children_docs(sf_dir):
        """NestedChildren: all children of parents matching the parent
        query (reference query/nested.py NestedChildren; constant score)."""
        from whoosh_novo_ray.search import Searcher

        t = Searcher(_nested_index(sf_dir)).search(
            NestedChildren(Term("xchap"), Or(Term("src3"), Term("src7"))),
            limit=10**9,
        )
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "score": pa.array(
                    np.round(t["score"].to_numpy(), 6), pa.float64()
                ),
            }
        )

    def sessions(sf_dir):
        import ray.data
        from whoosh_novo_ray.ops.windows import sessionize

        ev = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["event_id", "user_id", "ts"],
        )
        t = pa.concat_tables(_collect(sessionize(ev, gap_s=1800)))
        return t.sort_by([("event_id", "ascending")])

    def _compat_ix(sf_dir):
        """Shared facade index over documents: text TEXT + n_chars NUMERIC
        (stored) — built once per process via the real writer workflow."""
        import shutil

        import whoosh_novo_ray.compat as C

        key = ("compat", sf_dir)
        if key not in _INDEX_CACHE:
            root = os.path.join(
                "/tmp/wnr_compat", sf_dir.strip("/").replace("/", "_")
            )
            shutil.rmtree(root, ignore_errors=True)
            cix = C.create_in(
                root, C.Schema(text=C.TEXT(), n_chars=C.NUMERIC("int"))
            )
            rows = pq.read_table(
                os.path.join(sf_dir, "documents.parquet"),
                columns=["doc_id", "text", "n_chars"],
            ).sort_by("doc_id")
            with cix.writer() as w:
                for txt, nc in zip(
                    rows["text"].to_pylist(), rows["n_chars"].to_pylist()
                ):
                    w.add_document(text=txt, n_chars=int(nc))
            _INDEX_CACHE[key] = cix
        return _INDEX_CACHE[key]

    def compat_bm25_top10(sf_dir):
        """The reference-user workflow end-to-end: Schema / create_in /
        writer.add_document / searcher.search over the documents table
        (compat.py facade), BM25 Term top-10."""
        s = _compat_ix(sf_dir).searcher()
        hits = s.search(Term(_T_MID, field="text"), limit=10)
        return pa.table(
            {
                "doc_id": pa.array([h.docnum for h in hits], pa.int64()),
                "score": pa.array(
                    [round(h.score, 6) for h in hits], pa.float64()
                ),
            }
        )

    def compat_sorted_nchars(sf_dir):
        """search(sortedby=) through the facade: Term matches sorted by the
        stored n_chars column (SortingCollector semantics), limit 20 — the
        limit makes the sort itself hash-visible."""
        s = _compat_ix(sf_dir).searcher()
        hits = s.search(
            Term(_T_MID, field="text"), limit=20, sortedby="n_chars"
        )
        return pa.table(
            {
                "doc_id": pa.array([h.docnum for h in hits], pa.int64()),
                "n_chars": pa.array(
                    [int(h["n_chars"]) for h in hits], pa.int64()
                ),
            }
        )

    def compat_glob_field_docs(sf_dir):
        """Dynamic glob fields through the facade (reference
        Schema.add(..., glob=True)): '*_tag' ID fields materialize at
        commit, then an exact term search over the glob-created lang_tag
        field. Existence scoring (constant 1.0) means the doc-id list IS
        the contract."""
        import shutil

        import whoosh_novo_ray.compat as C

        key = ("compat_glob", sf_dir)
        if key not in _INDEX_CACHE:
            root = os.path.join(
                "/tmp/wnr_compat_glob", sf_dir.strip("/").replace("/", "_")
            )
            shutil.rmtree(root, ignore_errors=True)
            schema = C.Schema(text=C.TEXT())
            schema.add("*_tag", C.ID(stored=True), glob=True)
            cix = C.create_in(root, schema)
            rows = pq.read_table(
                os.path.join(sf_dir, "documents.parquet"),
                columns=["doc_id", "text", "lang", "source"],
            ).sort_by("doc_id")
            with cix.writer() as w:
                for txt, lang, src in zip(
                    rows["text"].to_pylist(),
                    rows["lang"].to_pylist(),
                    rows["source"].to_pylist(),
                ):
                    w.add_document(text=txt, lang_tag=lang, source_tag=src)
            _INDEX_CACHE[key] = cix
        s = _INDEX_CACHE[key].searcher()
        hits = sorted(s.search("lang_tag:en", limit=None), key=lambda h: h.docnum)
        return pa.table(
            {
                "doc_id": pa.array([h.docnum for h in hits], pa.int64()),
                "score": pa.array(
                    [round(h.score, 6) for h in hits], pa.float64()
                ),
            }
        )

    def distinctive_terms(sf_dir):
        """Top-5 distinctive terms per source: cnt * ln(T / global count)."""
        from whoosh_novo_ray.ops.groupstats import distinctive_terms_per_group

        t = pa.concat_tables(
            _collect(
                distinctive_terms_per_group(
                    _docs_ds(sf_dir, ("doc_id", "text", "source")), "source", 5
                )
            )
        )
        return t.sort_by(
            [("group", "ascending"), ("score", "descending"), ("term", "ascending")]
        )

    def bigram_lm(sf_dir):
        """Bigram-LM scoring via a co-partitioned model join (the model is
        too big to broadcast at corpus scale — curation.bigram_lm_table)."""
        from whoosh_novo_ray.ops.curation import bigram_lm_table

        return pa.concat_tables(
            _collect(bigram_lm_table(_docs_ds(sf_dir)))
        ).sort_by("doc_id")

    def source_cap(sf_dir):
        """Per-domain frequency cap: at most 10 docs per source (lowest ids)."""
        from whoosh_novo_ray.ops.groupstats import cap_per_group

        t = pa.concat_tables(
            _collect(
                cap_per_group(_docs_ds(sf_dir, ("doc_id", "source")), "source", 10)
            )
        )
        return t.sort_by("doc_id")

    def nchars_quantiles(sf_dir):
        """Exact corpus quantiles of n_chars via a distributed histogram."""
        from whoosh_novo_ray.ops.groupstats import exact_quantiles

        return exact_quantiles(
            _docs_ds(sf_dir, ("n_chars",)),
            "n_chars",
            (0.1, 0.25, 0.5, 0.75, 0.9, 0.99),
        )

    def event_value_quantiles(sf_dir):
        """Exact quantiles of the CONTINUOUS events.value column via
        distributed kth-element selection (iterative range-partition
        counting — driver state is O(buckets), never O(distinct); the
        value-count-histogram path would hold one driver row per distinct
        float, i.e. the corpus)."""
        import ray.data
        from whoosh_novo_ray.ops.groupstats import quantiles_continuous

        import ray

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["value"],
            override_num_blocks=int(ray.cluster_resources().get("CPU", 8)),
        )
        t = quantiles_continuous(ds, "value", (0.05, 0.25, 0.5, 0.75, 0.95))
        return pa.table(
            {
                "q": t["q"],
                "value": pa.array(
                    np.round(t["value"].to_numpy(zero_copy_only=False), 6),
                    pa.float64(),
                ),
            }
        )

    def top_terms_per_source(sf_dir):
        """Top-5 most frequent terms per source (count desc, term asc)."""
        from whoosh_novo_ray.ops.groupstats import top_terms_per_group

        t = pa.concat_tables(
            _collect(
                top_terms_per_group(
                    _docs_ds(sf_dir, ("doc_id", "text", "source")), "source", 5
                )
            )
        )
        return t.sort_by(
            [("group", "ascending"), ("cnt", "descending"), ("term", "ascending")]
        )

    return {
        # --- inverted index + BM25 core ---
        "term_stats": term_stats,
        "doc_lengths": doc_lengths,
        # the bm25 family routes through the doc-shard ScorePool: per-shard
        # actor evaluation with global stats + driver top-k merge (the
        # distributed serving path), rank-identical to the local Searcher
        "bm25_top10_common": lambda sf: _pool_search_table(sf, Term(_T_COMMON), 10),
        "bm25_top10_mid": lambda sf: _pool_search_table(sf, Term(_T_MID), 10),
        "bm25_top100_mid": lambda sf: _pool_search_table(sf, Term(_T_MID), 100),
        "bm25_absent": lambda sf: _pool_search_table(sf, Term(_T_ABSENT), 10),
        "bm25_or_top10": lambda sf: _pool_search_table(sf, Or(Term(_T_MID), Term(_T_MID2)), 10),
        "bm25_or_top10_wand": bm25_or_wand,
        "filtered_or_top10": filtered_or_top10,
        "upgrade_extend_top20": upgrade_extend,
        "document_numbers": document_numbers_q,
        "bm25_and_top10": lambda sf: _pool_search_table(sf, And(Term(_T_MID), Term(_T_MID2)), 10),
        "bm25_andnot_top10": lambda sf: _pool_search_table(
            sf, AndNot(Term(_T_MID), Term(_T_MID2)), 10
        ),
        "phrase_top10": lambda sf: _pool_search_table(
            sf, Phrase([_T_MID, _T_MID2]), 10
        ),
        "phrase_slop2_top10": phrase_slop2,
        "spancondition_docs": spancondition_docs,
        "span_first_docs": span_first_docs,
        "span_not_docs": span_not_docs,
        "span_before_docs": span_before_docs,
        "not_docs": not_docs,
        "otherwise_top10": otherwise_top10,
        "facet_nchars_ranges": facet_nchars_ranges,
        "facet_query_named": facet_query_named,
        "facet_best_by_lang": facet_best_by_lang,
        "more_like_doc0": more_like_doc0,
        "or3_hit_count": or3_hit_count,
        "dismax_top10": lambda sf: _pool_search_table(
            sf, DisMax(Term(_T_MID), Term(_T_MID2)), 10
        ),
        "require_top10": lambda sf: _pool_search_table(
            sf, Require(Term(_T_MID), Term(_T_COMMON)), 10
        ),
        "andmaybe_top10": lambda sf: _pool_search_table(
            sf, AndMaybe(Term(_T_MID), Term(_T_MID2)), 10
        ),
        "every_docs": lambda sf: _pool_search_table(sf, Every(), 10**9),
        # ? = single char: expands to the two live terms (scan, span) —
        # under the Or-AUTO rule 2 terms stay SCORED (no constantscore)
        "wildcard_docs": lambda sf: _search_table(sf, Wildcard("s?an"), 10**9),
        "fuzzy_docs": fuzzy_docs,
        "suggest_terms": suggest_terms,
        "prefix_docs": lambda sf: _search_table(sf, Prefix("s"), 10**9),
        # top-level alternation: no prefix pruning, reference match (start-
        # anchored) semantics for BOTH alternatives
        "regex_docs": lambda sf: _search_table(sf, Regex("^qu|ind"), 10**9),
        "facet_lang": facet_lang,
        "collapse_source": collapse_source,
        # --- training-data ops ---
        "quality_scores": quality,
        "langid": langid,
        "repetition_quality": repetition,
        "decontam_4gram": decontam,
        "unigram_lm_scores": unigram_lm,
        "dsir_weights": dsir,
        "perplexity_buckets": perplexity_buckets,
        "mixture_sample": mixture_sample,
        "semdedup_keep": semdedup,
        "bigram_lm_scores": bigram_lm,
        "distinctive_terms_per_source": distinctive_terms,
        "source_cap": source_cap,
        "nchars_quantiles": nchars_quantiles,
        "event_value_quantiles": event_value_quantiles,
        "top_terms_per_source": top_terms_per_source,
        "compat_bm25_top10": compat_bm25_top10,
        "compat_glob_field_docs": compat_glob_field_docs,
        "compat_sorted_nchars": compat_sorted_nchars,
        "boilerplate_frac": boilerplate,
        "fingerprint": fingerprint,
        "chunk_windows": chunked,
        "pack_sequences": packed,
        "stratified_sample": stratified,
        "pii_scrub": pii_scrub,
        "training_rows": training_rows_q,
        "dedup_exact": dedup_exact,
        "jaccard_pairs": jaccard_pairs,
        "minhash_candidates": minhash_cands,
        "minhash_losers_collapsed": minhash_losers_collapsed,
        "simhash": simhash,
        "knn_cosine_top10": knn,
        "knn_lsh_top10": knn_lsh,
        "knn_lsh_multiprobe_top10": knn_lsh_multiprobe,
        "knn_ivf_top10": knn_ivf,
        "near_dup_cosine": near_dup_cosine,
        "near_dup_lsh_blocked": near_dup_lsh_blocked,
        "simhash_near_dup": simhash_near_dup,
        "curated_docs": curated_docs,
        "dedup_clusters": dedup_clusters,
        "bpe_token_counts": bpe_token_counts,
        "html_roundtrip": html_roundtrip,
        "numeric_range": numeric_range,
        "latest_event_per_user": latest_event_per_user,
        "key_terms_doc0": key_terms_doc0,
        "image_features_meta": image_features_q,
        "variations_top10": variations_top10,
        "sorted_by_nchars": sorted_by_nchars,
        "termrange_docs": termrange_docs,
        "paged_or": paged_or,
        "simpleparser_top10": simpleparser_top10,
        "dateparse_range": dateparse_range,
        "window_agg_daily": window_agg,
        "sessionize": sessions,
        "fielded_and": fielded_and,
        "multifield_parse": multifield_parse,
        "ngram_and_top10": ngram_and_top10,
        "stemmed_bm25_top10": stemmed_bm25_top10,
        "biword_bm25_top10": biword_bm25_top10,
        "reversed_suffix_docs": reversed_suffix_docs,
        "ngramwords_or_top10": ngramwords_or_top10,
        "incr_add_top10": incr_add_top10,
        "incr_delete_top10": incr_delete_top10,
        "incr_update_top10": incr_update_top10,
        "term_boost_or_top10": term_boost_or_top10,
        "doc_boost_top10": doc_boost_top10,
        "tfidf_top10": tfidf_top10,
        "frequency_top10": frequency_top10,
        "dfree_top10": dfree_top10,
        "pl2_top10": pl2_top10,
        "reverse_bm25_top10": reverse_bm25_top10,
        "function_weighting_top10": function_weighting_top10,
        "sequence_prefix_top10": sequence_prefix_top10,
        "ordered_top10": ordered_top10,
        "nested_parent_top10": nested_parent_top10,
        "nested_children_docs": nested_children_docs,
        "collapse_ordered": collapse_ordered,
        "sorted_multi_top20": sorted_multi_top20,
    }


def _collect(ds) -> list[pa.Table]:
    import ray

    # materialize() avoids to_arrow_refs' second (schema-probe) execution
    tables = ray.get(ds.materialize().to_arrow_refs())
    nonempty = [t for t in tables if len(t)]
    if nonempty:
        return nonempty
    # all blocks empty (e.g. a filter matched nothing at this scale): keep
    # one — it carries the schema, so pa.concat_tables / casts still work
    return tables[:1]


def oracle_sql() -> dict[str, str]:
    from whoosh_novo_ray.analysis import NgramAnalyzer
    from whoosh_novo_ray.lang_morph import variations as _morph_variations

    from whoosh_novo_ray.analysis import NgramWordsAnalyzer

    raw_tok = f"regexp_extract_all(lower(text), '{_RX_SQL}')"
    _ng_grams = NgramAnalyzer(3, 3).query_tokens(_T_MID2)
    _nw_grams = NgramWordsAnalyzer(3, 3).query_tokens(_T_MID)

    # alternative weighting models (search/scoring.py mirrors of the
    # reference scoring.py); scorers see the DEQUANTIZED length q.dlq and
    # the collection term weight f.cf
    def _wtopk(score_expr: str, where: str, k: int = 10) -> str:
        return f"""WITH {_base_ctes_over("documents", None, score_expr)}
SELECT doc_id::BIGINT AS doc_id, round(sum(score), 6) AS score
FROM bm WHERE {where}
GROUP BY doc_id ORDER BY score DESC, doc_id LIMIT {k}"""

    _dfree_ratio = "(((t.tf + 1) / (q.dlq + 1)) / (t.tf / q.dlq))"
    _dfree_expr = (
        f"(t.tf * ln{_dfree_ratio}) * ("
        "t.tf * ln((t.tf / q.dlq) * (s.total_len / f.cf))"
        " + (t.tf + 1) * ln(((t.tf + 1) / (q.dlq + 1)) * (s.total_len / f.cf))"
        f" + 0.5 * ln{_dfree_ratio})"
    )
    _pl2_tf = "(t.tf * ln(1 + (s.total_len / s.N) / q.dlq))"
    _pl2_expr = (
        f"(1 / ({_pl2_tf} + 1)) * ("
        f"{_pl2_tf} * ln(1 / (f.cf / s.N))"
        " + (f.cf / s.N) * (1 / ln(2))"
        f" + 0.5 * ln(2 * pi() * {_pl2_tf})"
        f" + {_pl2_tf} * (ln({_pl2_tf}) - 1 / ln(2)))"
    )
    return {
        "tfidf_top10": _wtopk(
            "(ln(s.N / (f.df + 1)) + 1) * t.tf", f"term = '{_T_MID}'"
        ),
        "frequency_top10": _wtopk("t.tf", f"term = '{_T_MID}'"),
        "dfree_top10": _wtopk(_dfree_expr, f"term = '{_T_MID}'"),
        "pl2_top10": _wtopk(_pl2_expr, f"term = '{_T_MID}'"),
        "reverse_bm25_top10": _wtopk(f"-({_BM25_EXPR})", f"term = '{_T_MID}'"),
        "function_weighting_top10": _wtopk(
            "t.tf / (q.len_byte + 1) * (s.N / f.df)", f"term = '{_T_MID}'"
        ),
        # Sequence(Term, Prefix): adjacency between child-occurrence UNIONS;
        # matched docs scored over every live term of every child
        "sequence_prefix_top10": f"""WITH {_BASE_CTES},
pos AS (
  SELECT doc_id, term,
         row_number() OVER (PARTITION BY doc_id ORDER BY ord) - 1 AS p
  FROM filt
),
sdocs AS (
  SELECT DISTINCT a.doc_id FROM pos a
  JOIN pos b ON b.doc_id = a.doc_id AND b.p = a.p + 1
  WHERE a.term = '{_T_MID}' AND b.term LIKE 'wi%'
)
SELECT doc_id::BIGINT AS doc_id, round(sum(score), 6) AS score
FROM bm WHERE (term = '{_T_MID}' OR term LIKE 'wi%')
  AND doc_id IN (SELECT doc_id FROM sdocs)
GROUP BY doc_id ORDER BY score DESC, doc_id LIMIT 10""",
        # Ordered: min(child0 pos) < min(child_i pos) per doc (the reference
        # SpanBefore left-fold quirk)
        "ordered_top10": f"""WITH {_BASE_CTES},
pos AS (
  SELECT doc_id, term,
         row_number() OVER (PARTITION BY doc_id ORDER BY ord) - 1 AS p
  FROM filt
),
m0 AS (SELECT doc_id, min(p) AS mp FROM pos WHERE term = '{_T_MID}' GROUP BY doc_id),
m1 AS (SELECT doc_id, min(p) AS mp FROM pos WHERE term = '{_T_COMMON}' GROUP BY doc_id),
odocs AS (SELECT m0.doc_id FROM m0 JOIN m1 USING (doc_id) WHERE m0.mp < m1.mp)
SELECT doc_id::BIGINT AS doc_id, round(sum(score), 6) AS score
FROM bm WHERE term IN ({_terms_sql([_T_MID, _T_COMMON])})
  AND doc_id IN (SELECT doc_id FROM odocs)
GROUP BY doc_id ORDER BY score DESC, doc_id LIMIT 10""",
        "sorted_multi_top20": f"""WITH {_BASE_CTES}
SELECT t.doc_id::BIGINT AS doc_id, d.lang, d.n_chars::BIGINT AS n_chars
FROM (SELECT DISTINCT doc_id FROM tfs WHERE term = '{_T_MID}') t
JOIN documents d ON d.doc_id = t.doc_id
ORDER BY d.lang, d.n_chars DESC, t.doc_id LIMIT 20""",
        # collapse with an order facet: per source keep the match with the
        # LOWEST n_chars (doc_id tiebreak); score stays the BM25 score
        "collapse_ordered": f"""WITH {_BASE_CTES},
scored AS (
  SELECT doc_id, round(sum(score), 6) AS score FROM bm
  WHERE term = '{_T_MID}' GROUP BY doc_id
),
ranked AS (
  SELECT d.source, s.doc_id, s.score,
         row_number() OVER (
           PARTITION BY d.source ORDER BY d.n_chars, s.doc_id
         ) AS rn
  FROM scored s JOIN documents d USING (doc_id)
)
SELECT source, doc_id::BIGINT AS doc_id, score
FROM ranked WHERE rn <= 1 ORDER BY source, doc_id""",
        # block-join corpus: parent doc per source at K<<20, children at
        # parent + 1 + doc_id — owner parent is pure doc-id arithmetic
        "nested_parent_top10": f"""WITH {_NESTED_CORPUS},
{_base_ctes_over("corpus")}
SELECT ((doc_id // 1048576) * 1048576)::BIGINT AS doc_id,
       round(sum(score), 6) AS score
FROM bm WHERE term IN ({_terms_sql([_T_MID, _T_MID2])})
GROUP BY 1 ORDER BY score DESC, doc_id LIMIT 10""",
        "nested_children_docs": """
SELECT ((CAST(substr(source, 4) AS BIGINT) * 1048576) + 1 + doc_id)::BIGINT
         AS doc_id,
       1.0::DOUBLE AS score
FROM documents WHERE source IN ('src3', 'src7') ORDER BY doc_id""",
        "term_stats": f"""WITH {_BASE_CTES}
SELECT term, count(*)::BIGINT AS df, sum(tf)::DOUBLE AS weight
FROM tfs GROUP BY term ORDER BY term""",
        "doc_lengths": f"""WITH {_BASE_CTES}
SELECT doc_id::BIGINT AS doc_id, dl::BIGINT AS n_tokens,
       len_byte, dlq::BIGINT AS quantized_len
FROM qdl ORDER BY doc_id""",
        "bm25_top10_common": _topk_sql(f"term = '{_T_COMMON}'", 10),
        "bm25_top10_mid": _topk_sql(f"term = '{_T_MID}'", 10),
        "bm25_top100_mid": _topk_sql(f"term = '{_T_MID}'", 100),
        # the compat facade builds its own index over the same corpus with
        # the same analyzer/scoring — identical oracle as bm25_top10_mid
        "compat_bm25_top10": _topk_sql(f"term = '{_T_MID}'", 10),
        # glob-materialized ID field, Existence scoring: constant 1.0
        "compat_glob_field_docs": """
SELECT doc_id::BIGINT AS doc_id, 1.0 AS score
FROM documents WHERE lang = 'en' ORDER BY doc_id""",
        # facade search(sortedby="n_chars", limit=20): matches of the term
        # ordered (n_chars asc, doc_id asc), truncated — the limit makes
        # the sort hash-visible
        "compat_sorted_nchars": f"""WITH {_BASE_CTES}
SELECT t.doc_id::BIGINT AS doc_id, d.n_chars::BIGINT AS n_chars
FROM (SELECT DISTINCT doc_id FROM tfs WHERE term = '{_T_MID}') t
JOIN documents d ON d.doc_id = t.doc_id
ORDER BY n_chars, t.doc_id LIMIT 20""",
        "bm25_absent": _topk_sql(f"term = '{_T_ABSENT}'", 10),
        "bm25_or_top10": _topk_sql(f"term IN ({_terms_sql([_T_MID, _T_MID2])})", 10),
        "filtered_or_top10": _topk_sql(
            f"""term IN ({_terms_sql([_T_MID, _T_MID2])})
  AND doc_id IN (SELECT DISTINCT doc_id FROM filt WHERE term = '{_T_COMMON}')
  AND doc_id % 7 <> 0""",
            10,
        ),
        "bm25_and_top10": f"""WITH {_BASE_CTES}
SELECT doc_id::BIGINT AS doc_id, round(sum(score), 6) AS score
FROM bm WHERE term IN ({_terms_sql([_T_MID, _T_MID2])})
GROUP BY doc_id HAVING count(DISTINCT term) = 2
ORDER BY score DESC, doc_id LIMIT 10""",
        # Searcher.document_numbers(text='query', lang='en'): indexed-term
        # match AND stored-field equality, ascending doc order
        "document_numbers": f"""WITH {_BASE_CTES}
SELECT DISTINCT bm.doc_id::BIGINT AS doc_id
FROM bm JOIN documents d ON d.doc_id = bm.doc_id
WHERE bm.term = '{_T_MID}' AND d.lang = 'en'
ORDER BY doc_id""",
        # Results.upgrade_and_extend (searching.py:1375-1410): sections are
        # (A-hits also matching B, A-hits not in B, B-hits novel to A) —
        # membership against FULL match sets sa/sb, order within a section
        # is the source ranking
        "upgrade_extend_top20": f"""WITH {_BASE_CTES},
sa AS (SELECT doc_id, round(sum(score), 6) AS score FROM bm
       WHERE term IN ({_terms_sql([_T_MID, _T_MID2])}) GROUP BY doc_id),
sb AS (SELECT doc_id, round(sum(score), 6) AS score FROM bm
       WHERE term = '{_T_COMMON}' GROUP BY doc_id),
ta AS (SELECT doc_id, score, row_number() OVER (ORDER BY score DESC, doc_id) - 1 AS r
       FROM sa QUALIFY r < 20),
tb AS (SELECT doc_id, score, row_number() OVER (ORDER BY score DESC, doc_id) - 1 AS r
       FROM sb QUALIFY r < 20),
merged AS (
  SELECT 0 AS sec, r, doc_id, score FROM ta WHERE doc_id IN (SELECT doc_id FROM sb)
  UNION ALL
  SELECT 1, r, doc_id, score FROM ta WHERE doc_id NOT IN (SELECT doc_id FROM sb)
  UNION ALL
  SELECT 2, r, doc_id, score FROM tb WHERE doc_id NOT IN (SELECT doc_id FROM sa)
)
SELECT (row_number() OVER (ORDER BY sec, r) - 1)::BIGINT AS rank,
       doc_id::BIGINT AS doc_id, score
FROM merged ORDER BY rank""",
        # adjacent-surviving-token bigrams: consecutive rank in the KEPT
        # stream (the engine shingles post-stop/minsize tokens); a doc with
        # ONE kept token contributes that token (the reference ShingleFilter
        # flushes a short stream); dl = token count per doc
        "biword_bm25_top10": f"""WITH
tokarr AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{_RX_SQL}') AS arr FROM documents
),
tok AS (
  SELECT doc_id, unnest(arr) AS term, unnest(range(len(arr))) AS ord FROM tokarr
),
kept AS (
  SELECT doc_id, term, ord FROM tok
  WHERE length(term) >= 2 AND term NOT IN ({_STOPLIST_SQL})
),
seq AS (
  SELECT doc_id, term,
         row_number() OVER (PARTITION BY doc_id ORDER BY ord) - 1 AS r
  FROM kept
),
filt AS (
  SELECT a.doc_id, a.term || '-' || b.term AS term, a.r AS ord
  FROM seq a JOIN seq b ON b.doc_id = a.doc_id AND b.r = a.r + 1
  UNION ALL
  SELECT doc_id, any_value(term), 0 FROM seq GROUP BY doc_id HAVING count(*) = 1
),
{_SCORE_CTES}
SELECT doc_id::BIGINT AS doc_id, round(sum(score), 6) AS score
FROM bm WHERE term IN ('{_T_MID}-{_T_COMMON}', '{_T_COMMON}-{_T_MID}')
GROUP BY doc_id ORDER BY score DESC, doc_id LIMIT 10""",
        # reversed-token index = suffix search; same AUTO constant-score rule
        # as prefix_docs over the reversed term dict
        "reversed_suffix_docs": f"""WITH
tokarr AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{_RX_SQL}') AS arr FROM documents
),
tok AS (
  SELECT doc_id, unnest(arr) AS term, unnest(range(len(arr))) AS ord FROM tokarr
),
kept AS (
  SELECT doc_id, term, ord FROM tok
  WHERE length(term) >= 2 AND term NOT IN ({_STOPLIST_SQL})
),
filt AS (SELECT doc_id, reverse(term) AS term, ord FROM kept),
{_SCORE_CTES},
pterms AS (SELECT DISTINCT term FROM dfs WHERE term LIKE 'wod%'),
nmatch AS (SELECT count(*) AS n FROM pterms),
dc AS (SELECT count(*) AS n FROM documents)
SELECT b.doc_id::BIGINT AS doc_id,
       CASE WHEN (SELECT n FROM nmatch) >= 1024
              OR ((SELECT n FROM nmatch) > 2 AND (SELECT n FROM dc) <= 5000)
            THEN 1.0 ELSE round(sum(b.score), 6) END AS score
FROM bm b WHERE b.term IN (SELECT term FROM pterms)
GROUP BY b.doc_id""",
        "stemmed_bm25_top10": f"""WITH {_STEM_CTES}
SELECT doc_id::BIGINT AS doc_id, round(sum(score), 6) AS score
FROM bm WHERE term IN ('{_porter_stem(_T_MID)}', '{_porter_stem(_T_COMMON)}')
GROUP BY doc_id ORDER BY score DESC, doc_id LIMIT 10""",
        "ngram_and_top10": f"""WITH {_NGRAM_CTES}
SELECT doc_id::BIGINT AS doc_id, round(sum(score), 6) AS score
FROM bm WHERE term IN ({_terms_sql(_ng_grams)})
GROUP BY doc_id HAVING count(DISTINCT term) = {len(set(_ng_grams))}
ORDER BY score DESC, doc_id LIMIT 10""",
        "term_boost_or_top10": f"""WITH {_BASE_CTES}
SELECT doc_id::BIGINT AS doc_id,
       round(sum(score * (CASE term WHEN '{_T_MID2}' THEN 2.0 ELSE 1.0 END)), 6) AS score
FROM bm WHERE term IN ({_terms_sql([_T_MID, _T_MID2])})
GROUP BY doc_id ORDER BY score DESC, doc_id LIMIT 10""",
        # doc boost: posting weight = tf x boost (float32-quantized), used as
        # the BM25 tf in BOTH numerator and saturation denominator
        "doc_boost_top10": f"""WITH boosted AS (
  SELECT doc_id, text, 1.0 + (doc_id % 4) * 0.5 AS b FROM documents
),
{_base_ctes_over("boosted", "SELECT f.doc_id, f.term, CAST(count(*) * any_value(d.b) AS REAL)::DOUBLE AS tf FROM filt f JOIN boosted d USING (doc_id) GROUP BY f.doc_id, f.term")}
SELECT doc_id::BIGINT AS doc_id, round(sum(score), 6) AS score
FROM bm WHERE term = '{_T_MID}'
GROUP BY doc_id ORDER BY score DESC, doc_id LIMIT 10""",
        # incremental add = same corpus, different construction path
        "incr_add_top10": _topk_sql(f"term = '{_T_MID}'", 10),
        # delete: N / df / avgdl follow the post-delete corpus
        "incr_delete_top10": f"""WITH docs AS (
  SELECT doc_id, text FROM documents WHERE doc_id % 7 <> 0
),
{_base_ctes_over("docs")}
SELECT doc_id::BIGINT AS doc_id, round(sum(score), 6) AS score
FROM bm WHERE term = '{_T_MID}'
GROUP BY doc_id ORDER BY score DESC, doc_id LIMIT 10""",
        # upsert: replaced docs carry the deterministic new text
        "incr_update_top10": f"""WITH docs AS (
  SELECT doc_id,
         CASE WHEN doc_id % 11 = 0
              THEN 'updated window document ' || CAST(doc_id AS VARCHAR)
              ELSE text END AS text
  FROM documents
),
{_base_ctes_over("docs")}
SELECT doc_id::BIGINT AS doc_id, round(sum(score), 6) AS score
FROM bm WHERE term = '{_T_MID2}'
GROUP BY doc_id ORDER BY score DESC, doc_id LIMIT 10""",
        "ngramwords_or_top10": f"""WITH {_NGRAMWORDS_CTES}
SELECT doc_id::BIGINT AS doc_id, round(sum(score), 6) AS score
FROM bm WHERE term IN ({_terms_sql(_nw_grams)})
GROUP BY doc_id
ORDER BY score DESC, doc_id LIMIT 10""",
        "bm25_andnot_top10": f"""WITH {_BASE_CTES}
SELECT doc_id::BIGINT AS doc_id, round(sum(score), 6) AS score
FROM bm WHERE term = '{_T_MID}'
  AND doc_id NOT IN (SELECT doc_id FROM tfs WHERE term = '{_T_MID2}')
GROUP BY doc_id ORDER BY score DESC, doc_id LIMIT 10""",
        "phrase_top10": f"""WITH {_BASE_CTES},
pos AS (
  SELECT doc_id, term,
         row_number() OVER (PARTITION BY doc_id ORDER BY ord) - 1 AS p
  FROM filt
),
pdocs AS (
  SELECT DISTINCT a.doc_id FROM pos a
  JOIN pos b ON b.doc_id = a.doc_id AND b.p = a.p + 1
  WHERE a.term = '{_T_MID}' AND b.term = '{_T_MID2}'
)
SELECT doc_id::BIGINT AS doc_id, round(sum(score), 6) AS score
FROM bm WHERE term IN ({_terms_sql([_T_MID, _T_MID2])})
  AND doc_id IN (SELECT doc_id FROM pdocs)
GROUP BY doc_id ORDER BY score DESC, doc_id LIMIT 10""",
        "bm25_or_top10_wand": _topk_sql(f"term IN ({_terms_sql([_T_MID, _T_MID2])})", 10),
        # DisjunctionMax: per-doc MAX of the children's scores (reference
        # DisjunctionMaxMatcher, tiebreak=0)
        "dismax_top10": f"""WITH {_BASE_CTES}
SELECT doc_id::BIGINT AS doc_id, round(max(score), 6) AS score
FROM bm WHERE term IN ({_terms_sql([_T_MID, _T_MID2])})
GROUP BY doc_id ORDER BY score DESC, doc_id LIMIT 10""",
        # Require(a, b): docs matching BOTH, scored from a only
        "require_top10": f"""WITH {_BASE_CTES}
SELECT doc_id::BIGINT AS doc_id, round(sum(score), 6) AS score
FROM bm WHERE term = '{_T_MID}'
  AND doc_id IN (SELECT doc_id FROM tfs WHERE term = '{_T_COMMON}')
GROUP BY doc_id ORDER BY score DESC, doc_id LIMIT 10""",
        # AndMaybe(a, b): a's docs; b's score added where it matches
        "andmaybe_top10": f"""WITH {_BASE_CTES}
SELECT doc_id::BIGINT AS doc_id, round(sum(score), 6) AS score
FROM bm WHERE term IN ({_terms_sql([_T_MID, _T_MID2])})
  AND doc_id IN (SELECT doc_id FROM tfs WHERE term = '{_T_MID}')
GROUP BY doc_id ORDER BY score DESC, doc_id LIMIT 10""",
        # Every(): all docs, constant 1.0
        "every_docs": """
SELECT doc_id::BIGINT AS doc_id, 1.0 AS score FROM documents ORDER BY doc_id""",
        # Wildcard('s?an') -> two live terms (scan, span), scored Or
        "wildcard_docs": f"""WITH {_BASE_CTES}
SELECT doc_id::BIGINT AS doc_id, round(sum(score), 6) AS score
FROM bm WHERE term IN (SELECT term FROM dfs WHERE term LIKE 's_an')
GROUP BY doc_id ORDER BY score DESC, doc_id""",
        "spancondition_docs": f"""WITH {_BASE_CTES},
pos AS (
  SELECT doc_id, term,
         row_number() OVER (PARTITION BY doc_id ORDER BY ord) - 1 AS p
  FROM filt
),
pdocs AS (
  SELECT DISTINCT a.doc_id FROM pos a
  JOIN pos b ON b.doc_id = a.doc_id AND b.p = a.p + 1
  WHERE a.term = '{_T_MID}' AND b.term = '{_T_MID2}'
)
SELECT doc_id::BIGINT AS doc_id, round(sum(score), 6) AS score
FROM bm WHERE term IN ({_terms_sql([_T_MID, _T_MID2, _T_COMMON])})
  AND doc_id IN (SELECT doc_id FROM pdocs)
  AND doc_id IN (SELECT doc_id FROM tfs WHERE term = '{_T_COMMON}')
GROUP BY doc_id ORDER BY score DESC, doc_id""",
        # positions replicate the StopFilter(renumber=True) quirk: the FIRST
        # surviving token keeps its ORIGINAL position, later ones increment
        # by 1 — so p = dense rank + the doc's first-survivor offset
        # (adjacency oracles are offset-invariant; this absolute one is not)
        "span_first_docs": f"""WITH {_BASE_CTES},
pos AS (
  SELECT doc_id, term,
         row_number() OVER (PARTITION BY doc_id ORDER BY ord) - 1
           + min(ord) OVER (PARTITION BY doc_id) AS p
  FROM filt
),
sdocs AS (
  SELECT doc_id FROM pos WHERE term = '{_T_MID}'
  GROUP BY doc_id HAVING min(p) <= 3
)
SELECT doc_id::BIGINT AS doc_id, round(sum(score), 6) AS score
FROM bm WHERE term = '{_T_MID}'
  AND doc_id IN (SELECT doc_id FROM sdocs)
GROUP BY doc_id ORDER BY score DESC, doc_id""",
        "span_not_docs": f"""WITH {_BASE_CTES},
pos AS (
  SELECT doc_id, term,
         row_number() OVER (PARTITION BY doc_id ORDER BY ord) - 1 AS p
  FROM filt
),
pairs AS (
  SELECT a.doc_id, a.p AS s, b.p AS e FROM pos a
  JOIN pos b ON b.doc_id = a.doc_id AND b.p = a.p + 1
  WHERE a.term = '{_T_MID}' AND b.term = '{_T_MID2}'
),
sdocs AS (
  SELECT DISTINCT pr.doc_id FROM pairs pr
  WHERE NOT EXISTS (
    SELECT 1 FROM pos c
    WHERE c.doc_id = pr.doc_id AND c.term = '{_T_COMMON}'
      AND c.p BETWEEN pr.s AND pr.e
  )
)
SELECT doc_id::BIGINT AS doc_id, round(sum(score), 6) AS score
FROM bm WHERE term IN ({_terms_sql([_T_MID, _T_MID2, _T_COMMON])})
  AND doc_id IN (SELECT doc_id FROM sdocs)
GROUP BY doc_id ORDER BY score DESC, doc_id""",
        "span_before_docs": f"""WITH {_BASE_CTES},
pos AS (
  SELECT doc_id, term,
         row_number() OVER (PARTITION BY doc_id ORDER BY ord) - 1 AS p
  FROM filt
),
sdocs AS (
  SELECT a.doc_id FROM
    (SELECT doc_id, min(p) AS mp FROM pos WHERE term = '{_T_MID}' GROUP BY doc_id) a
  JOIN
    (SELECT doc_id, max(p) AS xp FROM pos WHERE term = '{_T_MID2}' GROUP BY doc_id) b
  USING (doc_id)
  WHERE a.mp < b.xp
)
SELECT doc_id::BIGINT AS doc_id, round(sum(score), 6) AS score
FROM bm WHERE term IN ({_terms_sql([_T_MID, _T_MID2])})
  AND doc_id IN (SELECT doc_id FROM sdocs)
GROUP BY doc_id ORDER BY score DESC, doc_id""",
        "not_docs": f"""WITH {_BASE_CTES}
SELECT d.doc_id::BIGINT AS doc_id, 1.0 AS score FROM documents d
WHERE d.doc_id NOT IN (SELECT doc_id FROM tfs WHERE term = '{_T_MID}')
ORDER BY doc_id""",
        # Otherwise(absent, mid): a matches nothing, so the result IS b's
        "otherwise_top10": _topk_sql(f"term = '{_T_MID}'", 10),
        "facet_nchars_ranges": f"""WITH {_BASE_CTES},
m AS (SELECT DISTINCT doc_id FROM tfs WHERE term = '{_T_MID}'),
b AS (
  SELECT (d.n_chars // 500) * 500 AS lo
  FROM documents d JOIN m USING (doc_id)
  WHERE d.n_chars >= 0 AND d.n_chars < 2000
)
SELECT '[' || lo::BIGINT || ', ' || least(lo + 500, 2000)::BIGINT || ')' AS key,
       count(*)::BIGINT AS count
FROM b GROUP BY lo ORDER BY key""",
        "facet_query_named": f"""WITH {_BASE_CTES},
m AS (SELECT DISTINCT doc_id FROM tfs WHERE term = '{_T_MID}'),
k AS (
  SELECT m.doc_id,
         CASE WHEN m.doc_id IN (SELECT doc_id FROM tfs WHERE term = '{_T_MID2}')
                THEN 'has_window'
              WHEN m.doc_id IN (SELECT doc_id FROM tfs WHERE term = '{_T_COMMON}')
                THEN 'has_table'
         END AS key
  FROM m
)
SELECT key, count(*)::BIGINT AS count FROM k
WHERE key IS NOT NULL GROUP BY key ORDER BY key""",
        "facet_best_by_lang": f"""WITH {_BASE_CTES},
scored AS (
  SELECT doc_id, sum(score) AS score FROM bm
  WHERE term = '{_T_MID}' GROUP BY doc_id
),
ranked AS (
  SELECT d.lang AS key, s.doc_id, s.score,
         row_number() OVER (
           PARTITION BY d.lang ORDER BY s.score DESC, s.doc_id
         ) AS rn
  FROM scored s JOIN documents d USING (doc_id)
)
SELECT key, doc_id::BIGINT AS doc_id, round(score, 6) AS score
FROM ranked WHERE rn = 1 ORDER BY key""",
        # Bo1 expansion of doc 0's terms (same formula as key_terms_doc0),
        # then a BM25 OR over the top-5 expansion terms
        "more_like_doc0": f"""WITH {_BASE_CTES},
doc0 AS (SELECT term, tf AS wit FROM tfs WHERE doc_id = 0),
cf AS (SELECT term, sum(tf) AS cf FROM tfs GROUP BY term),
kt AS (
  SELECT d.term FROM doc0 d JOIN cf c USING (term) CROSS JOIN stats s
  ORDER BY d.wit * log2((1 + c.cf / s.N) / (c.cf / s.N))
           + log2(1 + c.cf / s.N) DESC, d.term
  LIMIT 5
)
SELECT doc_id::BIGINT AS doc_id, round(sum(score), 6) AS score
FROM bm WHERE term IN (SELECT term FROM kt)
GROUP BY doc_id ORDER BY score DESC, doc_id LIMIT 10""",
        "or3_hit_count": f"""WITH {_BASE_CTES}
SELECT count(DISTINCT doc_id)::BIGINT AS n FROM tfs
WHERE term IN ({_terms_sql([_T_MID, _T_MID2, _T_COMMON])})""",
        "phrase_slop2_top10": f"""WITH {_BASE_CTES},
pos AS (
  SELECT doc_id, term,
         row_number() OVER (PARTITION BY doc_id ORDER BY ord) - 1 AS p
  FROM filt
),
pdocs AS (
  SELECT DISTINCT a.doc_id FROM pos a
  JOIN pos b ON b.doc_id = a.doc_id AND b.p BETWEEN a.p + 1 AND a.p + 2
  WHERE a.term = '{_T_MID}' AND b.term = '{_T_MID2}'
)
SELECT doc_id::BIGINT AS doc_id, round(sum(score), 6) AS score
FROM bm WHERE term IN ({_terms_sql([_T_MID, _T_MID2])})
  AND doc_id IN (SELECT doc_id FROM pdocs)
GROUP BY doc_id ORDER BY score DESC, doc_id LIMIT 10""",
        "fuzzy_docs": f"""WITH {_BASE_CTES},
fterms AS (
  SELECT DISTINCT term FROM dfs
  WHERE levenshtein(term, '{_T_MID}') <= 1
    AND substr(term, 1, 1) = substr('{_T_MID}', 1, 1)
),
nmatch AS (SELECT count(*) AS n FROM fterms),
dc AS (SELECT count(*) AS n FROM documents)
SELECT b.doc_id::BIGINT AS doc_id,
       CASE WHEN (SELECT n FROM nmatch) >= 1024
              OR ((SELECT n FROM nmatch) > 2 AND (SELECT n FROM dc) <= 5000)
            THEN 1.0 ELSE round(sum(b.score), 6) END AS score
FROM bm b WHERE b.term IN (SELECT term FROM fterms)
GROUP BY b.doc_id""",
        "suggest_terms": f"""WITH {_BASE_CTES},
w AS (SELECT term, sum(tf) AS weight FROM tfs GROUP BY term),
cand AS (
  SELECT term, weight FROM w
  WHERE levenshtein(term, 'quey') <= 2
)
SELECT (row_number() OVER (ORDER BY (2 + 0.5 / weight), term) - 1)::BIGINT AS rank,
       term
FROM cand
ORDER BY rank LIMIT 5""",
        "latest_event_per_user": """WITH ranked AS (
  SELECT user_id, event_id, event_type,
         row_number() OVER (
           PARTITION BY user_id ORDER BY ts DESC, event_id
         ) AS rn
  FROM events
)
SELECT user_id::BIGINT AS user_id, event_id::BIGINT AS event_id, event_type
FROM ranked WHERE rn = 1 ORDER BY user_id""",
        "key_terms_doc0": f"""WITH {_BASE_CTES},
doc0 AS (SELECT term, tf AS wit FROM tfs WHERE doc_id = 0),
cf AS (SELECT term, sum(tf) AS cf FROM tfs GROUP BY term),
scored AS (
  SELECT d.term,
         d.wit * log2((1 + c.cf / s.N) / (c.cf / s.N))
           + log2(1 + c.cf / s.N) AS score
  FROM doc0 d JOIN cf c USING (term) CROSS JOIN stats s
)
SELECT term, round(score, 6) AS score
FROM scored ORDER BY score DESC, term LIMIT 5""",
        # multi-expansion constant-score rule (plan.multiterm_constant_score,
        # mirroring the reference Or.AUTO_MATCHER heuristic): constant 1.0 when
        # n>=1024, or 3<=n<1024 on a <=5000-doc corpus; BM25 Or otherwise
        "prefix_docs": f"""WITH {_BASE_CTES},
pterms AS (SELECT DISTINCT term FROM dfs WHERE term LIKE 's%'),
nmatch AS (SELECT count(*) AS n FROM pterms),
dc AS (SELECT count(*) AS n FROM documents)
SELECT b.doc_id::BIGINT AS doc_id,
       CASE WHEN (SELECT n FROM nmatch) >= 1024
              OR ((SELECT n FROM nmatch) > 2 AND (SELECT n FROM dc) <= 5000)
            THEN 1.0 ELSE round(sum(b.score), 6) END AS score
FROM bm b WHERE b.term IN (SELECT term FROM pterms)
GROUP BY b.doc_id""",
        "regex_docs": f"""WITH {_BASE_CTES},
pterms AS (SELECT DISTINCT term FROM dfs
           WHERE regexp_matches(term, '^(?:^qu|ind)')),
nmatch AS (SELECT count(*) AS n FROM pterms),
dc AS (SELECT count(*) AS n FROM documents)
SELECT b.doc_id::BIGINT AS doc_id,
       CASE WHEN (SELECT n FROM nmatch) >= 1024
              OR ((SELECT n FROM nmatch) > 2 AND (SELECT n FROM dc) <= 5000)
            THEN 1.0 ELSE round(sum(b.score), 6) END AS score
FROM bm b WHERE b.term IN (SELECT term FROM pterms)
GROUP BY b.doc_id""",
        "facet_lang": f"""WITH {_BASE_CTES}
SELECT d.lang AS lang, count(DISTINCT t.doc_id)::BIGINT AS n
FROM tfs t JOIN documents d USING (doc_id)
WHERE t.term = '{_T_MID}'
GROUP BY d.lang ORDER BY lang""",
        "collapse_source": f"""WITH {_BASE_CTES},
scored AS (
  SELECT doc_id, round(sum(score), 6) AS score FROM bm
  WHERE term = '{_T_MID}' GROUP BY doc_id
),
ranked AS (
  SELECT d.source, s.doc_id, s.score,
         row_number() OVER (
           PARTITION BY d.source ORDER BY s.score DESC, s.doc_id
         ) AS rn
  FROM scored s JOIN documents d USING (doc_id)
)
SELECT source, doc_id::BIGINT AS doc_id, score
FROM ranked WHERE rn <= 2 ORDER BY source, doc_id""",
        "quality_scores": f"""WITH tokarr AS (
  SELECT doc_id, {raw_tok} AS arr FROM documents
),
tok AS (SELECT doc_id, unnest(arr) AS term FROM tokarr),
agg AS (
  SELECT doc_id, count(*)::BIGINT AS n,
         sum(CASE WHEN term IN ({_STOPLIST_SQL}) THEN 1 ELSE 0 END)::DOUBLE AS ns,
         sum(length(term))::DOUBLE AS sl
  FROM tok GROUP BY doc_id
)
SELECT d.doc_id::BIGINT AS doc_id,
       coalesce(a.n, 0)::BIGINT AS n_tokens_raw,
       round(coalesce(a.ns / a.n, 0), 6) AS stopword_ratio,
       round(coalesce(a.sl / a.n, 0), 6) AS mean_token_len
FROM documents d LEFT JOIN agg a USING (doc_id) ORDER BY doc_id""",
        "langid": f"""WITH tokarr AS (
  SELECT doc_id, {raw_tok} AS arr FROM documents
),
tok AS (SELECT doc_id, unnest(arr) AS term FROM tokarr),
agg AS (
  SELECT doc_id, count(*)::BIGINT AS n,
         sum(CASE WHEN term IN ({_STOPLIST_SQL}) THEN 1 ELSE 0 END)::DOUBLE AS ns
  FROM tok GROUP BY doc_id
),
r AS (
  SELECT d.doc_id, round(coalesce(a.ns / a.n, 0), 6) AS ratio
  FROM documents d LEFT JOIN agg a USING (doc_id)
)
SELECT doc_id::BIGINT AS doc_id, ratio AS en_stop_ratio,
       CASE WHEN ratio >= 0.08 THEN 'en' ELSE 'other' END AS lang_pred
FROM r ORDER BY doc_id""",
        "repetition_quality": f"""WITH tokarr AS (
  SELECT doc_id, {raw_tok} AS arr FROM documents
),
tok AS (SELECT doc_id, unnest(arr) AS term, unnest(range(len(arr))) AS ord FROM tokarr),
big AS (
  SELECT a.doc_id, a.term || ' ' || b.term AS g
  FROM tok a JOIN tok b ON b.doc_id = a.doc_id AND b.ord = a.ord + 1
),
bc AS (SELECT doc_id, g, count(*) AS c FROM big GROUP BY doc_id, g),
a2 AS (SELECT doc_id, max(c)::DOUBLE / sum(c) AS f FROM bc GROUP BY doc_id),
tri AS (
  SELECT a.doc_id, a.term || ' ' || b.term || ' ' || c.term AS g
  FROM tok a JOIN tok b ON b.doc_id = a.doc_id AND b.ord = a.ord + 1
             JOIN tok c ON c.doc_id = a.doc_id AND c.ord = a.ord + 2
),
tc AS (SELECT doc_id, g, count(*) AS c FROM tri GROUP BY doc_id, g),
a3 AS (
  SELECT doc_id,
         sum(CASE WHEN c >= 2 THEN c ELSE 0 END)::DOUBLE / sum(c) AS f
  FROM tc GROUP BY doc_id
)
SELECT d.doc_id::BIGINT AS doc_id,
       round(coalesce(a2.f, 0), 6) AS top_2gram_frac,
       round(coalesce(a3.f, 0), 6) AS dup_3gram_frac
FROM documents d LEFT JOIN a2 USING (doc_id) LEFT JOIN a3 USING (doc_id)
ORDER BY doc_id""",
        "decontam_4gram": f"""WITH tokarr AS (
  SELECT doc_id, {raw_tok} AS arr FROM documents
),
tok AS (SELECT doc_id, unnest(arr) AS term, unnest(range(len(arr))) AS ord FROM tokarr),
grams AS (
  SELECT a.doc_id, a.term || ' ' || b.term || ' ' || c.term || ' ' || d.term AS g
  FROM tok a JOIN tok b ON b.doc_id = a.doc_id AND b.ord = a.ord + 1
             JOIN tok c ON c.doc_id = a.doc_id AND c.ord = a.ord + 2
             JOIN tok d ON d.doc_id = a.doc_id AND d.ord = a.ord + 3
),
bg AS (SELECT DISTINCT g FROM grams WHERE doc_id % 50 = 0),
sc AS (
  SELECT grams.doc_id, count(DISTINCT grams.g) AS ns
  FROM grams JOIN bg USING (g)
  WHERE grams.doc_id % 50 <> 0 GROUP BY grams.doc_id
)
SELECT d.doc_id::BIGINT AS doc_id,
       coalesce(ns, 0)::BIGINT AS n_shared_grams,
       (coalesce(ns, 0) > 0)::BIGINT AS contaminated
FROM documents d LEFT JOIN sc USING (doc_id)
WHERE d.doc_id % 50 <> 0 ORDER BY doc_id""",
        "unigram_lm_scores": f"""WITH tokarr AS (
  SELECT doc_id, {raw_tok} AS arr FROM documents
),
tok AS (SELECT doc_id, unnest(arr) AS term FROM tokarr),
cnt AS (SELECT term, count(*) AS c FROM tok GROUP BY term),
tot AS (SELECT sum(c)::DOUBLE AS t FROM cnt),
lp AS (SELECT term, ln(c::DOUBLE / t) AS logp FROM cnt, tot)
SELECT d.doc_id::BIGINT AS doc_id,
       coalesce(a.n, 0)::BIGINT AS n_tokens_raw,
       round(coalesce(a.m, 0), 6) AS mean_logprob
FROM documents d LEFT JOIN (
  SELECT doc_id, count(*) AS n, avg(logp) AS m
  FROM tok JOIN lp USING (term) GROUP BY doc_id
) a USING (doc_id) ORDER BY doc_id""",
        # CCNet perplexity buckets: unigram-LM mean log-prob (same CTEs as
        # unigram_lm_scores), tercile cutoffs trained on the deterministic
        # md5 % 8 == 0 doc sample, tuple-compared (score DESC, doc_id ASC)
        "perplexity_buckets": f"""WITH tokarr AS (
  SELECT doc_id, {raw_tok} AS arr FROM documents
),
tok AS (SELECT doc_id, unnest(arr) AS term FROM tokarr),
cnt AS (SELECT term, count(*) AS c FROM tok GROUP BY term),
tot AS (SELECT sum(c)::DOUBLE AS t FROM cnt),
lp AS (SELECT term, ln(c::DOUBLE / t) AS logp FROM cnt, tot),
scored AS (
  SELECT d.doc_id, round(coalesce(a.m, 0), 6) AS m
  FROM documents d LEFT JOIN (
    SELECT doc_id, avg(logp) AS m FROM tok JOIN lp USING (term) GROUP BY doc_id
  ) a USING (doc_id)
),
samp AS (SELECT doc_id, m FROM scored
         WHERE md5_number_lower(doc_id::VARCHAR) % 8 = 0),
ranked AS (SELECT doc_id, m,
                  row_number() OVER (ORDER BY m DESC, doc_id) - 1 AS r
           FROM samp),
ns AS (SELECT count(*) AS c FROM samp),
c1 AS (SELECT m, doc_id FROM ranked, ns WHERE r = c // 3),
c2 AS (SELECT m, doc_id FROM ranked, ns WHERE r = 2 * c // 3)
SELECT s.doc_id::BIGINT AS doc_id, s.m AS mean_logprob,
       CASE WHEN s.m > c1.m OR (s.m = c1.m AND s.doc_id < c1.doc_id) THEN 'head'
            WHEN s.m > c2.m OR (s.m = c2.m AND s.doc_id < c2.doc_id) THEN 'middle'
            ELSE 'tail' END AS bucket
FROM scored s CROSS JOIN c1 CROSS JOIN c2 ORDER BY doc_id""",
        # Target-mixture resample: T = min_g n_g/w_g caps the total so no
        # group oversamples; per-group keep rate w_g*T/n_g via the same
        # md5-u32 draw as stratified_sample (float arithmetic shape matches
        # ops/sampling.py exactly — IEEE doubles both sides)
        "mixture_sample": """WITH cnt AS (
  SELECT source AS g, count(*)::DOUBLE AS c FROM documents GROUP BY source
),
w(g, wt) AS (VALUES ('src0', 0.30), ('src1', 0.25), ('src2', 0.20),
                    ('src3', 0.15), ('src4', 0.10)),
tmax AS (SELECT min(c / wt) AS t FROM cnt JOIN w USING (g)),
rates AS (
  SELECT g, floor(least(1.0, (wt * t) / c) * 4294967296)::UBIGINT AS thr
  FROM cnt JOIN w USING (g) CROSS JOIN tmax
)
SELECT d.doc_id::BIGINT AS doc_id, d.source
FROM documents d JOIN rates r ON r.g = d.source
WHERE ('0x' || substr(md5(d.doc_id::VARCHAR), 1, 8))::UBIGINT < r.thr
ORDER BY doc_id""",
        # bigram LM: p(w2|w1) = c(w1 w2) / c(w1 as bigram prefix), trained
        # on the same corpus (ML, no smoothing needed); per-doc mean over
        # bigram OCCURRENCES
        "bigram_lm_scores": f"""WITH tokarr AS (
  SELECT doc_id, {raw_tok} AS arr FROM documents
),
tok AS (SELECT doc_id, unnest(arr) AS w, unnest(range(len(arr))) AS i FROM tokarr),
big AS (
  SELECT a.doc_id, a.w AS w1, a.w || ' ' || b.w AS bi
  FROM tok a JOIN tok b ON b.doc_id = a.doc_id AND b.i = a.i + 1
),
c12 AS (SELECT bi, any_value(w1) AS w1, count(*)::DOUBLE AS c FROM big GROUP BY bi),
c1 AS (SELECT w1, count(*)::DOUBLE AS c FROM big GROUP BY w1),
lp AS (SELECT c12.bi, ln(c12.c / c1.c) AS logp FROM c12 JOIN c1 USING (w1)),
sc AS (
  SELECT big.doc_id, count(*)::BIGINT AS n, avg(lp.logp) AS m
  FROM big JOIN lp USING (bi) GROUP BY big.doc_id
)
SELECT d.doc_id::BIGINT AS doc_id, coalesce(sc.n, 0)::BIGINT AS n_bigrams,
       round(coalesce(sc.m, 0), 6) AS mean_logprob
FROM documents d LEFT JOIN sc USING (doc_id) ORDER BY doc_id""",
        # distinctive terms: cnt_in_group * ln(total_tokens / cnt_overall),
        # top-5 per source, (score desc, term asc)
        "distinctive_terms_per_source": f"""WITH tokarr AS (
  SELECT source, {raw_tok} AS arr FROM documents
),
tok AS (SELECT source, unnest(arr) AS term FROM tokarr),
cg AS (SELECT source, term, count(*)::BIGINT AS cnt FROM tok GROUP BY 1, 2),
ca AS (SELECT term, count(*)::DOUBLE AS c_all FROM tok GROUP BY term),
tt AS (SELECT count(*)::DOUBLE AS t FROM tok),
sc AS (
  SELECT cg.source, cg.term, cg.cnt, cg.cnt * ln(tt.t / ca.c_all) AS score
  FROM cg JOIN ca USING (term) CROSS JOIN tt
),
rk AS (
  SELECT *, row_number() OVER (PARTITION BY source ORDER BY score DESC, term) AS rn
  FROM sc
)
SELECT source AS "group", term, cnt, round(score, 6) AS score
FROM rk WHERE rn <= 5 ORDER BY "group", score DESC, term""",
        # per-domain frequency cap: keep the 10 lowest doc_ids per source
        "source_cap": """
SELECT doc_id::BIGINT AS doc_id, source FROM (
  SELECT doc_id, source,
         row_number() OVER (PARTITION BY source ORDER BY doc_id) AS rn
  FROM documents
) WHERE rn <= 10 ORDER BY doc_id""",
        # exact quantiles: value at 0-based rank floor(q*(n-1)) of the
        # ascending sort — same IEEE-double rank rule as exact_quantiles
        "nchars_quantiles": """
WITH ord AS (
  SELECT n_chars AS v,
         row_number() OVER (ORDER BY n_chars) - 1 AS r
  FROM documents
),
n AS (SELECT count(*)::BIGINT AS c FROM documents),
qs(q) AS (VALUES (0.1), (0.25), (0.5), (0.75), (0.9), (0.99))
SELECT q, v::BIGINT AS value
FROM qs, n JOIN ord ON ord.r = floor(q * (c - 1))::BIGINT
ORDER BY q""",
        # continuous-column quantiles: identical rank rule over events.value
        # (NULL/NaN dropped), selected distributedly on the Ray side
        "event_value_quantiles": """
WITH clean AS (
  SELECT value AS v FROM events
  WHERE value IS NOT NULL AND NOT isnan(value)
),
ord AS (
  SELECT v, row_number() OVER (ORDER BY v) - 1 AS r FROM clean
),
n AS (SELECT count(*)::BIGINT AS c FROM clean),
qs(q) AS (VALUES (0.05), (0.25), (0.5), (0.75), (0.95))
SELECT q, round(v, 6) AS value
FROM qs, n JOIN ord ON ord.r = floor(q * (c - 1))::BIGINT
ORDER BY q""",
        # top-5 terms per source, count desc / term asc tie-break
        "top_terms_per_source": f"""
WITH tokarr AS (
  SELECT source, {raw_tok} AS arr FROM documents
),
tok AS (SELECT source, unnest(arr) AS term FROM tokarr),
cnt AS (SELECT source, term, count(*)::BIGINT AS cnt FROM tok GROUP BY 1, 2),
rk AS (
  SELECT source, term, cnt,
         row_number() OVER (PARTITION BY source ORDER BY cnt DESC, term) AS rn
  FROM cnt
)
SELECT source AS "group", term, cnt FROM rk WHERE rn <= 5
ORDER BY "group", cnt DESC, term""",
        # SemDeDup: max-cosine seed-centroid cells (same assignment as
        # knn_ivf_top10), within-cell drop when a lower-id cellmate has
        # cosine >= tau (deterministic keep-lowest-id representative;
        # tau=0.45 is corpus-tuned so drops actually occur)
        "semdedup_keep": """WITH seeds AS (
  SELECT vec_id AS cell, embedding AS cv FROM embeddings WHERE vec_id < 8
),
assign AS (
  SELECT e.vec_id, s.cell,
         row_number() OVER (
           PARTITION BY e.vec_id
           ORDER BY list_cosine_similarity(e.embedding::DOUBLE[], s.cv::DOUBLE[]) DESC, s.cell ASC
         ) AS rn
  FROM embeddings e CROSS JOIN seeds s
),
cells AS (SELECT vec_id, cell FROM assign WHERE rn = 1)
SELECT a.vec_id::BIGINT AS vec_id, a.cell::BIGINT AS cell,
       NOT EXISTS (
         SELECT 1 FROM cells c2 JOIN embeddings e2 ON e2.vec_id = c2.vec_id
         WHERE c2.cell = a.cell AND c2.vec_id < a.vec_id
           AND list_cosine_similarity(e2.embedding::DOUBLE[], ea.embedding::DOUBLE[]) >= 0.45
       ) AS keep
FROM cells a JOIN embeddings ea ON ea.vec_id = a.vec_id
ORDER BY vec_id""",
        # DSIR (Xie et al. 2023): hashed unigram+bigram buckets, add-1
        # smoothed target (lang='en') vs pool log-ratio, per-doc mean —
        # md5_number_lower(g) % B is byte-identical to the engine's
        # md5_u64 bucket hash (ops/hashing.py:24-37)
        "dsir_weights": f"""WITH tokarr AS (
  SELECT doc_id, {raw_tok} AS arr FROM documents
),
tok AS (SELECT doc_id, unnest(arr) AS term, unnest(range(len(arr))) AS ord FROM tokarr),
feats AS (
  SELECT doc_id, (md5_number_lower(g) % 1024)::BIGINT AS bucket
  FROM (
    SELECT doc_id, term AS g FROM tok
    UNION ALL
    SELECT a.doc_id, a.term || ' ' || b.term AS g
    FROM tok a JOIN tok b ON b.doc_id = a.doc_id AND b.ord = a.ord + 1
  )
),
cnts AS (
  SELECT f.bucket,
         sum(CASE WHEN d.lang = 'en' THEN 1 ELSE 0 END)::DOUBLE AS ct,
         count(*)::DOUBLE AS cq
  FROM feats f JOIN documents d USING (doc_id) GROUP BY f.bucket
),
tot AS (SELECT sum(ct) AS t, sum(cq) AS q FROM cnts),
lr AS (
  SELECT b.bucket,
         ln((coalesce(c.ct, 0) + 1) / (t.t + 1024))
       - ln((coalesce(c.cq, 0) + 1) / (t.q + 1024)) AS logr
  FROM (SELECT unnest(range(1024)) AS bucket) b
  LEFT JOIN cnts c USING (bucket) CROSS JOIN tot t
)
SELECT d.doc_id::BIGINT AS doc_id,
       coalesce(a.n, 0)::BIGINT AS n_feats,
       round(coalesce(a.m, 0), 6) AS log_weight
FROM documents d LEFT JOIN (
  SELECT f.doc_id, count(*) AS n, avg(lr.logr) AS m
  FROM feats f JOIN lr USING (bucket) GROUP BY f.doc_id
) a USING (doc_id) ORDER BY doc_id""",
        "boilerplate_frac": f"""WITH tokarr AS (
  SELECT doc_id, {raw_tok} AS arr FROM documents
),
tok AS (SELECT doc_id, unnest(arr) AS term, unnest(range(len(arr))) AS ord FROM tokarr),
grams AS (
  SELECT a.doc_id, a.term||' '||b.term||' '||c.term||' '||d.term||' '||e.term AS g
  FROM tok a JOIN tok b ON b.doc_id = a.doc_id AND b.ord = a.ord + 1
             JOIN tok c ON c.doc_id = a.doc_id AND c.ord = a.ord + 2
             JOIN tok d ON d.doc_id = a.doc_id AND d.ord = a.ord + 3
             JOIN tok e ON e.doc_id = a.doc_id AND e.ord = a.ord + 4
),
hot AS (SELECT g FROM grams GROUP BY g HAVING count(DISTINCT doc_id) >= 3),
per AS (
  SELECT doc_id, count(*) AS ng,
         sum(CASE WHEN g IN (SELECT g FROM hot) THEN 1 ELSE 0 END) AS nh
  FROM grams GROUP BY doc_id
)
SELECT d.doc_id::BIGINT AS doc_id,
       coalesce(ng, 0)::BIGINT AS n_grams,
       round(coalesce(nh, 0)::DOUBLE / greatest(coalesce(ng, 0), 1), 6) AS boilerplate_frac
FROM documents d LEFT JOIN per USING (doc_id) ORDER BY doc_id""",
        "fingerprint": f"""
SELECT doc_id::BIGINT AS doc_id,
       md5(array_to_string({raw_tok}, ' ')) AS fingerprint
FROM documents ORDER BY doc_id""",
        "chunk_windows": r"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '\S+') AS t FROM documents
), starts AS (
  SELECT doc_id, t, unnest(generate_series(0, len(t) - 1, 48)) AS start
  FROM toks WHERE len(t) > 0
)
SELECT doc_id::BIGINT AS doc_id,
       (start // 48)::BIGINT AS chunk_idx,
       least(64, len(t) - start)::BIGINT AS n_chunk_tokens,
       array_to_string(t[start + 1 : start + 64], ' ') AS chunk_text
FROM starts ORDER BY doc_id, chunk_idx""",
        "pack_sequences": r"""
WITH n AS (
  SELECT doc_id, len(regexp_extract_all(text, '\S+'))::BIGINT AS n_tokens
  FROM documents
)
SELECT doc_id::BIGINT AS doc_id, n_tokens,
       (COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id
          ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) // 2048
       )::BIGINT AS pack_id
FROM n ORDER BY doc_id""",
        # composed shaping tail: the pack_id is the window cumsum of chunk
        # token counts over the global (doc_id, chunk_idx) order
        "training_rows": r"""
WITH clean AS (
  SELECT doc_id,
         regexp_replace(regexp_replace(regexp_replace(text,
           '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '<EMAIL>', 'g'),
           '\b(?:[0-9]{1,3}\.){3}[0-9]{1,3}\b', '<IP>', 'g'),
           '\+?[0-9][0-9()\-\s]{7,}[0-9]', '<PHONE>', 'g') AS ct
  FROM documents
), toks AS (
  SELECT doc_id, regexp_extract_all(ct, '\S+') AS t FROM clean
), starts AS (
  SELECT doc_id, t, unnest(generate_series(0, len(t) - 1, 48)) AS start
  FROM toks WHERE len(t) > 0
), chunks AS (
  SELECT doc_id,
         (start // 48)::BIGINT AS chunk_idx,
         least(64, len(t) - start)::BIGINT AS n_chunk_tokens,
         array_to_string(t[start + 1 : start + 64], ' ') AS chunk_text
  FROM starts
)
SELECT doc_id::BIGINT AS doc_id, chunk_idx, n_chunk_tokens, chunk_text,
       (COALESCE(SUM(n_chunk_tokens) OVER (ORDER BY doc_id, chunk_idx
          ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) // 512
       )::BIGINT AS pack_id
FROM chunks ORDER BY doc_id, chunk_idx""",
        # the PII patterns apply sequentially, each counting against the
        # already-scrubbed text — the nested CTEs mirror ops/curation.py
        "pii_scrub": r"""
WITH aug AS (
  SELECT doc_id,
         text || ' contact user' || doc_id || '@example.com or 10.0.'
              || (doc_id & 255) || '.1 now' AS t
  FROM documents
), s1 AS (
  SELECT doc_id,
         len(regexp_extract_all(t, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}'))::BIGINT AS n_email,
         regexp_replace(t, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '<EMAIL>', 'g') AS t
  FROM aug
), s2 AS (
  SELECT doc_id, n_email,
         len(regexp_extract_all(t, '\b(?:[0-9]{1,3}\.){3}[0-9]{1,3}\b'))::BIGINT AS n_ip,
         regexp_replace(t, '\b(?:[0-9]{1,3}\.){3}[0-9]{1,3}\b', '<IP>', 'g') AS t
  FROM s1
), s3 AS (
  SELECT doc_id, n_email, n_ip,
         len(regexp_extract_all(t, '\+?[0-9][0-9()\-\s]{7,}[0-9]'))::BIGINT AS n_phone,
         regexp_replace(t, '\+?[0-9][0-9()\-\s]{7,}[0-9]', '<PHONE>', 'g') AS t
  FROM s2
)
SELECT doc_id::BIGINT AS doc_id, n_email, n_ip, n_phone,
       (n_email + n_ip + n_phone)::BIGINT AS n_pii, t AS clean_text
FROM s3 ORDER BY doc_id""",
        # thresholds = int(rate * 2**32) for rates en 0.3 / zh 0.8 / es 0.5,
        # everything else kept (4294967296 > any u32 draw)
        "stratified_sample": """
SELECT doc_id::BIGINT AS doc_id, lang FROM documents
WHERE ('0x' || substr(md5(doc_id::VARCHAR), 1, 8))::UBIGINT <
      CASE lang WHEN 'en' THEN 1288490188
                WHEN 'zh' THEN 3435973836
                WHEN 'es' THEN 2147483648
                ELSE 4294967296 END
ORDER BY doc_id""",
        "dedup_exact": """
SELECT md5(text) AS text_md5, min(doc_id)::BIGINT AS doc_id
FROM documents GROUP BY md5(text) ORDER BY doc_id""",
        "jaccard_pairs": f"""WITH tokarr AS (
  SELECT doc_id, {raw_tok} AS arr FROM documents
),
sh AS (
  SELECT DISTINCT doc_id,
         array_to_string(list_slice(arr, i + 1, i + 3), ' ') AS shingle
  FROM (SELECT doc_id, arr, unnest(range(len(arr) - 2)) AS i FROM tokarr
        WHERE len(arr) >= 3)
),
sizes AS (SELECT doc_id, count(*)::DOUBLE AS n FROM sh GROUP BY doc_id),
-- same boilerplate-shingle cap as ngram_jaccard_pairs(max_group=1000):
-- capped shingles are excluded from the intersection, sizes keep them
ok AS (SELECT shingle FROM sh GROUP BY shingle HAVING count(*) <= 1000),
pairs AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*)::DOUBLE AS inter
  FROM sh a JOIN sh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
  WHERE a.shingle IN (SELECT shingle FROM ok)
  GROUP BY 1, 2
)
SELECT doc_a::BIGINT AS doc_a, doc_b::BIGINT AS doc_b,
       round(inter / (sa.n + sb.n - inter), 6) AS jaccard
FROM pairs
JOIN sizes sa ON sa.doc_id = doc_a
JOIN sizes sb ON sb.doc_id = doc_b
WHERE inter / (sa.n + sb.n - inter) >= 0.2
ORDER BY doc_a, doc_b""",
        # MinHash: base = md5_number_lower(shingle) mod p, permutations
        # (a*x+b) mod p with p = 2^61-1 and md5-seeded (a, b) — exactly the
        # arithmetic in ops/hashing.py (n=3, num_perm=64, bands=16, seed=7).
        "minhash_candidates": f"""WITH tokarr AS (
  SELECT doc_id, {raw_tok} AS arr FROM documents
),
sh AS (
  SELECT DISTINCT doc_id,
         array_to_string(list_slice(arr, i + 1, i + 3), ' ') AS shingle
  FROM (SELECT doc_id, arr, unnest(range(len(arr) - 2)) AS i FROM tokarr
        WHERE len(arr) >= 3)
),
perms AS (
  SELECT i,
         (md5_number_lower('mh-a-7-' || i)::HUGEINT % 2305843009213693950 + 1) AS a,
         (md5_number_lower('mh-b-7-' || i)::HUGEINT % 2305843009213693951) AS b
  FROM (SELECT unnest(range(64)) AS i)
),
shh AS (
  SELECT doc_id, md5_number_lower(shingle)::HUGEINT % 2305843009213693951 AS x
  FROM sh
),
mins AS (
  SELECT s.doc_id, p.i, min((p.a * s.x + p.b) % 2305843009213693951) AS h
  FROM shh s CROSS JOIN perms p GROUP BY 1, 2
),
sigs AS (SELECT doc_id, list(h ORDER BY i) AS sig FROM mins GROUP BY doc_id),
bandkeys AS (
  SELECT doc_id,
         substr(md5(bi.bi || ':' ||
                    array_to_string(list_slice(sig, bi.bi * 4 + 1, bi.bi * 4 + 4), ',')),
                1, 16) AS band_key
  FROM sigs CROSS JOIN (SELECT unnest(range(16)) AS bi) bi
),
cand AS (
  SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM bandkeys a JOIN bandkeys b
    ON a.band_key = b.band_key AND a.doc_id < b.doc_id
)
SELECT c.doc_a::BIGINT AS doc_a, c.doc_b::BIGINT AS doc_b,
       round(list_sum(list_transform(range(64),
             i -> CASE WHEN sa.sig[i + 1] = sb.sig[i + 1] THEN 1 ELSE 0 END)) / 64.0,
             6) AS est_jaccard
FROM cand c
JOIN sigs sa ON sa.doc_id = c.doc_a
JOIN sigs sb ON sb.doc_id = c.doc_b
ORDER BY doc_a, doc_b""",
        # Near-dup LOSER set (distinct higher id of any pair with
        # est_jaccard >= 0.8). The Ray side runs the collapse_equal chain
        # path (ops/dedup._collapse_equal_signatures) — the pair SET
        # differs from the clique, but the loser set is provably identical,
        # which is exactly what this oracle pins: the SQL derives losers
        # from the full clique pair set.
        "minhash_losers_collapsed": f"""WITH tokarr AS (
  SELECT doc_id, {raw_tok} AS arr FROM documents
),
sh AS (
  SELECT DISTINCT doc_id,
         array_to_string(list_slice(arr, i + 1, i + 3), ' ') AS shingle
  FROM (SELECT doc_id, arr, unnest(range(len(arr) - 2)) AS i FROM tokarr
        WHERE len(arr) >= 3)
),
perms AS (
  SELECT i,
         (md5_number_lower('mh-a-7-' || i)::HUGEINT % 2305843009213693950 + 1) AS a,
         (md5_number_lower('mh-b-7-' || i)::HUGEINT % 2305843009213693951) AS b
  FROM (SELECT unnest(range(64)) AS i)
),
shh AS (
  SELECT doc_id, md5_number_lower(shingle)::HUGEINT % 2305843009213693951 AS x
  FROM sh
),
mins AS (
  SELECT s.doc_id, p.i, min((p.a * s.x + p.b) % 2305843009213693951) AS h
  FROM shh s CROSS JOIN perms p GROUP BY 1, 2
),
sigs AS (SELECT doc_id, list(h ORDER BY i) AS sig FROM mins GROUP BY doc_id),
bandkeys AS (
  SELECT doc_id,
         substr(md5(bi.bi || ':' ||
                    array_to_string(list_slice(sig, bi.bi * 4 + 1, bi.bi * 4 + 4), ',')),
                1, 16) AS band_key
  FROM sigs CROSS JOIN (SELECT unnest(range(16)) AS bi) bi
),
cand AS (
  SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM bandkeys a JOIN bandkeys b
    ON a.band_key = b.band_key AND a.doc_id < b.doc_id
),
est AS (
  SELECT c.doc_b,
         list_sum(list_transform(range(64),
             i -> CASE WHEN sa.sig[i + 1] = sb.sig[i + 1] THEN 1 ELSE 0 END)) / 64.0
           AS e
  FROM cand c
  JOIN sigs sa ON sa.doc_id = c.doc_a
  JOIN sigs sb ON sb.doc_id = c.doc_b
)
SELECT DISTINCT doc_b::BIGINT AS doc_id FROM est WHERE e >= 0.8
ORDER BY doc_id""",
        # SimHash: term hash = md5_number_lower(term), tf-weighted bit votes,
        # int64 two's-complement view of the uint64 hash.
        "simhash": f"""WITH tokarr AS (
  SELECT doc_id, {raw_tok} AS arr FROM documents
),
tok AS (SELECT doc_id, unnest(arr) AS term FROM tokarr),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf FROM tok GROUP BY 1, 2),
th AS (SELECT doc_id, tf, md5_number_lower(term)::HUGEINT AS h FROM tf),
votes AS (
  SELECT doc_id, b.bit,
         sum(CASE WHEN (h // (1::HUGEINT << b.bit)) % 2 = 1 THEN tf ELSE -tf END) AS vote
  FROM th CROSS JOIN (SELECT unnest(range(64)) AS bit) b
  GROUP BY 1, 2
),
halves AS (
  SELECT doc_id,
         sum(CASE WHEN vote > 0 AND bit < 32 THEN (1::BIGINT << bit) ELSE 0 END) AS lo,
         sum(CASE WHEN vote > 0 AND bit >= 32 THEN (1::BIGINT << (bit - 32)) ELSE 0 END) AS hi
  FROM votes GROUP BY doc_id
),
vals AS (SELECT doc_id, hi::HUGEINT * 4294967296 + lo AS s FROM halves)
SELECT d.doc_id::BIGINT AS doc_id,
       coalesce(CASE WHEN v.s >= 9223372036854775808
                     THEN v.s - 18446744073709551616 ELSE v.s END, 0)::BIGINT AS simhash
FROM documents d LEFT JOIN vals v USING (doc_id)
ORDER BY doc_id""",
        # Connected components over the MinHash candidate pairs: label
        # propagation as a recursive CTE (walk enumerates reachable nodes,
        # min per doc = the component minimum)
        "dedup_clusters": f"""WITH RECURSIVE tokarr AS (
  SELECT doc_id, {raw_tok} AS arr FROM documents
),
sh AS (
  SELECT DISTINCT doc_id,
         array_to_string(list_slice(arr, i + 1, i + 3), ' ') AS shingle
  FROM (SELECT doc_id, arr, unnest(range(len(arr) - 2)) AS i FROM tokarr
        WHERE len(arr) >= 3)
),
perms AS (
  SELECT i,
         (md5_number_lower('mh-a-7-' || i)::HUGEINT % 2305843009213693950 + 1) AS a,
         (md5_number_lower('mh-b-7-' || i)::HUGEINT % 2305843009213693951) AS b
  FROM (SELECT unnest(range(64)) AS i)
),
shh AS (
  SELECT doc_id, md5_number_lower(shingle)::HUGEINT % 2305843009213693951 AS x
  FROM sh
),
mins AS (
  SELECT s.doc_id, p.i, min((p.a * s.x + p.b) % 2305843009213693951) AS h
  FROM shh s CROSS JOIN perms p GROUP BY 1, 2
),
sigs AS (SELECT doc_id, list(h ORDER BY i) AS sig FROM mins GROUP BY doc_id),
bandkeys AS (
  SELECT doc_id,
         substr(md5(bi.bi || ':' ||
                    array_to_string(list_slice(sig, bi.bi * 4 + 1, bi.bi * 4 + 4), ',')),
                1, 16) AS band_key
  FROM sigs CROSS JOIN (SELECT unnest(range(16)) AS bi) bi
),
cand AS (
  SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM bandkeys a JOIN bandkeys b
    ON a.band_key = b.band_key AND a.doc_id < b.doc_id
),
edges AS (
  SELECT doc_a AS u, doc_b AS v FROM cand
  UNION SELECT doc_b, doc_a FROM cand
),
walk(doc, label) AS (
  SELECT u, u FROM (SELECT DISTINCT u FROM edges)
  UNION
  SELECT e.u, w.label FROM walk w JOIN edges e ON e.v = w.doc
)
SELECT doc::BIGINT AS doc_id, min(label)::BIGINT AS cluster_id
FROM walk GROUP BY doc ORDER BY doc_id""",
        # Composed curation: exact-dedup keepers ∩ quality gate (raw tokens
        # >= 40 AND stopword_ratio >= 0.08) minus MinHash near-dup losers
        # (est >= 0.9 drops doc_b), with the BPE budget joined on — every
        # fragment is an already-oracled query's SQL
        "curated_docs": f"""WITH tokarr AS (
  SELECT doc_id, {raw_tok} AS arr FROM documents
),
sh AS (
  SELECT DISTINCT doc_id,
         array_to_string(list_slice(arr, i + 1, i + 3), ' ') AS shingle
  FROM (SELECT doc_id, arr, unnest(range(len(arr) - 2)) AS i FROM tokarr
        WHERE len(arr) >= 3)
),
perms AS (
  SELECT i,
         (md5_number_lower('mh-a-7-' || i)::HUGEINT % 2305843009213693950 + 1) AS a,
         (md5_number_lower('mh-b-7-' || i)::HUGEINT % 2305843009213693951) AS b
  FROM (SELECT unnest(range(64)) AS i)
),
shh AS (
  SELECT doc_id, md5_number_lower(shingle)::HUGEINT % 2305843009213693951 AS x
  FROM sh
),
mins AS (
  SELECT s.doc_id, p.i, min((p.a * s.x + p.b) % 2305843009213693951) AS h
  FROM shh s CROSS JOIN perms p GROUP BY 1, 2
),
sigs AS (SELECT doc_id, list(h ORDER BY i) AS sig FROM mins GROUP BY doc_id),
bandkeys AS (
  SELECT doc_id,
         substr(md5(bi.bi || ':' ||
                    array_to_string(list_slice(sig, bi.bi * 4 + 1, bi.bi * 4 + 4), ',')),
                1, 16) AS band_key
  FROM sigs CROSS JOIN (SELECT unnest(range(16)) AS bi) bi
),
cand AS (
  SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM bandkeys a JOIN bandkeys b
    ON a.band_key = b.band_key AND a.doc_id < b.doc_id
),
losers AS (
  SELECT DISTINCT c.doc_b AS doc_id
  FROM cand c
  JOIN sigs sa ON sa.doc_id = c.doc_a
  JOIN sigs sb ON sb.doc_id = c.doc_b
  WHERE list_sum(list_transform(range(64),
          i -> CASE WHEN sa.sig[i + 1] = sb.sig[i + 1] THEN 1 ELSE 0 END)) / 64.0
        >= 0.9
),
keepers AS (SELECT min(doc_id) AS doc_id FROM documents GROUP BY md5(text)),
tok AS (SELECT doc_id, unnest(arr) AS term FROM tokarr),
agg AS (
  SELECT doc_id, count(*)::BIGINT AS n,
         sum(CASE WHEN term IN ({_STOPLIST_SQL}) THEN 1 ELSE 0 END)::DOUBLE AS ns
  FROM tok GROUP BY doc_id
),
qual AS (SELECT doc_id FROM agg WHERE n >= 40 AND ns / n >= 0.08)
SELECT k.doc_id::BIGINT AS doc_id,
       len(regexp_extract_all(d.text,
           ' ?[A-Za-z]+| ?[0-9]+| ?[^\\sA-Za-z0-9]+|\\s+'))::BIGINT AS n_bpe_tokens
FROM keepers k
JOIN qual q ON q.doc_id = k.doc_id
JOIN documents d ON d.doc_id = k.doc_id
WHERE k.doc_id NOT IN (SELECT doc_id FROM losers)
ORDER BY doc_id""",
        # SimHash near-dup pairs: same simhash CTEs, pairs with
        # bit_count(xor) <= 3 (engine uses 4x16-bit band blocking — a
        # guaranteed superset at k<=3 — so the exhaustive SQL join is the
        # exact same set)
        "simhash_near_dup": f"""WITH tokarr AS (
  SELECT doc_id, {raw_tok} AS arr FROM documents
),
tok AS (SELECT doc_id, unnest(arr) AS term FROM tokarr),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf FROM tok GROUP BY 1, 2),
th AS (SELECT doc_id, tf, md5_number_lower(term)::HUGEINT AS h FROM tf),
votes AS (
  SELECT doc_id, b.bit,
         sum(CASE WHEN (h // (1::HUGEINT << b.bit)) % 2 = 1 THEN tf ELSE -tf END) AS vote
  FROM th CROSS JOIN (SELECT unnest(range(64)) AS bit) b
  GROUP BY 1, 2
),
halves AS (
  SELECT doc_id,
         sum(CASE WHEN vote > 0 AND bit < 32 THEN (1::BIGINT << bit) ELSE 0 END) AS lo,
         sum(CASE WHEN vote > 0 AND bit >= 32 THEN (1::BIGINT << (bit - 32)) ELSE 0 END) AS hi
  FROM votes GROUP BY doc_id
),
vals AS (SELECT doc_id, hi::HUGEINT * 4294967296 + lo AS s FROM halves),
sh AS (
  SELECT d.doc_id,
         coalesce(CASE WHEN v.s >= 9223372036854775808
                       THEN v.s - 18446744073709551616 ELSE v.s END, 0)::BIGINT AS simhash
  FROM documents d LEFT JOIN vals v USING (doc_id)
)
SELECT a.doc_id::BIGINT AS doc_a, b.doc_id::BIGINT AS doc_b,
       bit_count(xor(a.simhash, b.simhash))::BIGINT AS hamming
FROM sh a JOIN sh b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.simhash, b.simhash)) <= 3
ORDER BY doc_a, doc_b""",
        # LSH-bucketed ANN: hyperplane entries md5_u64('lshp-5-<bit>-<dim>')/2^64
        # - 0.5 (float64 on both sides), single-probe bucket filter, exact
        # cosine re-rank (nbits=8, seed=5).
        "knn_lsh_top10": """WITH planes AS (
  SELECT b.b, j.j,
         md5_number_lower('lshp-5-' || b.b || '-' || j.j) / 18446744073709551616.0
           - 0.5 AS w
  FROM (SELECT unnest(range(8)) AS b) b,
       (SELECT unnest(range((SELECT len(embedding) FROM embeddings LIMIT 1))) AS j) j
),
ev AS (
  SELECT vec_id, unnest(embedding) AS x, unnest(range(len(embedding))) AS j
  FROM embeddings
),
dots AS (
  SELECT e.vec_id, p.b, sum(e.x * p.w) AS dp
  FROM ev e JOIN planes p ON p.j = e.j GROUP BY 1, 2
),
buckets AS (
  SELECT vec_id,
         sum(CASE WHEN dp > 0 THEN (1::BIGINT << b) ELSE 0 END)::BIGINT AS bucket
  FROM dots GROUP BY vec_id
),
qb AS (SELECT bucket FROM buckets WHERE vec_id = 0),
qe AS (SELECT embedding AS qv FROM embeddings WHERE vec_id = 0)
SELECT e.vec_id::BIGINT AS vec_id,
       round(list_cosine_similarity(e.embedding::DOUBLE[], qe.qv::DOUBLE[]), 6) AS cosine
FROM embeddings e
JOIN buckets bu ON bu.vec_id = e.vec_id
CROSS JOIN qb CROSS JOIN qe
WHERE bu.bucket = qb.bucket
ORDER BY cosine DESC, vec_id LIMIT 10""",
        # multi-probe LSH (nprobe=2): every bucket within Hamming distance 1
        # of the query's bucket is scanned, then exact cosine re-rank
        "knn_lsh_multiprobe_top10": """WITH planes AS (
  SELECT b.b, j.j,
         md5_number_lower('lshp-5-' || b.b || '-' || j.j) / 18446744073709551616.0
           - 0.5 AS w
  FROM (SELECT unnest(range(8)) AS b) b,
       (SELECT unnest(range((SELECT len(embedding) FROM embeddings LIMIT 1))) AS j) j
),
ev AS (
  SELECT vec_id, unnest(embedding) AS x, unnest(range(len(embedding))) AS j
  FROM embeddings
),
dots AS (
  SELECT e.vec_id, p.b, sum(e.x * p.w) AS dp
  FROM ev e JOIN planes p ON p.j = e.j GROUP BY 1, 2
),
buckets AS (
  SELECT vec_id,
         sum(CASE WHEN dp > 0 THEN (1::BIGINT << b) ELSE 0 END)::BIGINT AS bucket
  FROM dots GROUP BY vec_id
),
qb AS (SELECT bucket FROM buckets WHERE vec_id = 0),
qe AS (SELECT embedding AS qv FROM embeddings WHERE vec_id = 0)
SELECT e.vec_id::BIGINT AS vec_id,
       round(list_cosine_similarity(e.embedding::DOUBLE[], qe.qv::DOUBLE[]), 6) AS cosine
FROM embeddings e
JOIN buckets bu ON bu.vec_id = e.vec_id
CROSS JOIN qb CROSS JOIN qe
WHERE bit_count(xor(bu.bucket, qb.bucket)) < 2
ORDER BY cosine DESC, vec_id LIMIT 10""",
        # LSH-blocked embedding near-dups: pairs compared only within the
        # same hyperplane bucket (nbits=8, seed=5 — the knn_lsh bucket CTE),
        # cosine >= 0.3, a < b
        "near_dup_lsh_blocked": """WITH planes AS (
  SELECT b.b, j.j,
         md5_number_lower('lshp-5-' || b.b || '-' || j.j) / 18446744073709551616.0
           - 0.5 AS w
  FROM (SELECT unnest(range(8)) AS b) b,
       (SELECT unnest(range((SELECT len(embedding) FROM embeddings LIMIT 1))) AS j) j
),
ev AS (
  SELECT vec_id, unnest(embedding) AS x, unnest(range(len(embedding))) AS j
  FROM embeddings
),
dots AS (
  SELECT e.vec_id, p.b, sum(e.x * p.w) AS dp
  FROM ev e JOIN planes p ON p.j = e.j GROUP BY 1, 2
),
buckets AS (
  SELECT vec_id,
         sum(CASE WHEN dp > 0 THEN (1::BIGINT << b) ELSE 0 END)::BIGINT AS bucket
  FROM dots GROUP BY vec_id
)
SELECT a.vec_id::BIGINT AS vec_a, b.vec_id::BIGINT AS vec_b,
       round(list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]), 6) AS cosine
FROM embeddings a
JOIN buckets ba ON ba.vec_id = a.vec_id
JOIN buckets bb ON TRUE
JOIN embeddings b ON b.vec_id = bb.vec_id
WHERE ba.bucket = bb.bucket AND a.vec_id < b.vec_id
  AND list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]) >= 0.3
ORDER BY vec_a, vec_b""",
        # BPE-ish pre-tokenizer budget: the same ASCII pattern runs under
        # Python re (engine) and DuckDB RE2 (oracle)
        "bpe_token_counts": r"""
SELECT doc_id::BIGINT AS doc_id,
       len(regexp_extract_all(text, ' ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+|\s+'))::BIGINT
         AS n_bpe_tokens
FROM documents ORDER BY doc_id""",
        # html round-trip: the Ray side wraps text into html bytes and runs
        # the ExtractText stage; matching this oracle's raw text proves the
        # extraction is byte-identical per doc (the north-rule invariant)
        "html_roundtrip": """
SELECT doc_id::BIGINT AS doc_id, text FROM documents ORDER BY doc_id""",
        # Persisted IVF ANN: centroids = embeddings of vec_id < 8 (a
        # deterministic, SQL-expressible seeding); every vector assigned to
        # its max-cosine cell (tie -> lower cell, matching numpy argmax);
        # probe the 3 cells nearest the query; exact cosine re-rank inside.
        "knn_ivf_top10": """WITH seeds AS (
  SELECT vec_id AS cell, embedding AS cv FROM embeddings WHERE vec_id < 8
),
assign AS (
  SELECT e.vec_id, s.cell,
         row_number() OVER (
           PARTITION BY e.vec_id
           ORDER BY list_cosine_similarity(e.embedding::DOUBLE[], s.cv::DOUBLE[]) DESC, s.cell ASC
         ) AS rn
  FROM embeddings e CROSS JOIN seeds s
),
cells AS (SELECT vec_id, cell FROM assign WHERE rn = 1),
qe AS (SELECT embedding AS qv FROM embeddings WHERE vec_id = 0),
qprobe AS (
  SELECT s.cell FROM seeds s CROSS JOIN qe
  ORDER BY list_cosine_similarity(qe.qv::DOUBLE[], s.cv::DOUBLE[]) DESC, s.cell ASC LIMIT 3
)
SELECT e.vec_id::BIGINT AS vec_id,
       round(list_cosine_similarity(e.embedding::DOUBLE[], qe.qv::DOUBLE[]), 6) AS cosine
FROM embeddings e
JOIN cells c ON c.vec_id = e.vec_id
CROSS JOIN qe
WHERE c.cell IN (SELECT cell FROM qprobe)
ORDER BY cosine DESC, vec_id LIMIT 10""",
        # Stubbed image decode: dims derive from sha256(payload) bytes 0/1
        # (payload = utf-8 of text, so DuckDB's sha256(text) matches).
        "image_features_meta": """
SELECT doc_id::BIGINT AS doc_id,
       (64 + ('0x' || substr(sha256(text), 1, 2))::INT * 8)::BIGINT AS width,
       (64 + ('0x' || substr(sha256(text), 3, 2))::INT * 8)::BIGINT AS height,
       3::BIGINT AS channels
FROM documents ORDER BY doc_id""",
        "knn_cosine_top10": """WITH q AS (
  SELECT embedding AS qe FROM embeddings WHERE vec_id = 0
)
SELECT e.vec_id::BIGINT AS vec_id,
       round(list_cosine_similarity(e.embedding::DOUBLE[], q.qe::DOUBLE[]), 6) AS cosine
FROM embeddings e CROSS JOIN q
ORDER BY cosine DESC, vec_id LIMIT 10""",
        "near_dup_cosine": """
SELECT a.vec_id::BIGINT AS vec_a, b.vec_id::BIGINT AS vec_b,
       round(list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]), 6) AS cosine
FROM embeddings a
JOIN embeddings b ON a.label = b.label AND a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]) >= 0.9
ORDER BY vec_a, vec_b""",
        "numeric_range": """
SELECT doc_id::BIGINT AS doc_id, n_chars::BIGINT AS n_chars
FROM documents WHERE n_chars BETWEEN 500 AND 900 ORDER BY doc_id""",
        "fielded_and": f"""WITH {_BASE_CTES},
src AS (SELECT doc_id FROM documents WHERE lower(source) = 'src5'),
srcstats AS (
  SELECT (SELECT count(*) FROM src)::DOUBLE AS df,
         (SELECT count(*) FROM documents)::DOUBLE AS N
)
SELECT b.doc_id::BIGINT AS doc_id,
       round(b.score + ln(ss.N / (ss.df + 1)) + 1, 6) AS score
FROM bm b JOIN src USING (doc_id) CROSS JOIN srcstats ss
WHERE b.term = '{_T_MID}'""",
        # MultifieldParser "query src7" over fields (text, source) with
        # source fieldboost 2.0: And(Or(text:query, source:query^2),
        # Or(text:src7, source:src7^2)). Neither token appears in the OTHER
        # field's vocabulary, so matches = query-in-text AND source=src7;
        # the single-token source field scores exactly its idf (dl == avg
        # == 1, tf part cancels — same simplification as fielded_and).
        "multifield_parse": f"""WITH {_BASE_CTES},
src AS (SELECT doc_id FROM documents WHERE lower(source) = 'src7'),
srcstats AS (
  SELECT (SELECT count(*) FROM src)::DOUBLE AS df,
         (SELECT count(*) FROM documents)::DOUBLE AS N
)
SELECT b.doc_id::BIGINT AS doc_id,
       round(b.score + 2.0 * (ln(ss.N / (ss.df + 1)) + 1), 6) AS score
FROM bm b JOIN src USING (doc_id) CROSS JOIN srcstats ss
WHERE b.term = '{_T_MID}'
ORDER BY score DESC, doc_id LIMIT 10""",
        # Variations expansion is deterministic (LiteMorph) — the candidate
        # list is embedded as an IN-list; unindexed candidates simply don't
        # match, mirroring the engine's live-term filter.
        "variations_top10": _topk_sql(
            "term IN ({})".format(
                _terms_sql(sorted(set(_morph_variations(_T_COMMON))))
            ),
            10,
        ),
        "sorted_by_nchars": f"""WITH {_BASE_CTES}
SELECT t.doc_id::BIGINT AS doc_id, d.n_chars::BIGINT AS n_chars
FROM (SELECT DISTINCT doc_id FROM tfs WHERE term = '{_T_MID}') t
JOIN documents d ON d.doc_id = t.doc_id
ORDER BY n_chars, doc_id""",
        # multi-term ranges are constant-score; a SINGLE-term expansion
        # scores as a plain Term (reference PatternQuery rule) — same CASE
        # construction as the fuzzy_docs oracle
        "termrange_docs": f"""WITH {_BASE_CTES},
rterms AS (
  SELECT DISTINCT term FROM dfs WHERE term >= 'table' AND term <= 'tables'
),
nmatch AS (SELECT count(*) AS n FROM rterms),
dc AS (SELECT count(*) AS n FROM documents)
SELECT b.doc_id::BIGINT AS doc_id,
       CASE WHEN (SELECT n FROM nmatch) >= 1024
              OR ((SELECT n FROM nmatch) > 2 AND (SELECT n FROM dc) <= 5000)
            THEN 1.0 ELSE round(sum(b.score), 6) END AS score
FROM bm b WHERE b.term IN (SELECT term FROM rterms)
GROUP BY b.doc_id ORDER BY doc_id""",
        "paged_or": f"""WITH {_BASE_CTES}
SELECT doc_id::BIGINT AS doc_id, round(sum(score), 6) AS score
FROM bm WHERE term IN ({_terms_sql([_T_MID, _T_MID2])})
GROUP BY doc_id
ORDER BY score DESC, doc_id LIMIT 7 OFFSET 7""",
        # AndMaybe(query, window) AndNot table: docs must match 'query',
        # must not match 'table'; 'window' adds to the score when present
        "simpleparser_top10": f"""WITH {_BASE_CTES}
SELECT doc_id::BIGINT AS doc_id, round(sum(score), 6) AS score
FROM bm WHERE term IN ({_terms_sql([_T_MID, _T_MID2])})
  AND doc_id IN (SELECT doc_id FROM tfs WHERE term = '{_T_MID}')
  AND doc_id NOT IN (SELECT doc_id FROM tfs WHERE term = '{_T_COMMON}')
GROUP BY doc_id ORDER BY score DESC, doc_id LIMIT 10""",
        # 'jan 5th 2024 to last tuesday' @ basedate 2024-02-01 (a Thursday):
        # floor = 2024-01-05 00:00:00, ceil = tuesday 2024-01-30 23:59:59.999999
        "dateparse_range": """
SELECT event_id::BIGINT AS event_id, epoch_us(ts)::BIGINT AS ts_us
FROM events
WHERE ts >= TIMESTAMP '2024-01-05 00:00:00'
  AND ts <= TIMESTAMP '2024-01-30 23:59:59.999999'
ORDER BY event_id""",
        "window_agg_daily": """
WITH w AS (
  SELECT event_type,
         (epoch_us(ts) // 86400000000) * 86400000000 AS window_start,
         value
  FROM events
)
SELECT event_type, window_start::BIGINT AS window_start,
       count(*)::BIGINT AS n,
       round(sum(value), 6) AS sum_value,
       round(avg(value), 6) AS mean_value,
       round(min(value), 6) AS min_value,
       round(max(value), 6) AS max_value
FROM w GROUP BY event_type, window_start
ORDER BY event_type, window_start""",
        "sessionize": """
WITH o AS (
  SELECT event_id, user_id, epoch_us(ts) AS tus,
         lag(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev
  FROM events
),
marked AS (
  SELECT event_id, user_id, tus,
         CASE WHEN prev IS NULL OR tus - prev > 1800000000 THEN 1 ELSE 0 END AS is_new
  FROM o
),
numbered AS (
  SELECT event_id, user_id, tus,
         sum(is_new) OVER (
           PARTITION BY user_id ORDER BY tus, event_id
           ROWS UNBOUNDED PRECEDING
         ) - 1 AS session_idx
  FROM marked
)
SELECT n.event_id::BIGINT AS event_id, n.user_id::BIGINT AS user_id,
       n.session_idx::BIGINT AS session_idx,
       min(n.tus) OVER (PARTITION BY n.user_id, n.session_idx)::BIGINT AS session_start
FROM numbered n ORDER BY event_id""",
    }
