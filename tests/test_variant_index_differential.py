"""Full-stack differential for the indexable analyzer variants on a RANDOM
corpus (not the closed testdata vocab): build an index with
StandardAnalyzer(shingle=2) / (reverse_text=True), query it, and compare
every returned (doc_id, score) against DuckDB running the same semantics in
SQL — the biword_bm25_top10 / reversed_suffix_docs oracle shapes."""

import random
import shutil

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _corpus(tmp_path, vocab, n_docs, seed, max_len=40):
    rng = random.Random(seed)
    docs = [
        " ".join(rng.choice(vocab) for _ in range(rng.randint(0, max_len)))
        for _ in range(n_docs)
    ]
    p = str(tmp_path / "docs.parquet")
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(n_docs), pa.int64()),
                "text": pa.array(docs),
            }
        ),
        p,
    )
    return p


def _build(path, out, analyzer):
    import ray.data

    from whoosh_novo_ray.index import Index, IndexConfig, build_index
    from whoosh_novo_ray.search import Searcher

    shutil.rmtree(out, ignore_errors=True)
    build_index(
        ray.data.read_parquet(path, override_num_blocks=4),
        out,
        IndexConfig(num_buckets=4, analyzer=analyzer),
        lineage="variant-diff",
    )
    return Searcher(Index(out))


def _base_cte(path):
    from whoosh_novo_ray.pipelines.registry import _RX_SQL, _SCORE_CTES, _STOPLIST_SQL

    return _RX_SQL, _STOPLIST_SQL, _SCORE_CTES


@pytest.mark.parametrize("seed", [907, 908])
def test_biword_index_matches_sql(ray_session, tmp_path, seed):
    from whoosh_novo_ray.analysis import StandardAnalyzer
    from whoosh_novo_ray.pipelines.registry import _RX_SQL, _SCORE_CTES, _STOPLIST_SQL
    from whoosh_novo_ray.search import Or, Term

    rng = random.Random(seed)
    vocab = (
        ["the", "a", "is", "of", "to"]
        + [("w%02d" % i) for i in range(40)]
        + ["x", "yy", "alpha", "beta", "data", "query", "table"]
    )
    path = _corpus(tmp_path, vocab, 800, seed)
    s = _build(path, str(tmp_path / "idx"), StandardAnalyzer(shingle=2))

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{path}')"
    )
    cte = f"""
tokarr AS (SELECT doc_id, regexp_extract_all(lower(text), '{_RX_SQL}') AS arr FROM documents),
tok AS (SELECT doc_id, unnest(arr) AS term, unnest(range(len(arr))) AS ord FROM tokarr),
kept AS (SELECT doc_id, term, ord FROM tok
         WHERE length(term) >= 2 AND term NOT IN ({_STOPLIST_SQL})),
seq AS (SELECT doc_id, term,
               row_number() OVER (PARTITION BY doc_id ORDER BY ord) - 1 AS r
        FROM kept),
filt AS (SELECT a.doc_id, a.term || '-' || b.term AS term, a.r AS ord
         FROM seq a JOIN seq b ON b.doc_id = a.doc_id AND b.r = a.r + 1
         UNION ALL  -- a one-token stream shingles to that token
         SELECT doc_id, any_value(term), 0 FROM seq GROUP BY doc_id HAVING count(*) = 1),
{_SCORE_CTES}"""

    for _ in range(12):
        t1, t2 = rng.choice(vocab).lower(), rng.choice(vocab).lower()
        if t1 == t2:
            # Or(Term(q), Term(q)) faithfully scores the duplicate child
            # twice (reference union-matcher semantics) while SQL IN dedups —
            # not the shape under test here
            continue
        q1, q2 = f"{t1}-{t2}", f"{t2}-{t1}"
        got = s.search(Or(Term(q1), Term(q2)), limit=10**9)
        gd = {
            int(d): round(float(x), 6)
            for d, x in zip(got["doc_id"].to_pylist(), got["score"].to_pylist())
        }
        want = con.execute(
            f"""WITH {cte}
SELECT doc_id, round(sum(score), 6) AS score FROM bm
WHERE term IN ('{q1}', '{q2}') GROUP BY doc_id"""
        ).fetchall()
        assert gd == {int(d): round(float(x), 6) for d, x in want}, (q1, q2)


def test_reversed_index_suffix_search_matches_sql(ray_session, tmp_path):
    from whoosh_novo_ray.analysis import StandardAnalyzer
    from whoosh_novo_ray.pipelines.registry import _RX_SQL, _SCORE_CTES, _STOPLIST_SQL
    from whoosh_novo_ray.search import Prefix

    vocab = [
        ("suf%02d" % i) + tail
        for i in range(15)
        for tail in ("dow", "ing", "tion", "x")
    ] + ["window", "meadow", "shadow", "creation"]
    path = _corpus(tmp_path, vocab, 600, 31337)
    s = _build(
        path, str(tmp_path / "idxr"), StandardAnalyzer(reverse_text=True)
    )

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{path}')"
    )
    cte = f"""
tokarr AS (SELECT doc_id, regexp_extract_all(lower(text), '{_RX_SQL}') AS arr FROM documents),
tok AS (SELECT doc_id, unnest(arr) AS term, unnest(range(len(arr))) AS ord FROM tokarr),
kept AS (SELECT doc_id, term, ord FROM tok
         WHERE length(term) >= 2 AND term NOT IN ({_STOPLIST_SQL})),
filt AS (SELECT doc_id, reverse(term) AS term, ord FROM kept),
{_SCORE_CTES}"""

    # mixes single-term expansions (exact BM25) and multi-term expansions
    # that trip the AUTO constant-score rule on this small corpus
    for suffix in ["dow", "ing", "tion", "x", "ion", "w"]:
        rq = suffix[::-1]
        got = s.search(Prefix(rq), limit=10**9)
        gd = {
            int(d): round(float(x), 6)
            for d, x in zip(got["doc_id"].to_pylist(), got["score"].to_pylist())
        }
        want = con.execute(
            f"""WITH {cte},
pterms AS (SELECT DISTINCT term FROM dfs WHERE term LIKE '{rq}%'),
nmatch AS (SELECT count(*) AS n FROM pterms),
dc AS (SELECT count(*) AS n FROM documents)
SELECT b.doc_id, CASE WHEN (SELECT n FROM nmatch) >= 1024
       OR ((SELECT n FROM nmatch) > 2 AND (SELECT n FROM dc) <= 5000)
     THEN 1.0 ELSE round(sum(b.score), 6) END AS score
FROM bm b WHERE b.term IN (SELECT term FROM pterms) GROUP BY b.doc_id"""
        ).fetchall()
        assert gd == {int(d): round(float(x), 6) for d, x in want}, suffix
