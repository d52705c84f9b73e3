"""Open-once term-block index (index/segment.py ``_TermBlocks``).

Every lookup is checked against a brute-force oracle: the whole segment
file read with ``pq.read_table`` and filtered in Python. The index spans
several 4k row groups per bucket and salts a heavy term across buckets, so
lookups cross row-group and bucket boundaries. A no-scan contract then
patches ``pq.read_table`` to raise: cold term, prefix and phrase lookups
must still answer, through ``Index`` and through an in-process
``ScoreServer``."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from whoosh_novo_ray.search import query as Q

N_DOCS = 3000
WORDS_PER_DOC = 4  # distinct words: 12k, so > 4096 terms per bucket
HEAVY = "hotterm"


def _word(n: int) -> str:
    return f"t{n:05d}"


@pytest.fixture(scope="module")
def blocks_env(ray_session, tmp_path_factory):
    import ray.data

    from whoosh_novo_ray.index import Index, IndexConfig, build_index
    from whoosh_novo_ray.index.docshard import build_serving_shards, serving_dir_for

    texts = [
        " ".join(_word(d * WORDS_PER_DOC + j) for j in range(WORDS_PER_DOC))
        + f" {HEAVY} alpha"
        for d in range(N_DOCS)
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array(np.arange(N_DOCS), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    out = str(tmp_path_factory.mktemp("blocks") / "idx")
    build_index(
        ray.data.from_arrow(tbl).repartition(4),
        out,
        IndexConfig(num_buckets=2, heavy_terms=(HEAVY,), salt_k=4, salt_shift=4),
        lineage="blocks",
    )
    build_serving_shards(out, num_shards=2)
    return out, serving_dir_for(out)


def _segment_files(path: str) -> list[str]:
    from whoosh_novo_ray.index import Index

    idx = Index(path)
    return [os.path.join(path, b["path"]) for b in idx.manifest["buckets"] if b["path"]]


def _brute(path: str) -> pa.Table:
    """Every segment row of the index, whole-file reads."""
    return pa.concat_tables(
        [
            pq.read_table(f, columns=["term", "df", "weight", "max_weight", "ids_blob"])
            for f in _segment_files(path)
        ]
    )


def test_index_spans_row_groups_and_salts(blocks_env):
    path, _ = blocks_env
    for f in _segment_files(path):
        assert pq.ParquetFile(f).metadata.num_row_groups >= 2
    terms = _brute(path)["term"].to_pylist()
    assert terms.count(HEAVY) >= 2, "the heavy term must be salted over buckets"


def test_term_stats_and_rows_match_brute_force(blocks_env):
    from whoosh_novo_ray.index import Index

    path, _ = blocks_env
    brute = _brute(path).to_pylist()
    rng = np.random.default_rng(7)
    probe = [_word(int(n)) for n in rng.choice(N_DOCS * WORDS_PER_DOC, 60, replace=False)]
    # row-group edges of every bucket, the heavy term, and misses
    for f in _segment_files(path):
        pf = pq.ParquetFile(f)
        for g in range(pf.metadata.num_row_groups):
            col = pf.read_row_group(g, columns=["term"])["term"]
            probe += [col[0].as_py(), col[-1].as_py()]
    probe += [HEAVY, "alpha", "t99999", "", "zzz"]

    idx = Index(path)
    stats = idx.term_stats_many(probe)
    rows = idx.term_rows(probe)
    for t in probe:
        want = [r for r in brute if r["term"] == t]
        assert stats[t] == (
            sum(r["df"] for r in want),
            sum(r["weight"] for r in want),
            max((r["max_weight"] for r in want), default=0.0),
        ), t
        assert sorted(bytes(r.ids_blob) for r in rows[t]) == sorted(
            r["ids_blob"] for r in want
        ), t
    assert stats[HEAVY][0] == N_DOCS


@pytest.mark.parametrize(
    "q",
    [
        Q.Prefix("t012"),
        Q.Prefix("t0"),
        Q.Wildcard("t01?3*"),
        Q.TermRange("t01000", "t01500"),
        Q.TermRange("t01000", "t01500", startexcl=True, endexcl=True),
        Q.TermRange(None, "t00100"),
        Q.TermRange("t11000", None),
    ],
    ids=repr,
)
def test_expand_matches_brute_force(blocks_env, q):
    import re

    from whoosh_novo_ray.index import Index
    from whoosh_novo_ray.search import Searcher

    path, _ = blocks_env
    lex = sorted(set(_brute(path)["term"].to_pylist()))
    if isinstance(q, Q.Prefix):
        want = [t for t in lex if t.startswith(q.text)]
    elif isinstance(q, Q.Wildcard):
        rx = re.compile(q.regex())
        want = [t for t in lex if rx.match(t)]
    else:
        want = [
            t
            for t in lex
            if (q.start is None or (t > q.start if q.startexcl else t >= q.start))
            and (q.end is None or (t < q.end if q.endexcl else t <= q.end))
        ]
    assert want
    assert Searcher(Index(path)).expand(q) == want


def test_duplicate_rows_across_row_group_boundary(tmp_path):
    """A term repeated over a row-group boundary yields every row."""
    from whoosh_novo_ray.index.segment import _LRUCache, _TermBlocks

    terms = ["a", "b", "c", "c", "c", "d", "e", "e", "f"]
    f = str(tmp_path / "dup.parquet")
    pq.write_table(
        pa.table({"term": terms, "df": list(range(len(terms)))}), f, row_group_size=2
    )
    tb = _TermBlocks(f, _LRUCache(2))
    for t in ["a", "c", "e", "f", "bb", "0", "g"]:
        got = [
            int(tb.offsets[g]) + r
            for g, i, j in tb.find(t)
            for r in range(i, j)
        ]
        assert got == [k for k, x in enumerate(terms) if x == t], t
    assert len(tb._cache) <= 2


@pytest.fixture(scope="module")
def sparse_index(ray_session, tmp_path_factory):
    """More buckets than terms: some buckets hold only document metadata
    and have no segment file."""
    import ray.data

    from whoosh_novo_ray.index import Index, IndexConfig, build_index

    tbl = pa.table(
        {
            "doc_id": pa.array(np.arange(40), pa.int64()),
            "text": pa.array(["apple", "apricot", "banana", "cherry"] * 10),
        }
    )
    out = str(tmp_path_factory.mktemp("sparse") / "idx")
    build_index(ray.data.from_arrow(tbl), out, IndexConfig(num_buckets=16), lineage="sp")
    idx = Index(out)
    assert any(not b["path"] for b in idx.manifest["buckets"])
    return idx


@pytest.mark.parametrize(
    "which,text,pre",
    [
        ("blocks", "t01234", "t012"),  # a prefix inside the dictionary
        ("blocks", "zzz", "zz"),  # a prefix past every bucket's last term
        ("blocks", "t01234", ""),  # no prefix: every bucket is scanned
        ("sparse", "apple", "ap"),  # buckets without a segment file
    ],
)
def test_fuzzy_and_expand_share_stat_meanings(
    blocks_env, sparse_index, which, text, pre
):
    """The FuzzyTerm automaton scan and Index.expand_terms count the same
    buckets and row groups for the same prefix range; the automaton may
    only read fewer."""
    from whoosh_novo_ray.index import Index
    from whoosh_novo_ray.search.fuzzy import edit_distance, terms_within

    idx = Index(blocks_env[0]) if which == "blocks" else sparse_index
    lo, hi = (pre, pre + "\U0010ffff") if pre else (None, None)
    lex = idx.expand_terms(lambda c: pc.starts_with(c, pattern=pre), lo=lo, hi=hi)
    exp = dict(idx.last_expand_stats)
    got = terms_within(idx, text, maxdist=1, prefix=len(pre))
    fz = idx.last_expand_stats
    assert set(fz) == set(exp)
    for k in ("buckets_total", "buckets_scanned", "row_groups_total"):
        assert fz[k] == exp[k], k
    assert fz["row_groups_read"] <= exp["row_groups_read"]
    assert fz["rows_read"] <= exp["rows_read"]
    assert exp["buckets_total"] == sum(1 for b in idx.manifest["buckets"] if b["path"])
    want = [(t, edit_distance(text, t, 1)) for t in lex]
    assert got == [(t, d) for t, d in want if d is not None]


def _no_read_table(*_a, **_k):
    raise AssertionError("pq.read_table called on the lookup path")


def test_no_scan_contract(blocks_env, monkeypatch):
    from whoosh_novo_ray.index import Index
    from whoosh_novo_ray.search import Searcher
    from whoosh_novo_ray.state.score_pool import ScoreServer

    path, serving = blocks_env
    phrase = Q.Phrase([_word(41), _word(42)])
    heavy_phrase = Q.Phrase([HEAVY, "alpha"])
    term = Q.Term(_word(777))
    prefix = Q.Prefix("t0123")
    local = Searcher(Index(path))
    want_expand = local.expand(prefix)
    # what the pool's driver rewrites the prefix into
    expanded = Q.Or(*[Q.Term(t) for t in want_expand])
    want = {
        q: local.search(q, limit=10).to_pydict()
        for q in (phrase, heavy_phrase, term, prefix, expanded)
    }
    stats_terms = [_word(41), _word(42), _word(777), HEAVY, "alpha"] + want_expand
    want_stats = Index(path).term_stats_many(stats_terms)
    srv = ScoreServer.__ray_actor_class__(serving, [0, 1])

    monkeypatch.setattr(pq, "read_table", _no_read_table)
    idx = Index(path)  # cold: nothing opened or cached yet
    s = Searcher(idx)
    assert s.expand(prefix) == want_expand
    assert idx.term_stats_many(stats_terms) == want_stats
    for q in (phrase, heavy_phrase, term, prefix):
        assert s.search(q, limit=10).to_pydict() == want[q], q

    # pooled: the actor scores with the shipped global stats
    for q in (phrase, heavy_phrase, term, expanded):
        got = srv.score(q, 10, want_stats).to_pydict()
        assert got["doc_id"] == want[q]["doc_id"], q
        np.testing.assert_allclose(got["score"], want[q]["score"], rtol=1e-12)
    assert srv.cache_sizes()["block_cache"] > 0


def test_phrase_soak_keeps_block_cache_capped(blocks_env, monkeypatch):
    """500 distinct cold phrases: lazy positional row groups come and go,
    the actor's block cache never exceeds its cap, and phrases stay
    correct. The cap is lowered below the shard files' row-group count so
    eviction happens."""
    from whoosh_novo_ray.index import Index
    from whoosh_novo_ray.search import Searcher
    from whoosh_novo_ray.state import score_pool

    path, serving = blocks_env
    cap = 2
    monkeypatch.setattr(score_pool, "BLOCK_CACHE_ROW_GROUPS", cap)
    srv = score_pool.ScoreServer.__ray_actor_class__(serving, [0, 1])
    n_groups = sum(tb.n_groups for tb in srv._blocks)
    assert n_groups > cap
    idx = Index(path)
    local = Searcher(idx)
    rng = np.random.default_rng(11)
    docs = rng.choice(N_DOCS, 500, replace=False)
    peak = 0
    for k, d in enumerate(docs):
        w = [_word(int(d) * WORDS_PER_DOC + j) for j in (1, 2)]
        q = Q.Phrase(w)
        got = srv.score(q, 5, idx.term_stats_many(w))
        peak = max(peak, srv.cache_sizes()["block_cache"])
        assert got["doc_id"].to_pylist() == [int(d)]
        if k % 50 == 0:
            assert got.to_pydict() == local.search(q, limit=5).to_pydict()
    assert peak == cap
    sizes = srv.cache_sizes()
    assert sizes["block_cache"] <= cap
    assert set(sizes) >= {"term_cache", "attr_cache", "block_cache"}
