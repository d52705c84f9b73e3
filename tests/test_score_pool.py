"""Doc-shard scoring pool: per-shard evaluation + merge must be identical to
the local Searcher (the reference MultiReader model — segments searched
independently, results merged by (score desc, doc_id asc))."""

import os

import pytest

from whoosh_novo_ray.search import (
    And,
    AndMaybe,
    AndNot,
    ConstantScore,
    DisMax,
    Every,
    Or,
    Phrase,
    Prefix,
    Require,
    Searcher,
    Sequence,
    Term,
    TermRange,
    Variations,
    WeightingQuery,
    Wildcard,
)
from whoosh_novo_ray.search import query as Q
from whoosh_novo_ray.search.fuzzy import FuzzyTerm
from whoosh_novo_ray.search.scoring import TFIDF
from whoosh_novo_ray.state.score_pool import ScorePool


@pytest.fixture(scope="module")
def spool(ray_session, built_index):
    p = ScorePool(built_index.path, num_actors=2, num_shards=5)
    yield p
    p.shutdown()


# queries the pool must answer exactly as the local Searcher does
PARITY = [
    Term("search"),
    Or(Term("search"), Term("data"), Term("index")),
    And(Term("search"), Term("data")),
    Phrase(["search", "data"]),
    Term("zzzznope"),
    AndNot(Term("search"), Term("data")),
    Require(Term("search"), Term("data")),
    AndMaybe(Term("search"), Term("data")),
    DisMax(Term("search"), Term("data")),
    Or(Term("search"), Term("data"), scale=0.5),
    Every(),
    Prefix("sea"),
    Wildcard("se*ch"),
    TermRange("sea", "sed"),
    FuzzyTerm("serch", maxdist=1, prefixlength=1),
    Variations("searching"),
    Sequence(Term("search"), Term("data")),
    Phrase(["search", "data"], slop=2),
    ConstantScore(Or(Term("search"), Term("data")), score=2.5),
    WeightingQuery(Term("search"), TFIDF()),
    Prefix("s", boost=0.0),
    Wildcard("s*", boost=0.0),
    FuzzyTerm("data", maxdist=2, prefixlength=0, boost=0.0),
    Or(Prefix("s", boost=0.0), Term("data")),
    Prefix("s", boost=2.5),
    Q.Filtered(Term("data"), Prefix("s")),
    Q.Filtered(Or(Term("search"), Term("data")), None, Wildcard("se*")),
    Sequence(Term("search"), Variations("data")),
]
PARITY_IDS = [
    "term",
    "or3",
    "and2",
    "phrase",
    "absent",
    "andnot",
    "require",
    "andmaybe",
    "dismax",
    "or_sqr",
    "every",
    "prefix",
    "wildcard",
    "termrange",
    "fuzzy",
    "variations",
    "sequence",
    "phrase_slop2",
    "constscore",
    "weighting",
    "prefix_boost0",
    "wildcard_boost0",
    "fuzzy_boost0",
    "or_prefix_boost0",
    "prefix_boost2.5",
    "filtered_allow_prefix",
    "filtered_restrict_wildcard",
    "sequence_variations",
]


@pytest.mark.parametrize("q", PARITY, ids=PARITY_IDS)
def test_scorepool_matches_local(spool, built_index, q):
    local = Searcher(built_index).search(q, limit=10).to_pydict()
    remote = spool.search(q, limit=10).to_pydict()
    assert remote == local


# -- pruning before dispatch: only the actors that can match get a query ----


@pytest.fixture(scope="module")
def ppool(ray_session, built_index):
    """4 shards on 2 actors ([0, 2] and [1, 3]): 4 divides 64, so each
    slot lands in one shard and the pool sends a query only to the actors
    whose shards can match it."""
    p = ScorePool(built_index.path, num_actors=2, num_shards=4)
    yield p
    p.shutdown()


@pytest.fixture
def called(monkeypatch):
    """The number of actors each ``_fan_out`` sends to, in call order."""
    import whoosh_novo_ray.state.score_pool as sp

    calls = []
    real = sp._fan_out

    def spy(actors, op, *args, **kwargs):
        calls.append(len(actors))
        return real(actors, op, *args, **kwargs)

    monkeypatch.setattr(sp, "_fan_out", spy)
    return calls


@pytest.fixture(scope="module")
def shards_of(built_index):
    """Each term's serving shard (of 4) per posting, from its decoded
    postings."""
    import numpy as np

    from whoosh_novo_ray.index.build import doc_shard_of

    terms = built_index.iter_term_stats(("term", "df"))["term"].to_pylist()
    return {
        t: doc_shard_of(np.concatenate([r.decode_all()[0] for r in rows]), 4).tolist()
        for t, rows in built_index.term_rows(terms).items()
    }


def _rare(shards_of, shard: int) -> str:
    """A df = 1 term whose doc is in ``shard``."""
    return min(t for t, ks in shards_of.items() if ks == [shard])


def _same(pool, built_index, q, limit=None, **kw) -> dict:
    """The pool's answer, asserted equal to the local Searcher's."""
    local = Searcher(built_index)
    want = local.search(
        q, limit=limit, filter=kw.get("filter"), mask=kw.get("mask")
    ).to_pydict()
    assert pool.search(q, limit=limit, **kw).to_pydict() == want
    return want


@pytest.mark.parametrize("q", PARITY, ids=PARITY_IDS)
def test_pruned_pool_matches_local(ppool, built_index, q):
    local = Searcher(built_index).search(q, limit=10).to_pydict()
    assert ppool.search(q, limit=10).to_pydict() == local


def test_rare_term_calls_one_actor(ppool, built_index, shards_of, called):
    t = _rare(shards_of, 0)
    assert len(_same(ppool, built_index, Term(t))["doc_id"]) == 1
    hits, _stats = ppool.wand_topk([t], 10)
    assert hits["doc_id"].to_pylist() == _same(ppool, built_index, Term(t))["doc_id"]
    assert called == [1, 1, 1]


def test_disjoint_terms_call_no_actor(ppool, built_index, shards_of, called):
    """And, Phrase and Require of terms that share no shard cannot match:
    no actor is called, and every entry point returns the empty merge."""
    import ray

    a, b = _rare(shards_of, 0), _rare(shards_of, 1)
    for q in (And(Term(a), Term(b)), Phrase([a, b]), Require(Term(a), Term(b))):
        assert _same(ppool, built_index, q) == {"doc_id": [], "score": []}
        assert _same(ppool, built_index, q, limit=10, timelimit=60.0)["doc_id"] == []
        assert ray.get(ppool.search_async(q, limit=10)).to_pydict() == {
            "doc_id": [], "score": [],
        }
    hits, stats = ppool.wand_topk(["zzzznope"], 10)
    assert len(hits) == 0 and not stats.get("timed_out")
    assert called == [0] * 10


def test_pruned_queries_stay_exact(ppool, built_index, shards_of, called):
    """Queries whose matches reach beyond their rare terms' shards: the
    rule must keep every actor that can hold a match."""
    from whoosh_novo_ray.search.qparser import QueryParser

    rare = _rare(shards_of, 0)
    tbl = built_index.iter_term_stats(("term", "df")).sort_by([("df", "descending")])
    common = tbl["term"][0].as_py()
    assert set(shards_of[common]) == {0, 1, 2, 3}
    cases = [
        (QueryParser().parse(f"NOT {rare}"), {}),
        (Every(), {}),
        (AndNot(Term(common), Term(rare)), {}),
        (AndMaybe(Term(common), Term(rare)), {}),
        (Or(Term(rare), Term(common)), {}),
        (And(Term(common), Or(Term(rare), Every())), {}),
        (Or(Term(common), Term(rare)), {"filter": Term(rare)}),
        (Term(common), {"mask": Term(rare)}),
        (Q.Filtered(Term(common), None, Term(rare)), {}),
        (Or(Term(common), Term(rare)), {"timelimit": 60.0}),
    ]
    for q, kw in cases:
        assert _same(ppool, built_index, q, **kw)["doc_id"], q
    assert called == [2] * len(cases)


def test_odd_shard_count_calls_every_actor(
    spool, ppool, built_index, shards_of, called
):
    from whoosh_novo_ray.state.score_pool import query_slots

    t = _rare(shards_of, 0)
    _same(spool, built_index, Term(t))  # 5 shards: gcd(5, 64) = 1
    _same(ppool, built_index, Term(t))  # 4 shards
    assert called == [2, 1]
    # nodes outside the rule, empty compounds and fielded terms: every slot
    slots = {t: 1}
    every = (1 << 64) - 1
    assert query_slots(Term(t), slots) == 1
    assert query_slots(Term(t, field="title"), slots) == every
    assert query_slots(Or(), slots) == every
    assert query_slots(And(), slots) == every
    assert query_slots(Sequence(Term(t), Term(t)), slots) == every
    assert query_slots(Q.NullQuery(), slots) == 0


def test_shard_slots_follow_gcd_rule():
    """``shard_slots`` equals a brute force over hashes ``h`` in one period
    of ``n`` and 64, for counts dividing 64, multiples of 64, other even
    counts and odd ones (no Ray session)."""
    import math

    from whoosh_novo_ray.state.score_pool import shard_slots

    for n in (1, 2, 4, 5, 6, 12, 64, 96, 128, 192):
        period = n * 64 // math.gcd(n, 64)
        for k in range(n):
            want = 0
            for h in range(k, period, n):
                want |= 1 << (h % 64)
            assert shard_slots([k], n) == want, (n, k)
    assert shard_slots([1, 3], 5) == (1 << 64) - 1


def test_large_shard_count_prunes():
    """128 shards on 2 actors (even and odd shards, as ``ScorePool``
    assigns them): each slot lands in shards ``s`` and ``s + 64``, both
    with one actor, so a one-slot query calls one actor; 6 shards on 2
    actors split even and odd slots the same way."""
    from whoosh_novo_ray.state.score_pool import shard_slots

    for n in (128, 6):
        actors = [shard_slots(list(range(a, n, 2)), n) for a in (0, 1)]
        for s in range(64):
            assert [bool(m >> s & 1) for m in actors] == [s % 2 == 0, s % 2 == 1]
    # 96 shards (gcd 32) on 4 actors: slot 0 lands in shards 0, 32 and 64,
    # all with actor 0
    actors = [shard_slots(list(range(a, 96, 4)), 96) for a in range(4)]
    assert [bool(m & 1) for m in actors] == [True, False, False, False]


def test_default_shard_count_is_a_power_of_two(monkeypatch):
    """``default_num_shards`` rounds ``max(8, actors, 2 * cpus)`` up to a
    power of two (checked without a Ray session)."""
    import ray

    from whoosh_novo_ray.index.docshard import default_num_shards

    for cpus, actors, want in ((6, 4, 16), (64, 4, 128), (2, 4, 8), (6, 20, 32)):
        monkeypatch.setattr(ray, "cluster_resources", lambda c=cpus: {"CPU": c})
        assert default_num_shards(actors) == want


def test_scorepool_limit_none(spool, built_index):
    q = Or(Term("search"), Term("data"))
    local = Searcher(built_index).search(q, limit=None).to_pydict()
    remote = spool.search(q, limit=None).to_pydict()
    assert remote == local


def test_scorepool_wand_parity(spool, built_index):
    from whoosh_novo_ray.search.wand import searcher_wand_topk

    terms = ["search", "data", "index"]
    local, _ = searcher_wand_topk(Searcher(built_index), terms, 10)
    remote, stats = spool.wand_topk(terms, 10)
    assert remote.to_pydict() == local.to_pydict()
    assert stats["total_blocks"] > 0


def test_serving_build_is_resumable(built_index):
    """Second build with the same generation is a no-op (lineage match)."""
    from whoosh_novo_ray.index.docshard import build_serving_shards

    man1 = build_serving_shards(built_index.path, num_shards=5)
    man2 = build_serving_shards(built_index.path, num_shards=5)
    assert man1["serving_lineage"] == man2["serving_lineage"]
    assert man1["layout"] == "docshard"
    # global stats survive into the serving manifest
    assert man1["doc_count"] == built_index.doc_count
    assert man1["total_field_length"] == built_index.total_field_length


def test_shards_partition_doc_universe(built_index):
    """Every doc appears in exactly one shard's docmeta."""
    import glob

    import numpy as np
    import pyarrow.parquet as pq

    from whoosh_novo_ray.index.docshard import serving_dir_for

    files = sorted(
        glob.glob(os.path.join(serving_dir_for(built_index.path), "docmeta", "*.parquet"))
    )
    ids = np.concatenate(
        [pq.read_table(f, columns=["doc_id"])["doc_id"].to_numpy() for f in files]
    )
    assert len(ids) == built_index.doc_count
    assert len(np.unique(ids)) == len(ids)


def test_scorepool_over_generational_multiindex(ray_session, tmp_path):
    """A MERGE_SMALL generation (several doc-disjoint segment sets) serves
    through the pool with results identical to its MultiIndex searcher."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from whoosh_novo_ray.index import IndexConfig
    from whoosh_novo_ray.index.incremental import GenerationalIndex

    words = ["alpha", "beta", "gamma", "search", "data", "index"]
    gi = GenerationalIndex(
        str(tmp_path / "gi"), IndexConfig(num_buckets=4), policy="merge_small"
    )
    for b in range(3):
        n = 40
        tbl = pa.table(
            {
                "doc_id": pa.array(np.arange(b * n, (b + 1) * n), pa.int64()),
                "text": pa.array(
                    [
                        " ".join(words[(i + j) % len(words)] for j in range(7))
                        for i in range(b * n, (b + 1) * n)
                    ]
                ),
            }
        )
        gi.add_documents(ray.data.from_arrow(tbl), lineage=f"b{b}")
    idx = gi.open()
    pool = ScorePool.for_generational(gi, num_actors=2, num_shards=4)
    try:
        for q in (Term("search"), Or(Term("search"), Term("data")),
                  And(Term("alpha"), Term("beta"))):
            local = Searcher(idx).search(q, limit=10).to_pydict()
            remote = pool.search(q, limit=10).to_pydict()
            assert remote == local, q
    finally:
        pool.shutdown()


def test_generational_pool_serves_shard_without_postings(ray_session, tmp_path):
    """A serving shard whose docs have no postings (its manifest row has no
    segment file) still gets an actor: Every() over a generation answers as
    the local Searcher does, as the one-index pool does."""
    import json

    import numpy as np
    import pyarrow as pa
    import ray.data

    from whoosh_novo_ray.index import IndexConfig
    from whoosh_novo_ray.index.build import doc_shard_of
    from whoosh_novo_ray.index.docshard import serving_dir_for
    from whoosh_novo_ray.index.incremental import GenerationalIndex

    ids = np.arange(15, dtype=np.int64)
    shard = doc_shard_of(ids, 4)
    empty = shard == shard[0]
    assert 0 < empty.sum() < len(ids)
    gi = GenerationalIndex(
        str(tmp_path / "gi"), IndexConfig(num_buckets=2), policy="merge_small"
    )
    gi.add_documents(
        ray.data.from_arrow(pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(["" if e else "alpha beta" for e in empty]),
        })),
        lineage="g",
    )
    want = Searcher(gi.open()).search(Every(), limit=None).to_pydict()
    assert len(want["doc_id"]) == len(ids)
    pool = ScorePool.for_generational(gi, num_actors=2, num_shards=4)
    try:
        (member,) = gi._members(gi.current_path())
        with open(os.path.join(serving_dir_for(member), "manifest.json")) as f:
            rows = json.load(f)["buckets"]
        assert {b["bucket"]: b["path"] for b in rows}[int(shard[0])] == ""
        assert pool.search(Every(), limit=None).to_pydict() == want
    finally:
        pool.shutdown()


def test_scorepool_on_salted_index(ray_session, tmp_path, pages_table):
    """Heavy-term salting splits posting rows across buckets; the serving
    rebuild must reassemble them doc-sharded with identical ranks."""
    import ray.data

    from whoosh_novo_ray.index import Index, IndexConfig, build_index

    out = str(tmp_path / "salted")
    docs = ray.data.from_arrow(pages_table.select(["doc_id", "text"]))
    cfg = IndexConfig(
        num_buckets=4, heavy_terms=("search", "data"), salt_k=4, salt_shift=4
    )
    build_index(docs, out, cfg, lineage="salted")
    idx = Index(out)
    pool = ScorePool(out, num_actors=2, num_shards=4)
    try:
        for q in (
            Term("search"),
            Or(Term("search"), Term("data"), Term("index")),
            Phrase(["search", "data"]),
        ):
            local = Searcher(idx).search(q, limit=10).to_pydict()
            remote = pool.search(q, limit=10).to_pydict()
            assert remote == local, q
    finally:
        pool.shutdown()


def test_scorepool_on_weighted_boosted_index(ray_session, tmp_path):
    """Token-boost weights (word^2 postings) must survive the serving
    re-encode: pooled BM25-on-weights ranks equal the local searcher."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from whoosh_novo_ray.analysis import StandardAnalyzer
    from whoosh_novo_ray.index import Index, IndexConfig, build_index

    rng = np.random.default_rng(11)
    words = ["alpha", "beta", "gamma", "delta", "search"]
    texts = []
    for _ in range(120):
        toks = [
            w + ("^2" if rng.random() < 0.3 else "")
            for w in rng.choice(words, size=9)
        ]
        texts.append(" ".join(toks))
    tbl = pa.table(
        {
            "doc_id": pa.array(np.arange(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    out = str(tmp_path / "weighted")
    cfg = IndexConfig(
        num_buckets=2,
        with_weights=True,
        analyzer=StandardAnalyzer(boost_delim="^"),
    )
    build_index(ray.data.from_arrow(tbl), out, cfg, lineage="w")
    idx = Index(out)
    pool = ScorePool(out, num_actors=2, num_shards=4)
    try:
        for q in (Term("search"), Or(Term("alpha"), Term("beta"))):
            local = Searcher(idx).search(q, limit=10).to_pydict()
            remote = pool.search(q, limit=10).to_pydict()
            assert remote == local, q
    finally:
        pool.shutdown()


@pytest.fixture(scope="module")
def attrs_parquet(pages_table, tmp_path_factory):
    import pyarrow as pa
    import pyarrow.parquet as pq

    p = str(tmp_path_factory.mktemp("attrs") / "attrs.parquet")
    pq.write_table(
        pa.table(
            {
                "doc_id": pages_table["doc_id"],
                "lang": pages_table["lang"],
            }
        ),
        p,
    )
    return p


def test_pool_facet_counts_matches_local(spool, built_index, attrs_parquet):
    from whoosh_novo_ray.search.sorting import FieldFacet, facet_counts

    q = Term("search")
    local = facet_counts(
        Searcher(built_index), q, FieldFacet(attrs_parquet, "lang")
    ).to_pydict()
    pooled = spool.facet_counts(q, attrs_parquet, "lang").to_pydict()
    assert pooled == local
    assert sum(pooled["count"]) > 0


def test_pool_collapse_matches_local(spool, built_index, attrs_parquet):
    from whoosh_novo_ray.search.sorting import FieldFacet, collapse_search

    q = Or(Term("search"), Term("data"))
    local = collapse_search(
        Searcher(built_index), q, FieldFacet(attrs_parquet, "lang"), per_key=2
    ).to_pydict()
    pooled = spool.collapse_search(q, attrs_parquet, "lang", per_key=2).to_pydict()
    assert pooled == local


@pytest.fixture(scope="module")
def attrs2_parquet(pages_table, tmp_path_factory):
    """Attrs with an order column and blank (falsy) collapse keys."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    ids = pages_table["doc_id"].to_pylist()
    langs = pages_table["lang"].to_pylist()
    p = str(tmp_path_factory.mktemp("attrs2") / "attrs2.parquet")
    pq.write_table(
        pa.table(
            {
                "doc_id": pages_table["doc_id"],
                "lang": pa.array(
                    [("" if d % 7 == 0 else l) for d, l in zip(ids, langs)],
                    pa.string(),
                ),
                "n": pa.array(
                    [len(t) for t in pages_table["text"].to_pylist()],
                    pa.int64(),
                ),
            }
        ),
        p,
    )
    return p


def test_pool_collapse_order_matches_local(spool, built_index, attrs2_parquet):
    """order_column selects by LOWEST attribute value; falsy keys are never
    eliminated — pooled result identical to the local collapse_search."""
    from whoosh_novo_ray.search.sorting import FieldFacet, collapse_search

    q = Or(Term("search"), Term("data"))
    for per_key in (1, 2):
        local = collapse_search(
            Searcher(built_index),
            q,
            FieldFacet(attrs2_parquet, "lang"),
            per_key=per_key,
            order_facet=FieldFacet(attrs2_parquet, "n"),
        ).to_pydict()
        pooled = spool.collapse_search(
            q, attrs2_parquet, "lang", per_key=per_key, order_column="n"
        ).to_pydict()
        assert pooled == local
        # blanks survive: more rows than per_key x distinct keys possible
        assert "" in pooled["key"]


def test_pool_collapse_falsy_keys(spool, built_index, attrs2_parquet):
    from whoosh_novo_ray.search.sorting import FieldFacet, collapse_search

    q = Term("search")
    local = collapse_search(
        Searcher(built_index), q, FieldFacet(attrs2_parquet, "lang"), per_key=1
    ).to_pydict()
    pooled = spool.collapse_search(
        q, attrs2_parquet, "lang", per_key=1
    ).to_pydict()
    assert pooled == local
    blanks = [k for k in pooled["key"] if k == ""]
    assert len(blanks) > 1  # every blank-key match kept at per_key=1


def test_pool_collapse_order_deadline(spool, built_index, attrs2_parquet):
    """A generous deadline with an order column returns the full result."""
    q = Or(Term("search"), Term("data"))
    full = spool.collapse_search(
        q, attrs2_parquet, "lang", per_key=2, order_column="n"
    )
    got = spool.collapse_search(
        q, attrs2_parquet, "lang", per_key=2, order_column="n", timelimit=60.0
    )
    assert got.to_pydict() == full.to_pydict()


def test_pool_sorted_search_matches_local(spool, built_index, attrs2_parquet):
    """Distributed SortingCollector: single and multi-key (with per-column
    reverse) pooled sorts identical to the local sorted_search, with and
    without a limit."""
    from whoosh_novo_ray.search.sorting import (
        FieldFacet,
        MultiFacet,
        sorted_search,
    )

    q = Or(Term("search"), Term("data"))
    s = Searcher(built_index)
    # single key
    local = sorted_search(s, q, FieldFacet(attrs2_parquet, "n")).to_pydict()
    pooled = spool.sorted_search(q, attrs2_parquet, "n").to_pydict()
    assert pooled == local
    # multi key with a reversed level + limit (per-shard truncation still
    # yields the exact global top)
    mf = MultiFacet(
        [
            FieldFacet(attrs2_parquet, "lang"),
            FieldFacet(attrs2_parquet, "n", reverse=True),
        ]
    )
    local = sorted_search(s, q, mf, limit=17).to_pydict()
    pooled = spool.sorted_search(
        q, attrs2_parquet, ["lang", "n"], reverses=[False, True], limit=17
    ).to_pydict()
    assert pooled == local


def test_pooled_otherwise_candidates_match_local(
    ppool, built_index, shards_of, attrs2_parquet
):
    """Otherwise(a, b) takes b only when a matches nowhere, which no actor
    can tell from its own shards. With ``a`` in one shard only, pooled facet
    counts, collapse and sorted search of an Otherwise (as the query or as
    a filter) equal their local sorting functions."""
    from whoosh_novo_ray.search import Otherwise
    from whoosh_novo_ray.search.sorting import (
        FieldFacet,
        MultiFacet,
        collapse_search,
        facet_counts,
        sorted_search,
    )

    tbl = built_index.iter_term_stats(("term", "df")).sort_by([("df", "descending")])
    common = tbl["term"][0].as_py()
    q = Otherwise(Term(_rare(shards_of, 0)), Term(common))
    s = Searcher(built_index)
    lang, n = FieldFacet(attrs2_parquet, "lang"), FieldFacet(attrs2_parquet, "n")
    for got, want in (
        (ppool.facet_counts(q, attrs2_parquet, "lang"), facet_counts(s, q, lang)),
        (
            ppool.facet_counts(Term(common), attrs2_parquet, "lang", filter=q),
            facet_counts(s, Term(common), lang, filter=q),
        ),
        (
            ppool.collapse_search(q, attrs2_parquet, "lang", order_column="n"),
            collapse_search(s, q, lang, order_facet=n),
        ),
        (
            ppool.sorted_search(
                q, attrs2_parquet, ["lang", "n"], reverses=[False, True], limit=5
            ),
            sorted_search(
                s, q,
                MultiFacet([lang, FieldFacet(attrs2_parquet, "n", reverse=True)]),
                limit=5,
            ),
        ),
    ):
        assert got.to_pydict() == want.to_pydict()
    assert facet_counts(s, q, lang)["count"].to_pylist() == [1]


def test_pool_forced_wand_strategy_parity(spool, built_index):
    """Forcing the block-max WAND cursor loop per shard still produces the
    exact top-k (skip proofs hold under global stats)."""
    from whoosh_novo_ray.search.wand import searcher_wand_topk

    terms = ["search", "data", "index"]
    local, _ = searcher_wand_topk(
        Searcher(built_index), terms, 10, strategy="wand"
    )
    remote, stats = spool.wand_topk(terms, 10, strategy="wand")
    assert remote.to_pydict() == local.to_pydict()
    assert stats["strategy"] == "wand"


def test_combined_build_equals_decode_path(ray_session, tmp_path, pages_table):
    """build_index_and_serving is build_index + the decode serving build: a
    later ScorePool over its output with the same shard count resume-skips
    the serving rebuild, and scores identically to the local Searcher on a
    salted config."""
    import json

    import ray.data

    from whoosh_novo_ray.index import Index, IndexConfig
    from whoosh_novo_ray.index.docshard import (
        build_index_and_serving,
        serving_dir_for,
    )
    from whoosh_novo_ray.state.score_pool import ScorePool

    tbl = pages_table.select(["doc_id", "text"]).slice(0, 250)
    # salted cfg: heavy terms split over per-doc-range term buckets, which
    # the doc-shard reshard must regroup
    cfg = IndexConfig(num_buckets=3, heavy_terms=("search", "data"), salt_k=2)

    a = str(tmp_path / "combined")
    _man, sman = build_index_and_serving(
        ray.data.from_arrow(tbl), a, cfg, num_shards=5, lineage="combo"
    )
    assert sman["layout"] == "docshard" and sman["num_shards"] == 5
    assert sman["doc_count"] == 250
    man_path = os.path.join(serving_dir_for(a), "manifest.json")
    with open(man_path) as f:
        before = json.load(f)

    pool = ScorePool(a, num_actors=2, num_shards=5)
    try:
        with open(man_path) as f:
            assert json.load(f) == before  # resume-skipped, not rebuilt
        local = Searcher(Index(a))
        for q in [Term("search"), Or(Term("data"), Term("index"))]:
            assert (
                pool.search(q, limit=10).to_pydict()
                == local.search(q, limit=10).to_pydict()
            )
    finally:
        pool.shutdown()


def test_search_async_matches_sync(spool, built_index):
    """search_async (shard fan-out + task-side merge) returns the same table
    as the blocking path, including for many queries in flight at once."""
    import ray

    qs = [
        Term("search"),
        Or(Term("search"), Term("data")),
        Phrase(["search", "data"]),
        Or(Term("search"), Term("data"), scale=0.5),
    ]
    sync = [spool.search(q, limit=10).to_pydict() for q in qs]
    refs = [spool.search_async(q, limit=10) for q in qs * 5]  # 20 in flight
    for i, t in enumerate(ray.get(refs)):
        assert t.to_pydict() == sync[i % len(qs)]


def test_search_many_async_matches_sync(spool, built_index):
    """Micro-batched serving path parity, including a local-fallback query
    spliced back into its batch position."""
    import ray

    qs = [
        Term("search"),
        Or(Term("search"), Term("data")),
        Phrase(["search", "data"]),
        Every(),
        Or(Term("search"), Term("data"), scale=0.9),
    ]
    sync = [spool.search(q, limit=10).to_pydict() for q in qs]
    got = [t.to_pydict() for t in ray.get(spool.search_many_async(qs, limit=10))]
    assert got == sync


def test_replicated_pool_parity(spool, built_index):
    """Replica groups: every query routes to ONE replica (round-robin), so
    running more queries than replicas exercises all groups — results must
    be identical to the single-replica pool and the local searcher."""
    import ray

    rp = ScorePool(
        built_index.path, num_actors=2, num_shards=5, num_replicas=3
    )
    try:
        assert len(rp._replicas) == 3 and all(len(g) == 2 for g in rp._replicas)
        local = Searcher(built_index)
        qs = [
            Term("search"),
            Or(Term("search"), Term("data"), Term("index")),
            Phrase(["search", "data"]),
            And(Term("search"), Term("data")),
            Prefix("sea"),
            Or(Term("search"), Term("data"), scale=0.5),
            Term("zzzznope"),
        ]
        # sync path round-robins across all 3 replicas
        for q in qs:
            assert rp.search(q, limit=10).to_pydict() == local.search(
                q, limit=10
            ).to_pydict()
        # micro-batch splits ACROSS replicas (cost-balanced) and scatters
        # results back to their slots;
        # include a fallback (Every is shard-safe, use Otherwise via parser-
        # free construction below is global — use the existing fallback) —
        # the splice must compose with the interleave
        sync = [rp.search(q, limit=10).to_pydict() for q in qs]
        got = [
            t.to_pydict() for t in ray.get(rp.search_many_async(qs, limit=10))
        ]
        assert got == sync
        # batch smaller than the replica count
        small = qs[:2]
        got2 = [
            t.to_pydict()
            for t in ray.get(rp.search_many_async(small, limit=10))
        ]
        assert got2 == sync[:2]
        # wand + facet-free single-query APIs still route
        from whoosh_novo_ray.search.wand import searcher_wand_topk

        lw, _ = searcher_wand_topk(local, ["search", "data", "index"], 10)
        for _ in range(3):
            rw, _st = rp.wand_topk(["search", "data", "index"], 10)
            assert rw.to_pydict() == lw.to_pydict()
    finally:
        rp.shutdown()


def test_replicated_many_async_with_fallback(spool, built_index):
    """A local-fallback query inside a replicated micro-batch keeps its
    slot (splice over interleave)."""
    import ray

    from whoosh_novo_ray.search import Otherwise

    rp = ScorePool(
        built_index.path, num_actors=2, num_shards=5, num_replicas=2
    )
    try:
        qs = [
            Term("search"),
            Otherwise(Term("zzzznope"), Term("data")),
            Or(Term("search"), Term("data")),
            Phrase(["search", "data"]),
            And(Term("search"), Term("index")),
        ]
        sync = [rp.search(q, limit=10).to_pydict() for q in qs]
        got = [
            t.to_pydict() for t in ray.get(rp.search_many_async(qs, limit=10))
        ]
        assert got == sync
    finally:
        rp.shutdown()


def test_lazy_pinning_excludes_positional_blobs(spool, built_index):
    """Actors pin only scoring columns: pinned bytes must be well under the
    full segment file footprint (which includes pos blobs), and positional
    queries still work (lazy per-term fetch, cached)."""
    import glob

    import ray

    from whoosh_novo_ray.index.docshard import serving_dir_for

    pinned = sum(ray.get([a.pinned_bytes.remote() for a in spool._replicas[0]]))
    seg_bytes = sum(
        os.path.getsize(f)
        for f in glob.glob(
            os.path.join(serving_dir_for(built_index.path), "segments", "*.parquet")
        )
    )
    assert pinned > 0
    # parquet files are zstd-compressed; pinned tables are uncompressed
    # scoring columns only. The invariant that matters: dropping the
    # positional blobs keeps pinned RAM below the COMPRESSED full footprint
    # of a positions-enabled segment set would be too strong on tiny corpora,
    # so assert the lazy path instead: a phrase query populates the
    # positional cache from disk and matches the local searcher.
    local = Searcher(built_index).search(Phrase(["search", "data"]), limit=10)
    remote = spool.search(Phrase(["search", "data"]), limit=10)
    assert remote.to_pydict() == local.to_pydict()
    assert seg_bytes > 0


def test_deadline_large_budget_is_exact(spool, built_index):
    """The budgeted per-table evaluation + merge must equal the normal
    pooled search (scores depend only on shipped global stats; shards
    partition the doc space)."""
    local = Searcher(built_index)
    for q in [
        Term("search"),
        Or(Term("search"), Term("data"), Term("index")),
        And(Term("search"), Term("data")),
        Phrase(["search", "data"]),
        Prefix("sea"),
        Or(Term("search"), Term("data"), scale=0.5),
        Every(),
        Term("zzzznope"),
    ]:
        got = spool.search(q, limit=10, timelimit=60.0)
        assert got.to_pydict() == local.search(q, limit=10).to_pydict()


def test_deadline_zero_budget_times_out(spool):
    from whoosh_novo_ray.search.wand import TimeLimit

    with pytest.raises(TimeLimit) as ei:
        spool.search(Term("search"), limit=10, timelimit=0.0)
    assert len(ei.value.partial) == 0


def test_deadline_partial_results(spool, built_index):
    """A mid-budget expiry returns the exact merge of the tables that DID
    finish: every returned (doc, score) appears in the full result set.
    _delay_per_table pins the crossing to a deterministic table boundary
    (actor 0 pins 3 of the 5 shard tables, actor 1 pins 2: budget 1.5 with
    1.0s/table lets every actor finish 2 tables, so actor 0 times out)."""
    from whoosh_novo_ray.search.wand import TimeLimit

    q = Or(Term("search"), Term("data"), Term("index"))
    full = Searcher(built_index).search(q, limit=None)
    fmap = dict(zip(full["doc_id"].to_pylist(), full["score"].to_pylist()))
    with pytest.raises(TimeLimit) as ei:
        spool.search(q, limit=None, timelimit=1.5, _delay_per_table=1.0)
    part = ei.value.partial
    assert 0 < len(part) < len(full)
    for d, s in zip(part["doc_id"].to_pylist(), part["score"].to_pylist()):
        assert fmap[d] == pytest.approx(s, rel=1e-12)


def test_wand_deadline(spool):
    from whoosh_novo_ray.search.wand import TimeLimit

    # generous budget: full exact result, no exception
    t, stats = spool.wand_topk(["search", "data", "index"], 10, timelimit=60.0)
    t2, _ = spool.wand_topk(["search", "data", "index"], 10)
    assert t.to_pydict() == t2.to_pydict()
    assert not stats.get("timed_out")
    # instant expiry: TimeLimit with (possibly empty) partials
    with pytest.raises(TimeLimit):
        spool.wand_topk(["search", "data", "index"], 10, timelimit=1e-9)


def test_actor_crash_recovery(built_index):
    """ScoreServer is a pure read over the on-disk serving layout, so a
    killed actor restarts, re-pins its shards, and in-flight tasks retry —
    results stay identical (fleet-scale workers WILL die)."""
    import ray

    rp = ScorePool(built_index.path, num_actors=2, num_shards=5)
    try:
        q = Or(Term("search"), Term("data"), Term("index"))
        before = rp.search(q, limit=10).to_pydict()
        # simulate a worker crash (restartable kill, NOT the shutdown path)
        ray.kill(rp._replicas[0][0], no_restart=False)
        after = rp.search(q, limit=10).to_pydict()
        assert after == before
        # and again mid-micro-batch
        ray.kill(rp._replicas[0][1], no_restart=False)
        got = [
            t.to_pydict()
            for t in ray.get(rp.search_many_async([q, Term("search")], limit=10))
        ]
        assert got[0] == before
    finally:
        rp.shutdown()


def test_elastic_replicas(built_index):
    """Scale-out/in under load: add_replica starts serving immediately,
    remove_replica drains before killing, parity holds throughout."""
    import ray

    rp = ScorePool(built_index.path, num_actors=2, num_shards=5)
    try:
        local = Searcher(built_index)
        q = Or(Term("search"), Term("data"), Term("index"))
        want = local.search(q, limit=10).to_pydict()
        assert rp.search(q, limit=10).to_pydict() == want
        assert rp.add_replica() == 2
        assert rp.add_replica() == 3
        # route enough queries to hit every replica
        for _ in range(6):
            assert rp.search(q, limit=10).to_pydict() == want
        got = [
            t.to_pydict()
            for t in ray.get(rp.search_many_async([q, Term("search"), q], limit=10))
        ]
        assert got[0] == want and got[2] == want
        # scale back in with queries still flowing
        refs = [rp.search_async(q, limit=10) for _ in range(6)]
        assert rp.remove_replica() == 2
        assert rp.remove_replica() == 1
        for r in ray.get(refs):
            assert r.to_pydict() == want
        with pytest.raises(ValueError):
            rp.remove_replica()
        assert rp.search(q, limit=10).to_pydict() == want
    finally:
        rp.shutdown()


def test_many_async_deadline_large_budget(spool, built_index):
    """Micro-batched deadline path with a generous budget: every entry is
    (exact table, False), including a local-fallback query (which evaluates
    driver-side in one shot and never times out)."""
    import ray

    from whoosh_novo_ray.search import Otherwise

    qs = [
        Term("search"),
        Or(Term("search"), Term("data"), Term("index")),
        Phrase(["search", "data"]),
        Otherwise(Term("zzzznope"), Term("data")),
    ]
    sync = [spool.search(q, limit=10).to_pydict() for q in qs]
    got = ray.get(spool.search_many_async(qs, limit=10, timelimit=60.0))
    assert [t.to_pydict() for t, _to in got] == sync
    assert [to for _t, to in got] == [False] * len(qs)


def test_many_async_deadline_partial(spool, built_index):
    """Each batch entry gets its OWN budget (the reference arms a
    TimeLimitCollector per search): with 1.0 s/table and a 1.5 s budget the
    3-table actor times out on EVERY query, and each partial is the exact
    merge of the tables that finished (subset of the full result, scores
    identical)."""
    import ray

    q = Or(Term("search"), Term("data"), Term("index"))
    full = Searcher(built_index).search(q, limit=None)
    fmap = dict(zip(full["doc_id"].to_pylist(), full["score"].to_pylist()))
    got = ray.get(
        spool.search_many_async(
            [q, Term("zzzznope")], limit=None, timelimit=1.5, _delay_per_table=1.0
        )
    )
    (p1, to1), (p2, to2) = got
    assert to1 and to2
    assert 0 < len(p1) < len(full)
    for d, s in zip(p1["doc_id"].to_pylist(), p1["score"].to_pylist()):
        assert fmap[d] == pytest.approx(s, rel=1e-12)
    assert len(p2) == 0


def test_many_async_deadline_replicated(built_index):
    """The deadline micro-batch composes with replica-split dispatch (the
    batch task merges each chunk into its slots, the flags become
    (table, timed_out) pairs)."""
    import ray

    rp = ScorePool(built_index.path, num_actors=2, num_shards=5, num_replicas=2)
    try:
        qs = [
            Term("search"),
            Or(Term("search"), Term("data")),
            Phrase(["search", "data"]),
            And(Term("search"), Term("index")),
        ]
        sync = [rp.search(q, limit=10).to_pydict() for q in qs]
        got = ray.get(rp.search_many_async(qs, limit=10, timelimit=60.0))
        assert [t.to_pydict() for t, _to in got] == sync
        assert not any(to for _t, to in got)
    finally:
        rp.shutdown()


def test_facet_deadline(spool, built_index, attrs_parquet):
    """Facet counting under a deadline: generous budget is exact; a
    mid-budget expiry raises TimeLimit whose partial counts are per-key
    lower bounds of the full counts (exact over the covered tables)."""
    from whoosh_novo_ray.search.wand import TimeLimit

    q = Term("search")
    full = spool.facet_counts(q, attrs_parquet, "lang")
    got = spool.facet_counts(q, attrs_parquet, "lang", timelimit=60.0)
    assert got.to_pydict() == full.to_pydict()
    with pytest.raises(TimeLimit) as ei:
        spool.facet_counts(
            q, attrs_parquet, "lang", timelimit=1.5, _delay_per_table=1.0
        )
    part = ei.value.partial
    fmap = dict(zip(full["key"].to_pylist(), full["count"].to_pylist()))
    assert 0 < sum(part["count"].to_pylist()) < sum(full["count"].to_pylist())
    for k, c in zip(part["key"].to_pylist(), part["count"].to_pylist()):
        assert c <= fmap[k]


def test_collapse_deadline(spool, built_index, attrs_parquet):
    """Collapse under a deadline: generous budget is exact; a mid-budget
    expiry's partial is a valid collapse over the covered tables (per-key
    cardinality respected, scores from the true result set)."""
    from whoosh_novo_ray.search.wand import TimeLimit

    q = Or(Term("search"), Term("data"))
    full = spool.collapse_search(q, attrs_parquet, "lang", per_key=2)
    got = spool.collapse_search(
        q, attrs_parquet, "lang", per_key=2, timelimit=60.0
    )
    assert got.to_pydict() == full.to_pydict()
    fulldocs = Searcher(built_index).search(q, limit=None)
    fmap = dict(
        zip(fulldocs["doc_id"].to_pylist(), fulldocs["score"].to_pylist())
    )
    with pytest.raises(TimeLimit) as ei:
        spool.collapse_search(
            q, attrs_parquet, "lang", per_key=2,
            timelimit=1.5, _delay_per_table=1.0,
        )
    part = ei.value.partial
    keys = part["key"].to_pylist()
    assert 0 < len(part)
    assert all(keys.count(k) <= 2 for k in set(keys))
    for d, s in zip(part["doc_id"].to_pylist(), part["score"].to_pylist()):
        assert fmap[d] == pytest.approx(s, rel=1e-12)


# -- the shared budget loop, in-process ---------------------------------------

BUDGETED_OPS = ["score", "score_many", "facet_counts", "collapse_candidates"]


@pytest.fixture(scope="module")
def server(spool):
    """One in-process ScoreServer pinning every shard (5 tables)."""
    from whoosh_novo_ray.state.score_pool import ScoreServer

    shards = sorted(k for ks in spool._assignments for k in ks)
    return ScoreServer.__ray_actor_class__(spool._serving_dirs, shards)


def _budgeted_op(spool, server, attrs_parquet, op):
    """``op`` as a callable taking the budget kwargs; returns a table list."""
    q = Or(Term("search"), Term("data"), Term("index"))
    g = spool._plan(q).gstats
    attrs = spool._attrs_dir_for(attrs_parquet, "lang")
    return {
        "score": lambda **kw: [server.score(q, 10, g, **kw)],
        "score_many": lambda **kw: server.score_many(
            [q, Term("zzzznope")], 10, g, **kw
        ),
        "facet_counts": lambda **kw: [
            server.facet_counts(q, g, attrs, "lang", **kw)
        ],
        "collapse_candidates": lambda **kw: [
            server.collapse_candidates(q, g, attrs, "lang", 2, **kw)
        ],
    }[op]


@pytest.mark.parametrize("op", BUDGETED_OPS)
def test_budget_loop_large_budget_equals_unbudgeted(
    spool, server, attrs_parquet, op
):
    """Walking the pinned tables under a generous clock gives the same
    table as the one whole-actor search, and neither is flagged."""
    from whoosh_novo_ray.state.score_pool import timed_out

    assert len(server._pinned) == 5
    run = _budgeted_op(spool, server, attrs_parquet, op)
    plain, budgeted = run(), run(timelimit=60.0)
    assert len(plain[0]) > 0
    for p, b in zip(plain, budgeted, strict=True):
        assert b.equals(p), op
        assert not timed_out(p) and not timed_out(b)


@pytest.mark.parametrize("op", BUDGETED_OPS)
def test_budget_loop_zero_budget_is_flagged_empty(
    spool, server, attrs_parquet, op
):
    from whoosh_novo_ray.state.score_pool import timed_out

    out = _budgeted_op(spool, server, attrs_parquet, op)(timelimit=0.0)
    assert out and all(timed_out(t) and len(t) == 0 for t in out)


def test_merge_keeps_flag_of_empty_timed_out_part():
    """_merge_topk drops empty parts, but an actor that timed out before
    scoring anything still makes the merge a timed-out one."""
    import pyarrow as pa

    from whoosh_novo_ray.state.score_pool import _flag, _merge_topk, timed_out

    full = pa.table(
        {
            "doc_id": pa.array([3, 1], pa.uint64()),
            "score": pa.array([2.0, 1.0], pa.float64()),
        }
    )
    empty = _flag(full.slice(0, 0), True)
    merged = _merge_topk([full, empty], 10)
    assert timed_out(merged)
    assert merged["doc_id"].to_pylist() == [3, 1]
    assert timed_out(_merge_topk([empty], 10))
    assert not timed_out(_merge_topk([full, full.slice(0, 0)], 10))


# -- the transport: one pickled request in, raw top-k arrays out ---------------

TRANSPORT_OPS = [
    "score", "score_many", "wand", "facet_counts", "collapse_candidates",
    "sorted_candidates",
]


def _hits_table(blob):
    """A raw top-k reply decoded back into a (flagged) result table."""
    import pyarrow as pa

    from whoosh_novo_ray.state.score_pool import _flag, _unpack_hits

    ids, scores, flag = _unpack_hits(blob)
    return _flag(pa.table({"doc_id": ids, "score": scores}), flag)


def _transport_case(spool, server, attrs_parquet, attrs2_parquet, op):
    """(args, kwargs, decode) for ``op``: decode turns the entry point's
    reply into the shape the method itself returns."""
    q = Or(Term("search"), Term("data"), Term("index"))
    g = spool._plan(q).gstats
    attrs = spool._attrs_dir_for(attrs_parquet, "lang")
    same = lambda r: r  # noqa: E731
    return {
        "score": ((q, 10, g), _hits_table),
        "score_many": (
            ([q, Term("zzzznope")], 10, g),
            lambda rs: [_hits_table(b) for b in rs],
        ),
        "wand": (
            (["search", "data", "index"], 10, g),
            lambda r: (_hits_table(r[0]), r[1]),
        ),
        "facet_counts": ((q, g, attrs, "lang"), same),
        "collapse_candidates": ((q, g, attrs, "lang", 2), same),
        "sorted_candidates": (
            (q, g, [spool._attrs_dir_for(attrs2_parquet, "n")], ["n"], [False], 7),
            same,
        ),
    }[op]


def _tables(result):
    """The result tables inside one operation's result."""
    if isinstance(result, list):
        return result
    if isinstance(result, tuple):  # wand: (table, stats)
        return [result[0]]
    return [result]


@pytest.mark.parametrize(
    "op,timelimit",
    [
        (op, tl)
        for op in TRANSPORT_OPS
        for tl in (None, 60.0, 0.0)
        # sorted_candidates takes no time budget
        if op != "sorted_candidates" or tl is None
    ],
)
def test_entry_point_reply_equals_method(
    spool, server, attrs_parquet, attrs2_parquet, op, timelimit
):
    """Decoding ``ScoreServer.call``'s reply gives what calling the method
    directly returns: unbudgeted, under a generous budget, and out of time
    (flagged and empty)."""
    from whoosh_novo_ray.state.score_pool import _pack_request, timed_out

    args, decode = _transport_case(spool, server, attrs_parquet, attrs2_parquet, op)
    kw = {} if timelimit is None else {"timelimit": timelimit}
    direct = getattr(server, op)(*args, **kw)
    request, refs = _pack_request(op, *args, **kw)
    assert refs == []
    got = decode(server.call(request))
    for d, t in zip(_tables(direct), _tables(got), strict=True):
        assert t.equals(d), op
        assert timed_out(t) == timed_out(d)
    if op == "wand":
        assert got[1] == direct[1]
    if timelimit == 0.0:
        out = _tables(got)
        assert out and all(len(t) == 0 for t in out)
        if op == "wand":
            assert got[1]["timed_out"]
        else:
            assert all(timed_out(t) for t in out)
    else:
        assert any(len(t) for t in _tables(got))
        assert not any(timed_out(t) for t in _tables(got))


def test_pool_search_packs_request_once(spool, monkeypatch):
    """A pooled search pickles its request once, whatever its fan-out."""
    from whoosh_novo_ray.state import score_pool

    calls = []
    pack = score_pool._pack_request

    def counting(*args, **kwargs):
        calls.append(args[0])
        return pack(*args, **kwargs)

    monkeypatch.setattr(score_pool, "_pack_request", counting)
    assert len(spool._replicas[0]) == 2
    assert len(spool.search(Term("search"), limit=10)) > 0
    assert calls == ["score"]


def test_large_allow_set_rides_object_store(spool, built_index, monkeypatch):
    """An allow set over 64 KiB is put in the object store once and passed
    as a top-level call argument (not pickled in the request); results
    match the local Searcher."""
    import ray

    from whoosh_novo_ray.state import score_pool

    ids = built_index.all_doc_ids()
    allow = set(ids[::2].tolist()) | set(range(10**12, 10**12 + 9000))
    assert len(allow) * 8 > 65536
    refs_sent = []
    pack = score_pool._pack_request

    def recording(*args, **kwargs):
        request, refs = pack(*args, **kwargs)
        refs_sent.append((len(request), refs))
        return request, refs

    monkeypatch.setattr(score_pool, "_pack_request", recording)
    q = Or(Term("search"), Term("data"))
    for kw in ({"filter": allow}, {"mask": allow}):
        local = Searcher(built_index).search(q, limit=None, **kw)
        pooled = spool.search(q, limit=None, **kw)
        assert pooled.to_pydict() == local.to_pydict(), kw
    assert len(local) > 0
    assert len(refs_sent) == 2
    for size, refs in refs_sent:
        assert len(refs) == 1 and isinstance(refs[0], ray.ObjectRef)
        assert size < 65536


def test_async_paths_resolve_to_tables(spool, built_index):
    """search_async resolves to a table and search_many_async(timelimit=)
    to (table, timed_out) pairs — on a 2-actor pool and on a 1-actor one,
    whose single reply still needs decoding."""
    import pyarrow as pa
    import ray

    qs = [Term("search"), Or(Term("search"), Term("data")), Term("zzzznope")]
    one = ScorePool(built_index.path, num_actors=1, num_shards=5)
    try:
        for pool in (spool, one):
            sync = [pool.search(q, limit=10) for q in qs]
            got = ray.get([pool.search_async(q, limit=10) for q in qs])
            assert all(isinstance(t, pa.Table) for t in got)
            assert [t.to_pydict() for t in got] == [t.to_pydict() for t in sync]
            pairs = ray.get(pool.search_many_async(qs, limit=10, timelimit=60.0))
            assert [to for _t, to in pairs] == [False] * len(qs)
            assert all(isinstance(t, pa.Table) for t, _to in pairs)
            assert [t.to_pydict() for t, _to in pairs] == [
                t.to_pydict() for t in sync
            ]
            plain = ray.get(pool.search_many_async(qs, limit=10))
            assert [t.to_pydict() for t in plain] == [t.to_pydict() for t in sync]
    finally:
        one.shutdown()


def test_incremental_serving_reuses_member_shards(ray_session, tmp_path):
    """A delta commit must re-encode ONLY the new member's serving set:
    unchanged members' serving manifests (and files) stay byte-identical,
    and the new pool's results equal the local MultiIndex searcher."""
    import json

    import numpy as np
    import pyarrow as pa
    import ray.data

    from whoosh_novo_ray.index import IndexConfig
    from whoosh_novo_ray.index.incremental import GenerationalIndex

    words = ["alpha", "beta", "gamma", "search", "data", "index"]

    def corpus(lo, hi):
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(np.arange(lo, hi), pa.int64()),
                    "text": pa.array(
                        [
                            " ".join(words[(i + j) % len(words)] for j in range(7))
                            for i in range(lo, hi)
                        ]
                    ),
                }
            )
        )

    gi = GenerationalIndex(
        str(tmp_path / "gi_incr"), IndexConfig(num_buckets=4), policy="no_merge"
    )
    gi.add_documents(corpus(0, 120), lineage="base")

    pool1 = ScorePool.for_generational(gi, num_actors=2, num_shards=4)
    pool1.search(Term("search"), limit=5)
    pool1.shutdown()

    members1 = gi._members(gi.current_path())
    assert len(members1) == 1
    base_serving = os.path.join(members1[0], "serving")
    man_path = os.path.join(base_serving, "manifest.json")
    with open(man_path) as f:
        lineage_before = json.load(f)["serving_lineage"]
    mtimes_before = {
        f: os.path.getmtime(os.path.join(base_serving, f))
        for f in os.listdir(base_serving)
        if f.endswith(".parquet")
    }

    # 1-doc delta commit
    gi.add_documents(corpus(120, 121), lineage="delta1")
    members2 = gi._members(gi.current_path())
    assert len(members2) == 2 and members1[0] in members2

    pool2 = ScorePool.for_generational(gi, num_actors=2, num_shards=4)
    try:
        # the base member's serving set was NOT rebuilt
        with open(man_path) as f:
            assert json.load(f)["serving_lineage"] == lineage_before
        mtimes_after = {
            f: os.path.getmtime(os.path.join(base_serving, f))
            for f in os.listdir(base_serving)
            if f.endswith(".parquet")
        }
        assert mtimes_after == mtimes_before
        # the delta member got its own serving set
        delta_m = next(m for m in members2 if m != members1[0])
        assert os.path.exists(os.path.join(delta_m, "serving", "manifest.json"))
        # pooled results identical to the local searcher, new doc included
        idx = gi.open()
        for q in (
            Term("search"),
            Or(Term("search"), Term("data")),
            And(Term("alpha"), Term("beta")),
            Every(),
        ):
            local = Searcher(idx).search(q, limit=15).to_pydict()
            remote = pool2.search(q, limit=15).to_pydict()
            assert remote == local, q
        assert 120 in pool2.search(Every(), limit=None)["doc_id"].to_pylist()
        # the deadline path merges per-TABLE (two members share shards):
        # full budget must equal the plain path exactly
        t = pool2.search(Or(Term("search"), Term("data")), limit=10,
                         timelimit=30.0)
        assert t.to_pydict() == pool2.search(
            Or(Term("search"), Term("data")), limit=10
        ).to_pydict()
    finally:
        pool2.shutdown()


def test_incremental_serving_delete_rewrites_only_affected(ray_session, tmp_path):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from whoosh_novo_ray.index import IndexConfig
    from whoosh_novo_ray.index.incremental import GenerationalIndex

    gi = GenerationalIndex(
        str(tmp_path / "gi_del"), IndexConfig(num_buckets=2), policy="no_merge"
    )
    for b in range(2):
        tbl = pa.table(
            {
                "doc_id": pa.array(np.arange(b * 50, (b + 1) * 50), pa.int64()),
                "text": pa.array(["search data alpha"] * 50),
            }
        )
        gi.add_documents(ray.data.from_arrow(tbl), lineage=f"b{b}")
    members = gi._members(gi.current_path())
    # delete a doc living in member 1 only
    gi.delete_documents(np.array([75], np.uint64), lineage="del75")
    members2 = gi._members(gi.current_path())
    untouched = [m for m in members2 if m in members]
    assert untouched, "the unaffected member must be reused as-is"
    pool = ScorePool.for_generational(gi, num_actors=2, num_shards=4)
    try:
        ids = pool.search(Every(), limit=None)["doc_id"].to_pylist()
        assert 75 not in ids and len(ids) == 99
        local = Searcher(gi.open()).search(Term("search"), limit=10).to_pydict()
        assert pool.search(Term("search"), limit=10).to_pydict() == local
    finally:
        pool.shutdown()
